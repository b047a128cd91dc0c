//! The three workloads served through `TonemapService`, with their
//! set-up, output checks and count reconciliation.
//!
//! Each job's completion time is taken when that job is seen to finish:
//! closed-loop clients hold one job (or one stream's in-order frames) at a
//! time, so a blocking wait observes exactly that job; the open loop's
//! collector waits on the job most likely to finish next and sweeps the
//! rest, so a job that overtakes another is not timed as late as it.
//! Outputs are fingerprinted as they arrive and checked against direct
//! execution after the measured window.

use crate::host::peak_rss_mb;
use crate::inputs::{
    StillJob, StillsInputs, StreamInputs, ThumbInputs, VideoInputs, STILLS_CLIENTS, STILLS_MIX,
    STILLS_SIZE, THUMBS_DEADLINE, VIDEO_IN_FLIGHT,
};
use crate::trace::{Tracer, ROOT};
use hdr_image::LuminanceImage;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, TryRecvError};
use std::time::{Duration, Instant};
use tonemap_backend::{BackendRegistry, TonemapError, TonemapPayload};
use tonemap_service::{
    FramePoolStats, FrameSequenceRequest, JobHandle, JobRequest, Priority, ServiceConfig,
    ServiceError, ServiceStats, TonemapService, VideoStreamHandle,
};
use tonemap_video::VideoSession;

/// Worker threads of every served workload: the host has two vCPUs.
pub const WORKERS: usize = 2;

/// How long the open-loop collector blocks on one job before sweeping
/// the others: the worst-case error of a completion time it observes.
const COLLECT_POLL: Duration = Duration::from_micros(200);

/// A delay before the window opens, so every load thread starts on time.
const START_DELAY: Duration = Duration::from_millis(20);

/// Completions a closed loop collects before it stops, even past its
/// window (up to [`MAX_STRETCH`] windows): a p90 needs ten samples beyond
/// it, so a slow host stretches the run instead of failing it.
const MIN_COMPLETIONS: u64 = 120;
const MAX_STRETCH: u32 = 4;

/// Whether a closed-loop client should submit again.
fn keep_going(t0: Instant, window: Duration, completed: &AtomicU64) -> bool {
    let elapsed = t0.elapsed();
    elapsed < window
        || (completed.load(Ordering::Relaxed) < MIN_COMPLETIONS && elapsed < window * MAX_STRETCH)
}

/// 64-bit fingerprint of an output's raw bits (and its dimensions), and
/// whether every sample was finite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub hash: u64,
    pub finite: bool,
}

struct Hasher {
    lanes: [u64; 4],
    count: usize,
    finite: bool,
}

impl Hasher {
    fn new(width: usize, height: usize) -> Self {
        Hasher {
            lanes: [width as u64, height as u64, 0x9E37_79B9, 0x7F4A_7C15],
            count: 0,
            finite: true,
        }
    }

    #[inline]
    fn word(&mut self, word: u32) {
        let lane = &mut self.lanes[self.count & 3];
        *lane = (*lane ^ u64::from(word)).wrapping_mul(0x0000_0100_0000_01B3);
        self.count += 1;
    }

    #[inline]
    fn sample(&mut self, value: f32) {
        self.finite &= value.is_finite();
        self.word(value.to_bits());
    }

    fn finish(self) -> Fingerprint {
        let hash = self
            .lanes
            .iter()
            .fold(0xCBF2_9CE4_8422_2325u64, |acc, &lane| {
                (acc ^ lane)
                    .wrapping_mul(0x0000_0100_0000_01B3)
                    .rotate_left(29)
            });
        Fingerprint {
            hash,
            finite: self.finite,
        }
    }
}

pub fn fingerprint(payload: &TonemapPayload) -> Fingerprint {
    let (w, h) = payload.dimensions();
    let mut hasher = Hasher::new(w, h);
    match payload {
        TonemapPayload::Luminance(image) => image.pixels().iter().for_each(|&v| hasher.sample(v)),
        TonemapPayload::Rgb(image) => image.pixels().iter().for_each(|p| {
            hasher.sample(p.r);
            hasher.sample(p.g);
            hasher.sample(p.b);
        }),
        TonemapPayload::LuminanceLdr(image) => {
            image.pixels().iter().for_each(|&v| hasher.word(v.into()))
        }
        TonemapPayload::RgbLdr(image) => image
            .pixels()
            .iter()
            .for_each(|p| hasher.word(u32::from_le_bytes([p.r, p.g, p.b, 0]))),
    }
    hasher.finish()
}

pub fn fingerprint_image(image: &LuminanceImage) -> Fingerprint {
    let (w, h) = image.dimensions();
    let mut hasher = Hasher::new(w, h);
    image.pixels().iter().for_each(|&v| hasher.sample(v));
    hasher.finish()
}

/// Everything one served window produced.
#[derive(Debug, Default)]
pub struct Served {
    pub attempted: u64,
    pub completed: u64,
    /// Jobs that executed and failed, expired or were lost.
    pub failed: u64,
    /// Jobs refused at the door (shed or queue full).
    pub refused: u64,
    /// Completed outputs that differ from direct execution.
    pub mismatched: u64,
    /// Completed outputs with a non-finite sample.
    pub non_finite: u64,
    pub latency_ms: Vec<f64>,
    pub interactive_ms: Vec<f64>,
    /// How late the open-loop generator submitted each job.
    pub sender_lag_ms: Vec<f64>,
    pub pixels: u64,
    /// From the window's start to the last completion.
    pub elapsed_s: f64,
    /// Failed output checks and count reconciliations, in words.
    pub problems: Vec<String>,
    /// The service's counters once the window drained.
    pub stats: Option<ServiceStats>,
    pub frame_pool: Option<FramePoolStats>,
    /// Peak resident set when the window drained, before output checks.
    pub peak_rss_mb: Option<f64>,
}

impl Served {
    fn absorb(&mut self, other: Served) {
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.failed += other.failed;
        self.refused += other.refused;
        self.mismatched += other.mismatched;
        self.non_finite += other.non_finite;
        self.latency_ms.extend(other.latency_ms);
        self.interactive_ms.extend(other.interactive_ms);
        self.sender_lag_ms.extend(other.sender_lag_ms);
        self.pixels += other.pixels;
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        self.problems.extend(other.problems);
    }

    fn complete(&mut self, latency: Duration, priority: Priority, pixels: u64) {
        let ms = latency.as_secs_f64() * 1e3;
        self.completed += 1;
        self.latency_ms.push(ms);
        if priority == Priority::Interactive {
            self.interactive_ms.push(ms);
        }
        self.pixels += pixels;
    }

    /// Failed, refused and mismatched jobs over attempted ones.
    pub fn failed_ratio(&self) -> f64 {
        self.bad() as f64 / self.attempted.max(1) as f64
    }

    /// Every job that did not deliver a correct output.
    pub fn bad(&self) -> u64 {
        self.failed + self.refused + self.mismatched + self.non_finite
    }

    /// Checks `attempted = completed + failed + refused` and that the
    /// service's own counters tell the same story. Frames of video
    /// streams are counted apart from jobs, so `frames` says which
    /// counters the window used; `warm_frames` were served in set-up.
    fn reconcile(&mut self, stats: &ServiceStats, frames: bool, warm_frames: u64) {
        let mut problems = Vec::new();
        let mut check = |ok: bool, what: String| {
            if !ok {
                problems.push(format!("counts do not reconcile: {what}"));
            }
        };
        check(
            self.attempted == self.completed + self.failed + self.refused,
            format!(
                "attempted {} != completed {} + failed {} + refused {}",
                self.attempted, self.completed, self.failed, self.refused
            ),
        );
        let service_failed = stats.failed + stats.expired + stats.lost;
        if frames {
            check(
                stats.frames_completed == self.completed + warm_frames,
                format!(
                    "service completed {} frames, the streams saw {} + {warm_frames} set-up",
                    stats.frames_completed, self.completed
                ),
            );
            check(
                stats.submitted == 0 && stats.completed == 0 && service_failed == 0,
                format!("frames leaked into the job counters: {stats:?}"),
            );
        } else {
            check(
                stats.submitted == self.attempted - self.refused,
                format!(
                    "service admitted {}, clients attempted {} with {} refused",
                    stats.submitted, self.attempted, self.refused
                ),
            );
            check(
                stats.completed == self.completed,
                format!(
                    "service completed {}, clients saw {}",
                    stats.completed, self.completed
                ),
            );
            check(
                service_failed == self.failed,
                format!(
                    "service failed+expired+lost {service_failed}, clients saw {}",
                    self.failed
                ),
            );
            check(
                stats.shed + stats.rejected == self.refused,
                format!(
                    "service shed {} + rejected {}, clients saw {} refused",
                    stats.shed, stats.rejected, self.refused
                ),
            );
        }
        self.problems.extend(problems);
    }

    /// Records the output checks of `outputs` against `expected`, which
    /// computes (once per key) the fingerprint of a direct execution.
    fn verify<K: Ord + Copy>(
        &mut self,
        outputs: &[(K, Fingerprint)],
        mut expected: impl FnMut(K) -> Result<Fingerprint, String>,
    ) {
        let mut memo: BTreeMap<K, Fingerprint> = BTreeMap::new();
        for &(key, served) in outputs {
            self.non_finite += u64::from(!served.finite);
            let want = match memo.get(&key) {
                Some(&want) => want,
                None => match expected(key) {
                    Ok(want) => *memo.entry(key).or_insert(want),
                    Err(error) => {
                        self.problems.push(error);
                        self.mismatched += 1;
                        continue;
                    }
                },
            };
            self.mismatched += u64::from(served.hash != want.hash);
        }
        if self.mismatched > 0 {
            self.problems.push(format!(
                "{} outputs differ from direct execution",
                self.mismatched
            ));
        }
        if self.non_finite > 0 {
            self.problems.push(format!(
                "{} outputs hold non-finite pixels",
                self.non_finite
            ));
        }
    }
}

fn new_service(queue_capacity: usize) -> TonemapService {
    TonemapService::new(
        BackendRegistry::standard(),
        ServiceConfig::with_workers(WORKERS).queue_capacity(queue_capacity),
    )
}

/// Direct execution of a job's request through `registry`.
fn direct(registry: &BackendRegistry, job: &JobRequest) -> Result<Fingerprint, String> {
    let spec = job
        .backend_spec()
        .unwrap_or(BackendRegistry::DEFAULT_BACKEND);
    registry
        .execute(&job.to_request().on_backend(spec))
        .map(|response| fingerprint(response.payload()))
        .map_err(|e: TonemapError| format!("direct execution of `{spec}` failed: {e}"))
}

/// First resolution of every request shape, through the service's own
/// registry so the caches the workers share are the ones filled: each
/// spec is resolved (parse, plan compile, engine memo), and a
/// `schedule=` spec also executes once per size, since the scheduler
/// prices a size on its first request.
fn warm(
    service: &TonemapService,
    jobs: impl IntoIterator<Item = JobRequest>,
) -> Result<(), String> {
    jobs.into_iter().try_for_each(|job| {
        let spec = job
            .backend_spec()
            .unwrap_or(BackendRegistry::DEFAULT_BACKEND);
        let resolved = service
            .registry()
            .resolve_spec(spec)
            .map_err(|e| format!("resolving `{spec}` failed: {e}"))?;
        match resolved.backend().schedule_description() {
            Some(_) => direct(service.registry(), &job).map(drop),
            None => Ok(()),
        }
    })
}

fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// Drains the service and records its counters. A traced run also times
/// `stats()` snapshots of the finished service.
fn close(
    service: &TonemapService,
    served: &mut Served,
    tracer: &mut Tracer,
    frames: bool,
    warm_frames: u64,
) {
    if tracer.enabled() {
        for _ in 0..20 {
            tracer.time("service.stats", 0, || service.stats());
        }
    }
    service.shutdown();
    let stats = service.stats();
    served.peak_rss_mb = peak_rss_mb();
    served.frame_pool = Some(service.frame_pool_stats());
    served.reconcile(&stats, frames, warm_frames);
    served.stats = Some(stats);
}

// ---------------------------------------------------------------- stills

pub fn setup_stills(inputs: &StillsInputs) -> Result<TonemapService, String> {
    let service = new_service(4 * WORKERS);
    warm(
        &service,
        (0..STILLS_MIX.len()).map(|template| inputs.request(StillJob { template, frame: 0 })),
    )?;
    Ok(service)
}

const STILL_PIXELS: u64 = (STILLS_SIZE.0 * STILLS_SIZE.1) as u64;

/// What one stills client hands back: its counts, outputs and spans.
type ClientRun = (Served, Vec<(StillJob, Fingerprint)>, Tracer);

/// Two closed-loop clients with one job outstanding each, for `window`.
pub fn serve_stills(
    service: &TonemapService,
    inputs: &StillsInputs,
    window: Duration,
    tracer: &mut Tracer,
) -> Served {
    let t0 = Instant::now() + START_DELAY;
    let completed = AtomicU64::new(0);
    let completed = &completed;
    let clients: Vec<ClientRun> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..STILLS_CLIENTS)
            .map(|client| {
                let mut tracer = tracer.sibling();
                scope.spawn(move || {
                    let priority = Priority::Interactive;
                    let mut served = Served::default();
                    let mut outputs = Vec::new();
                    let mut last = t0;
                    sleep_until(t0);
                    for &job in inputs.clients[client].iter().cycle() {
                        if !keep_going(t0, window, completed) {
                            break;
                        }
                        served.attempted += 1;
                        let start = Instant::now();
                        let handle = service.submit(inputs.request(job).with_priority(priority));
                        let submitted = Instant::now();
                        let Ok(handle) = handle else {
                            served.refused += 1;
                            continue;
                        };
                        let id = handle.id();
                        match handle.wait() {
                            Ok(response) => {
                                last = Instant::now();
                                let span = tracer.record("job", id, start, last, ROOT);
                                tracer.record("service.submit", id, start, submitted, span);
                                served.complete(last - start, priority, STILL_PIXELS);
                                completed.fetch_add(1, Ordering::Relaxed);
                                outputs.push((job, fingerprint(response.payload())));
                            }
                            Err(_) => served.failed += 1,
                        }
                    }
                    served.elapsed_s = (last - t0).as_secs_f64();
                    (served, outputs, tracer)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("stills client panicked"))
            .collect()
    });
    let mut served = Served::default();
    let mut outputs = Vec::new();
    for (client, client_outputs, client_tracer) in clients {
        served.absorb(client);
        outputs.extend(client_outputs);
        tracer.absorb(client_tracer);
    }
    close(service, &mut served, tracer, false, 0);
    let reference = BackendRegistry::standard();
    served.verify(&outputs, |job| direct(&reference, &inputs.request(job)));
    served
}

// ---------------------------------------------------------------- thumbs

pub fn setup_thumbs(inputs: &ThumbInputs) -> Result<TonemapService, String> {
    let service = new_service(256);
    warm(
        &service,
        inputs.warm_set().iter().map(|job| inputs.request(job)),
    )?;
    Ok(service)
}

struct Submitted {
    job: usize,
    due: Instant,
    start: Instant,
    end: Instant,
    handle: Result<JobHandle, ServiceError>,
}

/// The open loop: one generator submitting on the seeded Poisson schedule
/// and one collector timing completions from each job's due time.
pub fn serve_thumbs(service: &TonemapService, inputs: &ThumbInputs, tracer: &mut Tracer) -> Served {
    let t0 = Instant::now() + START_DELAY;
    let (tx, rx) = mpsc::channel::<Submitted>();
    let collector_tracer = tracer.sibling();
    let (mut served, outputs, collected) = std::thread::scope(|scope| {
        scope.spawn(move || {
            for (index, job) in inputs.jobs.iter().enumerate() {
                let due = t0 + Duration::from_secs_f64(job.due_s);
                sleep_until(due);
                let mut request = inputs.request(job).with_priority(job.priority);
                if job.deadline {
                    request = request.with_deadline(THUMBS_DEADLINE);
                }
                let start = Instant::now();
                let handle = service.submit(request);
                let submitted = Submitted {
                    job: index,
                    due,
                    start,
                    end: Instant::now(),
                    handle,
                };
                if tx.send(submitted).is_err() {
                    break;
                }
            }
        });
        scope
            .spawn(move || collect_thumbs(service, inputs, rx, t0, collector_tracer))
            .join()
            .expect("thumbs collector panicked")
    });
    tracer.absorb(collected);
    close(service, &mut served, tracer, false, 0);
    let stats = served.stats.as_ref().expect("closed above");
    let (shed, expired) = (stats.shed, stats.expired);
    if shed + expired > 0 {
        served.problems.push(format!(
            "generous deadlines were shed ({shed}) or expired ({expired})"
        ));
    }
    let reference = BackendRegistry::standard();
    served.verify(&outputs, |key| {
        let job = inputs
            .jobs
            .iter()
            .find(|job| job.key() == key)
            .expect("every output key comes from a planned job");
        direct(&reference, &inputs.request(job))
    });
    served
}

type ThumbKey = (crate::inputs::InputKind, &'static str, usize, usize);

fn collect_thumbs(
    service: &TonemapService,
    inputs: &ThumbInputs,
    rx: mpsc::Receiver<Submitted>,
    t0: Instant,
    mut tracer: Tracer,
) -> (Served, Vec<(ThumbKey, Fingerprint)>, Tracer) {
    let mut served = Served::default();
    let mut outputs = Vec::new();
    let mut outstanding: Vec<(Submitted, JobHandle)> = Vec::new();
    let mut last = t0;
    let mut open = true;
    let mut finish = |meta: Submitted,
                      outcome: Result<tonemap_backend::TonemapResponse, ServiceError>,
                      served: &mut Served,
                      tracer: &mut Tracer| {
        let now = Instant::now();
        let job = &inputs.jobs[meta.job];
        match outcome {
            Ok(response) => {
                last = last.max(now);
                let span = tracer.record("job", meta.job as u64, meta.due, now, ROOT);
                tracer.record(
                    "load.sender_lag",
                    meta.job as u64,
                    meta.due,
                    meta.start,
                    span,
                );
                tracer.record(
                    "service.submit",
                    meta.job as u64,
                    meta.start,
                    meta.end,
                    span,
                );
                served.complete(now - meta.due, job.priority, inputs.pixels(job));
                outputs.push((job.key(), fingerprint(response.payload())));
                service.recycle(response);
            }
            Err(_) => served.failed += 1,
        }
    };
    loop {
        if outstanding.is_empty() {
            if !open {
                break;
            }
            match rx.recv() {
                Ok(submitted) => admit(submitted, &mut served, &mut outstanding),
                Err(_) => open = false,
            }
        }
        while open {
            match rx.try_recv() {
                Ok(submitted) => admit(submitted, &mut served, &mut outstanding),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => open = false,
            }
        }
        if outstanding.is_empty() {
            continue;
        }
        // Interactive jobs overtake batch ones, so the oldest interactive
        // job is the likeliest to finish next.
        let next = outstanding
            .iter()
            .position(|(meta, _)| inputs.jobs[meta.job].priority == Priority::Interactive)
            .unwrap_or(0);
        let (meta, handle) = outstanding.remove(next);
        match handle.wait_timeout(COLLECT_POLL) {
            Ok(outcome) => finish(meta, outcome, &mut served, &mut tracer),
            Err(handle) => outstanding.insert(next, (meta, handle)),
        }
        let mut i = 0;
        while i < outstanding.len() {
            let (meta, handle) = outstanding.remove(i);
            match handle.wait_timeout(Duration::ZERO) {
                Ok(outcome) => finish(meta, outcome, &mut served, &mut tracer),
                Err(handle) => {
                    outstanding.insert(i, (meta, handle));
                    i += 1;
                }
            }
        }
    }
    served.elapsed_s = (last - t0).as_secs_f64();
    (served, outputs, tracer)
}

fn admit(
    mut submitted: Submitted,
    served: &mut Served,
    outstanding: &mut Vec<(Submitted, JobHandle)>,
) {
    served.attempted += 1;
    served
        .sender_lag_ms
        .push((submitted.start - submitted.due).as_secs_f64() * 1e3);
    let handle = std::mem::replace(&mut submitted.handle, Err(ServiceError::ShutDown));
    match handle {
        Ok(handle) => outstanding.push((submitted, handle)),
        Err(_) => served.refused += 1,
    }
}

// ----------------------------------------------------------------- video

/// An open stream on the service, with the fingerprints of the frames it
/// has served so far (by frame index).
pub struct OpenStream<'s> {
    handle: VideoStreamHandle<'s>,
    inputs: &'s StreamInputs,
    served: Vec<Fingerprint>,
}

/// Set-up of the video workload on a fresh service: open both streams
/// and serve each one's first frame, which resolves its spec at the
/// stream's size (plan compile and schedule pricing).
pub fn open_video<'s>(
    service: &'s TonemapService,
    inputs: &'s VideoInputs,
) -> Result<Vec<OpenStream<'s>>, String> {
    inputs
        .streams
        .iter()
        .map(|stream| {
            let request =
                FrameSequenceRequest::on_backend(stream.spec).with_priority(stream.priority);
            let mut handle = service
                .open_stream(request)
                .map_err(|e| format!("opening `{}` failed: {e}", stream.spec))?;
            let outcome = handle
                .submit_frame(stream.frame(0))
                .and_then(|frame| frame.wait())
                .map_err(|e| format!("first frame of `{}` failed: {e}", stream.spec))?;
            let served = vec![fingerprint_image(&outcome.output)];
            handle.recycle(outcome.output);
            Ok(OpenStream {
                handle,
                inputs: stream,
                served,
            })
        })
        .collect()
}

pub fn video_service() -> TonemapService {
    new_service(4 * WORKERS)
}

/// Each stream on its own load thread with up to two frames in flight.
/// A stream's frames complete in order, so waiting on the oldest one
/// observes each completion as it happens.
pub fn serve_video(
    service: &TonemapService,
    streams: Vec<OpenStream<'_>>,
    window: Duration,
    tracer: &mut Tracer,
) -> Served {
    let t0 = Instant::now() + START_DELAY;
    let warm_frames = streams.len() as u64;
    let completed = AtomicU64::new(0);
    let completed = &completed;
    let results: Vec<(Served, OpenStream<'_>, Tracer)> = std::thread::scope(|scope| {
        let threads: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(stream_index, mut stream)| {
                let mut tracer = tracer.sibling();
                scope.spawn(move || {
                    let mut served = Served::default();
                    let mut in_flight = VecDeque::new();
                    let mut last = t0;
                    let pixels = stream.inputs.frames[0].pixels().len() as u64;
                    sleep_until(t0);
                    loop {
                        while in_flight.len() < VIDEO_IN_FLIGHT && keep_going(t0, window, completed)
                        {
                            served.attempted += 1;
                            let index = stream.handle.frames_submitted() as usize;
                            let start = Instant::now();
                            match stream.handle.submit_frame(stream.inputs.frame(index)) {
                                Ok(frame) => in_flight.push_back((index, start, frame)),
                                Err(_) => served.refused += 1,
                            }
                        }
                        let Some((index, start, frame)) = in_flight.pop_front() else {
                            break;
                        };
                        match frame.wait() {
                            Ok(outcome) => {
                                last = Instant::now();
                                let job = ((stream_index as u64) << 32) | index as u64;
                                tracer.record("frame", job, start, last, ROOT);
                                served.complete(last - start, stream.inputs.priority, pixels);
                                completed.fetch_add(1, Ordering::Relaxed);
                                stream.served.push(fingerprint_image(&outcome.output));
                                stream.handle.recycle(outcome.output);
                            }
                            Err(_) => served.failed += 1,
                        }
                    }
                    served.elapsed_s = (last - t0).as_secs_f64();
                    (served, stream, tracer)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("video stream thread panicked"))
            .collect()
    });
    let mut served = Served::default();
    let mut finished = Vec::new();
    for (part, stream, stream_tracer) in results {
        served.absorb(part);
        tracer.absorb(stream_tracer);
        finished.push((stream.inputs, stream.served));
        drop(stream.handle);
    }
    close(service, &mut served, tracer, true, warm_frames);
    // Outside the window: replay the streams side by side.
    let checks: Vec<Served> = std::thread::scope(|scope| {
        let threads: Vec<_> = finished
            .iter()
            .map(|(inputs, fingerprints)| {
                scope.spawn(move || {
                    let mut check = Served::default();
                    verify_stream(&mut check, inputs, fingerprints);
                    check
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("stream replay panicked"))
            .collect()
    });
    for check in checks {
        served.mismatched += check.mismatched;
        served.non_finite += check.non_finite;
        served.problems.extend(check.problems);
    }
    served
}

/// Replays a stream through a local session: every served frame must
/// equal the local one bit for bit.
fn verify_stream(served: &mut Served, inputs: &StreamInputs, fingerprints: &[Fingerprint]) {
    let mut session = match VideoSession::from_spec(inputs.spec) {
        Ok(session) => session,
        Err(e) => {
            served
                .problems
                .push(format!("local session `{}`: {e}", inputs.spec));
            served.mismatched += fingerprints.len() as u64;
            return;
        }
    };
    let outputs: Vec<(usize, Fingerprint)> = fingerprints.iter().copied().enumerate().collect();
    let mut next = 0;
    served.verify(&outputs, |index| {
        // Keys arrive in frame order, each once: the session advances in
        // step with the stream.
        assert_eq!(index, next, "frames verify in order");
        next += 1;
        Ok(fingerprint_image(&session.process(inputs.frame(index)).0))
    });
}

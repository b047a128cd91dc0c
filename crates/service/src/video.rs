//! Video streams as a service workload: one mailbox per stream on the
//! service's queue.
//!
//! A [`FrameSequenceRequest`] opens a [`VideoStreamHandle`]: a
//! [`tonemap_video::VideoSession`] owned by the service, fed one frame at
//! a time through the same worker pool that serves single-frame jobs. Two
//! properties distinguish frames from jobs:
//!
//! * **Per-stream FIFO order.** Temporal adaptation is stateful, so frame
//!   `k+1` must observe the integrator state frame `k` left behind. Every
//!   frame of a stream is submitted under the stream's id, so the pool
//!   queues it in the stream's mailbox ([`crate::pool::TaskOptions::stream`]):
//!   the stream's frames run one at a time, in submission order, and no
//!   worker ever waits on another frame. Distinct streams take turns in
//!   their class and overlap across workers.
//! * **Separate accounting.** Completed frames count in
//!   [`crate::ServiceStats::frames_completed`], never in the job
//!   counters — frames/sec and jobs/sec stay separately meaningful.
//!
//! Frame staging rides the service's [`crate::FramePool`]: each submitted
//! frame is copied into a recycled buffer which returns to the pool after
//! processing, so a steady-state stream performs no per-frame staging
//! allocations.

use crate::error::ServiceError;
use crate::pool::{PoolError, Priority, Task, TaskFate, TaskOptions};
use crate::service::TonemapService;
use hdr_image::LuminanceImage;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex};
use tonemap_video::{FrameMetrics, StreamSummary, VideoSession};

/// A request to open a temporal tone-mapping stream on the service.
///
/// The spec string carries the full video surface — engine, pipeline,
/// schedule, and the temporal keys (`temporal=leaky&tau=…&cutthresh=…`)
/// that single-frame jobs reject.
#[derive(Debug, Clone)]
#[must_use = "a frame-sequence request does nothing until a stream is opened"]
pub struct FrameSequenceRequest {
    spec: String,
    priority: Priority,
}

impl FrameSequenceRequest {
    /// A stream running the engine and pipeline named by `spec`, e.g.
    /// `"sw-f32?pipeline=reinhard&temporal=leaky&tau=4"`.
    pub fn on_backend(spec: impl Into<String>) -> Self {
        FrameSequenceRequest {
            spec: spec.into(),
            priority: Priority::default(),
        }
    }

    /// Assigns the priority class every frame of the stream submits at.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// The backend spec string.
    pub fn spec(&self) -> &str {
        &self.spec
    }

    /// The stream's priority class.
    pub fn priority(&self) -> Priority {
        self.priority
    }
}

/// One processed frame of a video stream, as delivered through a
/// [`FrameHandle`].
#[derive(Debug)]
pub struct VideoFrameOutcome {
    /// The tone-mapped display-referred frame.
    pub output: LuminanceImage,
    /// The session's inline stability metrics for this frame.
    pub metrics: FrameMetrics,
    /// The pool's global dequeue stamp for this frame's task. Within one
    /// stream, ascending stamps prove FIFO dequeue order.
    pub dequeue_seq: u64,
}

/// A handle to one submitted frame: a future-by-channel, like
/// [`crate::JobHandle`] but carrying the frame's metrics and dequeue
/// stamp alongside the image.
#[derive(Debug)]
#[must_use = "dropping a frame handle discards the frame's result"]
pub struct FrameHandle {
    stream: u64,
    index: u64,
    receiver: Receiver<Result<VideoFrameOutcome, ServiceError>>,
}

impl FrameHandle {
    /// The stream this frame belongs to.
    pub fn stream_id(&self) -> u64 {
        self.stream
    }

    /// The frame's zero-based index within its stream.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// Blocks until the frame completes.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Lost`] when the executing worker died (task panic)
    /// before reporting.
    pub fn wait(self) -> Result<VideoFrameOutcome, ServiceError> {
        self.receiver.recv().unwrap_or(Err(ServiceError::Lost))
    }
}

/// An open temporal tone-mapping stream on a [`TonemapService`].
///
/// Frames submitted through the handle execute on the service's worker
/// pool in strict submission order (the stream's mailbox), while frames of
/// *other* streams overlap freely on other workers. Dropping the handle
/// closes the stream; frames already submitted still complete.
pub struct VideoStreamHandle<'a> {
    service: &'a TonemapService,
    stream_id: u64,
    priority: Priority,
    session: Arc<Mutex<VideoSession>>,
    submitted: u64,
}

impl std::fmt::Debug for VideoStreamHandle<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VideoStreamHandle")
            .field("stream_id", &self.stream_id)
            .field("priority", &self.priority)
            .field("submitted", &self.submitted)
            .finish()
    }
}

impl TonemapService {
    /// Opens a video stream: builds the temporal session the request's
    /// spec describes and gives the stream an id, whose mailbox keeps its
    /// frames in FIFO order while distinct streams parallelise.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Video`] when the spec does not build a
    /// [`VideoSession`] (unknown engine, invalid spec or parameters, or a
    /// colour-input pipeline).
    pub fn open_stream(
        &self,
        request: FrameSequenceRequest,
    ) -> Result<VideoStreamHandle<'_>, ServiceError> {
        let session = VideoSession::from_spec(request.spec())?;
        let stream_id = self.next_stream.fetch_add(1, Ordering::SeqCst);
        self.stats.record_stream_opened();
        Ok(VideoStreamHandle {
            service: self,
            stream_id,
            priority: request.priority(),
            session: Arc::new(Mutex::new(session)),
            submitted: 0,
        })
    }
}

impl VideoStreamHandle<'_> {
    /// The service-assigned stream id (also the stream's mailbox key).
    pub fn stream_id(&self) -> u64 {
        self.stream_id
    }

    /// Frames submitted so far.
    pub fn frames_submitted(&self) -> u64 {
        self.submitted
    }

    /// Submits one frame, blocking while the queue is at capacity
    /// (backpressure on the submitter, as [`TonemapService::submit`]).
    ///
    /// The pixels are staged through the service's [`crate::FramePool`]
    /// immediately — the caller keeps ownership of `frame` and may reuse
    /// or drop it freely.
    ///
    /// # Errors
    ///
    /// [`ServiceError::ShutDown`] after [`TonemapService::shutdown`].
    pub fn submit_frame(&mut self, frame: &LuminanceImage) -> Result<FrameHandle, ServiceError> {
        let (width, height) = frame.dimensions();
        let mut staged = self.service.frames.acquire(frame.pixels().len());
        staged.copy_from_slice(frame.pixels());
        let staged = LuminanceImage::from_vec(width, height, staged)
            .expect("staged frame matches the source dimensions");

        let index = self.submitted;
        let session = Arc::clone(&self.session);
        let frames = self.service.frames.clone();
        let stats = Arc::clone(&self.service.stats);
        let (responder, receiver) = mpsc::channel::<Result<VideoFrameOutcome, ServiceError>>();
        let task: Task = Box::new(move |fate| {
            let TaskFate::Execute { dequeue_seq } = fate else {
                unreachable!("video frames carry no deadline");
            };
            let poison = frames.poison_guard(staged.pixels().len());
            let (output, metrics) = session
                .lock()
                .expect("video session poisoned")
                .process(&staged);
            // A panic inside `process` unwinds past this point with the
            // guard armed: the staged frame is dropped as poisoned, the
            // stream's next frame still takes its turn, and the waiter sees
            // `Lost`.
            poison.disarm();
            frames.recycle(staged.into_vec());
            stats.record_frame_completed();
            let _ = responder.send(Ok(VideoFrameOutcome {
                output,
                metrics,
                dequeue_seq,
            }));
        });
        let options = TaskOptions {
            priority: self.priority,
            deadline: None,
            stream: Some(self.stream_id),
        };
        match self.service.pool.execute(task, options) {
            Ok(()) => {
                self.submitted += 1;
                Ok(FrameHandle {
                    stream: self.stream_id,
                    index,
                    receiver,
                })
            }
            Err(PoolError::ShutDown) => Err(ServiceError::ShutDown),
            Err(PoolError::QueueFull) => Err(ServiceError::QueueFull),
        }
    }

    /// Returns a delivered output frame to the service's pool, so later
    /// staging acquisitions of the same size allocate nothing.
    pub fn recycle(&self, output: LuminanceImage) {
        self.service.frames.recycle(output.into_vec());
    }

    /// The stream's aggregate stability metrics so far. Blocks briefly if
    /// a frame is mid-processing.
    pub fn summary(&self) -> StreamSummary {
        self.session
            .lock()
            .expect("video session poisoned")
            .summary()
    }

    /// Frame indices where the scene-cut detector fired so far.
    pub fn cuts(&self) -> Vec<usize> {
        self.session
            .lock()
            .expect("video session poisoned")
            .cuts()
            .to_vec()
    }
}

impl Drop for VideoStreamHandle<'_> {
    fn drop(&mut self) {
        self.service.stats.record_stream_closed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobRequest;
    use crate::service::ServiceConfig;
    use hdr_image::synth::SceneKind;
    use std::time::Duration;

    fn leaky_stream(service: &TonemapService) -> VideoStreamHandle<'_> {
        service
            .open_stream(FrameSequenceRequest::on_backend(
                "sw-f32?temporal=leaky&tau=2",
            ))
            .unwrap()
    }

    /// Spins until the pool has dequeued `n` tasks in all.
    fn wait_for_dequeues(service: &TonemapService, n: u64) {
        while service.pool.dequeues() < n {
            std::thread::yield_now();
        }
    }

    /// The acceptance-critical interleaving, scripted deterministically:
    /// stream A's first frame is provably *mid-execution* on one worker
    /// (dequeued, blocked on the session lock the test holds) while
    /// stream B's frames run to completion on the other worker — two
    /// streams overlapping on two workers — and every stream's frames
    /// execute in submission order, witnessed by per-stream ascending
    /// `dequeue_seq` stamps and sequential session frame indices.
    #[test]
    fn streams_overlap_across_workers_while_each_keeps_fifo_order() {
        let service = TonemapService::standard(ServiceConfig::with_workers(2).queue_capacity(64));
        let scene = SceneKind::WindowInDarkRoom.generate(24, 20, 9);

        let mut stream_a = leaky_stream(&service);
        let mut stream_b = leaky_stream(&service);
        assert_eq!(stream_a.stream_id(), 0);
        assert_eq!(stream_b.stream_id(), 1);
        assert_eq!(service.stats().streams_active, 2);

        // Hold stream A's session: its first frame will dequeue and block
        // inside `process`'s session lock.
        let session_a = Arc::clone(&stream_a.session);
        let hold = session_a.lock().unwrap();
        let first_a = stream_a.submit_frame(&scene).unwrap();
        // Wait until that frame is really on a worker (dequeued). It
        // cannot complete while we hold the session.
        wait_for_dequeues(&service, 1);

        // With worker 1 provably stuck mid-frame of stream A, stream B's
        // frames complete — necessarily on the other worker: overlap.
        let outcomes_b: Vec<_> = (0..4)
            .map(|_| stream_b.submit_frame(&scene).unwrap())
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.wait().unwrap())
            .collect();
        assert_eq!(service.stats().frames_completed, 4);

        // Release stream A and finish it.
        drop(hold);
        let mut outcomes_a = vec![first_a.wait().unwrap()];
        for _ in 1..4 {
            let handle = stream_a.submit_frame(&scene).unwrap();
            outcomes_a.push(handle.wait().unwrap());
        }

        for outcomes in [&outcomes_a, &outcomes_b] {
            for (expected, outcome) in outcomes.iter().enumerate() {
                // The session processed the frames in submission order…
                assert_eq!(outcome.metrics.index, expected);
            }
            // …and the pool dequeued them in submission order.
            for pair in outcomes.windows(2) {
                assert!(
                    pair[0].dequeue_seq < pair[1].dequeue_seq,
                    "per-stream dequeue stamps must ascend: {} then {}",
                    pair[0].dequeue_seq,
                    pair[1].dequeue_seq
                );
            }
        }

        drop(stream_a);
        drop(stream_b);
        assert_eq!(service.stats().streams_active, 0);
        assert_eq!(service.stats().frames_completed, 8);
        // Frames never leak into the job counters.
        assert_eq!(service.stats().submitted, 0);
        assert_eq!(service.stats().completed, 0);
    }

    /// A held frame parks only its own stream: with frame 0 of stream A
    /// blocked mid-execution and frames 1–3 queued behind it, the second
    /// worker still serves a plain job while the session is held.
    #[test]
    fn a_held_stream_frame_does_not_hold_up_a_plain_job() {
        let service = TonemapService::standard(ServiceConfig::with_workers(2).queue_capacity(64));
        let scene = SceneKind::WindowInDarkRoom.generate(24, 20, 10);
        let mut stream = leaky_stream(&service);

        let session = Arc::clone(&stream.session);
        let hold = session.lock().unwrap();
        let frames: Vec<_> = (0..4)
            .map(|_| stream.submit_frame(&scene).unwrap())
            .collect();
        wait_for_dequeues(&service, 1);

        // The timeout only bounds a failure: the job must finish while the
        // session is still held.
        let job = service
            .submit(JobRequest::luminance(scene.clone()))
            .unwrap();
        let response = job
            .wait_timeout(Duration::from_secs(5))
            .expect("the plain job runs while stream A's frame is held");
        assert!(response.is_ok());
        assert_eq!(service.stats().frames_completed, 0, "the session is held");

        drop(hold);
        for (index, handle) in frames.into_iter().enumerate() {
            assert_eq!(handle.wait().unwrap().metrics.index, index);
        }
    }

    /// A frame that panics answers `Lost`, and so does every frame behind
    /// it on the poisoned session; no waiter or worker hangs, and the
    /// service keeps serving jobs.
    #[test]
    fn a_panicking_frame_answers_lost_and_strands_nothing() {
        let service = TonemapService::standard(ServiceConfig::with_workers(2).queue_capacity(64));
        let scene = SceneKind::WindowInDarkRoom.generate(24, 20, 11);
        let mut stream = leaky_stream(&service);

        let session = Arc::clone(&stream.session);
        let poisoner = std::thread::spawn(move || {
            let _session = session.lock().unwrap();
            panic!("poisons the stream's session");
        });
        assert!(poisoner.join().is_err());

        let frames: Vec<_> = (0..4)
            .map(|_| stream.submit_frame(&scene).unwrap())
            .collect();
        let (answers_tx, answers_rx) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let answers: Vec<_> = frames.into_iter().map(FrameHandle::wait).collect();
            answers_tx.send(answers).unwrap();
        });
        // The timeout only bounds a failure.
        let answers = answers_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("no frame waiter hangs");
        waiter.join().expect("the waiter thread does not panic");
        assert_eq!(answers.len(), 4);
        for answer in &answers {
            assert!(matches!(answer, Err(ServiceError::Lost)), "{answer:?}");
        }
        assert_eq!(service.frame_pool_stats().dropped_poisoned, 4);

        let job = service.submit(JobRequest::luminance(scene)).unwrap();
        let response = job
            .wait_timeout(Duration::from_secs(10))
            .expect("a job after the panics still runs");
        assert!(response.is_ok());
        assert_eq!(service.stats().frames_completed, 0);
    }
}

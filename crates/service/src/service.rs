//! The [`TonemapService`]: the registry turned into a concurrent job
//! server with one two-class queue and deadline admission.

use crate::error::ServiceError;
use crate::frames::{FramePool, FramePoolStats};
use crate::job::{JobHandle, JobOutcomeResult, JobRequest};
use crate::pool::{PoolError, Task, TaskFate, TaskOptions, WorkerPool};
use crate::stats::{ScheduleSample, ServiceStats, StatsInner};
use hdr_image::LuminanceImage;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;
use tonemap_backend::{BackendRegistry, TonemapError, TonemapResponse};
use tonemap_scheduler::HostModel;

/// Sizing of a [`TonemapService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads serving the queue (clamped to at least 1).
    pub workers: usize,
    /// Bound of the submission queue — the backpressure point (clamped to
    /// at least 1).
    pub queue_capacity: usize,
}

impl ServiceConfig {
    /// A config with `workers` threads and the default queue bound of four
    /// slots per worker.
    pub fn with_workers(workers: usize) -> Self {
        ServiceConfig {
            workers,
            queue_capacity: workers.max(1) * 4,
        }
    }

    /// Overrides the submission-queue bound.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }
}

impl Default for ServiceConfig {
    /// Four workers, sixteen queue slots — deterministic regardless of the
    /// host's core count, so documentation and tests behave identically
    /// everywhere.
    fn default() -> Self {
        ServiceConfig::with_workers(4)
    }
}

/// A concurrent tone-mapping job server over a [`BackendRegistry`].
///
/// Jobs ([`JobRequest`]) enter one two-class queue and are executed by a
/// fixed pool of worker threads; completion is delivered
/// through per-job [`JobHandle`]s. All workers share one registry, so jobs
/// naming the same engine share that engine's per-resolution platform-model
/// cache (and jobs with the same override spec share the registry's
/// memoized reconfigured engine) — concurrency multiplies throughput
/// without duplicating model state.
///
/// Three serving policies sit on top of the queue:
///
/// - **Priority**: a queued [`Priority::Interactive`](crate::pool::Priority::Interactive)
///   job runs before every queued [`Priority::Batch`](crate::pool::Priority::Batch)
///   job.
/// - **Deadline admission**: a job with a [`JobRequest::with_deadline`]
///   budget is refused at the door ([`ServiceError::DeadlineUnmeetable`])
///   when the host model predicts the current backlog makes the budget
///   unmeetable, and cancelled at dequeue
///   ([`TonemapError::DeadlineExceeded`]) if it is still queued when the
///   budget runs out.
/// - **Frame pooling**: raw-luminance jobs are staged through a shared
///   [`FramePool`]; returning finished frames with
///   [`TonemapService::recycle`] closes the loop so steady-state serving
///   performs no large per-job allocations at the service layer.
///
/// See the crate-level docs for the job lifecycle and an example.
pub struct TonemapService {
    registry: Arc<BackendRegistry>,
    pub(crate) pool: WorkerPool,
    pub(crate) frames: FramePool,
    pub(crate) stats: Arc<StatsInner>,
    host_model: HostModel,
    next_id: AtomicU64,
    pub(crate) next_stream: AtomicU64,
}

impl TonemapService {
    /// Starts a service over `registry` with the given sizing.
    pub fn new(registry: BackendRegistry, config: ServiceConfig) -> Self {
        TonemapService {
            registry: Arc::new(registry),
            pool: WorkerPool::new(config.workers, config.queue_capacity),
            frames: FramePool::new(),
            stats: Arc::new(StatsInner::new()),
            host_model: HostModel::with_cores(config.workers.max(1)),
            next_id: AtomicU64::new(0),
            next_stream: AtomicU64::new(0),
        }
    }

    /// Starts a service over [`BackendRegistry::standard`] — every engine
    /// of the reproduction behind one queue.
    pub fn standard(config: ServiceConfig) -> Self {
        TonemapService::new(BackendRegistry::standard(), config)
    }

    /// The registry the workers execute against.
    pub fn registry(&self) -> &BackendRegistry {
        &self.registry
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.pool.worker_count()
    }

    /// Capacity of the bounded submission queue.
    pub fn queue_capacity(&self) -> usize {
        self.pool.queue_capacity()
    }

    /// Pins the deadline-admission model's mean service time, overriding
    /// the measured mean. Deterministic tests and deployments with a known
    /// workload calibrate once; uncalibrated services learn the mean from
    /// completed jobs (and admit everything until the first completion).
    pub fn calibrate_admission(&self, mean_service_seconds: f64) {
        self.stats.calibrate_admission(mean_service_seconds);
    }

    /// The frame pool's usage counters (reuse vs allocation, poisoned
    /// drops).
    pub fn frame_pool_stats(&self) -> FramePoolStats {
        self.frames.stats()
    }

    /// Returns a finished response's frame to the service's pool, so the
    /// next raw job of the same size can be staged without an allocation.
    /// Responses whose payload is not a full luminance frame (RGB, LDR-8)
    /// are simply dropped.
    pub fn recycle(&self, response: TonemapResponse) {
        if let Some(frame) = response.into_frame() {
            self.frames.recycle(frame);
        }
    }

    /// Submits a job, blocking while the queue is at capacity
    /// (backpressure on the submitter).
    ///
    /// # Errors
    ///
    /// [`ServiceError::ShutDown`] after [`TonemapService::shutdown`], or
    /// [`ServiceError::DeadlineUnmeetable`] when admission control sheds
    /// the job.
    pub fn submit(&self, job: JobRequest) -> Result<JobHandle, ServiceError> {
        self.submit_inner(job, false)
    }

    /// Submits a job without blocking.
    ///
    /// # Errors
    ///
    /// [`ServiceError::QueueFull`] when the bounded queue is at capacity
    /// (the rejection is counted in [`ServiceStats::rejected`]),
    /// [`ServiceError::DeadlineUnmeetable`] when admission control sheds
    /// the job (counted in [`ServiceStats::shed`]), or
    /// [`ServiceError::ShutDown`] after [`TonemapService::shutdown`].
    pub fn try_submit(&self, job: JobRequest) -> Result<JobHandle, ServiceError> {
        self.submit_inner(job, true)
    }

    /// Executes a batch of jobs spread across the worker pool, returning
    /// responses in submission order.
    ///
    /// The split is at job granularity: each job goes to whichever worker
    /// frees up first, so heterogeneous batches load-balance naturally
    /// while every engine's shared model cache keeps same-sized scenes
    /// amortised. Submission respects the queue bound (this call blocks
    /// while the queue is full); the first failing job fails the batch.
    ///
    /// # Errors
    ///
    /// [`ServiceError::ShutDown`] at admission, or the first job's
    /// execution error ([`ServiceError::Tonemap`] / [`ServiceError::Lost`]).
    pub fn execute_batch(
        &self,
        jobs: Vec<JobRequest>,
    ) -> Result<Vec<TonemapResponse>, ServiceError> {
        let handles = jobs
            .into_iter()
            .map(|job| self.submit(job))
            .collect::<Result<Vec<_>, _>>()?;
        handles.into_iter().map(JobHandle::wait).collect()
    }

    /// A snapshot of the service's aggregate telemetry.
    pub fn stats(&self) -> ServiceStats {
        self.stats
            .snapshot(self.pool.worker_count(), self.pool.queue_capacity())
    }

    /// Stops admission and waits for every queued and in-flight job to
    /// complete, then joins the workers. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        self.pool.shutdown();
    }

    /// `true` once [`TonemapService::shutdown`] has run.
    pub fn is_shut_down(&self) -> bool {
        self.pool.is_shut_down()
    }

    fn submit_inner(&self, job: JobRequest, non_blocking: bool) -> Result<JobHandle, ServiceError> {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let priority = job.priority();
        let submitted_at = Instant::now();
        let deadline = job.deadline().map(|budget| submitted_at + budget);

        // Deadline admission control: refuse work the host model predicts
        // cannot meet its budget, instead of queueing it to die at
        // dequeue. The prediction is the equal-cost LPT completion bound —
        // the job waits out ceil((backlog+1)/workers) rounds of mean
        // service time, where backlog counts only jobs that will run ahead
        // of it (its own class, plus interactive overtakers for batch).
        // With no evidence yet (no calibration, no completions) everything
        // is admitted.
        if let (Some(budget), Some(mean)) = (job.deadline(), self.stats.admission_mean_seconds()) {
            let backlog = self.pool.backlog_ahead_of(priority);
            let predicted = self.host_model.admission_completion_seconds(
                mean,
                backlog,
                self.pool.worker_count(),
            );
            if predicted > budget.as_secs_f64() {
                self.stats.record_shed();
                return Err(ServiceError::DeadlineUnmeetable {
                    predicted_seconds: predicted,
                    budget,
                });
            }
        }

        let (responder, receiver) = mpsc::channel::<JobOutcomeResult>();
        let registry = Arc::clone(&self.registry);
        let frames = self.frames.clone();
        let stats = Arc::clone(&self.stats);
        let task: Task = Box::new(move |fate| {
            stats.record_started();
            match fate {
                TaskFate::Expired { missed_by } => {
                    // The deadline ran out while the job sat in the queue:
                    // cancel instead of spending worker time on a result
                    // nobody can use.
                    stats.record_expired();
                    let _ = responder.send(Err(ServiceError::Tonemap(
                        TonemapError::DeadlineExceeded { missed_by },
                    )));
                }
                TaskFate::Execute { .. } => {
                    // If the job panics mid-execution the pool swallows the
                    // unwind to keep the worker alive; this guard then
                    // records the job as lost so started/completed/failed/
                    // expired/lost stay reconciled.
                    let guard = LostJobGuard::new(Arc::clone(&stats));
                    let started = Instant::now();
                    let result = execute_job(&registry, &frames, &job);
                    let busy_seconds = started.elapsed().as_secs_f64();
                    let outcome = match result {
                        Ok((engine, schedule, response)) => {
                            stats.record_completed(
                                engine,
                                busy_seconds,
                                schedule,
                                priority,
                                submitted_at.elapsed().as_secs_f64(),
                            );
                            Ok(response)
                        }
                        Err(error) => {
                            stats.record_failed();
                            Err(ServiceError::Tonemap(error))
                        }
                    };
                    guard.disarm();
                    // The submitter may have dropped its handle; the job's
                    // work is done either way.
                    let _ = responder.send(outcome);
                }
            }
        });
        // Count the submission before enqueueing: the worker may dequeue
        // and finish the job before this thread resumes, and a snapshot
        // must never observe completed > submitted.
        self.stats.record_submitted();
        let options = TaskOptions {
            priority,
            deadline,
            stream: None,
        };
        let enqueued = if non_blocking {
            self.pool.try_execute(task, options)
        } else {
            self.pool.execute(task, options)
        };
        match enqueued {
            Ok(()) => {
                // The job is really in the system now: start the service
                // clock (idempotent) so telemetry measures traffic time,
                // not time since construction.
                self.stats.record_admitted();
                Ok(JobHandle::new(id, receiver))
            }
            Err(PoolError::QueueFull) => {
                self.stats.record_not_admitted();
                self.stats.record_rejected();
                Err(ServiceError::QueueFull)
            }
            Err(PoolError::ShutDown) => {
                self.stats.record_not_admitted();
                Err(ServiceError::ShutDown)
            }
        }
    }
}

/// Marks a job as lost if its task unwinds before recording an outcome.
struct LostJobGuard {
    stats: Option<Arc<StatsInner>>,
}

impl LostJobGuard {
    fn new(stats: Arc<StatsInner>) -> Self {
        LostJobGuard { stats: Some(stats) }
    }

    fn disarm(mut self) {
        self.stats = None;
    }
}

impl Drop for LostJobGuard {
    fn drop(&mut self) {
        if let Some(stats) = self.stats.take() {
            stats.record_lost();
        }
    }
}

impl Drop for TonemapService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for TonemapService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TonemapService")
            .field("workers", &self.pool.worker_count())
            .field("queue_capacity", &self.pool.queue_capacity())
            .field("backends", &self.registry.names())
            .field("shut_down", &self.pool.is_shut_down())
            .finish()
    }
}

/// Resolves the job's spec through the shared registry and executes it,
/// reporting which engine served it (for the per-engine utilisation split)
/// and, for `schedule=`-resolved engines, how the scheduler resolved the
/// run (for the per-engine predicted-vs-measured telemetry).
///
/// Attribution is by the *job's* resolved spec, never by the worker that
/// happened to execute it.
///
/// Raw-luminance jobs are staged through the frame pool: the wire pixels
/// are copied into a recycled frame (no fresh allocation in steady state),
/// the engine runs against the staged image, and the staging frame returns
/// to the pool afterwards — unless the engine panics, in which case the
/// armed poison guard makes sure the possibly-inconsistent frame is
/// dropped, not recycled.
fn execute_job(
    registry: &BackendRegistry,
    frames: &FramePool,
    job: &JobRequest,
) -> Result<(&'static str, Option<ScheduleSample>, TonemapResponse), TonemapError> {
    let spec = job
        .backend_spec()
        .unwrap_or(BackendRegistry::DEFAULT_BACKEND);
    let resolved = registry.resolve_spec(spec)?;
    let engine = resolved.backend().name();

    let staged = job.raw_input().and_then(|(width, height, pixels)| {
        // Only well-formed raw inputs are staged; malformed ones fall
        // through to the ordinary raw path so the engine produces its
        // usual typed validation error.
        let expected = width.checked_mul(height)?;
        (width > 0 && height > 0 && pixels.len() == expected).then(|| {
            let mut frame = frames.acquire(expected);
            frame.copy_from_slice(pixels);
            LuminanceImage::from_vec(width, height, frame)
                .expect("staged frame matches the validated dimensions")
        })
    });

    let response = match staged {
        Some(image) => {
            let poison = frames.poison_guard(image.pixels().len());
            let result = resolved.execute(&job.to_request_with_luminance(&image));
            // A typed error leaves the read-only staging frame intact;
            // only a panic (which unwinds past this point with the guard
            // armed) poisons it.
            poison.disarm();
            frames.recycle(image.into_vec());
            result?
        }
        None => resolved.execute(&job.to_request())?,
    };

    // Jobs that opted into telemetry carry the full resolution (point +
    // prediction); for the rest the engine still names its schedule request,
    // so the stats can report that the engine is scheduler-resolved.
    let schedule = match response.telemetry().filter(|t| t.schedule.is_some()) {
        Some(telemetry) => Some(ScheduleSample {
            description: format!(
                "{} ({})",
                telemetry.point,
                resolved
                    .backend()
                    .schedule_description()
                    .unwrap_or_else(|| "scheduled".to_string())
            ),
            predicted_seconds: telemetry.schedule.as_ref().map(|s| s.predicted_seconds),
        }),
        None => resolved
            .backend()
            .schedule_description()
            .map(|description| ScheduleSample {
                description,
                predicted_seconds: None,
            }),
    };
    Ok((engine, schedule, response))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::Priority;
    use hdr_image::synth::SceneKind;
    use std::sync::Arc;
    use std::time::Duration;
    use tonemap_backend::TonemapRequest;
    use tonemap_core::ParamError;

    #[test]
    fn a_submitted_job_matches_direct_execution() {
        let service = TonemapService::standard(ServiceConfig::with_workers(2));
        let scene = SceneKind::WindowInDarkRoom.generate(24, 24, 7);
        let direct = BackendRegistry::standard()
            .execute(&TonemapRequest::luminance(&scene).on_backend("hw-fix16"))
            .unwrap();
        let handle = service
            .submit(JobRequest::luminance(scene).on_backend("hw-fix16"))
            .unwrap();
        let response = handle.wait().unwrap();
        assert_eq!(response.payload(), direct.payload());
        let stats = service.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.per_engine.len(), 1);
        assert_eq!(stats.per_engine[0].engine, "hw-fix16");
        // The default class is batch; its histogram saw the job.
        assert_eq!(stats.latency(Priority::Batch).count(), 1);
        assert_eq!(stats.latency(Priority::Interactive).count(), 0);
    }

    #[test]
    fn job_failures_are_reported_through_the_handle() {
        let service = TonemapService::standard(ServiceConfig::default());
        let scene = SceneKind::GradientRamp.generate(8, 8, 1);
        let handle = service
            .submit(JobRequest::luminance(scene).on_backend("gpu-cuda"))
            .unwrap();
        match handle.wait() {
            Err(ServiceError::Tonemap(TonemapError::UnknownBackend(e))) => {
                assert_eq!(e.name, "gpu-cuda");
            }
            other => panic!("expected an unknown-backend failure, got {other:?}"),
        }
        let stats = service.stats();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 0);
    }

    #[test]
    fn an_unbounded_radius_fails_typed_instead_of_losing_the_worker() {
        // Unbounded, this radius builds an empty kernel and panics the
        // worker, which surfaces as `Lost`.
        let service = TonemapService::standard(ServiceConfig::with_workers(1));
        let scene = SceneKind::GradientRamp.generate(16, 12, 1);
        let outcome = service
            .submit(
                JobRequest::luminance(scene)
                    .on_backend("sw-f32?radius=18446744073709551615")
                    .with_telemetry(),
            )
            .unwrap()
            .wait();
        match outcome {
            Err(ServiceError::Tonemap(TonemapError::InvalidParams(
                ParamError::BlurRadiusTooLarge(radius),
            ))) => assert_eq!(radius, usize::MAX),
            other => panic!("expected a typed radius error, got {other:?}"),
        }
        assert_eq!(service.stats().failed, 1);
    }

    #[test]
    fn a_huge_filmic_exposure_serves_finite_pixels() {
        // Unsaturated, the filmic curve squared `x·3.4e38` into ∞/∞ = NaN.
        let service = TonemapService::standard(ServiceConfig::with_workers(1));
        let scene = SceneKind::WindowInDarkRoom.generate(64, 48, 1);
        let response = service
            .submit(
                JobRequest::luminance(scene)
                    .on_backend("sw-f32-stream?pipeline=filmic&exposure=3.4e38"),
            )
            .unwrap()
            .wait()
            .unwrap();
        let pixels = response.luminance().unwrap().pixels();
        assert!(pixels.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn batches_preserve_submission_order() {
        let service = TonemapService::standard(ServiceConfig::with_workers(4));
        let scenes: Vec<Arc<_>> = (1u64..=6)
            .map(|seed| Arc::new(SceneKind::WindowInDarkRoom.generate(16, 16, seed)))
            .collect();
        let jobs = scenes
            .iter()
            .map(|scene| JobRequest::luminance(Arc::clone(scene)))
            .collect();
        let responses = service.execute_batch(jobs).unwrap();
        let registry = BackendRegistry::standard();
        for (scene, response) in scenes.iter().zip(&responses) {
            let direct = registry.execute(&TonemapRequest::luminance(scene)).unwrap();
            assert_eq!(response.payload(), direct.payload());
        }
    }

    #[test]
    fn streaming_engines_serve_jobs_through_the_shared_pool() {
        // The streaming line-buffer engines are ordinary registry entries,
        // so jobs select them by spec and share the same worker pool — and
        // their outputs equal the two-pass engines' bit for bit.
        let service = TonemapService::standard(ServiceConfig::with_workers(2));
        let scene = SceneKind::WindowInDarkRoom.generate(32, 32, 11);
        let registry = BackendRegistry::standard();
        for (streamed, classic) in [("sw-f32-stream", "sw-f32"), ("hw-fix16-stream", "hw-fix16")] {
            let handle = service
                .submit(JobRequest::luminance(scene.clone()).on_backend(streamed))
                .unwrap();
            let response = handle.wait().unwrap();
            let direct = registry
                .execute(&TonemapRequest::luminance(&scene).on_backend(classic))
                .unwrap();
            assert_eq!(
                response.payload(),
                direct.payload(),
                "{streamed} through the pool diverged from {classic}"
            );
        }
        let stats = service.stats();
        assert_eq!(stats.completed, 2);
        assert!(stats.per_engine.iter().any(|e| e.engine == "sw-f32-stream"));
        assert!(stats
            .per_engine
            .iter()
            .any(|e| e.engine == "hw-fix16-stream"));
    }

    #[test]
    fn colour_preset_jobs_serve_end_to_end_through_the_pool() {
        // Every colour-managed preset is reachable from a job spec: the
        // service parses `pipeline=`, the registry compiles the colour
        // plan, and the pooled execution matches a direct registry call
        // bit for bit — including the scheduler-wrapped form.
        let service = TonemapService::standard(ServiceConfig::with_workers(2));
        let scene = Arc::new(SceneKind::SunAndShadow.generate_rgb(40, 30, 23));
        let registry = BackendRegistry::standard();
        for spec in [
            "sw-f32?pipeline=hsv-reinhard",
            "hw-fix16?pipeline=filmic&exposure=4",
            "sw-f32?pipeline=aces",
            "sw-f32?pipeline=drago&bias=0.7",
            "hw-fix16-stream?pipeline=pq-out&peak=600",
            "sw-f32-stream?pipeline=hlg-out",
            "hw-fix16?pipeline=hsv-reinhard&schedule=auto",
        ] {
            let response = service
                .submit(JobRequest::rgb(Arc::clone(&scene)).on_backend(spec))
                .unwrap()
                .wait()
                .unwrap_or_else(|e| panic!("`{spec}` must serve through the pool: {e}"));
            let direct = registry
                .execute(&TonemapRequest::rgb(&scene).on_backend(spec))
                .unwrap();
            assert_eq!(
                response.payload(),
                direct.payload(),
                "`{spec}` through the pool diverged from a direct call"
            );
        }
        // A luminance job against a colour-input plan fails with the typed
        // engine error, not a panic or a hung worker.
        let grey = SceneKind::GradientRamp.generate(16, 12, 5);
        let outcome = service
            .submit(JobRequest::luminance(grey).on_backend("sw-f32?pipeline=hsv-reinhard"))
            .unwrap()
            .wait();
        match outcome {
            Err(ServiceError::Tonemap(e)) => {
                assert!(e.to_string().contains("scalar-input"), "{e}")
            }
            other => panic!("expected the typed backend error, got {other:?}"),
        }
    }

    #[test]
    fn schedule_auto_jobs_serve_end_to_end_with_schedule_telemetry() {
        // The acceptance path: `pipeline=basedetail&schedule=auto` through
        // the whole stack — spec parse, registry resolution, scheduler,
        // worker pool — bit-identical to the forced two-pass schedule, with
        // the resolution visible in the per-engine stats.
        let service = TonemapService::standard(ServiceConfig::with_workers(2));
        let scene = SceneKind::MemorialComposite.generate(64, 48, 17);
        let auto = service
            .submit(
                JobRequest::luminance(scene.clone())
                    .on_backend("sw-f32?pipeline=basedetail&schedule=auto")
                    .with_telemetry(),
            )
            .unwrap()
            .wait()
            .unwrap();
        let two_pass = service
            .submit(
                JobRequest::luminance(scene)
                    .on_backend("sw-f32?pipeline=basedetail&schedule=two-pass"),
            )
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(auto.payload(), two_pass.payload());
        let telemetry = auto.telemetry().expect("telemetry requested");
        let schedule = telemetry
            .schedule
            .as_ref()
            .expect("scheduled job records its resolution");
        assert!(schedule.predicted_seconds > 0.0);
        let stats = service.stats();
        let engine = stats
            .per_engine
            .iter()
            .find(|e| e.engine == "sw-f32")
            .expect("scheduled jobs roll up under the wrapped engine's name");
        assert_eq!(engine.scheduled_jobs, 2);
        assert_eq!(engine.predicted_jobs, 1, "only the telemetry job priced");
        let (predicted, measured) = engine.predicted_vs_measured().unwrap();
        assert!(predicted > 0.0);
        assert!(measured > 0.0);
        assert!(engine.schedule.as_ref().unwrap().contains("schedule="));
    }

    #[test]
    fn submission_after_shutdown_is_refused() {
        let service = TonemapService::standard(ServiceConfig::default());
        service.shutdown();
        assert!(service.is_shut_down());
        let scene = SceneKind::GradientRamp.generate(8, 8, 2);
        assert!(matches!(
            service.submit(JobRequest::luminance(scene)),
            Err(ServiceError::ShutDown)
        ));
    }

    #[test]
    fn raw_jobs_stage_through_the_frame_pool_and_recycling_closes_the_loop() {
        let service = TonemapService::standard(ServiceConfig::with_workers(1));
        let scene = SceneKind::WindowInDarkRoom.generate(16, 16, 3);
        let pixels: Arc<Vec<f32>> = Arc::new(scene.pixels().to_vec());
        let direct = BackendRegistry::standard()
            .execute(&TonemapRequest::luminance(&scene))
            .unwrap();
        for round in 0..4 {
            let response = service
                .submit(JobRequest::raw_luminance(16, 16, Arc::clone(&pixels)))
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(response.payload(), direct.payload(), "round {round}");
            // Hand the finished frame back: the next round's staging (and
            // eventually the whole steady state) reuses it.
            service.recycle(response);
        }
        let pool = service.frame_pool_stats();
        assert_eq!(pool.acquired, 4, "every raw job staged through the pool");
        assert!(
            pool.reused >= 3,
            "steady state must reuse recycled frames, stats: {pool:?}"
        );
        assert_eq!(pool.dropped_poisoned, 0);
    }

    #[test]
    fn the_frame_pool_stays_bounded_across_two_hundred_sizes() {
        let service = TonemapService::standard(ServiceConfig::with_workers(1));
        let serve = |width: usize| {
            let job = JobRequest::raw_luminance(width, 4, vec![0.5f32; width * 4]);
            let response = service.submit(job).unwrap().wait().unwrap();
            service.recycle(response);
        };
        for width in 8..208 {
            serve(width);
        }
        assert!(
            service.frames.free_frames() <= FramePool::MAX_FREE_FRAMES,
            "{} free frames retained",
            service.frames.free_frames()
        );
        // Width 8 was evicted long ago: serving it again allocates once,
        // then reuses.
        let allocated = service.frame_pool_stats().allocated;
        serve(8);
        serve(8);
        assert_eq!(service.frame_pool_stats().allocated, allocated + 1);
    }

    #[test]
    fn malformed_raw_jobs_still_fail_with_the_engine_error() {
        // A length/dimension mismatch must bypass staging and surface the
        // engine's own validation error, exactly as before the pool.
        let service = TonemapService::standard(ServiceConfig::with_workers(1));
        let outcome = service
            .submit(JobRequest::raw_luminance(8, 8, vec![0.5f32; 17]))
            .unwrap()
            .wait();
        assert!(
            matches!(outcome, Err(ServiceError::Tonemap(_))),
            "got {outcome:?}"
        );
        assert_eq!(service.frame_pool_stats().acquired, 0);
        assert_eq!(service.stats().failed, 1);
    }

    #[test]
    fn a_zero_budget_deadline_expires_at_dequeue() {
        let service = TonemapService::standard(ServiceConfig::with_workers(1));
        let scene = SceneKind::GradientRamp.generate(8, 8, 4);
        // No calibration: admission has no evidence and must admit; the
        // zero budget then deterministically expires before dequeue.
        let outcome = service
            .submit(JobRequest::luminance(scene).with_deadline(Duration::ZERO))
            .unwrap()
            .wait();
        match outcome {
            Err(ServiceError::Tonemap(TonemapError::DeadlineExceeded { .. })) => {}
            other => panic!("expected deadline expiry, got {other:?}"),
        }
        let stats = service.stats();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.in_flight, 0);
    }

    #[test]
    fn admission_control_sheds_unmeetable_deadlines() {
        let service = TonemapService::standard(ServiceConfig::with_workers(1));
        // Calibrate: every job takes ~100 ms. An empty queue and a 1 ms
        // budget → predicted completion 100 ms >> 1 ms → shed.
        service.calibrate_admission(0.100);
        let scene = SceneKind::GradientRamp.generate(8, 8, 5);
        let refused = service
            .submit(JobRequest::luminance(scene.clone()).with_deadline(Duration::from_millis(1)));
        match refused {
            Err(ServiceError::DeadlineUnmeetable {
                predicted_seconds,
                budget,
            }) => {
                assert!((predicted_seconds - 0.100).abs() < 1e-9);
                assert_eq!(budget, Duration::from_millis(1));
            }
            other => panic!("expected a shed, got {other:?}"),
        }
        // A generous budget sails through the same model.
        let admitted = service
            .submit(JobRequest::luminance(scene).with_deadline(Duration::from_secs(30)))
            .unwrap()
            .wait();
        assert!(admitted.is_ok());
        let stats = service.stats();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.submitted, 1, "shed jobs never count as submitted");
        assert_eq!(stats.completed, 1);
    }
}

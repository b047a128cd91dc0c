//! Owned job descriptions and completion handles.
//!
//! [`tonemap_backend::TonemapRequest`] borrows its pixel data, which is the
//! right shape for synchronous callers but cannot cross a thread boundary
//! into the worker pool. A [`JobRequest`] is the owned equivalent: the
//! image lives behind an [`Arc`], so submitting a job never copies pixels
//! and many jobs can share one input scene. Completion travels back over a
//! per-job channel wrapped in a [`JobHandle`] — the futures-by-channel
//! pattern, with no async runtime required.

use crate::error::ServiceError;
use crate::pool::Priority;
use hdr_image::{LuminanceImage, RgbImage};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;
use tonemap_backend::{OutputKind, TonemapRequest, TonemapResponse};
use tonemap_core::{PipelinePlan, ToneMapParams};

/// What a job tone-maps, owned and cheaply clonable.
#[derive(Debug, Clone)]
pub enum JobInput {
    /// An HDR luminance plane.
    Luminance(Arc<LuminanceImage>),
    /// An HDR colour image (tone-mapped via its luminance plane, with
    /// chrominance ratios preserved).
    Rgb(Arc<RgbImage>),
    /// Raw row-major luminance pixels with claimed dimensions, validated
    /// at execution time — the shape a network serving layer receives off
    /// the wire.
    RawLuminance {
        /// Claimed width in pixels.
        width: usize,
        /// Claimed height in pixels.
        height: usize,
        /// Row-major luminance samples (`width * height` expected).
        pixels: Arc<Vec<f32>>,
    },
}

/// An owned description of one tone-mapping job, the unit the
/// [`crate::TonemapService`] queues and spreads across its workers.
///
/// Mirrors the builder surface of [`TonemapRequest`]; at execution time the
/// worker borrows it back into a `TonemapRequest` via
/// [`JobRequest::to_request`].
#[derive(Debug, Clone)]
#[must_use = "a job request does nothing until submitted to a service"]
pub struct JobRequest {
    input: JobInput,
    params: Option<ToneMapParams>,
    pipeline: Option<PipelinePlan>,
    backend: Option<String>,
    output: OutputKind,
    telemetry: bool,
    priority: Priority,
    deadline: Option<Duration>,
}

impl JobRequest {
    fn new(input: JobInput) -> Self {
        JobRequest {
            input,
            params: None,
            pipeline: None,
            backend: None,
            output: OutputKind::DisplayReferred,
            telemetry: false,
            priority: Priority::default(),
            deadline: None,
        }
    }

    /// A job tone-mapping an HDR luminance plane.
    pub fn luminance(image: impl Into<Arc<LuminanceImage>>) -> Self {
        JobRequest::new(JobInput::Luminance(image.into()))
    }

    /// A job tone-mapping an HDR colour image.
    pub fn rgb(image: impl Into<Arc<RgbImage>>) -> Self {
        JobRequest::new(JobInput::Rgb(image.into()))
    }

    /// A job carrying raw row-major luminance pixels with claimed
    /// dimensions, validated when the worker executes it.
    pub fn raw_luminance(width: usize, height: usize, pixels: impl Into<Arc<Vec<f32>>>) -> Self {
        JobRequest::new(JobInput::RawLuminance {
            width,
            height,
            pixels: pixels.into(),
        })
    }

    /// Overrides the engine's configured tone-mapping parameters for this
    /// job only. Validated at execution time.
    pub fn with_params(mut self, params: ToneMapParams) -> Self {
        self.params = Some(params);
        self
    }

    /// Overrides the engine's compiled pipeline plan for this job only
    /// (compiled per job). Prefer a `pipeline=` preset in the backend spec
    /// for repeated jobs — the service resolves it once through the shared
    /// registry, which caches the compiled plan engine.
    pub fn with_pipeline(mut self, plan: PipelinePlan) -> Self {
        self.pipeline = Some(plan);
        self
    }

    /// Names the engine this job should run on, as a spec string resolved
    /// by the service's registry (`"hw-fix16"`,
    /// `"sw-f32?sigma=3.5&radius=10"`). Jobs without a spec run on
    /// [`tonemap_backend::BackendRegistry::DEFAULT_BACKEND`].
    pub fn on_backend(mut self, spec: impl Into<String>) -> Self {
        self.backend = Some(spec.into());
        self
    }

    /// Selects the output form of the response.
    pub fn with_output(mut self, output: OutputKind) -> Self {
        self.output = output;
        self
    }

    /// Opts into per-run telemetry on the response.
    pub fn with_telemetry(mut self) -> Self {
        self.telemetry = true;
        self
    }

    /// Assigns the job's priority class. Jobs default to
    /// [`Priority::Batch`]; a queued [`Priority::Interactive`] job runs
    /// before every queued batch job.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Gives the job a deadline *budget*, measured from the moment of
    /// submission. Admission control refuses the job outright when the
    /// host model predicts it cannot finish inside the budget
    /// ([`ServiceError::DeadlineUnmeetable`]); a job that is admitted but
    /// still queued when the budget runs out is cancelled at dequeue with
    /// [`tonemap_backend::TonemapError::DeadlineExceeded`].
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// The job's priority class.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// The deadline budget, if one was set with
    /// [`JobRequest::with_deadline`].
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The backend spec string, if one was set with
    /// [`JobRequest::on_backend`].
    pub fn backend_spec(&self) -> Option<&str> {
        self.backend.as_deref()
    }

    /// The claimed input dimensions (for raw inputs, the caller's claim).
    pub fn input_dimensions(&self) -> (usize, usize) {
        match &self.input {
            JobInput::Luminance(im) => im.dimensions(),
            JobInput::Rgb(im) => im.dimensions(),
            JobInput::RawLuminance { width, height, .. } => (*width, *height),
        }
    }

    /// Borrows this owned job back into the engine layer's
    /// [`TonemapRequest`].
    ///
    /// The spec string is deliberately *not* propagated: the service
    /// resolves it once (through the registry, sharing the resolved
    /// engine's per-resolution model cache) before the request reaches an
    /// engine, and [`tonemap_backend::TonemapBackend::execute`] ignores it
    /// anyway.
    pub fn to_request(&self) -> TonemapRequest<'_> {
        let request = match &self.input {
            JobInput::Luminance(image) => TonemapRequest::luminance(image),
            JobInput::Rgb(image) => TonemapRequest::rgb(image),
            JobInput::RawLuminance {
                width,
                height,
                pixels,
            } => TonemapRequest::raw_luminance(*width, *height, pixels),
        };
        self.apply_options(request)
    }

    /// The raw-luminance fields, when this job carries raw pixels — the
    /// service's frame-pool staging path inspects these.
    pub(crate) fn raw_input(&self) -> Option<(usize, usize, &Arc<Vec<f32>>)> {
        match &self.input {
            JobInput::RawLuminance {
                width,
                height,
                pixels,
            } => Some((*width, *height, pixels)),
            _ => None,
        }
    }

    /// [`JobRequest::to_request`], but over a caller-provided luminance
    /// image in place of the job's own input — used by the service to
    /// execute a raw job through a pool-staged frame without a fresh
    /// allocation.
    pub(crate) fn to_request_with_luminance<'a>(
        &'a self,
        image: &'a LuminanceImage,
    ) -> TonemapRequest<'a> {
        self.apply_options(TonemapRequest::luminance(image))
    }

    fn apply_options<'a>(&'a self, mut request: TonemapRequest<'a>) -> TonemapRequest<'a> {
        if let Some(params) = self.params {
            request = request.with_params(params);
        }
        if let Some(plan) = &self.pipeline {
            request = request.with_pipeline(plan.clone());
        }
        request = request.with_output(self.output);
        if self.telemetry {
            request = request.with_telemetry();
        }
        request
    }
}

/// The outcome of one executed job: what the worker sends over the
/// completion channel and what [`JobHandle::wait`] /
/// [`JobHandle::wait_timeout`] yield once the job completed.
pub type JobOutcomeResult = Result<TonemapResponse, ServiceError>;

/// A handle to a submitted job: a future-by-channel.
///
/// The worker that executes the job sends exactly one outcome over a
/// private channel; waiting on the handle receives it. Dropping the
/// handle is allowed — the job still executes, its result is discarded.
#[derive(Debug)]
#[must_use = "dropping a job handle discards the job's result"]
pub struct JobHandle {
    id: u64,
    receiver: Receiver<JobOutcomeResult>,
}

impl JobHandle {
    pub(crate) fn new(id: u64, receiver: Receiver<JobOutcomeResult>) -> Self {
        JobHandle { id, receiver }
    }

    /// The service-assigned job id (monotonic per service, in submission
    /// order).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the job completes.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Tonemap`] when the job executed and failed, or
    /// [`ServiceError::Lost`] when the executing worker died (task panic)
    /// before reporting.
    pub fn wait(self) -> Result<TonemapResponse, ServiceError> {
        self.receiver.recv().unwrap_or(Err(ServiceError::Lost))
    }

    /// Waits up to `timeout` for the job to complete, handing the handle
    /// back on timeout so the caller can keep waiting later.
    ///
    /// # Errors
    ///
    /// Returns `Err(self)` on timeout; otherwise the job's outcome, as in
    /// [`JobHandle::wait`].
    #[allow(clippy::result_large_err)] // Err is the handle itself, by design
    pub fn wait_timeout(self, timeout: Duration) -> Result<JobOutcomeResult, JobHandle> {
        match self.receiver.recv_timeout(timeout) {
            Ok(outcome) => Ok(outcome),
            Err(RecvTimeoutError::Disconnected) => Ok(Err(ServiceError::Lost)),
            Err(RecvTimeoutError::Timeout) => Err(self),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdr_image::synth::SceneKind;

    #[test]
    fn builder_records_every_field_and_round_trips_to_a_request() {
        let scene = SceneKind::GradientRamp.generate(8, 8, 1);
        let job = JobRequest::luminance(scene)
            .on_backend("hw-fix16")
            .with_output(OutputKind::Ldr8)
            .with_telemetry();
        assert_eq!(job.backend_spec(), Some("hw-fix16"));
        assert_eq!(job.input_dimensions(), (8, 8));
        let request = job.to_request();
        assert_eq!(request.output_kind(), OutputKind::Ldr8);
        assert!(request.wants_telemetry());
        // Spec resolution is the service's duty, not the engine's.
        assert_eq!(request.backend_spec(), None);
    }

    #[test]
    fn shared_inputs_are_not_copied() {
        let scene = Arc::new(SceneKind::GradientRamp.generate(4, 4, 2));
        let a = JobRequest::luminance(Arc::clone(&scene));
        let b = JobRequest::rgb(SceneKind::GradientRamp.generate_rgb(4, 4, 2));
        assert_eq!(a.input_dimensions(), b.input_dimensions());
        assert_eq!(Arc::strong_count(&scene), 2);
    }

    #[test]
    fn priority_deadline_and_stream_ride_the_builder() {
        let job = JobRequest::raw_luminance(4, 4, vec![0.5f32; 16])
            .with_priority(Priority::Interactive)
            .with_deadline(Duration::from_millis(20));
        assert_eq!(job.priority(), Priority::Interactive);
        assert_eq!(job.deadline(), Some(Duration::from_millis(20)));
        // Defaults: batch class, no deadline.
        let plain = JobRequest::raw_luminance(4, 4, vec![0.5f32; 16]);
        assert_eq!(plain.priority(), Priority::Batch);
        assert_eq!(plain.deadline(), None);
    }

    #[test]
    fn raw_jobs_report_claimed_dimensions() {
        let job = JobRequest::raw_luminance(4, 3, vec![0.25f32; 12]);
        assert_eq!(job.input_dimensions(), (4, 3));
        assert!(matches!(job.to_request().input_dimensions(), (4, 3)));
    }
}

//! The [`TonemapBackend`] trait: the single, fallible execution contract.

use crate::error::TonemapError;
use crate::output::{BackendOutput, RgbBackendOutput};
use crate::request::{OutputKind, RequestInput, TonemapPayload, TonemapRequest, TonemapResponse};
use codesign::flow::{DesignImplementation, DesignReport};
use hdr_image::rgb::{luminance_plane, reapply_color, to_ldr_rgb};
use hdr_image::{LuminanceImage, RgbImage};
use std::fmt;
use std::sync::Arc;
use tonemap_core::{PipelinePlan, ToneMapParams};
use tonemap_scheduler::{ScheduleClass, ScheduleMode};

/// Introspection data for one engine — what a serving layer lists to its
/// clients and what an operator reads to pick a spec string.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendInfo {
    /// Stable registry name (the spec string's name part).
    pub name: &'static str,
    /// One-line human description of the execution path.
    pub description: &'static str,
    /// The Table II design the engine corresponds to, if any.
    pub design: Option<DesignImplementation>,
    /// The tone-mapping parameters the engine was configured with.
    pub params: ToneMapParams,
    /// How this engine's execution strategy is chosen: `None` for the named
    /// engines' hand-picked paths, a description of the `schedule=` request
    /// for scheduler-resolved engines.
    pub schedule: Option<String>,
}

impl BackendInfo {
    /// `true` when the engine's blur runs in the (simulated) programmable
    /// logic.
    pub fn is_accelerated(&self) -> bool {
        self.design.is_some_and(|d| d.is_accelerated())
    }

    /// `true` when the engine can attach a platform-model cost prediction
    /// to its telemetry.
    pub fn has_platform_model(&self) -> bool {
        self.design.is_some()
    }

    /// `true` when this engine was resolved through a `schedule=` request.
    pub fn is_scheduled(&self) -> bool {
        self.schedule.is_some()
    }
}

impl fmt::Display for BackendInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:<14} {}", self.name, self.description)?;
        if let Some(design) = self.design {
            write!(f, " [Table II: {design}]")?;
        }
        if let Some(schedule) = &self.schedule {
            write!(f, " [{schedule}]")?;
        }
        Ok(())
    }
}

/// One way of executing the paper's tone-mapping pipeline.
///
/// In-tree, one type implements it: [`crate::Engine`], whose rows cover
/// the software float reference, the all-fixed-point software ablation,
/// each simulated accelerator design of Table II and the streaming shapes.
/// Everything downstream — benches, examples, figure binaries, and the
/// `tonemap-service` job server — selects an engine by name from the
/// [`crate::BackendRegistry`] and calls [`TonemapBackend::execute`] with a
/// [`TonemapRequest`]; nothing outside the engine layer calls the
/// `ToneMapper` execution methods directly.
///
/// Backends are `Send + Sync` so a serving layer can share one registry
/// across worker threads — `tonemap-service`'s worker pool does exactly
/// that, holding each engine behind an `Arc` so concurrent jobs share its
/// per-resolution platform-model cache.
pub trait TonemapBackend: Send + Sync {
    /// Stable, unique registry name (e.g. `"sw-f32"`, `"hw-fix16"`).
    fn name(&self) -> &'static str;

    /// One-line human description of the execution path.
    fn description(&self) -> &'static str;

    /// The Table II design this backend corresponds to, if any.
    fn design(&self) -> Option<DesignImplementation> {
        None
    }

    /// The tone-mapping parameters this backend was configured with.
    fn params(&self) -> ToneMapParams;

    /// The engine's schedule class — the quality floor its callers signed
    /// up for plus the design point the cost model prices — when its
    /// execution strategy can be scheduled at all.
    ///
    /// `None` (the default) means the engine has no streaming-equivalent
    /// execution to choose between (the all-fixed `sw-fix16` ablation runs
    /// *every* stage in `Fix16`, which neither executor family reproduces),
    /// so [`TonemapBackend::scheduled`] rejects `schedule=` specs naming it.
    fn schedule_class(&self) -> Option<ScheduleClass> {
        None
    }

    /// A human description of how this engine's execution strategy is
    /// chosen — `None` for the named engines' hand-picked paths, set by
    /// scheduler-resolved engines.
    fn schedule_description(&self) -> Option<String> {
        None
    }

    /// A new engine of the same kind configured with `params` — and, when
    /// `plan` is given, with that compiled [`PipelinePlan`] baked in; when
    /// it is not, a custom plan the engine was compiled with is kept and
    /// only a Fig. 1 chain is re-derived from `params` — with its own
    /// (empty) per-resolution caches.
    ///
    /// This is how the registry turns a spec
    /// (`"hw-fix16?sigma=3"`, `"sw-f32?pipeline=reinhard"`) into a
    /// long-lived engine: the reconfigured instance compiles the plan once
    /// and amortises platform-model evaluations across every request it
    /// serves, where a per-request override cannot.
    ///
    /// # Errors
    ///
    /// Returns [`TonemapError::InvalidParams`] if `params` fail validation,
    /// and [`TonemapError::InvalidSpec`] when a `schedule=stream` engine is
    /// given a plan that cannot stream.
    fn reconfigured(
        &self,
        params: ToneMapParams,
        plan: Option<PipelinePlan>,
    ) -> Result<Arc<dyn TonemapBackend>, TonemapError>;

    /// This engine with its execution strategy chosen per image size by
    /// the scheduler: what a `schedule=` spec naming it resolves to. `spec`
    /// is the full spec string, quoted in errors so the caller sees what
    /// they typed.
    ///
    /// # Errors
    ///
    /// [`TonemapError::InvalidSpec`] when the engine has no schedule space
    /// (the default: an engine opts in by overriding this), or when
    /// `schedule=stream` is requested for a plan that cannot stream.
    fn scheduled(
        &self,
        _mode: ScheduleMode,
        _threads: Option<usize>,
        spec: &str,
    ) -> Result<Arc<dyn TonemapBackend>, TonemapError> {
        Err(TonemapError::no_schedule_space(self.name(), spec))
    }

    /// The execution primitive every request funnels into: tone-maps one
    /// luminance plane, optionally with per-request parameters (validated
    /// here, surfacing [`TonemapError::InvalidParams`]), optionally with a
    /// per-request pipeline plan (compiled here; it wins over the engine's
    /// configured chain), and optionally with the platform model's cost
    /// prediction attached to the telemetry.
    ///
    /// Prefer [`TonemapBackend::execute`]; this method is the hook backend
    /// implementations provide, not the API callers consume.
    ///
    /// A colour-managed plan (one whose input register is not `Scalar`)
    /// cannot serve a luminance request: implementations reject it with a
    /// typed [`PlanError::ScalarInputRequired`](tonemap_core::PlanError)
    /// instead of executing — route such plans through
    /// [`TonemapBackend::run_rgb`].
    fn run_luminance(
        &self,
        input: &LuminanceImage,
        params: Option<&ToneMapParams>,
        plan: Option<&PipelinePlan>,
        with_model: bool,
    ) -> Result<BackendOutput, TonemapError>;

    /// [`TonemapBackend::run_luminance`], with the output written into
    /// `frame`: a frame of the input's length is overwritten without a fill
    /// and becomes the output image's buffer, and any other is resized.
    ///
    /// The default drops `frame` and runs
    /// [`TonemapBackend::run_luminance`], so an engine that does not
    /// override this still serves every request, with a fresh output.
    /// [`crate::Engine`] overrides it.
    fn run_luminance_into(
        &self,
        input: &LuminanceImage,
        params: Option<&ToneMapParams>,
        plan: Option<&PipelinePlan>,
        with_model: bool,
        frame: Vec<f32>,
    ) -> Result<BackendOutput, TonemapError> {
        drop(frame);
        self.run_luminance(input, params, plan, with_model)
    }

    /// The colour execution primitive: tone-maps one RGB image through the
    /// plan's register file.
    ///
    /// The default implementation is the classic ratio wrapper every RGB
    /// request used before plans carried channel layouts — extract the
    /// luminance plane, run [`TonemapBackend::run_luminance`] on it,
    /// re-apply the chrominance ratios — which is exactly what
    /// [`tonemap_core::run_color_plan`] does for a `Scalar`-input plan. The
    /// in-tree [`crate::Engine`] overrides this to walk the plan's colour
    /// stages directly (through the core `map_rgb` family), so `Rgb`-input plans
    /// (`pipeline=hsv-reinhard`, `pipeline=pq-out`, …) execute end-to-end;
    /// an engine keeping this default serves scalar plans only and surfaces
    /// [`PlanError::ScalarInputRequired`](tonemap_core::PlanError) for the
    /// rest.
    ///
    /// # Errors
    ///
    /// As [`TonemapBackend::run_luminance`], plus [`TonemapError::Image`]
    /// from the colour recombine.
    fn run_rgb(
        &self,
        input: &RgbImage,
        params: Option<&ToneMapParams>,
        plan: Option<&PipelinePlan>,
        with_model: bool,
    ) -> Result<RgbBackendOutput, TonemapError> {
        let luminance = luminance_plane(input);
        let run = self.run_luminance(&luminance, params, plan, with_model)?;
        let image = reapply_color(input, &run.image)?;
        Ok(RgbBackendOutput {
            image,
            telemetry: run.telemetry,
        })
    }

    /// Executes one [`TonemapRequest`]: validates the input image and any
    /// parameter override, runs the pipeline, applies colour re-application
    /// for RGB requests, and shapes the payload per the requested
    /// [`OutputKind`].
    ///
    /// The request's backend spec (if any) is ignored here — the engine is
    /// already chosen; [`crate::BackendRegistry::execute`] is the entry
    /// point that interprets it.
    ///
    /// # Errors
    ///
    /// [`TonemapError::InvalidParams`] for a bad parameter override,
    /// [`TonemapError::Image`] for a zero-dimension or mis-sized raw input,
    /// an input with no finite pixel at all (normalization sanitizes
    /// scattered non-finite samples to 0, but an all-non-finite frame has
    /// nothing left to map), or a colour re-application mismatch.
    fn execute(&self, request: &TonemapRequest<'_>) -> Result<TonemapResponse, TonemapError> {
        self.execute_into(request, Vec::new())
    }

    /// [`TonemapBackend::execute`], with a luminance request's output
    /// written into `frame` ([`TonemapBackend::run_luminance_into`]). On
    /// an engine that writes there, as [`crate::Engine`] does, a
    /// display-referred response carries `frame` as its image buffer and
    /// an LDR-8 response is shaped from it. An RGB request, or a request
    /// that fails, drops `frame`.
    ///
    /// # Errors
    ///
    /// As [`TonemapBackend::execute`].
    fn execute_into(
        &self,
        request: &TonemapRequest<'_>,
        frame: Vec<f32>,
    ) -> Result<TonemapResponse, TonemapError> {
        let params = request.params_override();
        let plan = request.pipeline_plan();
        let with_telemetry = request.wants_telemetry();
        match *request.input() {
            RequestInput::Luminance(image) => {
                ensure_some_finite_pixels(image)?;
                let run = self.run_luminance_into(image, params, plan, with_telemetry, frame)?;
                Ok(luminance_response(
                    run,
                    request.output_kind(),
                    with_telemetry,
                ))
            }
            RequestInput::RawLuminance {
                width,
                height,
                pixels,
            } => {
                let image = LuminanceImage::from_vec(width, height, pixels.to_vec())?;
                ensure_some_finite_pixels(&image)?;
                let run = self.run_luminance_into(&image, params, plan, with_telemetry, frame)?;
                Ok(luminance_response(
                    run,
                    request.output_kind(),
                    with_telemetry,
                ))
            }
            RequestInput::Rgb(image) => {
                // Reject only a frame with no finite channel anywhere; a
                // systematically dead channel (e.g. all-NaN red) still
                // leaves recoverable data in the others.
                if !image
                    .pixels()
                    .iter()
                    .any(|p| p.r.is_finite() || p.g.is_finite() || p.b.is_finite())
                {
                    return Err(TonemapError::Image(hdr_image::ImageError::NoFinitePixels));
                }
                // Sanitize non-finite channels before any colour register is
                // derived: normalization zeroes non-finite *luminance*
                // samples, but the ratio recombine and the colour point ops
                // read the original channels, where one NaN channel would
                // otherwise poison the whole output pixel.
                let sanitized = sanitized_rgb(image);
                let source = sanitized.as_ref().unwrap_or(image);
                let run = self.run_rgb(source, params, plan, with_telemetry)?;
                Ok(rgb_response(run, request.output_kind(), with_telemetry))
            }
        }
    }

    /// Executes many requests through this engine, in order, failing fast
    /// on the first error. Same-sized scenes amortise the platform-model
    /// evaluation through the engine's per-resolution cache.
    fn execute_batch(
        &self,
        requests: &[TonemapRequest<'_>],
    ) -> Result<Vec<TonemapResponse>, TonemapError> {
        requests
            .iter()
            .map(|request| self.execute(request))
            .collect()
    }

    /// Introspection data for this engine.
    fn info(&self) -> BackendInfo {
        BackendInfo {
            name: self.name(),
            description: self.description(),
            design: self.design(),
            params: self.params(),
            schedule: self.schedule_description(),
        }
    }

    /// The platform model's full evaluation of this backend's design at the
    /// given image dimensions — the row this backend contributes to
    /// Table II. `None` for backends without a Table II design.
    fn design_report(&self, width: usize, height: usize) -> Option<DesignReport>;
}

/// Rejects inputs with no finite pixel at all. Scattered NaN/∞ samples are
/// sanitized to 0 by normalization; a frame that is *entirely* non-finite
/// would sanitize to all-black, which is a broken capture the caller should
/// hear about rather than receive.
fn ensure_some_finite_pixels(image: &LuminanceImage) -> Result<(), TonemapError> {
    if image.pixels().iter().any(|v| v.is_finite()) {
        Ok(())
    } else {
        Err(TonemapError::Image(hdr_image::ImageError::NoFinitePixels))
    }
}

/// A copy of `image` with every non-finite channel zeroed, or `None` when
/// the image is already fully finite (the common case pays one scan, no
/// copy).
fn sanitized_rgb(image: &RgbImage) -> Option<RgbImage> {
    let finite = |c: f32| if c.is_finite() { c } else { 0.0 };
    image
        .pixels()
        .iter()
        .any(|p| !(p.r.is_finite() && p.g.is_finite() && p.b.is_finite()))
        .then(|| {
            image.map(|p| hdr_image::Rgb {
                r: finite(p.r),
                g: finite(p.g),
                b: finite(p.b),
            })
        })
}

fn luminance_response(
    run: BackendOutput,
    output: OutputKind,
    with_telemetry: bool,
) -> TonemapResponse {
    let payload = match output {
        OutputKind::DisplayReferred => TonemapPayload::Luminance(run.image),
        OutputKind::Ldr8 => TonemapPayload::LuminanceLdr(run.image.to_ldr()),
    };
    TonemapResponse::new(payload, with_telemetry.then_some(run.telemetry))
}

fn rgb_response(
    run: RgbBackendOutput,
    output: OutputKind,
    with_telemetry: bool,
) -> TonemapResponse {
    let payload = match output {
        OutputKind::DisplayReferred => TonemapPayload::Rgb(run.image),
        OutputKind::Ldr8 => TonemapPayload::RgbLdr(to_ldr_rgb(&run.image)),
    };
    TonemapResponse::new(payload, with_telemetry.then_some(run.telemetry))
}

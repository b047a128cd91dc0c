//! The executor an engine's plan compiles onto: the stream, at the
//! engine's [`Numerics`] and schedule point. [`CompiledPlan::new`] is the
//! one place a [`SchedulePoint`] becomes an executor.
//!
//! Every point runs the core stream ([`StreamingToneMapper`]): the fused
//! line-buffer pass (the software analogue of the paper's Fig. 4 BRAM line
//! buffer — no full-size intermediate images, the blur kernel quantised
//! once at compilation, row-sliced multi-threading), or at the two-pass
//! point the same stream with a plane materialized after every stencil.
//! Every point's outputs are bit-identical to the per-pixel two-pass
//! reference ([`tonemap_core::ToneMapper`]), so streaming is an execution
//! *shape*, not a Table II design: the `sw-f32-stream` and
//! `hw-fix16-stream` rows carry no design and their telemetry no modeled
//! cost.

use crate::engine::Numerics;
use crate::error::TonemapError;
use apfixed::Fix16;
use hdr_image::{ImageError, LuminanceImage, RgbImage};
use tonemap_core::stream::AllStages;
use tonemap_core::{PipelinePlan, Reductions, StreamingToneMapper, ToneMapParams};
use tonemap_scheduler::SchedulePoint;

/// A plan compiled for one [`Numerics`] at one [`SchedulePoint`]: one
/// stream mapper per numerics, the one place the engine layer picks a
/// sample type and a datapath.
#[derive(Debug)]
pub enum CompiledPlan {
    /// [`Numerics::F32`]: every stage in `f32`.
    F32(StreamingToneMapper<f32>),
    /// [`Numerics::Fix16Blur`]: the point stages in `f32`, the blur in
    /// 16-bit fixed point.
    Fix16Blur(StreamingToneMapper<Fix16>),
    /// [`Numerics::Fix16All`]: every stage in 16-bit fixed point.
    Fix16All(StreamingToneMapper<Fix16, AllStages>),
}

impl CompiledPlan {
    /// Compiles `plan` for `numerics` at `point`: row-sliced over
    /// `point.threads` workers, with every stencil materialized at the
    /// two-pass point
    /// ([`StreamingToneMapper::with_materialized_stencils`]).
    ///
    /// # Errors
    ///
    /// [`TonemapError::InvalidParams`] if `params` fail validation.
    pub fn new(
        plan: PipelinePlan,
        params: ToneMapParams,
        numerics: Numerics,
        point: &SchedulePoint,
    ) -> Result<Self, TonemapError> {
        let materialize = !point.executor.is_streaming();
        Ok(match numerics {
            Numerics::F32 => CompiledPlan::F32(
                StreamingToneMapper::compile(plan, params)?
                    .with_threads(point.threads)
                    .with_materialized_stencils(materialize),
            ),
            Numerics::Fix16Blur => CompiledPlan::Fix16Blur(
                StreamingToneMapper::compile(plan, params)?
                    .with_threads(point.threads)
                    .with_materialized_stencils(materialize),
            ),
            Numerics::Fix16All => CompiledPlan::Fix16All(
                StreamingToneMapper::compile(plan, params)?
                    .with_threads(point.threads)
                    .with_materialized_stencils(materialize),
            ),
        })
    }

    /// Tone-maps one luminance plane, with the plan's reductions bound by
    /// `reductions`: a still passes [`tonemap_core::FrameReductions`].
    ///
    /// # Panics
    ///
    /// Panics if the plan takes a colour register as input, as the core
    /// executor does; check the plan's input layout first.
    pub fn map_luminance(
        &self,
        input: &LuminanceImage,
        reductions: &mut dyn Reductions,
    ) -> LuminanceImage {
        self.map_luminance_into(input, reductions, Vec::new())
    }

    /// [`CompiledPlan::map_luminance`], with the output written into
    /// `frame` ([`StreamingToneMapper::map_luminance_into`]). A frame of
    /// the input's length is overwritten without a fill and returned as the
    /// output's buffer; any other is resized.
    ///
    /// # Panics
    ///
    /// As [`CompiledPlan::map_luminance`].
    pub fn map_luminance_into(
        &self,
        input: &LuminanceImage,
        reductions: &mut dyn Reductions,
        frame: Vec<f32>,
    ) -> LuminanceImage {
        match self {
            CompiledPlan::F32(mapper) => mapper.map_luminance_into(input, reductions, frame),
            CompiledPlan::Fix16Blur(mapper) => mapper.map_luminance_into(input, reductions, frame),
            CompiledPlan::Fix16All(mapper) => mapper.map_luminance_into(input, reductions, frame),
        }
    }

    /// Tone-maps one RGB image through the plan's colour stages.
    ///
    /// # Errors
    ///
    /// Propagates dimension-mismatch errors from the colour
    /// re-application.
    pub fn map_rgb(&self, input: &RgbImage) -> Result<RgbImage, ImageError> {
        match self {
            CompiledPlan::F32(mapper) => mapper.map_rgb(input),
            CompiledPlan::Fix16Blur(mapper) => mapper.map_rgb(input),
            CompiledPlan::Fix16All(mapper) => mapper.map_rgb(input),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::registry::BackendRegistry;
    use crate::request::TonemapRequest;
    use hdr_image::synth::SceneKind;

    #[test]
    fn streaming_engines_match_their_two_pass_counterparts_exactly() {
        let registry = BackendRegistry::standard();
        let hdr = SceneKind::WindowInDarkRoom.generate(48, 37, 6);
        for (streamed, classic) in [("sw-f32-stream", "sw-f32"), ("hw-fix16-stream", "hw-fix16")] {
            let a = registry
                .execute(&TonemapRequest::luminance(&hdr).on_backend(streamed))
                .expect("streaming engine registered");
            let b = registry
                .execute(&TonemapRequest::luminance(&hdr).on_backend(classic))
                .expect("classic engine registered");
            assert_eq!(
                a.luminance().unwrap(),
                b.luminance().unwrap(),
                "{streamed} diverged from {classic}"
            );
        }
    }

    #[test]
    fn streaming_engines_honour_parameter_overrides() {
        let registry = BackendRegistry::standard();
        let hdr = SceneKind::SunAndShadow.generate(32, 32, 8);
        let narrow = registry
            .execute(
                &TonemapRequest::luminance(&hdr).on_backend("sw-f32-stream?sigma=1.5&radius=3"),
            )
            .expect("override spec resolves");
        let classic = registry
            .execute(&TonemapRequest::luminance(&hdr).on_backend("sw-f32?sigma=1.5&radius=3"))
            .expect("override spec resolves");
        assert_eq!(narrow.luminance().unwrap(), classic.luminance().unwrap());
        let default = registry
            .execute(&TonemapRequest::luminance(&hdr).on_backend("sw-f32-stream"))
            .unwrap();
        assert_ne!(narrow.luminance().unwrap(), default.luminance().unwrap());
    }

    #[test]
    fn basedetail_preset_streams_the_two_stencil_cascade_end_to_end() {
        // The two-stencil base–detail plan is servable through the
        // existing `pipeline=` spec surface, and the streaming engine's
        // cascade matches the classic engine exactly.
        let registry = BackendRegistry::standard();
        let hdr = SceneKind::MemorialComposite.generate(40, 28, 12);
        for (streamed, classic) in [("sw-f32-stream", "sw-f32"), ("hw-fix16-stream", "hw-fix16")] {
            let a = registry
                .execute(
                    &TonemapRequest::luminance(&hdr)
                        .on_backend(format!("{streamed}?pipeline=basedetail")),
                )
                .expect("basedetail preset resolves");
            let b = registry
                .execute(
                    &TonemapRequest::luminance(&hdr)
                        .on_backend(format!("{classic}?pipeline=basedetail")),
                )
                .expect("basedetail preset resolves");
            assert_eq!(
                a.luminance().unwrap(),
                b.luminance().unwrap(),
                "{streamed} diverged from {classic} on basedetail"
            );
        }
    }

    #[test]
    fn streaming_telemetry_has_ops_but_no_modeled_cost() {
        let registry = BackendRegistry::standard();
        let hdr = SceneKind::GradientRamp.generate(16, 16, 2);
        let response = registry
            .execute(
                &TonemapRequest::luminance(&hdr)
                    .on_backend("hw-fix16-stream")
                    .with_telemetry(),
            )
            .unwrap();
        let telemetry = response.telemetry().expect("telemetry requested");
        assert_eq!(telemetry.backend, "hw-fix16-stream");
        assert!(telemetry.ops.total() > 0);
        assert!(
            telemetry.modeled.is_none(),
            "streaming shapes have no Table II row"
        );
    }
}

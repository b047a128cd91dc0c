//! The executors an engine's plan compiles onto: the fused line-buffer
//! pass and the two-pass planner it reproduces. [`CompiledPlan::new`] is
//! the one place a [`SchedulePoint`] becomes an executor.
//!
//! The streaming pass runs the whole plan as one raster-order pass over a
//! rolling row ring buffer (the software analogue of the paper's Fig. 4
//! BRAM line buffer): no full-size intermediate images, the blur kernel
//! quantised once at compilation, and row-sliced multi-threading. Its
//! outputs are bit-identical to the two-pass planner's, so streaming is an
//! execution *shape*, not a Table II design: the `sw-f32-stream` and
//! `hw-fix16-stream` rows carry no design and their telemetry no modeled
//! cost.

use crate::engine::Numerics;
use crate::error::TonemapError;
use apfixed::Fix16;
use hdr_image::{ImageError, LuminanceImage, RgbImage};
use tonemap_core::{PipelinePlan, Reductions, StreamingToneMapper, ToneMapParams, ToneMapper};
use tonemap_scheduler::SchedulePoint;

/// A plan compiled for one [`Numerics`] at one [`SchedulePoint`]: the one
/// place the engine layer picks a sample type and an executor.
#[derive(Debug)]
pub enum CompiledPlan {
    /// The two-pass planner, computing in the given numerics.
    TwoPass(Numerics, ToneMapper),
    /// The streaming pass with the `f32` blur datapath.
    StreamF32(StreamingToneMapper<f32>),
    /// The streaming pass with the 16-bit fixed-point blur datapath.
    StreamFix16(StreamingToneMapper<Fix16>),
}

impl CompiledPlan {
    /// Compiles `plan` for `numerics` at `point`: on the streaming pass,
    /// row-sliced over `point.threads` workers, when the point streams, and
    /// on the two-pass planner otherwise. The all-fixed ablation has no
    /// streaming form and always compiles two-pass.
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
        let threads = point.threads;
        Ok(match (numerics, point.executor.is_streaming()) {
            (Numerics::F32, true) => CompiledPlan::StreamF32(
                StreamingToneMapper::compile(plan, params)?.with_threads(threads),
            ),
            (Numerics::Fix16Blur, true) => CompiledPlan::StreamFix16(
                StreamingToneMapper::compile(plan, params)?.with_threads(threads),
            ),
            _ => CompiledPlan::TwoPass(numerics, ToneMapper::compile(plan, params)?),
        })
    }

    /// Tone-maps one luminance plane, with the plan's reductions bound by
    /// `reductions`: a still passes [`tonemap_core::FrameReductions`].
    ///
    /// # Panics
    ///
    /// Panics if the plan takes a colour register as input, as the core
    /// executors do; check the plan's input layout first.
    pub fn map_luminance(
        &self,
        input: &LuminanceImage,
        reductions: &mut dyn Reductions,
    ) -> LuminanceImage {
        self.map_luminance_into(input, reductions, Vec::new())
    }

    /// [`CompiledPlan::map_luminance`], with the output written into
    /// `frame` by the executor's last materializing step. A frame of the
    /// input's length is overwritten without a fill and returned as the
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
            // In `f32` the accelerator boundary converts nothing, so this is
            // also the all-float reference path, bit for bit.
            CompiledPlan::TwoPass(Numerics::F32, mapper) => {
                mapper.map_luminance_hw_blur_into::<f32>(input, reductions, frame)
            }
            CompiledPlan::TwoPass(Numerics::Fix16Blur, mapper) => {
                mapper.map_luminance_hw_blur_into::<Fix16>(input, reductions, frame)
            }
            CompiledPlan::TwoPass(Numerics::Fix16All, mapper) => {
                mapper.map_luminance_into::<Fix16>(input, reductions, frame)
            }
            CompiledPlan::StreamF32(mapper) => mapper.map_luminance_into(input, reductions, frame),
            CompiledPlan::StreamFix16(mapper) => {
                mapper.map_luminance_into(input, reductions, frame)
            }
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
            CompiledPlan::TwoPass(Numerics::F32, mapper) => mapper.map_rgb_hw_blur::<f32>(input),
            CompiledPlan::TwoPass(Numerics::Fix16Blur, mapper) => {
                mapper.map_rgb_hw_blur::<Fix16>(input)
            }
            CompiledPlan::TwoPass(Numerics::Fix16All, mapper) => mapper.map_rgb::<Fix16>(input),
            CompiledPlan::StreamF32(mapper) => mapper.map_rgb(input),
            CompiledPlan::StreamFix16(mapper) => mapper.map_rgb(input),
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

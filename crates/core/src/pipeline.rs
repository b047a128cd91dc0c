//! The assembled tone-mapping pipeline.

use crate::blur::blur_separable;
use crate::ops::PipelineProfile;
use crate::params::{ParamError, ToneMapParams};
use crate::plan::{
    accelerated_blur, execute_plan, execute_plan_into, run_color_plan, ChannelLayout, PipelinePlan,
};
use crate::reductions::{FrameReductions, Reductions};
use crate::sample::Sample;
use hdr_image::{LuminanceImage, RgbImage};

/// The two-pass (materialized) pipeline planner: compiles a
/// [`PipelinePlan`] into stage-by-stage execution with one full-size
/// intermediate per stage — the shape of the paper's original software.
///
/// The classic constructors ([`ToneMapper::new`], [`ToneMapper::try_new`])
/// compile the paper's Fig. 1 chain from a [`ToneMapParams`];
/// [`ToneMapper::compile`] accepts any validated plan (global Reinhard,
/// histogram equalization, custom stage sequences — see [`crate::plan`]).
///
/// Two execution shapes mirror the paper's two platforms:
///
/// * [`ToneMapper::map_luminance`] runs *every* stage in the working sample
///   type `S` (software reference when `S = f32`, an all-fixed-point ablation
///   otherwise).
/// * [`ToneMapper::map_luminance_hw_blur`] runs the point-wise stages in
///   `f32` on the "processing system" and only the Gaussian blur in `S` —
///   exactly the hardware/software split of the paper, where the accelerator
///   receives the mask input over a 16-bit bus, blurs it in `ap_fixed`
///   arithmetic and streams it back.
///
/// Both are one walk over the plan's ops; they differ only in the sample
/// type of the image register and in the stencil step.
///
/// # Example
///
/// ```
/// use hdr_image::synth::SceneKind;
/// use tonemap_core::{ToneMapParams, ToneMapper};
///
/// let hdr = SceneKind::SunAndShadow.generate(32, 32, 9);
/// let mapper = ToneMapper::new(ToneMapParams::paper_default());
///
/// // Software reference (32-bit float everywhere).
/// let float_out = mapper.map_luminance_f32(&hdr);
///
/// // The paper's final accelerator: 16-bit fixed-point Gaussian blur.
/// let fixed_out = mapper.map_luminance_hw_blur::<apfixed::Fix16>(&hdr);
/// assert_eq!(float_out.dimensions(), fixed_out.dimensions());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ToneMapper {
    params: ToneMapParams,
    plan: PipelinePlan,
}

impl ToneMapper {
    /// Creates a tone mapper compiling the paper's Fig. 1 chain from the
    /// given parameters.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid (see
    /// [`ToneMapParams::validate`]); use [`ToneMapper::try_new`] to handle
    /// invalid parameters gracefully.
    pub fn new(params: ToneMapParams) -> Self {
        ToneMapper::try_new(params)
            .unwrap_or_else(|e| panic!("invalid tone-mapping parameters: {e}"))
    }

    /// Creates a tone mapper compiling the paper's Fig. 1 chain, returning a
    /// typed [`ParamError`] if the parameters are invalid.
    pub fn try_new(params: ToneMapParams) -> Result<Self, ParamError> {
        ToneMapper::compile(PipelinePlan::from_params(&params), params)
    }

    /// Compiles an arbitrary validated [`PipelinePlan`] for two-pass
    /// execution. `params` seeds what lives outside the plan (the profiled
    /// channel count); the plan's own stage parameters drive execution.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ParamError`] if `params` fail validation (the plan
    /// itself was validated when it was built).
    pub fn compile(plan: PipelinePlan, params: ToneMapParams) -> Result<Self, ParamError> {
        params.validate()?;
        Ok(ToneMapper { params, plan })
    }

    /// The parameters this mapper was built with.
    pub const fn params(&self) -> &ToneMapParams {
        &self.params
    }

    /// The pipeline plan this mapper executes.
    pub const fn plan(&self) -> &PipelinePlan {
        &self.plan
    }

    /// Tone-maps an HDR luminance image through the compiled plan, computing
    /// every stage in the sample type `S` and returning the display-referred
    /// result as `f32` in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if the compiled plan takes a colour register as input
    /// ([`ChannelLayout::Rgb`]); colour-managed plans have no scalar entry
    /// point — run them through [`ToneMapper::map_rgb`].
    pub fn map_luminance<S: Sample>(&self, hdr: &LuminanceImage) -> LuminanceImage {
        self.map_luminance_with::<S>(hdr, &mut FrameReductions)
    }

    /// [`ToneMapper::map_luminance`], with the plan's reductions bound by
    /// `reductions` instead of the frame's own statistics.
    pub fn map_luminance_with<S: Sample>(
        &self,
        hdr: &LuminanceImage,
        reductions: &mut dyn Reductions,
    ) -> LuminanceImage {
        self.map_luminance_into::<S>(hdr, reductions, Vec::new())
    }

    /// [`ToneMapper::map_luminance_with`], converting the result into
    /// `frame`: a frame of the image's length is overwritten without a
    /// fill and returned as the output's buffer; any other is resized.
    pub fn map_luminance_into<S: Sample>(
        &self,
        hdr: &LuminanceImage,
        reductions: &mut dyn Reductions,
        frame: Vec<f32>,
    ) -> LuminanceImage {
        self.assert_scalar_input("map_luminance");
        execute_plan(&self.plan, hdr, blur_separable::<S>, reductions)
            .map_into(|&v| v.to_f32(), frame)
    }

    /// Tone-maps an HDR luminance image entirely in 32-bit floating point —
    /// the paper's software reference path.
    pub fn map_luminance_f32(&self, hdr: &LuminanceImage) -> LuminanceImage {
        self.map_luminance::<f32>(hdr)
    }

    /// Tone-maps an HDR luminance image through the compiled plan with only
    /// the stencil stages (the Gaussian blur) computed in the sample type
    /// `S` — the paper's accelerated configuration (`S = f32` models the
    /// 32-bit floating-point accelerator, `S = Fix16` the final 16-bit
    /// fixed-point one).
    ///
    /// # Panics
    ///
    /// Panics if the compiled plan takes a colour register as input
    /// ([`ChannelLayout::Rgb`]); colour-managed plans have no scalar entry
    /// point — run them through [`ToneMapper::map_rgb_hw_blur`].
    pub fn map_luminance_hw_blur<S: Sample>(&self, hdr: &LuminanceImage) -> LuminanceImage {
        self.map_luminance_hw_blur_with::<S>(hdr, &mut FrameReductions)
    }

    /// [`ToneMapper::map_luminance_hw_blur`], with the plan's reductions
    /// bound by `reductions` instead of the frame's own statistics.
    pub fn map_luminance_hw_blur_with<S: Sample>(
        &self,
        hdr: &LuminanceImage,
        reductions: &mut dyn Reductions,
    ) -> LuminanceImage {
        self.map_luminance_hw_blur_into::<S>(hdr, reductions, Vec::new())
    }

    /// [`ToneMapper::map_luminance_hw_blur_with`], with the `f32` register
    /// materialized in `frame`: a frame of the image's length is
    /// overwritten without a fill and returned as the output's buffer; any
    /// other is resized.
    pub fn map_luminance_hw_blur_into<S: Sample>(
        &self,
        hdr: &LuminanceImage,
        reductions: &mut dyn Reductions,
        frame: Vec<f32>,
    ) -> LuminanceImage {
        self.assert_scalar_input("map_luminance_hw_blur");
        execute_plan_into(&self.plan, hdr, accelerated_blur::<S>, reductions, frame)
    }

    fn assert_scalar_input(&self, method: &str) {
        assert_eq!(
            self.plan.input_layout(),
            ChannelLayout::Scalar,
            "{method} requires a scalar-input plan; this plan takes a `{}` register — \
             run it through the map_rgb entry points",
            self.plan.input_layout()
        );
    }

    /// Tone-maps a colour HDR image through the compiled plan, with every
    /// scalar stage computed in the sample type `S`.
    ///
    /// A **scalar-input plan** runs as the explicit composition the old
    /// hard-coded wrapper performed implicitly
    /// ([`PipelinePlan::compose_for_rgb`]): extract the luminance plane,
    /// tone-map it, re-apply the chrominance by clamped ratio — bit-identical
    /// to the old path. A **colour-managed plan** ([`ChannelLayout::Rgb`]
    /// input) executes its colour point stages (RGB ↔ HSV, PQ/HLG transfer
    /// curves, HSV-value tone curves, chroma split/merge) in `f32` row passes
    /// and its embedded scalar sub-plans through the two-pass executor.
    ///
    /// # Errors
    ///
    /// Propagates dimension-mismatch errors from the colour re-application;
    /// these cannot occur for images produced through this crate's public
    /// API.
    pub fn map_rgb<S: Sample>(&self, hdr: &RgbImage) -> Result<RgbImage, hdr_image::ImageError> {
        run_color_plan(&self.plan, hdr, |_, sub_plan, lum| {
            let mapped = execute_plan(sub_plan, lum, blur_separable::<S>, &mut FrameReductions);
            Ok(mapped.map(|&v| v.to_f32()))
        })
    }

    /// Tone-maps a colour HDR image through the compiled plan with the
    /// paper's hardware/software split on every scalar sub-plan: point-wise
    /// stages in `f32`, stencils in `S` with quantisation at the accelerator
    /// boundary. This is the colour entry point whose pixels the streaming
    /// planner ([`crate::StreamingToneMapper::map_rgb`]) reproduces
    /// bit-identically.
    ///
    /// # Errors
    ///
    /// Propagates dimension-mismatch errors from the colour re-application;
    /// these cannot occur for images produced through this crate's public
    /// API.
    pub fn map_rgb_hw_blur<S: Sample>(
        &self,
        hdr: &RgbImage,
    ) -> Result<RgbImage, hdr_image::ImageError> {
        run_color_plan(&self.plan, hdr, |_, sub_plan, lum| {
            Ok(execute_plan(
                sub_plan,
                lum,
                accelerated_blur::<S>,
                &mut FrameReductions,
            ))
        })
    }

    /// The analytic operation-count profile of the compiled plan for an
    /// image of the given dimensions (used by the SDSoC-style profiler and
    /// the ARM timing model). For the Fig. 1 plan this equals
    /// [`PipelineProfile::analytic`].
    pub fn profile(&self, width: usize, height: usize) -> PipelineProfile {
        self.plan.profile(width, height, self.params.channels)
    }
}

impl Default for ToneMapper {
    fn default() -> Self {
        ToneMapper::new(ToneMapParams::paper_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apfixed::Fix16;
    use hdr_image::metrics::{psnr, ssim};
    use hdr_image::synth::SceneKind;

    fn mapper() -> ToneMapper {
        ToneMapper::new(ToneMapParams::paper_default())
    }

    #[test]
    #[should_panic(expected = "invalid tone-mapping parameters")]
    fn new_rejects_invalid_parameters() {
        let mut p = ToneMapParams::paper_default();
        p.blur.radius = 0;
        let _ = ToneMapper::new(p);
    }

    #[test]
    fn try_new_returns_typed_error_for_invalid_parameters() {
        let mut p = ToneMapParams::paper_default();
        p.channels = 0;
        assert_eq!(ToneMapper::try_new(p), Err(ParamError::ZeroChannels));
        assert!(ToneMapper::try_new(ToneMapParams::paper_default()).is_ok());
    }

    #[test]
    fn output_is_display_referred() {
        let hdr = SceneKind::WindowInDarkRoom.generate(48, 48, 1);
        let out = mapper().map_luminance_f32(&hdr);
        assert_eq!(out.dimensions(), hdr.dimensions());
        for &v in out.pixels() {
            assert!((0.0..=1.0).contains(&v), "pixel {v} out of display range");
        }
    }

    #[test]
    fn tone_mapping_compresses_dynamic_range() {
        let hdr = SceneKind::WindowInDarkRoom.generate(64, 64, 2);
        let out = mapper().map_luminance_f32(&hdr);
        let normalized = crate::normalize::normalize(&hdr);
        // In the normalized HDR input the vast majority of pixels sit in the
        // bottom 5% of the display range (that is what makes it HDR); after
        // tone mapping most of that content must have been lifted into the
        // usable range.
        let dark_fraction = |im: &LuminanceImage| {
            im.pixels().iter().filter(|&&v| v < 0.05).count() as f64 / im.pixel_count() as f64
        };
        let before = dark_fraction(&normalized);
        let after = dark_fraction(&out);
        assert!(
            before > 0.5,
            "test scene should be mostly dark, got {before}"
        );
        assert!(
            after < before / 2.0,
            "dark fraction only moved from {before} to {after}"
        );
    }

    #[test]
    fn dark_regions_are_lifted_relative_to_global_scaling() {
        let hdr = SceneKind::WindowInDarkRoom.generate(64, 64, 4);
        let normalized = crate::normalize::normalize(&hdr);
        let out = mapper().map_luminance_f32(&hdr);
        assert!(
            out.mean() > 1.5 * normalized.mean(),
            "output mean {} vs normalized mean {}",
            out.mean(),
            normalized.mean()
        );
    }

    #[test]
    fn hw_blur_with_f32_matches_pure_software_path() {
        let hdr = SceneKind::SunAndShadow.generate(48, 48, 5);
        let m = mapper();
        let sw = m.map_luminance_f32(&hdr);
        let hw = m.map_luminance_hw_blur::<f32>(&hdr);
        for (a, b) in sw.pixels().iter().zip(hw.pixels()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn fixed_point_blur_output_is_visually_identical_to_float() {
        // The Fig. 5 experiment in miniature: only the blur runs in 16-bit
        // fixed point; PSNR should be high and SSIM ~ 1.
        let hdr = SceneKind::WindowInDarkRoom.generate(96, 96, 7);
        let m = mapper();
        let float = m.map_luminance_hw_blur::<f32>(&hdr);
        let fixed = m.map_luminance_hw_blur::<Fix16>(&hdr);
        let p = psnr(&float, &fixed, 1.0);
        let s = ssim(&float, &fixed).unwrap();
        assert!(p > 45.0, "psnr {p} dB too low");
        assert!(s > 0.99, "ssim {s} too low");
    }

    #[test]
    fn full_fixed_point_pipeline_degrades_more_than_blur_only() {
        let hdr = SceneKind::WindowInDarkRoom.generate(64, 64, 9);
        let m = mapper();
        let reference = m.map_luminance_f32(&hdr);
        let blur_only = m.map_luminance_hw_blur::<Fix16>(&hdr);
        let all_fixed = m.map_luminance::<Fix16>(&hdr);
        let psnr_blur_only = psnr(&reference, &blur_only, 1.0);
        let psnr_all_fixed = psnr(&reference, &all_fixed, 1.0);
        assert!(
            psnr_blur_only > psnr_all_fixed,
            "blur-only {psnr_blur_only} dB should beat all-fixed {psnr_all_fixed} dB"
        );
    }

    #[test]
    fn rgb_mapping_preserves_dimensions_and_range() {
        let hdr = SceneKind::SunAndShadow.generate_rgb(32, 32, 3);
        let out = mapper().map_rgb::<f32>(&hdr).unwrap();
        assert_eq!(out.dimensions(), hdr.dimensions());
        for p in out.pixels() {
            assert!(p.r >= 0.0 && p.r <= 1.0);
            assert!(p.g >= 0.0 && p.g <= 1.0);
            assert!(p.b >= 0.0 && p.b <= 1.0);
        }
    }

    #[test]
    fn rgb_mapping_preserves_hue_ratios_in_midtones() {
        let hdr = SceneKind::GradientRamp.generate_rgb(32, 32, 11);
        let out = mapper().map_rgb::<f32>(&hdr).unwrap();
        for (inp, outp) in hdr.pixels().iter().zip(out.pixels()) {
            // Where nothing clipped, the channel ratios should match.
            if outp.max_channel() < 0.95 && inp.r > 1e-3 && inp.g > 1e-3 {
                let before = inp.r / inp.g;
                let after = outp.r / outp.g;
                assert!((before - after).abs() / before < 0.05);
            }
        }
    }

    #[test]
    fn default_mapper_uses_paper_parameters() {
        assert_eq!(
            *ToneMapper::default().params(),
            ToneMapParams::paper_default()
        );
    }

    #[test]
    fn compile_executes_custom_plans() {
        use crate::plan::{Curve, PipelineOp, PipelinePlan};
        let hdr = SceneKind::SunAndShadow.generate(32, 32, 7);
        let plan = PipelinePlan::new(vec![
            PipelineOp::Normalize,
            PipelineOp::Curve(Curve::Reinhard {
                key: 8.0,
                white: 8.0,
            }),
        ])
        .unwrap();
        let custom = ToneMapper::compile(plan.clone(), ToneMapParams::paper_default()).unwrap();
        assert_eq!(custom.plan(), &plan);
        let out = custom.map_luminance_f32(&hdr);
        assert!(out.pixels().iter().all(|v| (0.0..=1.0).contains(v)));
        assert_ne!(out, mapper().map_luminance_f32(&hdr));
        // Profiles follow the plan, not the Fig. 1 chain.
        assert_eq!(custom.profile(32, 32).stages.len(), 2);

        let mut bad = ToneMapParams::paper_default();
        bad.channels = 0;
        assert_eq!(
            ToneMapper::compile(plan, bad),
            Err(ParamError::ZeroChannels)
        );
    }

    #[test]
    fn profile_identifies_blur_as_hotspot() {
        let profile = mapper().profile(1024, 1024);
        assert_eq!(
            profile.ranked_by_ops()[0].stage,
            crate::ops::StageKind::GaussianBlur
        );
    }

    #[test]
    fn map_rgb_via_plan_composition_matches_the_old_wrapper() {
        // The redesign contract for the colour path: expressing the old
        // hard-coded wrapper as plan composition changes no pixel.
        let hdr = SceneKind::SunAndShadow.generate_rgb(32, 27, 3);
        let m = mapper();
        let lum = hdr_image::rgb::luminance_plane(&hdr);
        let old_all_s = hdr_image::rgb::reapply_color(&hdr, &m.map_luminance::<Fix16>(&lum));
        assert_eq!(m.map_rgb::<Fix16>(&hdr).unwrap(), old_all_s.unwrap());
        let old_hw = hdr_image::rgb::reapply_color(&hdr, &m.map_luminance_hw_blur::<Fix16>(&lum));
        assert_eq!(m.map_rgb_hw_blur::<Fix16>(&hdr).unwrap(), old_hw.unwrap());
    }

    #[test]
    fn colour_managed_presets_execute_end_to_end() {
        use crate::plan::PlanTuning;
        let hdr = SceneKind::MemorialComposite.generate_rgb(24, 24, 7);
        let params = ToneMapParams::paper_default();
        for name in [
            "hsv-reinhard",
            "filmic",
            "aces",
            "drago",
            "pq-out",
            "hlg-out",
        ] {
            let plan = PipelinePlan::preset(name, &params, &PlanTuning::default())
                .unwrap()
                .unwrap();
            let m = ToneMapper::compile(plan, params).unwrap();
            for out in [
                m.map_rgb::<f32>(&hdr).unwrap(),
                m.map_rgb_hw_blur::<Fix16>(&hdr).unwrap(),
            ] {
                assert_eq!(out.dimensions(), hdr.dimensions());
                for p in out.pixels() {
                    for c in [p.r, p.g, p.b] {
                        assert!((0.0..=1.0).contains(&c), "{name}: channel {c}");
                    }
                }
            }
        }
    }

    #[test]
    fn hsv_preset_preserves_hue_and_saturation() {
        use crate::plan::PlanTuning;
        let params = ToneMapParams::paper_default();
        let plan = PipelinePlan::preset("hsv-reinhard", &params, &PlanTuning::default())
            .unwrap()
            .unwrap();
        let hdr = SceneKind::SunAndShadow.generate_rgb(16, 16, 13);
        let out = ToneMapper::compile(plan, params)
            .unwrap()
            .map_rgb::<f32>(&hdr)
            .unwrap();
        for (inp, outp) in hdr.pixels().iter().zip(out.pixels()) {
            let before = crate::color::rgb_to_hsv(*inp);
            let after = crate::color::rgb_to_hsv(*outp);
            // Normalization scales channels uniformly and the tone curve
            // touches only V, so hue and saturation ride along untouched
            // (up to conversion round-off) wherever they are defined.
            if before.g > 1e-3 && after.g > 1e-3 {
                assert!((before.r - after.r).abs() < 1e-3, "hue drifted");
                assert!((before.g - after.g).abs() < 1e-3, "saturation drifted");
            }
        }
    }

    #[test]
    #[should_panic(expected = "scalar-input plan")]
    fn map_luminance_panics_on_colour_plans() {
        use crate::plan::PlanTuning;
        let params = ToneMapParams::paper_default();
        let plan = PipelinePlan::preset("hsv-reinhard", &params, &PlanTuning::default())
            .unwrap()
            .unwrap();
        let hdr = SceneKind::GradientRamp.generate(8, 8, 1);
        let _ = ToneMapper::compile(plan, params)
            .unwrap()
            .map_luminance::<f32>(&hdr);
    }
}

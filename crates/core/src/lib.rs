//! Local HDR-image tone mapping by non-linear masking.
//!
//! This crate implements the algorithm of Section II of the SOCC 2018 paper
//! — a *local* tone-mapping operator derived from Moroney's "Local Color
//! Correction Using Non-Linear Masking" (CIC 2000), the reference the paper
//! builds on. The pipeline follows the block diagram of Fig. 1:
//!
//! 1. **Image normalization** — every pixel is divided by the maximum pixel
//!    value, mapping the HDR input into `[0, 1]` ([`normalize`]).
//! 2. **Gaussian blur** — a two-dimensional Gaussian filter produces a
//!    low-pass *mask* describing the local neighbourhood brightness
//!    ([`blur`]). This is the function the paper off-loads to the FPGA.
//! 3. **Non-linear masking** — each pixel of the normalized image is
//!    gamma-corrected with an exponent derived from the mask, brightening
//!    dark regions and darkening bright ones ([`masking`]).
//! 4. **Brightness and contrast adjustment** — a final global adjustment to
//!    improve output quality ([`adjust`]).
//!
//! Every stage is generic over the sample type through the [`Sample`] trait,
//! so the same code runs in `f32` (the paper's software reference and the
//! 32-bit floating-point accelerator) and in 16-bit fixed point via
//! [`apfixed::Fix`] (the paper's final accelerator), enabling the Fig. 5
//! quality comparison.
//!
//! Since the plan redesign the chain itself is *data*: a validated
//! [`PipelinePlan`] operator graph ([`plan`]) whose catalogue spans point
//! ops (normalize, mask, and the per-sample [`Curve`]s: invert, adjust,
//! gamma/log curves, global Reinhard, the filmic Hable/ACES/Drago curves
//! and the PQ/HLG transfer curves of [`color`]), the stencil op (separable
//! Gaussian blur), a reduction-backed op (histogram equalization) and the
//! colour-register ops of the typed register file ([`ChannelLayout`]):
//! RGB ↔ HSV conversion and the explicit chroma split/merge pair that
//! re-expresses the old hard-coded RGB ratio path as plan composition
//! ([`PipelinePlan::compose_for_rgb`]).
//! [`PipelinePlan::paper_default`] reproduces Fig. 1 exactly, and two
//! *planners* compile any plan. The fused [`StreamingToneMapper`]
//! ([`stream`]) is the one executor: it runs plans as raster-order
//! *cascades* of rolling row ring buffers — one software analogue of the
//! BRAM line buffer of Fig. 4 per stencil stage, composed back-to-back —
//! with no full-size intermediates. Reductions over intermediates become
//! materialization *barriers* ([`PipelinePlan::segmentation`]) that split
//! the plan into fused segments rather than blocking fusion, and the
//! planner's verdict ([`StreamingDecision`]) reports the fusion shape —
//! fully fused, or segmented with its barriers. Its two-pass schedule point
//! materializes a plane after every stencil, and its registers compute in
//! `f32` (the paper's hardware/software split) or in the stencil's sample
//! type throughout. The stage-by-stage [`ToneMapper`] (one full-size
//! intermediate per stage and a per-pixel blur, the shape of the paper's
//! original software) is the independent reference every schedule point
//! equals bit for bit.
//!
//! Each stage also reports its per-pixel operation counts ([`ops`]), which
//! the `zynq-sim` processing-system model turns into ARM execution-time
//! estimates and the `codesign` profiler uses to identify the Gaussian blur
//! as the dominant function.
//!
//! # Example
//!
//! ```
//! use hdr_image::synth::SceneKind;
//! use tonemap_core::{ToneMapParams, ToneMapper};
//!
//! let hdr = SceneKind::WindowInDarkRoom.generate(64, 64, 1);
//! let mapper = ToneMapper::new(ToneMapParams::paper_default());
//! let ldr = mapper.map_luminance_f32(&hdr);
//! // The output is display-referred, i.e. entirely inside [0, 1].
//! assert!(ldr.pixels().iter().all(|&v| (0.0..=1.0).contains(&v)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adjust;
pub mod blur;
pub mod color;
pub mod cores;
pub mod masking;
pub mod normalize;
pub mod ops;
mod params;
pub mod pipeline;
pub mod plan;
mod point;
mod pow;
mod reductions;
mod sample;
pub mod stream;

pub use params::{AdjustParams, BlurParams, MaskingParams, ParamError, ToneMapParams};
pub use pipeline::ToneMapper;
pub use plan::{
    run_color_plan, ChannelLayout, ColorStage, Curve, PipelineOp, PipelinePlan, PlanError,
    PlanSegment, PlanSegmentation, PlanTuning,
};
pub use reductions::{FrameReductions, Reductions};
pub use sample::Sample;
pub use stream::{StreamBarrier, StreamingDecision, StreamingToneMapper};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ToneMapParams>();
        assert_send_sync::<ToneMapper>();
        assert_send_sync::<ops::PipelineProfile>();
    }
}

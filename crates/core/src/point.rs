//! Point ops compiled into row kernels.
//!
//! The fused executors apply a chain of point ops to every sample of a row.
//! Interpreting the chain once per sample (a `match` on the op and on the
//! mask `Option` for every op of every pixel) keeps the per-sample helpers
//! from vectorizing and costs more than the arithmetic itself. A
//! [`CompiledPointOp`] is instead applied op-major, one whole row at a
//! time: the op and its mask are matched once per row, and the unchanged
//! per-sample helper runs in a tight loop. Every sample still goes through
//! the same arithmetic in the same op order, so the row kernels are
//! bit-identical to the per-sample chain and to the two-pass stage
//! functions.

use crate::adjust::adjusted_sample;
use crate::color;
use crate::masking::masked_sample;
use crate::params::MaskingParams;
use crate::plan::{log_curve_sample, reinhard_sample, PipelineOp};
use crate::sample::Sample;

/// A point op compiled for the `f32` row kernels of the fused passes. Each
/// arm applies exactly the arithmetic of the two-pass stage functions, so
/// fused and materialized execution stay bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum CompiledPointOp {
    Invert,
    Mask(MaskingParams),
    Adjust { contrast: f32, offset: f32 },
    Gamma(f32),
    LogCurve(f32),
    Reinhard { key: f32, white: f32 },
    PqOetf(f32),
    PqEotf(f32),
    HlgOetf,
    HlgEotf,
    Hable(f32),
    Aces(f32),
    Drago(f32),
}

impl CompiledPointOp {
    pub(crate) fn from_op(op: &PipelineOp) -> Self {
        match *op {
            PipelineOp::Invert => CompiledPointOp::Invert,
            PipelineOp::Mask(masking) => CompiledPointOp::Mask(masking),
            PipelineOp::Adjust(adjust) => CompiledPointOp::Adjust {
                contrast: adjust.contrast,
                offset: 0.5 + adjust.brightness,
            },
            PipelineOp::Gamma { gamma } => CompiledPointOp::Gamma(gamma),
            PipelineOp::LogCurve { scale } => CompiledPointOp::LogCurve(scale),
            PipelineOp::Reinhard { key, white } => CompiledPointOp::Reinhard { key, white },
            PipelineOp::PqOetf { peak_nits } => CompiledPointOp::PqOetf(peak_nits),
            PipelineOp::PqEotf { peak_nits } => CompiledPointOp::PqEotf(peak_nits),
            PipelineOp::HlgOetf => CompiledPointOp::HlgOetf,
            PipelineOp::HlgEotf => CompiledPointOp::HlgEotf,
            PipelineOp::Hable { exposure } => CompiledPointOp::Hable(exposure),
            PipelineOp::Aces { exposure } => CompiledPointOp::Aces(exposure),
            PipelineOp::Drago { bias } => CompiledPointOp::Drago(bias),
            PipelineOp::Normalize
            | PipelineOp::BlurMask { .. }
            | PipelineOp::HistogramEq { .. } => {
                unreachable!("handled by the fused-program compiler")
            }
            PipelineOp::RgbToHsv
            | PipelineOp::HsvToRgb
            | PipelineOp::ExtractLuminance
            | PipelineOp::ReapplyRatio => {
                unreachable!("colour-register ops are handled by the colour program")
            }
        }
    }

    /// Applies this op in place to every sample of a row — a luminance row
    /// or one channel row of a colour register — reading the matching
    /// blurred-mask sample for [`CompiledPointOp::Mask`].
    ///
    /// # Panics
    ///
    /// Panics if a mask op gets no mask row; plan validation pairs every
    /// mask with a blur, so the executors always pass one.
    #[inline]
    pub(crate) fn apply_row(&self, samples: &mut [f32], mask: Option<&[f32]>) {
        // One tight loop per op: `f` is the op's per-sample helper.
        fn each(samples: &mut [f32], f: impl Fn(f32) -> f32) {
            samples.iter_mut().for_each(|v| *v = f(*v));
        }
        match *self {
            CompiledPointOp::Invert => each(samples, |v| 1.0 - v),
            CompiledPointOp::Mask(masking) => {
                let mask = mask.expect("plan validation pairs mask with blur");
                for (v, &m) in samples.iter_mut().zip(mask) {
                    *v = masked_sample(*v, m, &masking);
                }
            }
            CompiledPointOp::Adjust { contrast, offset } => {
                each(samples, |v| adjusted_sample(v, 0.5f32, contrast, offset));
            }
            CompiledPointOp::Gamma(gamma) => each(samples, |v| Sample::powf(v, gamma).clamp01()),
            CompiledPointOp::LogCurve(scale) => each(samples, |v| log_curve_sample(v, scale)),
            CompiledPointOp::Reinhard { key, white } => {
                each(samples, |v| reinhard_sample(v, key, white));
            }
            CompiledPointOp::PqOetf(peak) => each(samples, |v| color::pq_oetf(v, peak)),
            CompiledPointOp::PqEotf(peak) => each(samples, |v| color::pq_eotf(v, peak)),
            CompiledPointOp::HlgOetf => each(samples, color::hlg_oetf),
            CompiledPointOp::HlgEotf => each(samples, color::hlg_eotf),
            CompiledPointOp::Hable(exposure) => each(samples, |v| color::hable_sample(v, exposure)),
            CompiledPointOp::Aces(exposure) => each(samples, |v| color::aces_sample(v, exposure)),
            CompiledPointOp::Drago(bias) => each(samples, |v| color::drago_sample(v, bias)),
        }
    }
}

/// Applies a chain of compiled point ops to one row, op-major.
#[inline]
pub(crate) fn apply_chain(chain: &[CompiledPointOp], row: &mut [f32], mask: Option<&[f32]>) {
    for op in chain {
        op.apply_row(row, mask);
    }
}

/// How a fused pass reads its input samples: the first pass over a raw HDR
/// input, scalar or colour, ingests it (sanitizing and optionally
/// normalizing, exactly like the two-pass executor's first step); later
/// passes read an already materialized register verbatim.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ingest {
    Source(Option<f32>),
    Passthrough,
}

impl Ingest {
    /// Ingests one row in place, matching the variant and the scale once
    /// for the row. `normalize` is the per-sample normalize of the row's
    /// pixel type: [`crate::normalize::normalize_sample`] itself for a
    /// scalar row, or applied to every channel of a colour row.
    #[inline]
    pub(crate) fn apply_row<T: Copy>(self, row: &mut [T], normalize: impl Fn(T, Option<f32>) -> T) {
        match self {
            Ingest::Source(Some(scale)) => {
                row.iter_mut().for_each(|v| *v = normalize(*v, Some(scale)))
            }
            Ingest::Source(None) => row.iter_mut().for_each(|v| *v = normalize(*v, None)),
            Ingest::Passthrough => {}
        }
    }
}

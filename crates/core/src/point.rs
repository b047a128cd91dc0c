//! The fused executors' row kernels.
//!
//! The fused executors apply a chain of point ops — masks and curves
//! ([`crate::plan::Curve`]) — to every sample of a row. Interpreting the
//! chain once per sample (a `match` on the op for every op of every pixel)
//! keeps the per-sample helpers from vectorizing and costs more than the
//! arithmetic itself. [`apply_chain`] instead runs the chain op-major, one
//! whole row at a time: each op is matched once per row, and its
//! per-sample helper runs in a tight loop
//! ([`crate::plan::Curve::apply`], or the masking kernel). Every sample
//! still goes through the same arithmetic in the same op order, so the row
//! kernels are bit-identical to the two-pass walk.

use crate::masking::mask_in_place;
use crate::plan::PipelineOp;

/// Applies a fused chain of masks and curves to one row, op-major. A mask
/// reads the matching row of the blurred mask.
///
/// # Panics
///
/// Panics if a mask op gets no mask row; plan validation pairs every mask
/// with a blur, so the executors always pass one.
#[inline]
pub(crate) fn apply_chain(chain: &[PipelineOp], row: &mut [f32], mask: Option<&[f32]>) {
    for op in chain {
        match op {
            PipelineOp::Curve(curve) => curve.apply(row),
            PipelineOp::Mask(masking) => {
                let mask = mask.expect("plan validation pairs mask with blur");
                mask_in_place(row, mask, masking);
            }
            _ => unreachable!("fused chains hold only masks and curves"),
        }
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

//! The values a plan's reductions produce, bound per run: the seam between
//! a plan's compiled structure and the statistics of what it maps.

use crate::normalize::normalization_scale;
use hdr_image::LuminanceImage;

/// What a plan's reductions produce for one run of an executor: the scale
/// a leading normalize applies, a factor on every Reinhard key, and the
/// cumulative histogram each barrier remaps through. Both executors compile
/// a plan once and ask this hook on every run. A still binds each value to
/// its own frame ([`FrameReductions`]); a video session binds them to its
/// leaky integrator.
pub trait Reductions {
    /// The scale a leading normalize multiplies every sample of `frame` by,
    /// or `None` to leave the samples unscaled.
    fn normalize_scale(&mut self, frame: &LuminanceImage) -> Option<f32>;

    /// The factor every Reinhard key is multiplied by. The product
    /// saturates into the accepted key range.
    fn key_scale(&self) -> f32;

    /// The cumulative histogram, one entry per bin, that the barrier at plan
    /// stage `stage` remaps through, given the register's count per bin.
    fn histogram_cdf(&mut self, stage: usize, counts: &[u64]) -> Vec<f64>;
}

/// Binds every reduction to the frame being mapped: its own maximum, the
/// plan's keys as written and its own histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameReductions;

impl Reductions for FrameReductions {
    fn normalize_scale(&mut self, frame: &LuminanceImage) -> Option<f32> {
        normalization_scale(frame)
    }

    fn key_scale(&self) -> f32 {
        1.0
    }

    fn histogram_cdf(&mut self, _stage: usize, counts: &[u64]) -> Vec<f64> {
        // Integer running sums, exact in `f64` far beyond any frame size.
        let running = |sum: &mut u64, &count| {
            *sum += count;
            Some(*sum as f64)
        };
        counts.iter().scan(0, running).collect()
    }
}

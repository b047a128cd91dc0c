//! Image normalization — the first stage of the pipeline (Fig. 1).
//!
//! Each pixel of the HDR input is divided by the maximum pixel value of the
//! image, mapping the data into `[0, 1]` regardless of the absolute radiance
//! scale of the capture.

use crate::ops::OpCounts;
use crate::sample::Sample;
use hdr_image::{ImageBuffer, LuminanceImage};

/// Returns the maximum pixel value of an HDR image (ignoring non-finite
/// samples), used as the normalization divisor.
///
/// The maximum is folded in independent lanes so the scan vectorizes; it
/// equals a serial fold of the finite samples up to the sign of a zero
/// result, which no caller can observe through [`normalization_scale`].
pub fn max_pixel(image: &LuminanceImage) -> f32 {
    finite_max(image.pixels(), |v| [v])
}

/// Independent accumulators of [`finite_max`]: two 256-bit registers of
/// `f32`, enough to hide the latency of the running max.
const LANES: usize = 16;

/// The largest finite sample of `items` — each item yields its samples
/// through `samples` — or 0 when no sample is finite and positive.
///
/// The fold runs in [`LANES`] independent lanes so it vectorizes, and
/// non-finite samples become 0 through a select instead of being filtered
/// out by a branch. (On x86-64-v3 that select is about 1.6× faster than
/// folding the finiteness test into the comparison.) A lane takes a sample
/// only when it is strictly larger, so every lane starts and stays at +0
/// or above. The maximum of finite samples does not depend on the order of
/// the fold; only the sign of a zero result can differ from a serial fold,
/// and every caller maps a zero maximum of either sign to "no scale".
pub(crate) fn finite_max<T: Copy, const N: usize>(
    items: &[T],
    samples: impl Fn(T) -> [f32; N],
) -> f32 {
    #[inline]
    fn step(max: f32, sample: f32) -> f32 {
        let sample = if sample.is_finite() { sample } else { 0.0 };
        if sample > max {
            sample
        } else {
            max
        }
    }
    let (chunks, tail) = items.as_chunks::<LANES>();
    let mut lanes = [0.0f32; LANES];
    for chunk in chunks {
        for (lane, &item) in lanes.iter_mut().zip(chunk) {
            *lane = samples(item).into_iter().fold(*lane, step);
        }
    }
    let tail_max = tail
        .iter()
        .flat_map(|&item| samples(item))
        .fold(0.0f32, step);
    lanes.into_iter().fold(tail_max, step)
}

/// The reciprocal of the normalization divisor, or `None` when the image
/// maximum is not positive (there is nothing to normalize and dividing by
/// zero would poison the pipeline).
pub fn normalization_scale(image: &LuminanceImage) -> Option<f32> {
    let max = max_pixel(image);
    (max > 0.0).then(|| 1.0 / max)
}

/// Normalizes one sample with the scale from [`normalization_scale`].
///
/// Non-finite samples are sanitized to 0 here: `clamp` propagates NaN, so a
/// single NaN sensor pixel would otherwise survive normalization and poison
/// the blurred mask (and through it a whole neighbourhood of the output).
/// This is the per-sample core shared by [`normalize`] and the streaming
/// execution path, so the two stay bit-identical.
#[inline]
pub fn normalize_sample(value: f32, scale: Option<f32>) -> f32 {
    if !value.is_finite() {
        return 0.0;
    }
    match scale {
        Some(inv) => (value * inv).clamp(0.0, 1.0),
        None => value,
    }
}

/// Normalizes an HDR luminance image into `[0, 1]` by dividing every pixel by
/// the image maximum.
///
/// An all-zero image is returned unchanged; non-finite samples become 0 (see
/// [`normalize_sample`]).
pub fn normalize(image: &LuminanceImage) -> LuminanceImage {
    normalize_to::<f32>(image)
}

/// Normalizes and converts into the pipeline's working sample type in one
/// pass (the form used by the fixed-point accelerator path, which quantises
/// at the accelerator boundary).
pub fn normalize_to<S: Sample>(image: &LuminanceImage) -> ImageBuffer<S> {
    normalize_with(image, normalization_scale(image), Vec::new())
}

/// [`normalize_to`] with the scale given, matched once outside the loop,
/// written into `frame` ([`ImageBuffer::map_into`]).
pub(crate) fn normalize_with<S: Sample>(
    image: &LuminanceImage,
    scale: Option<f32>,
    frame: Vec<S>,
) -> ImageBuffer<S> {
    match scale {
        Some(scale) => image.map_into(|&v| S::from_f32(normalize_sample(v, Some(scale))), frame),
        None => image.map_into(|&v| S::from_f32(normalize_sample(v, None)), frame),
    }
}

/// Analytic operation counts of the normalization stage for a
/// `width × height` image with `channels` colour channels.
///
/// The stage makes one pass to find the maximum (one load and one compare per
/// sample) and one pass to scale (one load, one multiply by the reciprocal
/// and one store per sample), plus a single division to form the reciprocal.
pub fn op_counts(width: usize, height: usize, channels: usize) -> OpCounts {
    let samples = (width * height * channels) as u64;
    OpCounts {
        adds: 0,
        muls: samples,
        divs: 1,
        pows: 0,
        compares: samples,
        loads: 2 * samples,
        stores: samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdr_image::synth::SceneKind;

    #[test]
    fn normalized_image_is_in_unit_interval_with_max_one() {
        let hdr = SceneKind::SunAndShadow.generate(64, 64, 2);
        let n = normalize(&hdr);
        let (lo, hi) = n.min_max();
        assert!(lo >= 0.0);
        assert!((hi - 1.0).abs() < 1e-6, "max after normalization was {hi}");
    }

    #[test]
    fn normalization_preserves_pixel_ordering() {
        let hdr = SceneKind::GradientRamp.generate(32, 8, 3);
        let n = normalize(&hdr);
        for y in 0..8 {
            for x in 1..32 {
                let before = hdr.get(x - 1, y).unwrap() <= hdr.get(x, y).unwrap();
                let after = n.get(x - 1, y).unwrap() <= n.get(x, y).unwrap();
                assert_eq!(before, after);
            }
        }
    }

    #[test]
    fn all_zero_image_is_returned_unchanged() {
        let zeros = LuminanceImage::filled(8, 8, 0.0);
        assert_eq!(normalize(&zeros), zeros);
    }

    #[test]
    fn non_finite_samples_are_sanitized_to_zero() {
        // Regression: `clamp` on NaN returns NaN, so NaN pixels used to
        // survive normalization and poison masking downstream.
        let img =
            LuminanceImage::from_vec(2, 2, vec![f32::NAN, 4.0, f32::INFINITY, f32::NEG_INFINITY])
                .unwrap();
        let n = normalize(&img);
        assert!(n.pixels().iter().all(|v| v.is_finite()));
        assert_eq!(n.pixels(), &[0.0, 1.0, 0.0, 0.0]);
        // The non-finite samples do not take part in the maximum either.
        assert_eq!(max_pixel(&img), 4.0);
    }

    #[test]
    fn non_finite_samples_are_sanitized_even_without_a_scale() {
        // max <= 0 means nothing to normalize, but NaNs must still die.
        let img = LuminanceImage::from_vec(3, 1, vec![0.0, f32::NAN, -1.0]).unwrap();
        let n = normalize(&img);
        assert_eq!(n.pixels(), &[0.0, 0.0, -1.0]);
        assert_eq!(normalization_scale(&img), None);
    }

    #[test]
    fn normalize_sample_matches_normalize() {
        let hdr = SceneKind::SunAndShadow.generate(16, 16, 11);
        let scale = normalization_scale(&hdr);
        let n = normalize(&hdr);
        for (&raw, &mapped) in hdr.pixels().iter().zip(n.pixels()) {
            assert_eq!(normalize_sample(raw, scale), mapped);
        }
    }

    #[test]
    fn normalize_to_fixed_point_quantises() {
        use apfixed::Fix16;
        let hdr = SceneKind::WindowInDarkRoom.generate(16, 16, 5);
        let fixed = normalize_to::<Fix16>(&hdr);
        let float = normalize(&hdr);
        for (fx, fl) in fixed.pixels().iter().zip(float.pixels()) {
            assert!((fx.to_f32() - fl).abs() <= Fix16::FORMAT.epsilon() as f32);
        }
    }

    #[test]
    fn op_counts_scale_with_samples() {
        let c = op_counts(10, 10, 3);
        assert_eq!(c.muls, 300);
        assert_eq!(c.loads, 600);
        assert_eq!(c.stores, 300);
        assert_eq!(c.divs, 1);
    }
}

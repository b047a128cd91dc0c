//! Non-linear masking — the tone-mapping core (Fig. 1, third block).
//!
//! Following Moroney's local colour correction (the paper's reference \[9\]),
//! every pixel of the normalized image is gamma-corrected with an exponent
//! that depends on the Gaussian-blurred *mask* at that location:
//!
//! ```text
//! output = input ^ (2 ^ (strength · (2·mask − 1)))        (mask from inverted input)
//! output = input ^ (2 ^ (strength · (1 − 2·mask)))        (mask from input directly)
//! ```
//!
//! With the inverted-mask convention, a dark neighbourhood produces a mask
//! close to 1, an exponent below 1 and therefore a brightened pixel; a bright
//! neighbourhood is compressed. This is exactly the "dark zones become
//! brighter while bright zones become darker" behaviour described in
//! Section II of the paper.

use crate::ops::OpCounts;
use crate::params::MaskingParams;
use crate::sample::Sample;
use hdr_image::ImageBuffer;

/// Inverts a normalized image (`1 - x`), the preprocessing Moroney applies to
/// the mask input.
pub fn invert<S: Sample>(image: &ImageBuffer<S>) -> ImageBuffer<S> {
    image.map(|&v| S::one().sub(v))
}

/// Computes the mask-driven gamma exponent for a single mask sample.
///
/// The exponent is `2 ^ (strength · (1 − 2·mask))` when the mask was built
/// from the inverted image (a dark neighbourhood ⇒ mask ≈ 1 ⇒ exponent < 1 ⇒
/// the pixel is brightened) and `2 ^ (strength · (2·mask − 1))` otherwise.
#[inline]
pub fn exponent_for_mask(mask: f32, params: &MaskingParams) -> f32 {
    let centred = if params.invert_mask {
        1.0 - 2.0 * mask
    } else {
        2.0 * mask - 1.0
    };
    Sample::exp2(params.strength * centred)
}

/// Applies the non-linear masking to one sample given its mask sample — the
/// per-pixel core shared by [`apply_masking`] and the streaming execution
/// path, so the two stay bit-identical.
#[inline]
pub fn masked_sample<S: Sample>(value: S, mask: S, params: &MaskingParams) -> S {
    let exponent = exponent_for_mask(mask.to_f32(), params);
    value.powf(exponent).clamp01()
}

/// Applies the non-linear masking to a normalized image given its blurred
/// mask.
///
/// Both images must have identical dimensions.
///
/// # Panics
///
/// Panics if the dimensions differ (the pipeline always produces the mask
/// from the input image, so a mismatch is a programming error).
pub fn apply_masking<S: Sample>(
    normalized: &ImageBuffer<S>,
    mask: &ImageBuffer<S>,
    params: &MaskingParams,
) -> ImageBuffer<S> {
    assert_eq!(
        normalized.dimensions(),
        mask.dimensions(),
        "image and mask dimensions must match"
    );
    let mut out = normalized.clone();
    mask_in_place(out.pixels_mut(), mask.pixels(), params);
    out
}

/// Applies the non-linear masking in place to a run of samples given the
/// matching mask samples. A loop over two slices is what lets the `f32`
/// power kernel vectorize; an iterator `collect` into a new buffer keeps
/// it scalar.
pub(crate) fn mask_in_place<S: Sample>(values: &mut [S], mask: &[S], params: &MaskingParams) {
    assert_eq!(
        values.len(),
        mask.len(),
        "image and mask dimensions must match"
    );
    for (v, &m) in values.iter_mut().zip(mask) {
        *v = masked_sample(*v, m, params);
    }
}

/// Analytic operation counts of the masking stage for `channels` colour
/// channels: per sample, two loads (pixel and mask), the exponent computation
/// (one multiply, one add, one `exp2`), the gamma correction (`pow`), a
/// clamp (two compares) and one store.
pub fn op_counts(width: usize, height: usize, channels: usize) -> OpCounts {
    let samples = (width * height * channels) as u64;
    OpCounts {
        adds: samples,
        muls: samples,
        divs: 0,
        pows: 2 * samples, // exp2 for the exponent + pow for the correction
        compares: 2 * samples,
        loads: 2 * samples,
        stores: samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blur::{blur_separable, gaussian_kernel, quantize_kernel};
    use crate::params::BlurParams;
    use apfixed::Fix16;
    use hdr_image::synth::SceneKind;
    use hdr_image::LuminanceImage;

    fn params() -> MaskingParams {
        MaskingParams::paper_default()
    }

    /// Moroney's original exponent range corresponds to unit strength.
    fn moroney_params() -> MaskingParams {
        MaskingParams {
            strength: 1.0,
            invert_mask: true,
        }
    }

    #[test]
    fn exponent_is_one_at_mid_grey_mask() {
        assert!((exponent_for_mask(0.5, &params()) - 1.0).abs() < 1e-6);
        assert!((exponent_for_mask(0.5, &moroney_params()) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn exponent_range_matches_moroney() {
        // strength = 1 gives exponents in [0.5, 2]: a fully dark
        // neighbourhood (inverted mask = 1) halves the exponent, brightening.
        assert!((exponent_for_mask(1.0, &moroney_params()) - 0.5).abs() < 1e-6);
        assert!((exponent_for_mask(0.0, &moroney_params()) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn inverted_and_direct_conventions_are_mirrored() {
        let inv = MaskingParams {
            invert_mask: true,
            strength: 1.0,
        };
        let dir = MaskingParams {
            invert_mask: false,
            strength: 1.0,
        };
        for m in [0.0f32, 0.25, 0.5, 0.75, 1.0] {
            let a = exponent_for_mask(m, &inv);
            let b = exponent_for_mask(1.0 - m, &dir);
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn zero_strength_is_identity() {
        let p = MaskingParams {
            strength: 0.0,
            invert_mask: true,
        };
        let img = LuminanceImage::from_fn(8, 8, |x, y| ((x + y) as f32 / 14.0).min(1.0));
        let mask = LuminanceImage::filled(8, 8, 0.9);
        let out = apply_masking(&img, &mask, &p);
        for (a, b) in out.pixels().iter().zip(img.pixels()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn dark_regions_brighten_and_bright_regions_darken() {
        // Build a normalized image with a dark and a bright half and use the
        // inverted blurred image as the mask, as the full pipeline does.
        let img = LuminanceImage::from_fn(32, 32, |x, _| if x < 16 { 0.05 } else { 0.9 });
        let blur_params = BlurParams {
            sigma: 2.0,
            radius: 4,
        };
        let kernel = quantize_kernel::<f32>(&gaussian_kernel(&blur_params));
        let _ = kernel;
        let mask = blur_separable(&invert(&img), &blur_params);
        let out = apply_masking(&img, &mask, &params());
        // Sample well inside each half to avoid the transition band.
        let dark_in = *img.get(4, 16).unwrap();
        let dark_out = *out.get(4, 16).unwrap();
        let bright_in = *img.get(28, 16).unwrap();
        let bright_out = *out.get(28, 16).unwrap();
        assert!(dark_out > dark_in, "dark pixel {dark_in} -> {dark_out}");
        assert!(
            bright_out < bright_in,
            "bright pixel {bright_in} -> {bright_out}"
        );
    }

    #[test]
    fn output_stays_in_unit_interval() {
        let img = SceneKind::WindowInDarkRoom.generate(32, 32, 8);
        let normalized = crate::normalize::normalize(&img);
        let mask = blur_separable(&invert(&normalized), &BlurParams::paper_default());
        let out = apply_masking(&normalized, &mask, &params());
        for &v in out.pixels() {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn masking_preserves_monotonicity_under_constant_mask() {
        let img = LuminanceImage::from_fn(16, 1, |x, _| x as f32 / 15.0);
        let mask = LuminanceImage::filled(16, 1, 0.8);
        let out = apply_masking(&img, &mask, &params());
        for x in 1..16 {
            assert!(out.get(x, 0).unwrap() >= out.get(x - 1, 0).unwrap());
        }
    }

    #[test]
    fn fixed_point_masking_tracks_float_on_well_conditioned_inputs() {
        // Values comfortably above the 16-bit quantisation floor: this is the
        // regime of the accelerator (the mask is the blur of an inverted,
        // mostly mid-to-high-valued image).
        let normalized =
            LuminanceImage::from_fn(24, 24, |x, y| 0.03 + 0.9 * ((x + y) as f32 / 46.0));
        let mask = blur_separable(
            &invert(&normalized),
            &BlurParams {
                sigma: 2.0,
                radius: 4,
            },
        );
        let float = apply_masking(&normalized, &mask, &params());

        let nfix: hdr_image::ImageBuffer<Fix16> = normalized.map(|&v| Fix16::from_f32(v));
        let mfix: hdr_image::ImageBuffer<Fix16> = mask.map(|&v| Fix16::from_f32(v));
        let fixed = apply_masking(&nfix, &mfix, &params());
        for (a, b) in float.pixels().iter().zip(fixed.pixels()) {
            assert!(
                (a - b.to_f32()).abs() < 0.02,
                "float {a} vs fixed {}",
                b.to_f32()
            );
        }
    }

    #[test]
    #[should_panic(expected = "dimensions must match")]
    fn mismatched_mask_dimensions_panic() {
        let img = LuminanceImage::filled(8, 8, 0.5);
        let mask = LuminanceImage::filled(4, 4, 0.5);
        let _ = apply_masking(&img, &mask, &params());
    }

    #[test]
    fn op_counts_match_hand_computation() {
        let c = op_counts(10, 10, 3);
        assert_eq!(c.pows, 600);
        assert_eq!(c.loads, 600);
        assert_eq!(c.stores, 300);
    }
}

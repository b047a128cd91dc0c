//! Property-based tests of the tone-mapping pipeline invariants.

use apfixed::Fix16;
use hdr_image::rgb::Rgb;
use hdr_image::{LuminanceImage, RgbImage};
use proptest::prelude::*;
use tonemap_core::blur::{blur_separable, gaussian_kernel};
use tonemap_core::masking::{apply_masking, exponent_for_mask, invert};
use tonemap_core::normalize::{max_pixel, normalization_scale, normalize};
use tonemap_core::ops::PipelineProfile;
use tonemap_core::plan::rgb_normalization_scale;
use tonemap_core::{AdjustParams, BlurParams, MaskingParams, ToneMapParams, ToneMapper};

/// Strategy producing small HDR-like images with a controllable dynamic
/// range: values are `10^e` with `e` in `[-4, 0]`, plus structure from the
/// pixel position.
fn hdr_image_strategy(max_size: usize) -> impl Strategy<Value = LuminanceImage> {
    (2usize..=max_size, 2usize..=max_size, 0u64..1000).prop_map(|(w, h, seed)| {
        LuminanceImage::from_fn(w, h, |x, y| {
            let phase = ((x * 31 + y * 17) as u64 + seed) % 97;
            let exponent = -4.0 + 4.0 * (phase as f32 / 96.0);
            10f32.powf(exponent) * (1.0 + 0.1 * ((x + y) as f32).sin())
        })
    })
}

fn blur_params_strategy() -> impl Strategy<Value = BlurParams> {
    (1usize..=6, 0.5f32..4.0).prop_map(|(radius, sigma)| BlurParams { sigma, radius })
}

/// The lane width of the chunked maxima behind `max_pixel` and
/// `rgb_normalization_scale`. The differential cases cover lengths from 1
/// to three times this, so full chunks, tails and tail-only inputs all
/// occur.
const LANES: usize = 16;

/// The serial, NaN-aware fold `max_pixel` computed before it was
/// lane-chunked: the reference for the differential properties.
fn serial_max_pixel(pixels: &[f32]) -> f32 {
    pixels
        .iter()
        .copied()
        .filter(|v| v.is_finite())
        .fold(0.0f32, f32::max)
}

/// The serial per-channel loop `rgb_normalization_scale` computed before it
/// was lane-chunked.
fn serial_rgb_max(pixels: &[Rgb<f32>]) -> f32 {
    let mut max = 0.0f32;
    for p in pixels {
        for c in [p.r, p.g, p.b] {
            if c.is_finite() && c > max {
                max = c;
            }
        }
    }
    max
}

/// The scale bits both normalizations derive from a maximum.
fn scale_bits(max: f32) -> Option<u32> {
    (max > 0.0).then(|| (1.0 / max).to_bits())
}

/// One sample from every class a raw HDR input can carry: NaN (both
/// signs), ±Inf, ±0, denormals of both signs, negative and positive
/// normals, and the extremes.
fn sample_class_strategy() -> impl Strategy<Value = f32> {
    prop_oneof![
        Just(f32::NAN),
        Just(-f32::NAN),
        Just(f32::INFINITY),
        Just(f32::NEG_INFINITY),
        Just(0.0f32),
        Just(-0.0f32),
        (1u32..0x0080_0000).prop_map(f32::from_bits),
        (0x8000_0001u32..0x8080_0000).prop_map(f32::from_bits),
        -1.0e6f32..0.0,
        0.0f32..1.0e6,
        Just(f32::MAX),
        Just(f32::MIN_POSITIVE),
    ]
}

/// Raw sample runs of 1 to `3 × LANES` samples: either mixed classes, or
/// one repeated class (all-zero, all-NaN, all-negative, …).
fn samples_strategy(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop_oneof![
        prop::collection::vec(sample_class_strategy(), 1..max_len + 1),
        (sample_class_strategy(), 1usize..max_len + 1).prop_map(|(v, n)| vec![v; n]),
    ]
}

/// Asserts the lane-chunked maxima agree with the serial folds on one
/// sample run, laid out as a `len × 1` luminance image and, three samples
/// a pixel, as an RGB image.
fn assert_maxima_match_serial_folds(samples: &[f32]) {
    let image = LuminanceImage::from_vec(samples.len(), 1, samples.to_vec()).unwrap();
    let reference = serial_max_pixel(samples);
    let max = max_pixel(&image);
    assert!(
        max.to_bits() == reference.to_bits() || (max == 0.0 && reference == 0.0),
        "max_pixel {max:e} vs serial {reference:e} on {samples:?}"
    );
    assert_eq!(
        normalization_scale(&image).map(f32::to_bits),
        scale_bits(reference),
        "normalization_scale on {samples:?}"
    );

    let pixels: Vec<Rgb<f32>> = samples
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let at = |k: usize| samples[(i * 3 + k) % samples.len()];
            Rgb::new(at(0), at(1), at(2))
        })
        .collect();
    let rgb = RgbImage::from_vec(pixels.len(), 1, pixels.clone()).unwrap();
    assert_eq!(
        rgb_normalization_scale(&rgb).map(f32::to_bits),
        scale_bits(serial_rgb_max(&pixels)),
        "rgb_normalization_scale on {pixels:?}"
    );
}

#[test]
fn lane_chunked_maxima_find_the_peak_at_every_position() {
    // A deterministic sweep: for every length up to three lane widths, the
    // peak sits at every position in turn among NaN, ±Inf, −0 and negative
    // neighbours, so each lane and each tail slot must carry it.
    let noise = [f32::NAN, f32::INFINITY, -0.0, f32::NEG_INFINITY, -3.5, 0.25];
    for len in 1..=3 * LANES {
        for peak in 0..len {
            let samples: Vec<f32> = (0..len)
                .map(|i| {
                    if i == peak {
                        7.5
                    } else {
                        noise[i % noise.len()]
                    }
                })
                .collect();
            assert_maxima_match_serial_folds(&samples);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn gaussian_kernel_always_sums_to_one(params in blur_params_strategy()) {
        let kernel = gaussian_kernel(&params);
        let sum: f32 = kernel.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert_eq!(kernel.len(), params.taps());
        // Symmetric and positive.
        for (a, b) in kernel.iter().zip(kernel.iter().rev()) {
            prop_assert!((a - b).abs() < 1e-6);
            prop_assert!(*a > 0.0);
        }
    }

    #[test]
    fn blur_output_stays_within_input_bounds(
        img in hdr_image_strategy(24),
        params in blur_params_strategy()
    ) {
        let normalized = normalize(&img);
        let blurred = blur_separable(&normalized, &params);
        let (lo, hi) = normalized.min_max();
        for &v in blurred.pixels() {
            prop_assert!(v >= lo - 1e-4 && v <= hi + 1e-4, "blurred {v} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn blur_preserves_mean(
        img in hdr_image_strategy(24),
        params in blur_params_strategy()
    ) {
        // With edge replication the mean can shift slightly, but never by
        // more than a few percent of the dynamic range.
        let normalized = normalize(&img);
        let blurred = blur_separable(&normalized, &params);
        prop_assert!((blurred.mean() - normalized.mean()).abs() < 0.05);
    }

    #[test]
    fn normalization_is_idempotent(img in hdr_image_strategy(24)) {
        let once = normalize(&img);
        let twice = normalize(&once);
        for (a, b) in once.pixels().iter().zip(twice.pixels()) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn masking_exponent_is_positive_and_bounded(
        mask in 0.0f32..=1.0,
        strength in 0.0f32..4.0,
        inverted in any::<bool>()
    ) {
        let params = MaskingParams { strength, invert_mask: inverted };
        let exponent = exponent_for_mask(mask, &params);
        prop_assert!(exponent > 0.0);
        prop_assert!(exponent <= 2f32.powf(strength) + 1e-5);
        prop_assert!(exponent >= 2f32.powf(-strength) - 1e-5);
    }

    #[test]
    fn masking_output_is_display_referred(img in hdr_image_strategy(20)) {
        let normalized = normalize(&img);
        let params = MaskingParams::paper_default();
        let mask = blur_separable(&invert(&normalized), &BlurParams { sigma: 1.5, radius: 3 });
        let out = apply_masking(&normalized, &mask, &params);
        for &v in out.pixels() {
            prop_assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn full_pipeline_output_is_always_display_referred(
        img in hdr_image_strategy(20),
        brightness in -0.2f32..0.2,
        contrast in 0.5f32..2.0,
        strength in 0.5f32..4.0
    ) {
        let params = ToneMapParams {
            blur: BlurParams { sigma: 1.5, radius: 3 },
            masking: MaskingParams { strength, invert_mask: true },
            adjust: AdjustParams { brightness, contrast },
            channels: 3,
        };
        let mapper = ToneMapper::new(params);
        for out in [mapper.map_luminance_f32(&img), mapper.map_luminance_hw_blur::<Fix16>(&img)] {
            prop_assert_eq!(out.dimensions(), img.dimensions());
            for &v in out.pixels() {
                prop_assert!((0.0..=1.0).contains(&v), "pixel {} out of range", v);
            }
        }
    }

    #[test]
    fn fixed_point_blur_path_stays_close_to_float_path(img in hdr_image_strategy(20)) {
        let mapper = ToneMapper::new(ToneMapParams::paper_default());
        let float_out = mapper.map_luminance_hw_blur::<f32>(&img);
        let fixed_out = mapper.map_luminance_hw_blur::<Fix16>(&img);
        let mse = hdr_image::metrics::mse(&float_out, &fixed_out);
        // Quantising only the 16-bit mask never produces a visually
        // significant difference (this is the Fig. 5 claim as an invariant).
        prop_assert!(mse < 1e-3, "mse {mse}");
    }

    #[test]
    fn profile_totals_scale_linearly_with_channels(
        width in 8usize..64,
        height in 8usize..64,
        channels in 1usize..4
    ) {
        let mut params = ToneMapParams::paper_default();
        params.channels = channels;
        let profile = PipelineProfile::analytic(&params, width, height);
        let masking = profile
            .stage(tonemap_core::ops::StageKind::NonlinearMasking)
            .expect("masking stage present");
        prop_assert_eq!(masking.ops.pows, 2 * (width * height * channels) as u64);
        // The blur operates on the single-channel mask, independent of the
        // colour channel count.
        let blur = profile
            .stage(tonemap_core::ops::StageKind::GaussianBlur)
            .expect("blur stage present");
        prop_assert_eq!(blur.ops.stores, 2 * (width * height) as u64);
    }
}

proptest! {
    // Each case is a few dozen samples, so many cases stay cheap.
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn lane_chunked_maxima_match_the_serial_folds(samples in samples_strategy(3 * LANES)) {
        assert_maxima_match_serial_folds(&samples);
    }
}

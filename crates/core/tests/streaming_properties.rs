//! Property tests for streaming/two-pass parity on degenerate geometries.
//!
//! The streaming engine's clamped-window handling is most fragile exactly
//! where the clamp does the most work: 1×N rows, N×1 columns, and images
//! smaller than the kernel radius, where *every* pixel sits in the
//! replicated border region. These properties pin the streaming pass to
//! the two-pass reference — bit for bit, in both `f32` and `Fix16` — over
//! randomly drawn degenerate shapes, kernel widths and pixel contents.

use apfixed::Fix16;
use hdr_image::{LuminanceImage, Rgb, RgbImage};
use proptest::prelude::*;
use tonemap_core::stream::AllStages;
use tonemap_core::{
    AdjustParams, BlurParams, ChannelLayout, Curve, PipelineOp, PipelinePlan, StreamingToneMapper,
    ToneMapParams, ToneMapper,
};

/// A deterministic pseudo-random HDR image: several decades of dynamic
/// range, seeded per case so failures replay.
fn synthetic_image(width: usize, height: usize, seed: u64) -> LuminanceImage {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    LuminanceImage::from_fn(width, height, |_, _| {
        // xorshift64* — enough structure for a pixel soup.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let unit = (state >> 11) as f32 / (1u64 << 53) as f32 * (1u32 << 21) as f32;
        // Spread over [~1e-3, ~2e3] to make the normalization matter.
        0.001 + unit.fract() * 10.0f32.powi((state % 7) as i32 - 3)
    })
}

fn params_with(radius: usize, sigma: f32) -> ToneMapParams {
    let mut p = ToneMapParams::paper_default();
    p.blur = BlurParams { sigma, radius };
    p
}

/// The number of output samples the streaming engine's stencil kernel
/// accumulates per block.
const BLOCK: usize = 64;

/// Degenerate shapes: single-row, single-column, and tiny images smaller
/// than the blur radius in one or both dimensions — plus short rows whose
/// widths straddle the stencil block: one below, on and one past it, and
/// two blocks followed by a tail of `2r + 1` samples for each drawn radius.
fn degenerate_dims() -> impl Strategy<Value = (usize, usize)> {
    prop_oneof![
        (Just(1usize), 1usize..48).prop_map(|(w, h)| (w, h)),
        (1usize..48, Just(1usize)).prop_map(|(w, h)| (w, h)),
        (1usize..7, 1usize..7).prop_map(|(w, h)| (w, h)),
        (
            prop_oneof![
                BLOCK - 1..BLOCK + 2,
                (1usize..9).prop_map(|r| 2 * BLOCK + 2 * r + 1),
            ],
            1usize..7
        ),
    ]
}

/// Blur radii: the small ones, and radii past a whole block — above the
/// width of every degenerate shape up to one block past the block width.
fn radii() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..9, BLOCK..BLOCK + 8]
}

proptest! {
    #[test]
    fn f32_streaming_matches_two_pass_on_degenerate_geometries(
        (width, height) in degenerate_dims(),
        radius in radii(),
        sigma in 0.4f32..6.0,
        seed in 0u64..1_000_000,
    ) {
        let hdr = synthetic_image(width, height, seed);
        let params = params_with(radius, sigma);
        let classic = ToneMapper::new(params).map_luminance_f32(&hdr);
        let streaming = StreamingToneMapper::<f32>::new(params).map_luminance(&hdr);
        prop_assert_eq!(&streaming, &classic);
        // Row slicing must not disturb the clamped windows either.
        let sliced = StreamingToneMapper::<f32>::new(params)
            .with_threads(3)
            .map_luminance(&hdr);
        prop_assert_eq!(&sliced, &classic);
    }

    #[test]
    fn fix16_streaming_matches_two_pass_on_degenerate_geometries(
        (width, height) in degenerate_dims(),
        radius in radii(),
        sigma in 0.4f32..6.0,
        seed in 0u64..1_000_000,
    ) {
        let hdr = synthetic_image(width, height, seed);
        let params = params_with(radius, sigma);
        let classic = ToneMapper::new(params).map_luminance_hw_blur::<Fix16>(&hdr);
        let streaming = StreamingToneMapper::<Fix16>::new(params).map_luminance(&hdr);
        prop_assert_eq!(&streaming, &classic);
    }

    #[test]
    fn streaming_blur_windows_stay_display_referred_on_degenerate_geometries(
        (width, height) in degenerate_dims(),
        radius in radii(),
        seed in 0u64..1_000_000,
    ) {
        // Even when the whole image is border, the output must stay in the
        // display range (a mis-weighted clamped window would escape it).
        let hdr = synthetic_image(width, height, seed);
        let params = params_with(radius, radius as f32 / 2.0);
        let out = StreamingToneMapper::<f32>::new(params).map_luminance(&hdr);
        prop_assert!(out.pixels().iter().all(|v| (0.0..=1.0).contains(v)));
    }
}

/// Shapes for the cascade property: the degenerate geometries above plus
/// ordinary small rectangles, so the multi-stencil ring staggering is hit
/// both inside and outside the border-clamp regime.
fn cascade_dims() -> impl Strategy<Value = (usize, usize)> {
    prop_oneof![degenerate_dims(), (8usize..40, 8usize..40)]
}

/// A tone curve: one that runs on the value channel of an `Hsv` register.
fn tone_curve() -> impl Strategy<Value = Curve> {
    prop_oneof![
        Just(Curve::Invert),
        (-0.2f32..0.2, 0.5f32..2.0).prop_map(|(brightness, contrast)| {
            Curve::Adjust(AdjustParams {
                brightness,
                contrast,
            })
        }),
        (0.2f32..3.0).prop_map(|gamma| Curve::Gamma { gamma }),
        (0.5f32..200.0).prop_map(|scale| Curve::LogCurve { scale }),
        (0.5f32..16.0, 0.5f32..16.0).prop_map(|(key, white)| Curve::Reinhard { key, white }),
        (0.5f32..32.0).prop_map(|exposure| Curve::Hable { exposure }),
        (0.5f32..32.0).prop_map(|exposure| Curve::Aces { exposure }),
        (0.05f32..1.0).prop_map(|bias| Curve::Drago { bias }),
    ]
}

/// A transfer curve: one that runs on each channel of an `Rgb` register.
fn transfer_curve() -> impl Strategy<Value = Curve> {
    prop_oneof![
        (100.0f32..10_000.0).prop_map(|peak_nits| Curve::PqOetf { peak_nits }),
        (100.0f32..10_000.0).prop_map(|peak_nits| Curve::PqEotf { peak_nits }),
        Just(Curve::HlgOetf),
        Just(Curve::HlgEotf),
    ]
}

/// Any curve, as a `Scalar` register runs all of them. Two draws in three
/// are tone curves, so each of the twelve curves is drawn equally often.
fn any_curve() -> impl Strategy<Value = Curve> {
    prop_oneof![tone_curve(), tone_curve(), transfer_curve()]
}

proptest! {
    // Each case runs the plan through both planners, two sample types and
    // three thread counts — fewer, heavier cases than the defaults above.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random multi-stencil, multi-barrier plans: 1–3 `BlurMask`+`Mask`
    /// stencil stages, each optionally followed by a `HistogramEq`
    /// materialization barrier — placed between the stencil and its mask
    /// when `straddle_mask` selects it — with 0–2 drawn curves before each
    /// stencil (in its region's chain) and after the last one (in the
    /// epilog). Every generated plan streams (fully fused when there are no
    /// barriers, segmented otherwise) and stays bit-identical to the
    /// two-pass reference: on the split datapath in `f32` and `Fix16` and
    /// on the all-`Fix16` one, at 1, 2 and 8 row threads, fused and with
    /// every stencil materialized.
    #[test]
    fn random_multi_stencil_cascades_match_two_pass(
        (width, height) in cascade_dims(),
        n_stencils in 1usize..=3,
        radii in prop::collection::vec(1usize..6, 3..4),
        sigmas in prop::collection::vec(0.4f32..4.0, 3..4),
        barrier_mask in 0u8..8,
        straddle_mask in 0u8..8,
        bins in 8usize..64,
        curves in prop::collection::vec(prop::collection::vec(any_curve(), 0..3), 4..5),
        seed in 0u64..1_000_000,
    ) {
        let hdr = synthetic_image(width, height, seed);
        let params = ToneMapParams::paper_default();
        let mut ops = vec![PipelineOp::Normalize];
        let mut barrier_count = 0usize;
        for i in 0..n_stencils {
            ops.extend(curves[i].iter().copied().map(PipelineOp::Curve));
            ops.push(PipelineOp::BlurMask {
                blur: BlurParams { sigma: sigmas[i], radius: radii[i] },
                invert_input: i % 2 == 0,
            });
            // A straddled barrier sends the mask across it as a plane.
            let barrier = barrier_mask & (1 << i) != 0;
            let straddle = barrier && straddle_mask & (1 << i) != 0;
            if straddle {
                ops.push(PipelineOp::HistogramEq { bins });
            }
            ops.push(PipelineOp::Mask(params.masking));
            if barrier && !straddle {
                ops.push(PipelineOp::HistogramEq { bins });
            }
            barrier_count += usize::from(barrier);
        }
        ops.extend(curves[n_stencils].iter().copied().map(PipelineOp::Curve));
        ops.push(PipelineOp::Curve(Curve::Adjust(params.adjust)));
        let plan = PipelinePlan::new(ops).expect("generated plans are valid");

        let segmentation = plan.segmentation();
        prop_assert_eq!(segmentation.barriers.len(), barrier_count);
        prop_assert_eq!(segmentation.region_count(), n_stencils);

        let two_pass = ToneMapper::compile(plan.clone(), params).expect("plan compiles");
        let classic_f32 = two_pass.map_luminance_hw_blur::<f32>(&hdr);
        let classic_fix = two_pass.map_luminance_hw_blur::<Fix16>(&hdr);
        let classic_all = two_pass.map_luminance::<Fix16>(&hdr);

        let probe = StreamingToneMapper::<f32>::compile(plan.clone(), params)
            .expect("plan compiles");
        let decision = probe.decision();
        prop_assert_eq!(decision.is_fused(), barrier_count == 0);
        prop_assert_eq!(decision.barriers().len(), barrier_count);

        for threads in [1usize, 2, 8] {
            for materialize in [false, true] {
                let streamed_f32 = StreamingToneMapper::<f32>::compile(plan.clone(), params)
                    .expect("plan compiles")
                    .with_threads(threads)
                    .with_materialized_stencils(materialize)
                    .map_luminance(&hdr);
                prop_assert_eq!(&streamed_f32, &classic_f32,
                    "f32 cascade diverged at {} thread(s)", threads);
                let streamed_fix = StreamingToneMapper::<Fix16>::compile(plan.clone(), params)
                    .expect("plan compiles")
                    .with_threads(threads)
                    .with_materialized_stencils(materialize)
                    .map_luminance(&hdr);
                prop_assert_eq!(&streamed_fix, &classic_fix,
                    "Fix16 cascade diverged at {} thread(s)", threads);
                let streamed_all =
                    StreamingToneMapper::<Fix16, AllStages>::compile(plan.clone(), params)
                        .expect("plan compiles")
                        .with_threads(threads)
                        .with_materialized_stencils(materialize)
                        .map_luminance(&hdr);
                prop_assert_eq!(&streamed_all, &classic_all,
                    "all-Fix16 cascade diverged at {} thread(s)", threads);
            }
        }
    }
}

/// A deterministic pseudo-random HDR colour image, seeded per case.
fn synthetic_rgb(width: usize, height: usize, seed: u64) -> RgbImage {
    let grey = synthetic_image(width, height, seed);
    let tint = synthetic_image(width, height, seed ^ 0xc0f_fee);
    RgbImage::from_fn(width, height, |x, y| {
        let l = grey.pixels()[y * width + x];
        let t = tint.pixels()[y * width + x].fract().abs();
        // Channels correlated with luminance but chromatic enough to make
        // HSV round trips and ratio reapplication non-trivial; occasional
        // exact-black pixels exercise the zero-luminance clamp.
        if (x + y * width).is_multiple_of(97) {
            Rgb {
                r: 0.0,
                g: 0.0,
                b: 0.0,
            }
        } else {
            Rgb {
                r: l * (0.25 + 0.75 * t),
                g: l,
                b: l * (1.0 - 0.5 * t),
            }
        }
    })
}

/// One segment of a colour-managed plan: a run of ops that starts and ends
/// in the `Rgb` layout.
fn colour_segment() -> impl Strategy<Value = Vec<PipelineOp>> {
    prop_oneof![
        // RgbToHsv → tone curve on the value channel → HsvToRgb.
        tone_curve().prop_map(|c| vec![
            PipelineOp::RgbToHsv,
            PipelineOp::Curve(c),
            PipelineOp::HsvToRgb,
        ]),
        // ExtractLuminance → scalar sub-plan → ReapplyRatio (the explicit
        // form of the old hard-coded RGB path, with an optional stencil).
        (
            any_curve(),
            prop_oneof![Just(None), (0.4f32..4.0, 1usize..5).prop_map(Some)],
            8usize..48
        )
            .prop_map(|(c, stencil, bins)| {
                // No Normalize here: its max-reduction is only defined over
                // the raw input, so it is illegal mid-plan (and behind-the-
                // extract normalization is covered by the preset tests).
                let mut ops = vec![PipelineOp::ExtractLuminance];
                if let Some((sigma, radius)) = stencil {
                    ops.push(PipelineOp::BlurMask {
                        blur: BlurParams { sigma, radius },
                        invert_input: radius % 2 == 0,
                    });
                    ops.push(PipelineOp::Mask(ToneMapParams::paper_default().masking));
                } else {
                    // No stencil: a materialization barrier instead, so the
                    // colour walk also crosses segmented sub-programs.
                    ops.push(PipelineOp::HistogramEq { bins });
                }
                ops.push(PipelineOp::Curve(c));
                ops.push(PipelineOp::ReapplyRatio);
                ops
            }),
        // Per-channel transfer round trip on the Rgb register.
        (100.0f32..10_000.0).prop_map(|peak_nits| vec![
            PipelineOp::Curve(Curve::PqOetf { peak_nits }),
            PipelineOp::Curve(Curve::PqEotf { peak_nits }),
        ]),
        Just(vec![
            PipelineOp::Curve(Curve::HlgOetf),
            PipelineOp::Curve(Curve::HlgEotf)
        ]),
    ]
}

proptest! {
    // Each case runs both planners, two sample types and three thread
    // counts over a colour image — fewer, heavier cases.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random colour-managed plans: 1–3 segments drawn from the HSV
    /// detour, the explicit extract/reapply luminance path, and the
    /// per-channel transfer round trips. Every composition must validate
    /// as an `Rgb → Rgb` register walk, and the streaming colour walk must
    /// stay bit-identical to the two-pass planner in `f32` and `Fix16` at
    /// 1, 2 and 8 row threads.
    #[test]
    fn random_colour_plans_validate_and_match_two_pass(
        (width, height) in cascade_dims(),
        segments in prop::collection::vec(colour_segment(), 1..4),
        normalize_first in any::<bool>(),
        seed in 0u64..1_000_000,
    ) {
        let hdr = synthetic_rgb(width, height, seed);
        let params = ToneMapParams::paper_default();
        let mut ops = Vec::new();
        if normalize_first {
            // Normalize is legal directly on the Rgb register.
            ops.push(PipelineOp::Normalize);
        }
        for segment in segments {
            ops.extend(segment);
        }
        let plan = PipelinePlan::with_input(ChannelLayout::Rgb, ops)
            .expect("generated colour compositions are valid register walks");
        prop_assert_eq!(plan.input_layout(), ChannelLayout::Rgb);
        prop_assert_eq!(plan.output_layout(), ChannelLayout::Rgb);

        let two_pass = ToneMapper::compile(plan.clone(), params).expect("plan compiles");
        let classic_f32 = two_pass.map_rgb_hw_blur::<f32>(&hdr).expect("colour plan runs");
        let classic_fix = two_pass.map_rgb_hw_blur::<Fix16>(&hdr).expect("colour plan runs");
        for pixel in classic_f32.pixels() {
            prop_assert!(
                [pixel.r, pixel.g, pixel.b].iter().all(|c| c.is_finite()),
                "colour outputs must be NaN-free"
            );
        }

        for threads in [1usize, 2, 8] {
            let streamed_f32 = StreamingToneMapper::<f32>::compile(plan.clone(), params)
                .expect("plan compiles")
                .with_threads(threads)
                .map_rgb(&hdr)
                .expect("colour plan streams");
            prop_assert_eq!(&streamed_f32, &classic_f32,
                "f32 colour walk diverged at {} thread(s)", threads);
            let streamed_fix = StreamingToneMapper::<Fix16>::compile(plan.clone(), params)
                .expect("plan compiles")
                .with_threads(threads)
                .map_rgb(&hdr)
                .expect("colour plan streams");
            prop_assert_eq!(&streamed_fix, &classic_fix,
                "Fix16 colour walk diverged at {} thread(s)", threads);
        }
    }
}

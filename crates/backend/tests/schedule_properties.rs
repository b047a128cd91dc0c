//! Property tests for the auto-scheduler: over randomly drawn
//! multi-stencil cascade plans, the enumerated schedule space is *legal*
//! (every streaming point mirrors the streaming planner's decision, and
//! every plan — a mask across a barrier included — has one), scheduling is
//! *deterministic* (repeated runs produce identical ranked reports), and
//! the chosen schedule is *invisible in the pixels*: every engine row at
//! its own point and every `schedule=` mode is bit-identical to the
//! per-pixel two-pass reference, `ToneMapper`.

use apfixed::Fix16;
use hdr_image::{LuminanceImage, RgbImage};
use proptest::prelude::*;
use tonemap_backend::{BackendRegistry, Numerics, TonemapRequest};
use tonemap_core::plan::PlanTuning;
use tonemap_core::{
    BlurParams, ChannelLayout, Curve, PipelineOp, PipelinePlan, StreamingDecision, ToneMapParams,
    ToneMapper,
};
use tonemap_scheduler::{HostModel, SampleFormat, ScheduleClass, ScheduleExecutor, Scheduler};

/// A deterministic pseudo-random HDR image, seeded per case so failures
/// replay (same generator as the core streaming properties).
fn synthetic_image(width: usize, height: usize, seed: u64) -> LuminanceImage {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    LuminanceImage::from_fn(width, height, |_, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let unit = (state >> 11) as f32 / (1u64 << 53) as f32 * (1u32 << 21) as f32;
        0.001 + unit.fract() * 10.0f32.powi((state % 7) as i32 - 3)
    })
}

/// The PR 6 cascade generator: 1–3 stencil stages, each optionally followed
/// by a `HistogramEq` materialization barrier. Every plan it produces
/// streams (fully fused when `barrier_mask` selects no barrier).
fn cascade_plan(
    n_stencils: usize,
    radii: &[usize],
    sigmas: &[f32],
    barrier_mask: u8,
    bins: usize,
) -> (PipelinePlan, usize) {
    let params = ToneMapParams::paper_default();
    let mut ops = vec![PipelineOp::Normalize];
    let mut barrier_count = 0usize;
    for i in 0..n_stencils {
        ops.push(PipelineOp::BlurMask {
            blur: BlurParams {
                sigma: sigmas[i],
                radius: radii[i],
            },
            invert_input: i % 2 == 0,
        });
        ops.push(PipelineOp::Mask(params.masking));
        if barrier_mask & (1 << i) != 0 {
            ops.push(PipelineOp::HistogramEq { bins });
            barrier_count += 1;
        }
    }
    ops.push(PipelineOp::Curve(Curve::Adjust(params.adjust)));
    (
        PipelinePlan::new(ops).expect("generated plans are valid"),
        barrier_count,
    )
}

/// A mask consuming its blurred producer from across a histogram barrier:
/// the mask crosses the barrier as a materialized plane.
fn mask_across_barrier_plan() -> PipelinePlan {
    let params = ToneMapParams::paper_default();
    PipelinePlan::new(vec![
        PipelineOp::Normalize,
        PipelineOp::BlurMask {
            blur: params.blur,
            invert_input: false,
        },
        PipelineOp::HistogramEq { bins: 64 },
        PipelineOp::Mask(params.masking),
    ])
    .expect("plan validates")
}

fn scheduler() -> Scheduler {
    Scheduler::new(
        ToneMapParams::paper_default(),
        ScheduleClass {
            format: SampleFormat::F32,
            design: codesign::flow::DesignImplementation::SwSourceCode,
        },
    )
    .expect("paper params valid")
    .with_host(HostModel::with_cores(8))
}

proptest! {
    // Each case prices a full schedule space twice and cross-checks it
    // against the streaming planner — heavier than a parse test, so fewer
    // cases.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Legality and determinism of the enumerated space.
    #[test]
    fn enumerated_spaces_are_legal_and_deterministic(
        n_stencils in 1usize..=3,
        radii in prop::collection::vec(1usize..6, 3..4),
        sigmas in prop::collection::vec(0.4f32..4.0, 3..4),
        barrier_mask in 0u8..8,
        bins in 8usize..64,
        width in 16usize..160,
        height in 16usize..160,
    ) {
        let (plan, barrier_count) =
            cascade_plan(n_stencils, &radii, &sigmas, barrier_mask, bins);
        let sched = scheduler();
        let report = sched.schedule(&plan, width, height);
        // Deterministic: an identical re-run reproduces the entire ranked
        // report, verdicts included.
        prop_assert_eq!(&sched.schedule(&plan, width, height), &report);

        // Legal: every streaming point mirrors the streaming planner's
        // decision for the same plan.
        let decision = StreamingDecision::of(&plan);
        prop_assert_eq!(&report.decision, &decision);
        for priced in &report.ranked {
            match priced.point.executor {
                ScheduleExecutor::TwoPass => {
                    prop_assert_eq!(priced.point.threads, 1);
                    prop_assert_eq!(priced.point.slice_rows, height);
                }
                ScheduleExecutor::Streaming { fused, barriers } => {
                    prop_assert_eq!(fused, decision.is_fused());
                    prop_assert_eq!(barriers, decision.barriers().len());
                    prop_assert_eq!(barriers, barrier_count);
                }
            }
            prop_assert!(priced.predicted_seconds.is_finite());
            prop_assert!(priced.predicted_seconds > 0.0);
        }
        // Ranked ascending; the winner never loses to the two-pass
        // reference it is allowed to fall back to.
        for pair in report.ranked.windows(2) {
            prop_assert!(pair[0].predicted_seconds <= pair[1].predicted_seconds);
        }
        prop_assert!(
            report.winner().predicted_seconds <= report.two_pass().predicted_seconds
        );
    }

    /// A mask across a barrier streams, segmented at its barrier — at every
    /// resolution.
    #[test]
    fn mask_across_barrier_plans_enumerate_streaming_points(
        width in 16usize..256,
        height in 16usize..256,
    ) {
        let report = scheduler().schedule(&mask_across_barrier_plan(), width, height);
        prop_assert!(report.ranked.len() >= 2);
        prop_assert_eq!(report.two_pass().point.threads, 1);
        let segmented = tonemap_scheduler::ScheduleExecutor::Streaming { fused: false, barriers: 1 };
        prop_assert_eq!(report.best_streaming().point.executor, segmented);
        for priced in report.ranked.iter().filter(|p| p.point.executor.is_streaming()) {
            prop_assert_eq!(priced.point.executor, segmented);
        }
    }
}

/// Every scalar preset, resolved with its default tuning.
fn scalar_presets() -> Vec<PipelinePlan> {
    let params = ToneMapParams::paper_default();
    PipelinePlan::PRESETS
        .iter()
        .map(|name| PipelinePlan::preset(name, &params, &PlanTuning::default()))
        .map(|plan| plan.expect("default tuning valid").expect("a preset"))
        .filter(|plan| plan.input_layout() == ChannelLayout::Scalar)
        .collect()
}

/// The plans the pixel property draws: a random cascade, any scalar
/// preset, or the mask-across-barrier plan.
fn any_plan() -> impl Strategy<Value = PipelinePlan> {
    let cascades = (
        1usize..=2,
        prop::collection::vec(1usize..5, 2..3),
        prop::collection::vec(0.4f32..3.0, 2..3),
        0u8..4,
        8usize..32,
    )
        .prop_map(|(n, radii, sigmas, barriers, bins)| {
            cascade_plan(n, &radii, &sigmas, barriers, bins).0
        });
    let presets = (0usize..scalar_presets().len()).prop_map(|i| scalar_presets()[i].clone());
    prop_oneof![cascades, presets, Just(mask_across_barrier_plan())]
}

/// Frame shapes: small rectangles; widths one below, on and one past the
/// stencil block of 64 samples, two blocks plus one, and a single column;
/// N×1 rows; and frames smaller than every drawn blur radius.
fn any_dims() -> impl Strategy<Value = (usize, usize)> {
    prop_oneof![
        (12usize..48, 12usize..48),
        ((0usize..5).prop_map(|i| [1, 63, 64, 65, 129][i]), 1usize..9),
        (2usize..48).prop_map(|width| (width, 1)),
        (1usize..4, 1usize..4),
    ]
}

/// `spec`'s engine reconfigured to serve `plan` with the paper parameters.
fn engine_for(
    registry: &BackendRegistry,
    spec: &str,
    plan: &PipelinePlan,
) -> std::sync::Arc<dyn tonemap_backend::TonemapBackend> {
    registry
        .resolve_spec(spec)
        .unwrap_or_else(|e| panic!("{spec} resolves: {e}"))
        .backend()
        .reconfigured(ToneMapParams::paper_default(), Some(plan.clone()))
        .unwrap_or_else(|e| panic!("{spec} serves {plan}: {e}"))
}

proptest! {
    // Sixteen engine executions per case, on small frames.
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every engine row at its own point and every `schedule=` mode
    /// reproduces the per-pixel two-pass reference bit for bit: the split
    /// rows `map_luminance_hw_blur` in their blur format, `sw-fix16`
    /// `map_luminance::<Fix16>`. The scheduler picks strategies, never
    /// pixels.
    #[test]
    fn auto_schedule_output_is_bit_identical_to_two_pass(
        plan in any_plan(),
        (width, height) in any_dims(),
        seed in 0u64..1_000_000,
    ) {
        let hdr = synthetic_image(width, height, seed);
        let registry = BackendRegistry::standard();
        let reference = ToneMapper::compile(plan.clone(), ToneMapParams::paper_default())
            .expect("plan compiles");
        let expected = |numerics: Numerics| match numerics {
            Numerics::F32 => reference.map_luminance_hw_blur::<f32>(&hdr),
            Numerics::Fix16Blur => reference.map_luminance_hw_blur::<Fix16>(&hdr),
            Numerics::Fix16All => reference.map_luminance::<Fix16>(&hdr),
        };
        let run = |spec: &str| {
            engine_for(&registry, spec, &plan)
                .execute(&TonemapRequest::luminance(&hdr))
                .expect("the engine serves the plan")
                .luminance()
                .expect("display-referred payload")
                .clone()
        };
        for row in BackendRegistry::STANDARD_ENGINES {
            prop_assert_eq!(
                run(row.name),
                expected(row.numerics),
                "{} on {} at {}x{}", row.name, plan, width, height
            );
        }
        for (engine, numerics) in [("sw-f32", Numerics::F32), ("hw-fix16", Numerics::Fix16Blur)] {
            for mode in ["auto", "two-pass", "stream", "stream&threads=2"] {
                let spec = format!("{engine}?schedule={mode}");
                prop_assert_eq!(
                    run(&spec),
                    expected(numerics),
                    "{} on {} at {}x{}", spec, plan, width, height
                );
            }
        }
    }
}

/// A deterministic pseudo-random HDR colour image.
fn synthetic_rgb(width: usize, height: usize, seed: u64) -> RgbImage {
    let grey = synthetic_image(width, height, seed);
    RgbImage::from_fn(width, height, |x, y| {
        let l = grey.pixels()[y * width + x];
        hdr_image::Rgb::new(l * (0.3 + 0.1 * (x % 7) as f32), l, l * 0.8)
    })
}

/// The colour presets through `map_rgb` on both Fix16 rows, at their own
/// point and scheduled: `sw-fix16` reproduces `map_rgb::<Fix16>`,
/// `hw-fix16` `map_rgb_hw_blur::<Fix16>`.
#[test]
fn colour_presets_on_the_fix16_rows_match_the_reference() {
    let params = ToneMapParams::paper_default();
    let registry = BackendRegistry::standard();
    for name in PipelinePlan::PRESETS {
        let plan = PipelinePlan::preset(name, &params, &PlanTuning::default())
            .expect("default tuning valid")
            .expect("a preset");
        if plan.input_layout() != ChannelLayout::Rgb {
            continue;
        }
        let reference = ToneMapper::compile(plan.clone(), params).expect("plan compiles");
        for (width, height) in [(41, 27), (65, 3), (1, 9)] {
            let hdr = synthetic_rgb(width, height, 7);
            let all_fixed = reference.map_rgb::<Fix16>(&hdr).expect("colour plans run");
            let split = reference
                .map_rgb_hw_blur::<Fix16>(&hdr)
                .expect("colour plans run");
            for (spec, expected) in [
                ("sw-fix16", &all_fixed),
                ("hw-fix16", &split),
                ("hw-fix16-stream", &split),
                ("hw-fix16?schedule=auto", &split),
                ("hw-fix16?schedule=stream&threads=2", &split),
            ] {
                let out = engine_for(&registry, spec, &plan)
                    .execute(&TonemapRequest::rgb(&hdr))
                    .expect("the engine serves the colour plan");
                assert_eq!(
                    out.rgb().expect("colour payload"),
                    expected,
                    "{spec} on {name} at {width}x{height}"
                );
            }
        }
    }
}

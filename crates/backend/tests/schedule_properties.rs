//! Property tests for the auto-scheduler: over randomly drawn
//! multi-stencil cascade plans, the enumerated schedule space is *legal*
//! (it never contains a streaming point the streaming planner would
//! reject, and every streaming point mirrors the planner's decision),
//! scheduling is *deterministic* (repeated runs produce identical ranked
//! reports), and the chosen schedule is *invisible in the pixels*
//! (`schedule=auto` output is bit-identical to the forced two-pass
//! reference).

use hdr_image::LuminanceImage;
use proptest::prelude::*;
use tonemap_backend::{BackendRegistry, TonemapRequest};
use tonemap_core::{
    BlurParams, Curve, PipelineOp, PipelinePlan, StreamingToneMapper, ToneMapParams, ToneMapper,
};
use tonemap_scheduler::{
    HostModel, SampleFormat, ScheduleClass, ScheduleExecutor, ScheduleMode, Scheduler,
};

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

/// The one shape the streaming planner refuses: a mask consuming its
/// blurred producer from across a histogram barrier.
fn fallback_plan() -> PipelinePlan {
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
        // decision for the same plan, and the planner agrees it streams.
        let decision = StreamingToneMapper::<f32>::compile(
            plan.clone(),
            ToneMapParams::paper_default(),
        )
        .expect("plan compiles")
        .decision();
        prop_assert!(decision.is_streamed());
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

    /// Plans the streaming planner rejects never grow streaming points —
    /// regardless of resolution.
    #[test]
    fn rejected_plans_enumerate_no_streaming_point(
        width in 16usize..256,
        height in 16usize..256,
    ) {
        let report = scheduler().schedule(&fallback_plan(), width, height);
        prop_assert_eq!(report.ranked.len(), 1);
        prop_assert_eq!(report.winner().point.executor, ScheduleExecutor::TwoPass);
        prop_assert!(!report.decision.is_streamed());
    }
}

proptest! {
    // End-to-end engine executions per case: fewest cases of all.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Running the winner through the engine layer reproduces the forced
    /// two-pass output bit for bit: the scheduler picks strategies, never
    /// pixels.
    #[test]
    fn auto_schedule_output_is_bit_identical_to_two_pass(
        n_stencils in 1usize..=2,
        radii in prop::collection::vec(1usize..5, 2..3),
        sigmas in prop::collection::vec(0.4f32..3.0, 2..3),
        barrier_mask in 0u8..4,
        bins in 8usize..32,
        width in 12usize..48,
        height in 12usize..48,
        seed in 0u64..1_000_000,
    ) {
        let (plan, _) = cascade_plan(n_stencils, &radii, &sigmas, barrier_mask, bins);
        let hdr = synthetic_image(width, height, seed);
        let registry = BackendRegistry::standard();
        let run = |mode: ScheduleMode| {
            let engine = registry
                .resolve_spec(&format!("sw-f32?schedule={mode}"))
                .expect("standard engine schedules")
                .backend()
                .reconfigured(ToneMapParams::paper_default(), Some(plan.clone()))
                .expect("cascade plans schedule");
            engine
                .execute(&TonemapRequest::luminance(&hdr))
                .expect("scheduled run executes")
                .luminance()
                .expect("display-referred payload")
                .clone()
        };
        let auto = run(ScheduleMode::Auto);
        let two_pass = run(ScheduleMode::TwoPass);
        let stream = run(ScheduleMode::Stream);
        prop_assert_eq!(&auto, &two_pass);
        prop_assert_eq!(&stream, &two_pass);
        // And both agree with the core reference for the same plan.
        let direct = ToneMapper::compile(plan, ToneMapParams::paper_default())
            .expect("plan compiles")
            .map_luminance_hw_blur::<f32>(&hdr);
        prop_assert_eq!(&auto, &direct);
    }
}

//! The anchor property of temporal adaptation: with `tau = 0` (gain
//! `α = 1`) the leaky integrator degenerates to assignment, so a leaky
//! session must be **bit-identical** to a per-frame-independent one, and
//! both to the engine's still of each frame — over any plan preset, scene,
//! sequence kind, resolution and engine row. This is what makes
//! `temporal=leaky` safe to enable by default: the zero point of the `tau`
//! dial is exactly single-frame semantics.

use hdr_image::sequence::{FrameSequence, SequenceKind};
use hdr_image::synth::SceneKind;
use proptest::prelude::*;
use tonemap_backend::{BackendRegistry, Engine, EngineRow, Executor, TonemapBackend};
use tonemap_core::plan::{PipelinePlan, PlanTuning};
use tonemap_core::ToneMapParams;
use tonemap_video::{TemporalConfig, VideoSession};

/// Scalar-plan presets (colour presets are rejected by video sessions).
fn preset_strategy() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("paper"),
        Just("basedetail"),
        Just("reinhard"),
        Just("histeq"),
        Just("gamma"),
        Just("log"),
        Just("filmic"),
        Just("aces"),
        Just("drago"),
    ]
}

fn scene_strategy() -> impl Strategy<Value = SceneKind> {
    prop_oneof![
        Just(SceneKind::WindowInDarkRoom),
        Just(SceneKind::SunAndShadow),
        Just(SceneKind::GradientRamp),
        Just(SceneKind::StarField),
        Just(SceneKind::MemorialComposite),
    ]
}

fn kind_strategy() -> impl Strategy<Value = SequenceKind> {
    prop_oneof![
        Just(SequenceKind::Static),
        Just(SequenceKind::Pan {
            pixels_per_frame: 2
        }),
        (0.5f32..2.0).prop_map(|decades| SequenceKind::ExposureRamp { decades }),
        (0.5f32..2.0).prop_map(|decades| SequenceKind::RampWithCut { decades, cut_at: 2 }),
    ]
}

fn row(name: &str) -> EngineRow {
    BackendRegistry::STANDARD_ENGINES
        .into_iter()
        .find(|row| row.name == name)
        .expect("a standard engine name")
}

/// Every numerics on the two-pass planner, and the stream in both formats,
/// the Fix16 one sliced over two workers.
fn row_strategy() -> impl Strategy<Value = EngineRow> {
    prop_oneof![
        Just(row("sw-f32")),
        Just(row("sw-fix16")),
        Just(row("hw-fix16")),
        Just(row("sw-f32-stream")),
        Just(EngineRow {
            executor: Executor::Stream { threads: 2 },
            ..row("hw-fix16-stream")
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tau_zero_adaptation_is_bit_identical_to_independence(
        preset in preset_strategy(),
        scene in scene_strategy(),
        kind in kind_strategy(),
        row in row_strategy(),
        width in 12usize..40,
        height in 10usize..32,
        seed in 0u64..64,
    ) {
        let params = ToneMapParams::paper_default();
        let plan = PipelinePlan::preset(preset, &params, &PlanTuning::default())
            .expect("preset tuning is valid")
            .expect("preset name is known");
        let frames = FrameSequence::new(kind, scene, width, height, 4, seed);
        let mut frozen = VideoSession::new(
            &plan,
            &params,
            // tau = 0 with an effectively-disabled cut detector: resets
            // are no-ops at α = 1, so even a firing detector must not
            // change the output — exercise it on half the cases.
            TemporalConfig::leaky(0.0).with_cut_threshold(if seed % 2 == 0 { 0.05 } else { 1e9 }),
            row,
        )
        .expect("scalar presets build video sessions");
        let mut independent =
            VideoSession::new(&plan, &params, TemporalConfig::independent(), row)
                .expect("scalar presets build video sessions");
        // The second oracle does not walk the session's code at all.
        let still = Engine::with_plan(row, params, plan.clone(), row.name)
            .expect("scalar presets build engines");
        for frame in frames.frames() {
            let (a, _) = frozen.process(&frame);
            let (b, _) = independent.process(&frame);
            prop_assert_eq!(a.pixels(), b.pixels());
            let expected = still
                .run_luminance(&frame, None, None, false)
                .expect("scalar plans run");
            prop_assert_eq!(a.pixels(), expected.image.pixels());
        }
    }
}

//! Pipeline-plan gate: the operator-graph API keeps its two promises.
//!
//! 1. **Bit-identity of the paper plan** — `PipelinePlan::paper_default()`
//!    compiled by the two-pass reference and by the streaming planner is
//!    bit-identical to the *pre-redesign* engines (reconstructed here as
//!    the hand-written Fig. 1 stage chain the seed code shipped) on every
//!    synthetic scene, in the all-float, the hardware-split fixed-point and
//!    the all-fixed modes. The redesign changed the API, not one pixel.
//! 2. **New operators serve end-to-end** — every named preset (two-stencil
//!    base–detail, global Reinhard, histogram equalization, gamma, log)
//!    round-trips through the `tonemap-service` worker pool via a
//!    `pipeline=` job spec, matching direct plan compilation exactly, and
//!    the spec strings round-trip through their canonical `Display` form.
//!
//! The run fails (non-zero exit) on any violation.
//!
//! ```text
//! cargo run -p bench --release --bin pipelines
//! ```

use apfixed::Fix16;
use hdr_image::synth::SceneKind;
use hdr_image::{ImageBuffer, LuminanceImage};
use std::sync::Arc;
use tonemap_backend::{BackendRegistry, BackendSpec, TonemapRequest};
use tonemap_core::adjust::apply_adjustment;
use tonemap_core::blur::blur_separable;
use tonemap_core::masking::{apply_masking, invert};
use tonemap_core::normalize::{normalize, normalize_to};
use tonemap_core::plan::{PipelinePlan, PlanTuning};
use tonemap_core::stream::AllStages;
use tonemap_core::{Sample, StreamingDecision, StreamingToneMapper, ToneMapParams, ToneMapper};
use tonemap_service::{JobRequest, ServiceConfig, TonemapService};

/// The pre-redesign software reference: the hard-coded Fig. 1 chain with
/// every stage in `S`, exactly as the seed `ToneMapper::run_stages` wrote
/// it.
fn legacy_all<S: Sample>(params: &ToneMapParams, hdr: &LuminanceImage) -> LuminanceImage {
    let normalized: ImageBuffer<S> = normalize_to::<S>(hdr);
    let mask_input = if params.masking.invert_mask {
        invert(&normalized)
    } else {
        normalized.clone()
    };
    let mask = blur_separable(&mask_input, &params.blur);
    let masked = apply_masking(&normalized, &mask, &params.masking);
    let adjusted = apply_adjustment(&masked, &params.adjust);
    adjusted.map(|&v| v.to_f32())
}

/// The pre-redesign hardware/software split: point stages in `f32`, the
/// blur in `S` behind the accelerator boundary, exactly as the seed
/// `ToneMapper::run_stages_hw_blur` wrote it.
fn legacy_hw_blur<S: Sample>(params: &ToneMapParams, hdr: &LuminanceImage) -> LuminanceImage {
    let normalized = normalize(hdr);
    let mask_input = if params.masking.invert_mask {
        normalized.map(|&v| 1.0 - v)
    } else {
        normalized.clone()
    };
    let accel_in: ImageBuffer<S> = mask_input.map(|&v| S::from_f32(v));
    let accel_out = blur_separable(&accel_in, &params.blur);
    let mask: LuminanceImage = accel_out.map(|&v| v.to_f32());
    let masked = apply_masking(&normalized, &mask, &params.masking);
    apply_adjustment(&masked, &params.adjust)
}

fn scenes() -> Vec<(String, LuminanceImage)> {
    let mut scenes = Vec::new();
    for kind in SceneKind::ALL {
        for (w, h, seed) in [(96usize, 72usize, 1u64), (57, 33, 2)] {
            scenes.push((format!("{kind:?}-{w}x{h}"), kind.generate(w, h, seed)));
        }
    }
    // Degenerate geometries keep the clamped-window paths honest.
    scenes.push(("row-1xN".into(), SceneKind::GradientRamp.generate(1, 64, 3)));
    scenes.push(("col-Nx1".into(), SceneKind::GradientRamp.generate(64, 1, 4)));
    scenes.push((
        "sub-radius".into(),
        SceneKind::SunAndShadow.generate(5, 7, 5),
    ));
    scenes
}

fn bit_identity_gate() {
    let params = ToneMapParams::paper_default();
    let plan = PipelinePlan::paper_default();
    let two_pass = ToneMapper::compile(plan.clone(), params).expect("paper plan compiles");
    let stream_f32 =
        StreamingToneMapper::<f32>::compile(plan.clone(), params).expect("paper plan compiles");
    let stream_fix =
        StreamingToneMapper::<Fix16>::compile(plan.clone(), params).expect("paper plan compiles");
    let stream_all = StreamingToneMapper::<Fix16, AllStages>::compile(plan.clone(), params)
        .expect("paper plan compiles");
    assert!(
        StreamingDecision::of(&plan).is_fused(),
        "the paper plan must fuse into one streaming pass"
    );

    println!("bit-identity of the compiled paper plan vs the pre-redesign chains:");
    for (name, hdr) in scenes() {
        let legacy_f32 = legacy_all::<f32>(&params, &hdr);
        assert_eq!(
            two_pass.map_luminance_f32(&hdr),
            legacy_f32,
            "two-pass planner diverged from the legacy f32 chain on {name}"
        );
        assert_eq!(
            stream_f32.map_luminance(&hdr),
            legacy_f32,
            "streaming planner diverged from the legacy f32 chain on {name}"
        );
        let legacy_fix = legacy_hw_blur::<Fix16>(&params, &hdr);
        assert_eq!(
            two_pass.map_luminance_hw_blur::<Fix16>(&hdr),
            legacy_fix,
            "two-pass planner diverged from the legacy hw-fix16 chain on {name}"
        );
        assert_eq!(
            stream_fix.map_luminance(&hdr),
            legacy_fix,
            "streaming planner diverged from the legacy hw-fix16 chain on {name}"
        );
        let legacy_ablation = legacy_all::<Fix16>(&params, &hdr);
        assert_eq!(
            two_pass.map_luminance::<Fix16>(&hdr),
            legacy_ablation,
            "two-pass planner diverged from the legacy all-fixed chain on {name}"
        );
        assert_eq!(
            stream_all.map_luminance(&hdr),
            legacy_ablation,
            "streaming planner diverged from the legacy all-fixed chain on {name}"
        );
        println!("  {name:<28} f32 ✓   hw-fix16 ✓   all-fix16 ✓");
    }
    println!();
}

fn service_round_trip_gate() {
    let service = TonemapService::standard(ServiceConfig::with_workers(4));
    let registry = BackendRegistry::standard();
    let params = ToneMapParams::paper_default();
    let scene = Arc::new(SceneKind::WindowInDarkRoom.generate(80, 60, 9));

    println!("new operators served end-to-end via pipeline= job specs:");
    let mut outputs: Vec<(String, LuminanceImage)> = Vec::new();
    for preset in ["basedetail", "reinhard", "histeq", "gamma", "log"] {
        for engine in ["sw-f32", "sw-f32-stream"] {
            let spec = format!("{engine}?pipeline={preset}");
            // Canonical Display round-trip of the job spec.
            let parsed = BackendSpec::parse(&spec).expect("preset specs parse");
            let reparsed = BackendSpec::parse(&parsed.to_string()).expect("canonical re-parses");
            assert_eq!(parsed, reparsed, "{spec} must round-trip through Display");

            let served = service
                .submit(JobRequest::luminance(Arc::clone(&scene)).on_backend(&*spec))
                .expect("plan job admitted")
                .wait()
                .expect("plan job executes")
                .luminance()
                .expect("display-referred payload")
                .clone();
            // The service serves exactly what direct plan compilation
            // produces.
            let plan = PipelinePlan::preset(preset, &params, &PlanTuning::default())
                .expect("default tuning valid")
                .expect("preset resolves");
            let direct = ToneMapper::compile(plan, params)
                .expect("preset compiles")
                .map_luminance_f32(&scene);
            assert_eq!(served, direct, "{spec} diverged from direct compilation");
            // And what the registry (shared engine cache) produces.
            let via_registry = registry
                .execute(&TonemapRequest::luminance(&scene).on_backend(&*spec))
                .expect("spec executes");
            assert_eq!(
                &served,
                via_registry.luminance().unwrap(),
                "{spec} diverged between service and registry"
            );
            println!("  {spec:<36} ✓");
            if engine == "sw-f32" {
                outputs.push((preset.to_string(), served));
            }
        }
    }
    // The presets are genuinely different tone mappers.
    for i in 0..outputs.len() {
        for j in (i + 1)..outputs.len() {
            assert_ne!(
                outputs[i].1, outputs[j].1,
                "{} and {} produced identical pixels",
                outputs[i].0, outputs[j].0
            );
        }
    }
    service.shutdown();
    println!();
}

fn main() {
    bit_identity_gate();
    service_round_trip_gate();
    println!(
        "pipelines gate passed: paper plan bit-identical in both planners; all presets servable"
    );
}

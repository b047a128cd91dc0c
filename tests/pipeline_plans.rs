//! End-to-end coverage of the `PipelinePlan` operator-graph API: genuinely
//! new tone-mapping operators (global Reinhard, histogram equalization,
//! gamma/log curves) served through the whole stack — spec string →
//! registry resolution → compiled plan engine → `TonemapService` worker
//! pool — and the bit-identity contract of the paper-default plan.

use apfixed::Fix16 as Fix;
use std::sync::Arc;
use tonemap_zynq_repro::prelude::*;

/// Every plan preset servable through a `pipeline=` spec.
const PRESET_SPECS: [&str; 5] = [
    "sw-f32?pipeline=paper",
    "sw-f32?pipeline=reinhard",
    "sw-f32?pipeline=histeq",
    "sw-f32?pipeline=gamma",
    "sw-f32?pipeline=log",
];

#[test]
fn new_operators_are_servable_end_to_end_through_the_service() {
    let service = TonemapService::standard(ServiceConfig::with_workers(4));
    let registry = BackendRegistry::standard();
    let scene = Arc::new(SceneKind::WindowInDarkRoom.generate(48, 36, 7));

    let handles: Vec<JobHandle> = PRESET_SPECS
        .iter()
        .map(|spec| {
            service
                .submit(JobRequest::luminance(Arc::clone(&scene)).on_backend(*spec))
                .expect("plan jobs are admitted")
        })
        .collect();
    let outputs: Vec<LuminanceImage> = handles
        .into_iter()
        .map(|h| {
            h.wait()
                .expect("plan jobs execute")
                .luminance()
                .expect("display-referred payload")
                .clone()
        })
        .collect();

    // Each served output equals the registry's direct execution of the same
    // spec (the service adds concurrency, not arithmetic).
    for (spec, served) in PRESET_SPECS.iter().zip(&outputs) {
        let direct = registry
            .execute(&TonemapRequest::luminance(&scene).on_backend(*spec))
            .expect("spec executes directly");
        assert_eq!(&served.clone(), direct.luminance().unwrap(), "{spec}");
        assert!(
            served.pixels().iter().all(|v| (0.0..=1.0).contains(v)),
            "{spec} out of display range"
        );
    }

    // The operators are genuinely different: every preset output differs
    // from the paper chain (and from each other).
    for i in 0..outputs.len() {
        for j in (i + 1)..outputs.len() {
            assert_ne!(
                outputs[i], outputs[j],
                "{} and {} served identical pixels",
                PRESET_SPECS[i], PRESET_SPECS[j]
            );
        }
    }

    // `pipeline=paper` reproduces the default engine bit-for-bit.
    let default_out = registry
        .execute(&TonemapRequest::luminance(&scene))
        .unwrap();
    assert_eq!(&outputs[0], default_out.luminance().unwrap());
    service.shutdown();
}

#[test]
fn plan_jobs_stream_and_tune_through_the_service() {
    let service = TonemapService::standard(ServiceConfig::with_workers(2));
    let scene = Arc::new(SceneKind::SunAndShadow.generate(40, 40, 11));

    // Tuned Reinhard through the fused streaming engine...
    let streamed = service
        .submit(
            JobRequest::luminance(Arc::clone(&scene))
                .on_backend("sw-f32-stream?pipeline=reinhard&reinhard_key=4"),
        )
        .unwrap()
        .wait()
        .unwrap();
    // ...equals the two-pass engine serving the same tuned plan.
    let two_pass = service
        .submit(
            JobRequest::luminance(Arc::clone(&scene))
                .on_backend("sw-f32?pipeline=reinhard&reinhard_key=4"),
        )
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(streamed.luminance().unwrap(), two_pass.luminance().unwrap());

    // The tuning changed the curve relative to the preset default.
    let untuned = service
        .submit(JobRequest::luminance(Arc::clone(&scene)).on_backend("sw-f32?pipeline=reinhard"))
        .unwrap()
        .wait()
        .unwrap();
    assert_ne!(untuned.luminance().unwrap(), two_pass.luminance().unwrap());

    // Histogram equalization streams segmented at its barrier; the
    // hw-fix16 streaming engine serves it too.
    let histeq_stream = service
        .submit(
            JobRequest::luminance(Arc::clone(&scene))
                .on_backend("hw-fix16-stream?pipeline=histeq&bins=128"),
        )
        .unwrap()
        .wait()
        .unwrap();
    let histeq_classic = service
        .submit(
            JobRequest::luminance(Arc::clone(&scene))
                .on_backend("hw-fix16?pipeline=histeq&bins=128"),
        )
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(
        histeq_stream.luminance().unwrap(),
        histeq_classic.luminance().unwrap()
    );
    service.shutdown();
}

#[test]
fn job_level_plans_serve_without_a_spec() {
    let service = TonemapService::standard(ServiceConfig::with_workers(2));
    let scene = Arc::new(SceneKind::GradientRamp.generate(32, 24, 3));
    let plan = PipelinePlan::preset(
        "histeq",
        &ToneMapParams::paper_default(),
        &PlanTuning::default(),
    )
    .unwrap()
    .unwrap();
    let via_job = service
        .submit(JobRequest::luminance(Arc::clone(&scene)).with_pipeline(plan.clone()))
        .unwrap()
        .wait()
        .unwrap();
    let direct = ToneMapper::compile(plan, ToneMapParams::paper_default())
        .unwrap()
        .map_luminance_f32(&scene);
    assert_eq!(via_job.luminance().unwrap(), &direct);
    service.shutdown();
}

#[test]
fn bad_plan_specs_fail_jobs_with_typed_errors() {
    let service = TonemapService::standard(ServiceConfig::with_workers(1));
    let scene = Arc::new(SceneKind::GradientRamp.generate(8, 8, 1));
    for (spec, needle) in [
        ("sw-f32?pipeline=vaporwave", "unknown pipeline preset"),
        ("sw-f32?pipeline=histeq&bins=1", "histogram bin count"),
        ("sw-f32?bins=64", "requires a `pipeline=`"),
        ("sw-f32?pipeline=paper&pipeline=histeq", "duplicate key"),
        (" sw f32", "whitespace"),
    ] {
        let outcome = service
            .submit(JobRequest::luminance(Arc::clone(&scene)).on_backend(spec))
            .expect("submission is admitted; resolution fails on the worker")
            .wait();
        let err = outcome.expect_err("bad spec must fail the job");
        assert!(
            err.to_string().contains(needle),
            "`{spec}`: `{err}` lacks `{needle}`"
        );
    }
    service.shutdown();
}

#[test]
fn paper_default_plan_is_bit_identical_across_all_engines_and_planners() {
    // The acceptance contract of the redesign: compiling
    // `PipelinePlan::paper_default()` through either planner reproduces the
    // engines exactly, on every synthetic scene.
    let registry = BackendRegistry::standard();
    let plan = PipelinePlan::paper_default();
    for kind in SceneKind::ALL {
        let hdr = kind.generate(56, 42, 17);
        let two_pass = ToneMapper::compile(plan.clone(), ToneMapParams::paper_default())
            .unwrap()
            .map_luminance_f32(&hdr);
        let sw = registry
            .execute(&TonemapRequest::luminance(&hdr).on_backend("sw-f32"))
            .unwrap();
        assert_eq!(sw.luminance().unwrap(), &two_pass, "{kind:?} sw-f32");
        let streaming =
            StreamingToneMapper::<f32>::compile(plan.clone(), ToneMapParams::paper_default())
                .unwrap()
                .map_luminance(&hdr);
        assert_eq!(streaming, two_pass, "{kind:?} streaming");

        let fix_two_pass = ToneMapper::compile(plan.clone(), ToneMapParams::paper_default())
            .unwrap()
            .map_luminance_hw_blur::<Fix>(&hdr);
        let hw = registry
            .execute(&TonemapRequest::luminance(&hdr).on_backend("hw-fix16"))
            .unwrap();
        assert_eq!(hw.luminance().unwrap(), &fix_two_pass, "{kind:?} hw-fix16");
        let fix_streaming =
            StreamingToneMapper::<Fix>::compile(plan.clone(), ToneMapParams::paper_default())
                .unwrap()
                .map_luminance(&hdr);
        assert_eq!(fix_streaming, fix_two_pass, "{kind:?} fix streaming");
    }
}

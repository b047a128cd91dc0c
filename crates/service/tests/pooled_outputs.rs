//! Pooled output frames: the executors write each luminance output into a
//! frame the caller passes in, and the service passes frames from its
//! `FramePool`.
//!
//! - A stale pooled frame changes no output bit, and the output's buffer
//!   is the frame passed in, on every row and scalar preset.
//! - A consumer that recycles its outputs closes the loop: after warm-up
//!   the pool allocates and discards nothing.
//! - A consumer that never recycles gets fresh outputs, with the staging
//!   counters unchanged.
//! - A malformed raw job takes no pooled frame.
//! - A panicking engine's output frame never re-enters the pool.

mod harness;

use harness::Gate;
use hdr_image::sequence::{FrameSequence, SequenceKind};
use hdr_image::synth::SceneKind;
use hdr_image::LuminanceImage;
use std::sync::Arc;
use tonemap_backend::{BackendRegistry, TonemapRequest};
use tonemap_core::cores;
use tonemap_core::plan::{ChannelLayout, PipelinePlan};
use tonemap_core::ToneMapParams;
use tonemap_service::{
    FramePoolStats, FrameSequenceRequest, JobRequest, ServiceConfig, ServiceError, TonemapService,
};
use tonemap_video::VideoSession;

/// Every standard row, plus both stream numerics asking for four row
/// slices, which an idle host grants.
fn rows() -> Vec<String> {
    BackendRegistry::STANDARD_ENGINES
        .iter()
        .map(|row| row.name.to_string())
        .chain([
            "sw-f32?schedule=stream&threads=4".to_string(),
            "hw-fix16?schedule=stream&threads=4".to_string(),
        ])
        .collect()
}

/// The presets whose plans take and give a luminance plane.
fn scalar_presets() -> Vec<&'static str> {
    let params = ToneMapParams::paper_default();
    PipelinePlan::PRESETS
        .into_iter()
        .filter(|name| {
            let plan = PipelinePlan::preset(name, &params, &Default::default());
            let plan = plan.unwrap().expect("a preset name");
            plan.input_layout() == ChannelLayout::Scalar
                && plan.output_layout() == ChannelLayout::Scalar
        })
        .collect()
}

/// Every row × scalar preset spec.
fn specs() -> Vec<String> {
    let presets = scalar_presets();
    let mut specs = Vec::new();
    for row in rows() {
        let separator = if row.contains('?') { '&' } else { '?' };
        for preset in &presets {
            specs.push(format!("{row}{separator}pipeline={preset}"));
        }
    }
    specs
}

/// A frame as a consumer hands it back: the right length, every sample
/// stale.
fn stale(len: usize) -> Vec<f32> {
    vec![f32::NAN; len]
}

fn bits(image: &LuminanceImage) -> Vec<u32> {
    image.pixels().iter().map(|v| v.to_bits()).collect()
}

/// The allocations a pool made in all: staging frames and output frames.
fn allocations(pool: &FramePoolStats) -> u64 {
    pool.allocated + pool.outputs - pool.outputs_reused
}

#[test]
fn a_stale_pooled_frame_changes_no_output_bit() {
    let registry = BackendRegistry::standard();
    let scene = SceneKind::MemorialComposite.generate(37, 23, 5);
    let ramp = FrameSequence::new(
        SequenceKind::RampWithCut {
            decades: 1.0,
            cut_at: 2,
        },
        SceneKind::SunAndShadow,
        37,
        23,
        4,
        6,
    );
    let len = scene.pixels().len();
    let mut differing = Vec::new();
    for every_core_held in [false, true] {
        let _held: Vec<cores::Held> = match every_core_held {
            true => (0..cores::host_cores()).map(|_| cores::hold()).collect(),
            false => Vec::new(),
        };
        for spec in specs() {
            let case = format!("{spec} (every core held: {every_core_held})");
            let request = TonemapRequest::luminance(&scene);
            let resolved = registry.resolve_spec(&spec).expect("the spec resolves");
            let fresh = resolved.backend().execute(&request).expect("the job runs");
            let pooled = resolved
                .backend()
                .execute_into(&request, stale(len))
                .expect("the job runs");
            if bits(pooled.luminance().unwrap()) != bits(fresh.luminance().unwrap()) {
                differing.push(format!("job {case}"));
            }

            let leaky = format!("{spec}&temporal=leaky&tau=2");
            let mut fresh = VideoSession::from_spec(&leaky).expect("the session builds");
            let mut pooled = VideoSession::from_spec(&leaky).expect("the session builds");
            for (index, frame) in ramp.frames().enumerate() {
                let (want, want_metrics) = fresh.process(&frame);
                let (got, got_metrics) = pooled.process_into(&frame, stale(len));
                if bits(&got) != bits(&want) || got_metrics != want_metrics {
                    differing.push(format!("session {case}, frame {index}"));
                }
            }
        }
    }
    assert!(
        differing.is_empty(),
        "{} cases differ: {differing:#?}",
        differing.len()
    );
}

#[test]
fn the_output_is_the_passed_frame_on_every_row_and_scalar_preset() {
    let registry = BackendRegistry::standard();
    let scene = SceneKind::WindowInDarkRoom.generate(29, 17, 8);
    let len = scene.pixels().len();
    let mut elsewhere = Vec::new();
    for spec in specs() {
        let frame = stale(len);
        let buffer = frame.as_ptr();
        let response = registry
            .resolve_spec(&spec)
            .expect("the spec resolves")
            .backend()
            .execute_into(&TonemapRequest::luminance(&scene), frame)
            .expect("the job runs");
        if response.luminance().unwrap().pixels().as_ptr() != buffer {
            elsewhere.push(format!("job {spec}"));
        }

        let mut session = VideoSession::from_spec(&format!("{spec}&temporal=leaky&tau=2"))
            .expect("the session builds");
        for index in 0..2 {
            let frame = stale(len);
            let buffer = frame.as_ptr();
            let (output, _) = session.process_into(&scene, frame);
            if output.pixels().as_ptr() != buffer {
                elsewhere.push(format!("session {spec}, frame {index}"));
            }
        }
    }
    assert!(
        elsewhere.is_empty(),
        "{} outputs left the passed frame: {elsewhere:#?}",
        elsewhere.len()
    );
}

#[test]
fn a_recycling_stream_allocates_at_most_four_frames_in_all() {
    let service = TonemapService::standard(ServiceConfig::with_workers(1));
    let sequence = FrameSequence::new(
        SequenceKind::ExposureRamp { decades: 1.5 },
        SceneKind::SunAndShadow,
        32,
        24,
        100,
        5,
    );
    let mut stream = service
        .open_stream(FrameSequenceRequest::on_backend(
            "sw-f32-stream?temporal=leaky",
        ))
        .unwrap();
    let mut local = VideoSession::from_spec("sw-f32-stream?temporal=leaky").unwrap();
    for frame in sequence.frames() {
        let outcome = stream.submit_frame(&frame).unwrap().wait().unwrap();
        assert_eq!(bits(&outcome.output), bits(&local.process(&frame).0));
        stream.recycle(outcome.output);
    }
    let pool = service.frame_pool_stats();
    assert_eq!(pool.acquired, 100);
    assert_eq!(pool.outputs, 100, "every output came from the pool");
    assert!(allocations(&pool) <= 4, "stats: {pool:?}");
    assert_eq!(pool.discarded_over_cap, 0, "stats: {pool:?}");
}

#[test]
fn recycled_raw_jobs_allocate_nothing_after_warm_up() {
    let service = TonemapService::standard(ServiceConfig::with_workers(1));
    let scene = SceneKind::WindowInDarkRoom.generate(40, 30, 3);
    let pixels = Arc::new(scene.pixels().to_vec());
    let direct = BackendRegistry::standard()
        .execute(&TonemapRequest::luminance(&scene))
        .unwrap();
    let serve = || {
        let job = JobRequest::raw_luminance(40, 30, Arc::clone(&pixels));
        let response = service.submit(job).unwrap().wait().unwrap();
        assert_eq!(response.payload(), direct.payload());
        service.recycle(response);
    };
    serve();
    let warm = service.frame_pool_stats();
    for _ in 1..200 {
        serve();
    }
    let pool = service.frame_pool_stats();
    assert_eq!(pool.acquired, 200);
    assert_eq!(pool.outputs, 200);
    assert_eq!(allocations(&pool), allocations(&warm), "stats: {pool:?}");
    assert_eq!(pool.discarded_over_cap, 0, "stats: {pool:?}");
}

#[test]
fn a_consumer_that_never_recycles_gets_fresh_outputs() {
    let service = TonemapService::standard(ServiceConfig::with_workers(1));
    let scene = SceneKind::SunAndShadow.generate(24, 16, 2);
    let pixels = Arc::new(scene.pixels().to_vec());
    for _ in 0..20 {
        let job = JobRequest::raw_luminance(24, 16, Arc::clone(&pixels));
        drop(service.submit(job).unwrap().wait().unwrap());
    }
    let mut stream = service
        .open_stream(FrameSequenceRequest::on_backend("sw-f32?temporal=leaky"))
        .unwrap();
    for _ in 0..20 {
        drop(stream.submit_frame(&scene).unwrap().wait().unwrap());
    }
    let pool = service.frame_pool_stats();
    assert_eq!(pool.outputs, 40);
    assert_eq!(pool.outputs_reused, 0, "no output frame was returned");
    // Staging: one frame allocated, then reused by every later job and
    // frame of the same size.
    assert_eq!(pool.acquired, 40);
    assert_eq!(pool.allocated, 1);
    assert_eq!(pool.reused, 39);
    assert_eq!(pool.recycled, 40);
}

#[test]
fn a_malformed_raw_job_takes_no_pooled_frame() {
    let service = TonemapService::standard(ServiceConfig::with_workers(1));
    // A recycled 17-sample response leaves a free frame of 17 samples.
    let job = JobRequest::raw_luminance(17, 1, vec![0.5f32; 17]);
    service.recycle(service.submit(job).unwrap().wait().unwrap());
    let before = service.frame_pool_stats();
    // 17 samples that do not match their claimed 8×8 fail validation.
    let malformed = JobRequest::raw_luminance(8, 8, vec![0.5f32; 17]);
    let outcome = service.submit(malformed).unwrap().wait();
    assert!(
        matches!(outcome, Err(ServiceError::Tonemap(_))),
        "{outcome:?}"
    );
    assert_eq!(service.frame_pool_stats(), before);
}

#[test]
fn a_panicking_engines_output_frame_never_reenters_the_pool() {
    let gate = Gate::new();
    let service = TonemapService::new(
        harness::harness_registry(&gate),
        ServiceConfig::with_workers(1),
    );
    let scene = SceneKind::WindowInDarkRoom.generate(16, 16, 42);
    // One healthy luminance job and its recycled response leave exactly
    // one free frame, the size of the next output.
    let response = service
        .submit(JobRequest::luminance(scene.clone()))
        .unwrap()
        .wait()
        .unwrap();
    service.recycle(response);
    assert_eq!(service.frame_pool_stats().recycled, 1);

    let doomed = service
        .submit(JobRequest::luminance(scene.clone()).on_backend("panicking"))
        .unwrap();
    assert!(matches!(doomed.wait(), Err(ServiceError::Lost)));
    let pool = service.frame_pool_stats();
    assert_eq!(pool.outputs_reused, 1, "the doomed job took the free frame");
    assert_eq!(pool.recycled, 1, "nothing came back: {pool:?}");

    // The frame died with the job: the next output finds no free frame.
    let response = service
        .submit(JobRequest::luminance(scene))
        .unwrap()
        .wait()
        .unwrap();
    assert!(response.luminance().is_some());
    let pool = service.frame_pool_stats();
    assert_eq!(pool.outputs, 3);
    assert_eq!(pool.outputs_reused, 1, "stats: {pool:?}");
    assert_eq!(service.stats().lost, 1);
}

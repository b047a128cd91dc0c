//! The traced layer replay: the run's seeded inputs driven through each
//! layer's public functions, one span per call, with the per-layer
//! metrics derived from the spans' self times.
//!
//! Where a metric is one call minus another (`backend.execute.self_us`
//! is `BackendRegistry::execute` minus the core planner call on the same
//! frame), both calls are traced and the medians of their self times are
//! subtracted: spans inside the crates would be a change to the program,
//! which this benchmark does not make.

use crate::host::{HostFloors, TAPS};
use crate::inputs::{
    StillsInputs, ThumbInputs, VideoInputs, STILLS_MIX, STILLS_SIZE, THUMB_COLOUR_SPECS,
    THUMB_SCALAR_SPECS, THUMB_SIZES, VIDEO_FRAMES,
};
use crate::report::Metrics;
use crate::serve::{fingerprint_image, WORKERS};
use crate::stats::{mean, median};
use crate::trace::Tracer;
use apfixed::Fix16;
use hdr_image::{ImageBuffer, LuminanceImage};
use tonemap_backend::{BackendRegistry, BackendSpec, TonemapRequest};
use tonemap_core::adjust::apply_adjustment;
use tonemap_core::blur::{blur_horizontal, blur_vertical, gaussian_kernel, quantize_kernel};
use tonemap_core::masking::{apply_masking, invert};
use tonemap_core::normalize::{max_pixel, normalize, normalize_to};
use tonemap_core::plan::{PipelinePlan, PlanTuning};
use tonemap_core::{StreamingToneMapper, ToneMapParams, ToneMapper};
use tonemap_scheduler::Scheduler;
use tonemap_service::{FrameSequenceRequest, JobRequest, ServiceConfig, TonemapService};
use tonemap_video::VideoSession;

/// Repetitions of each call on the 1024×768 stills frame.
const CORE_REPS: usize = 5;
/// Repetitions of each call on a thumbnail: enough that the median of a
/// sub-millisecond call is steady, so differences of two medians resolve
/// microseconds.
const THUMB_REPS: usize = 200;
/// Repetitions of each forced schedule point on a thumbnail.
const REGRET_REPS: usize = 40;

fn median_of(tracer: &Tracer, name: &str) -> Option<f64> {
    median(&tracer.self_times(name))
}

fn count(tracer: &Tracer, name: &str) -> usize {
    tracer.spans().iter().filter(|s| s.name == name).count()
}

/// Median self time of `name` per pixel, in ns.
fn ns_px(m: &mut Metrics, tracer: &Tracer, metric: &'static str, span: &str, pixels: usize) {
    let value = median_of(tracer, span).map(|ns| ns / pixels as f64);
    m.push(metric, value, "ns/px", count(tracer, span));
}

/// `a − b` of two spans' median self times, scaled by `scale`.
fn difference(
    m: &mut Metrics,
    tracer: &Tracer,
    metric: &'static str,
    (a, b): (&str, &str),
    scale: f64,
    unit: &'static str,
) {
    let value = median_of(tracer, a)
        .zip(median_of(tracer, b))
        .map(|(a, b)| (a - b) * scale);
    m.push(metric, value, unit, count(tracer, a).min(count(tracer, b)));
}

pub fn host(m: &mut Metrics, floors: &HostFloors) {
    m.push("host.memcpy_ns_px", Some(floors.memcpy_ns_px), "ns/px", 4);
    m.push("host.fma_ns_tap", Some(floors.fma_ns_tap), "ns/tap", 5);
    m.push("host.parallelism", Some(floors.parallelism), "ratio", 3);
}

/// `tonemap-core` at 1024×768, 41 taps, one thread unless named.
pub fn core(m: &mut Metrics, tracer: &mut Tracer, stills: &StillsInputs, floors: &HostFloors) {
    let frame: &LuminanceImage = &stills.luminance[0];
    let pixels = frame.pixels().len();
    let params = ToneMapParams::paper_default();
    let taps = gaussian_kernel(&params.blur);
    let kernel = quantize_kernel::<f32>(&taps);
    let kernel_fix = quantize_kernel::<Fix16>(&taps);
    let normalized = normalize(frame);
    let inverted = invert(&normalized);
    let inverted_fix: ImageBuffer<Fix16> = inverted.map(|&v| Fix16::from_f32(v));
    let blurred_h = blur_horizontal(&inverted, &kernel);
    let mask = blur_vertical(&blurred_h, &kernel);
    let blurred_h_fix = blur_horizontal(&inverted_fix, &kernel_fix);
    let masked = apply_masking(&normalized, &mask, &params.masking);
    let stream = StreamingToneMapper::<f32>::new(params);
    let stream_fix = StreamingToneMapper::<Fix16>::new(params);
    let stream_2t = StreamingToneMapper::<f32>::new(params).with_threads(2);
    let basedetail_plan = PipelinePlan::preset("basedetail", &params, &PlanTuning::default())
        .expect("the basedetail preset is valid")
        .expect("basedetail is a preset");
    let basedetail = StreamingToneMapper::<f32>::compile(basedetail_plan, params)
        .expect("paper parameters are valid");
    let two_pass = ToneMapper::new(params);

    // Interleaved repetitions spread slow drift over every layer alike.
    for _ in 0..CORE_REPS {
        tracer.time("core.normalize.max_pixel", 0, || max_pixel(frame));
        tracer.time("core.normalize.ingest", 0, || normalize_to::<f32>(frame));
        tracer.time("core.blur.h", 0, || blur_horizontal(&inverted, &kernel));
        tracer.time("core.blur.v", 0, || blur_vertical(&blurred_h, &kernel));
        tracer.time("core.blur.h_fix16", 0, || {
            blur_horizontal(&inverted_fix, &kernel_fix)
        });
        tracer.time("core.blur.v_fix16", 0, || {
            blur_vertical(&blurred_h_fix, &kernel_fix)
        });
        tracer.time("core.point.mask", 0, || {
            apply_masking(&normalized, &mask, &params.masking)
        });
        tracer.time("core.point.adjust", 0, || {
            apply_adjustment(&masked, &params.adjust)
        });
        tracer.time("core.stream.paper", 0, || stream.map_luminance(frame));
        tracer.time("core.stream.paper_fix16", 0, || {
            stream_fix.map_luminance(frame)
        });
        tracer.time("core.stream.basedetail", 0, || {
            basedetail.map_luminance(frame)
        });
        tracer.time("core.stream.paper_2t", 0, || stream_2t.map_luminance(frame));
        tracer.time("core.two_pass.paper", 0, || {
            two_pass.map_luminance_f32(frame)
        });
    }
    for (metric, span) in [
        ("core.normalize.max_pixel_ns_px", "core.normalize.max_pixel"),
        ("core.normalize.ingest_ns_px", "core.normalize.ingest"),
        ("core.blur.h_ns_px", "core.blur.h"),
        ("core.blur.v_ns_px", "core.blur.v"),
        ("core.blur.h_fix16_ns_px", "core.blur.h_fix16"),
        ("core.blur.v_fix16_ns_px", "core.blur.v_fix16"),
        ("core.point.mask_ns_px", "core.point.mask"),
        ("core.point.adjust_ns_px", "core.point.adjust"),
        ("core.stream.paper_ns_px", "core.stream.paper"),
        ("core.stream.paper_fix16_ns_px", "core.stream.paper_fix16"),
        ("core.stream.basedetail_ns_px", "core.stream.basedetail"),
        ("core.stream.paper_2t_ns_px", "core.stream.paper_2t"),
        ("core.two_pass.paper_ns_px", "core.two_pass.paper"),
    ] {
        ns_px(m, tracer, metric, span, pixels);
    }
    let paper = m.get("core.stream.paper_ns_px");
    m.push(
        "core.stream.paper_over_memcpy",
        paper.map(|ns| ns / floors.memcpy_ns_px),
        "ratio",
        CORE_REPS,
    );
    let blur = m.get("core.blur.h_ns_px");
    m.push(
        "core.blur.taps_over_fma",
        blur.map(|ns| ns / TAPS as f64 / floors.fma_ns_tap),
        "ratio",
        CORE_REPS,
    );
}

/// Every spec string the benchmark's mixes draw.
fn mix_specs() -> Vec<&'static str> {
    let mut specs: Vec<&str> = THUMB_SCALAR_SPECS
        .iter()
        .chain(&THUMB_COLOUR_SPECS)
        .copied()
        .chain(STILLS_MIX.iter().map(|&((_, spec), _)| spec))
        .collect();
    specs.sort_unstable();
    specs.dedup();
    specs
}

/// `tonemap-backend` over the mix and on one thumbnail.
pub fn backend(m: &mut Metrics, tracer: &mut Tracer, thumbs: &ThumbInputs) {
    let specs = mix_specs();
    let n = specs.len() as f64;
    for _ in 0..THUMB_REPS {
        tracer.time("backend.spec.parse", 0, || {
            specs
                .iter()
                .filter(|s| BackendSpec::parse(s).is_ok())
                .count()
        });
    }
    for _ in 0..3 {
        for spec in &specs {
            let fresh = BackendRegistry::standard();
            let _ = tracer.time("backend.registry.resolve_cold", 0, || {
                fresh.resolve_spec(spec)
            });
        }
    }
    let registry = BackendRegistry::standard();
    specs
        .iter()
        .for_each(|spec| drop(registry.resolve_spec(spec)));
    for _ in 0..THUMB_REPS {
        tracer.time("backend.registry.resolve_hit", 0, || {
            specs
                .iter()
                .filter(|spec| registry.resolve_spec(spec).is_ok())
                .count()
        });
    }
    // Fixed per-job costs show best on the smallest thumbnail; the RGB
    // difference is per pixel, so it takes the largest.
    let small = &thumbs.luminance[0][0];
    let large = &thumbs.luminance[THUMB_SIZES.len() - 1][0];
    let rgb = &thumbs.rgb[THUMB_SIZES.len() - 1][0];
    let pixels = large.pixels().len();
    let spec = "sw-f32-stream";
    let planner = StreamingToneMapper::<f32>::new(ToneMapParams::paper_default());
    drop(registry.execute(&TonemapRequest::luminance(small).on_backend(spec)));
    for _ in 0..THUMB_REPS {
        let _ = tracer.time("backend.execute", 0, || {
            registry.execute(&TonemapRequest::luminance(small).on_backend(spec))
        });
        tracer.time("core.stream.thumb", 0, || planner.map_luminance(small));
        let _ = tracer.time("backend.execute.large", 0, || {
            registry.execute(&TonemapRequest::luminance(large).on_backend(spec))
        });
        let _ = tracer.time("backend.execute.rgb", 0, || {
            registry.execute(&TonemapRequest::rgb(rgb).on_backend(spec))
        });
    }
    let parse = median_of(tracer, "backend.spec.parse").map(|ns| ns / n);
    m.push("backend.spec.parse_ns", parse, "ns", THUMB_REPS);
    let hit = median_of(tracer, "backend.registry.resolve_hit").map(|ns| ns / n);
    m.push("backend.registry.resolve_hit_ns", hit, "ns", THUMB_REPS);
    let cold = tracer.self_times("backend.registry.resolve_cold");
    m.push(
        "backend.registry.resolve_cold_ms",
        mean(&cold).map(|ns| ns / 1e6),
        "ms",
        cold.len(),
    );
    let pair = ("backend.execute", "core.stream.thumb");
    difference(m, tracer, "backend.execute.self_us", pair, 1e-3, "us");
    let pair = ("backend.execute.rgb", "backend.execute.large");
    let per_px = 1.0 / pixels as f64;
    difference(m, tracer, "backend.rgb.self_ns_px", pair, per_px, "ns/px");
}

/// Forced schedule points `auto` chooses among, for basedetail.
const AUTO_SPEC: &str = "sw-f32?pipeline=basedetail&schedule=auto";
const POINT_SPECS: [&str; 3] = [
    "sw-f32?pipeline=basedetail&schedule=two-pass",
    "sw-f32?pipeline=basedetail&schedule=stream&threads=1",
    "sw-f32?pipeline=basedetail&schedule=stream&threads=2",
];

/// `tonemap-scheduler`: pricing cost, and auto's measured regret.
pub fn scheduler(
    m: &mut Metrics,
    tracer: &mut Tracer,
    stills: &StillsInputs,
    thumbs: &ThumbInputs,
) {
    let params = ToneMapParams::paper_default();
    let registry = BackendRegistry::standard();
    let plans: Vec<PipelinePlan> = ["paper", "basedetail"]
        .iter()
        .map(|name| {
            PipelinePlan::preset(name, &params, &PlanTuning::default())
                .expect("presets are valid")
                .expect("known preset")
        })
        .collect();
    let sizes: Vec<(usize, usize)> = std::iter::once(STILLS_SIZE).chain(THUMB_SIZES).collect();
    for engine in ["sw-f32", "hw-fix16"] {
        let class = registry
            .get(engine)
            .and_then(|backend| backend.schedule_class())
            .expect("the engine advertises a schedule class");
        let scheduler = Scheduler::new(params, class).expect("paper parameters are valid");
        for plan in &plans {
            for &(w, h) in &sizes {
                tracer.time("scheduler.schedule", 0, || scheduler.schedule(plan, w, h));
            }
        }
    }
    let spans = tracer.self_times("scheduler.schedule");
    m.push(
        "scheduler.schedule_ms",
        median(&spans).map(|ns| ns / 1e6),
        "ms",
        spans.len(),
    );

    let cases: [(&'static str, &LuminanceImage, usize, [&'static str; 4]); 2] = [
        (
            "scheduler.auto_regret.stills",
            &stills.luminance[0],
            3,
            [
                "scheduler.auto.stills",
                "scheduler.point.stills.two_pass",
                "scheduler.point.stills.stream_1t",
                "scheduler.point.stills.stream_2t",
            ],
        ),
        (
            "scheduler.auto_regret.thumb",
            &thumbs.luminance[THUMB_SIZES.len() - 1][0],
            REGRET_REPS,
            [
                "scheduler.auto.thumb",
                "scheduler.point.thumb.two_pass",
                "scheduler.point.thumb.stream_1t",
                "scheduler.point.thumb.stream_2t",
            ],
        ),
    ];
    for (metric, frame, reps, names) in cases {
        let specs: Vec<&str> = std::iter::once(AUTO_SPEC).chain(POINT_SPECS).collect();
        for spec in &specs {
            drop(registry.execute(&TonemapRequest::luminance(frame).on_backend(*spec)));
        }
        for _ in 0..reps {
            for (name, spec) in names.iter().zip(&specs) {
                let _ = tracer.time(name, 0, || {
                    registry.execute(&TonemapRequest::luminance(frame).on_backend(*spec))
                });
            }
        }
        let auto = median_of(tracer, names[0]);
        let best = names[1..]
            .iter()
            .filter_map(|name| median_of(tracer, name))
            .reduce(f64::min);
        m.push(metric, auto.zip(best).map(|(a, b)| a / b), "ratio", reps);
    }
}

/// `tonemap-service` on an idle service: one job's latency against
/// direct execution of the same job.
pub fn service_idle(m: &mut Metrics, tracer: &mut Tracer, thumbs: &ThumbInputs) {
    let service = TonemapService::standard(ServiceConfig::with_workers(WORKERS));
    let frame = &thumbs.luminance[0][0];
    let job = JobRequest::luminance(std::sync::Arc::clone(frame)).on_backend("sw-f32-stream");
    let request = job.to_request().on_backend("sw-f32-stream");
    drop(service.submit(job.clone()).map(|h| h.wait()));
    for _ in 0..THUMB_REPS {
        let _ = tracer.time("service.idle_job", 0, || {
            service.submit(job.clone()).map(|handle| handle.wait())
        });
        let _ = tracer.time("service.direct_execute", 0, || {
            service.registry().execute(&request)
        });
    }
    let pair = ("service.idle_job", "service.direct_execute");
    difference(m, tracer, "service.overhead_us", pair, 1e-3, "us");
}

/// `tonemap-video`: local sessions, and a served stream against them.
/// Returns the number of served frames that differ from local ones.
pub fn video(m: &mut Metrics, tracer: &mut Tracer, video: &VideoInputs) -> u64 {
    let stream = &video.streams[0];
    let pixels = stream.frames[0].pixels().len();
    let registry = BackendRegistry::standard();
    let mut session = VideoSession::from_spec(stream.spec).expect("the stream spec is valid");
    drop(
        registry.execute(&TonemapRequest::luminance(stream.frame(0)).on_backend(stream.base_spec)),
    );
    for index in 0..VIDEO_FRAMES {
        let frame = stream.frame(index);
        tracer.time("video.process", 0, || session.process(frame));
        let _ = tracer.time("video.execute", 0, || {
            registry.execute(&TonemapRequest::luminance(frame).on_backend(stream.base_spec))
        });
    }
    ns_px(m, tracer, "video.process_ns_px", "video.process", pixels);
    let pair = ("video.process", "video.execute");
    let per_px = 1.0 / pixels as f64;
    difference(
        m,
        tracer,
        "video.temporal_self_ns_px",
        pair,
        per_px,
        "ns/px",
    );

    let service = TonemapService::standard(ServiceConfig::with_workers(WORKERS));
    let mut served = service
        .open_stream(FrameSequenceRequest::on_backend(stream.spec))
        .expect("the stream spec opens");
    let mut local = VideoSession::from_spec(stream.spec).expect("the stream spec is valid");
    let mut mismatched = 0;
    for index in 0..VIDEO_FRAMES / 2 {
        let frame = stream.frame(index);
        let outcome = tracer.time("video.served_frame", 0, || {
            served.submit_frame(frame).and_then(|handle| handle.wait())
        });
        let (expected, _) = tracer.time("video.local_frame", 0, || local.process(frame));
        let same = outcome
            .map(|outcome| fingerprint_image(&outcome.output) == fingerprint_image(&expected))
            .unwrap_or(false);
        mismatched += u64::from(!same);
    }
    let pair = ("video.served_frame", "video.local_frame");
    difference(m, tracer, "video.served_overhead_ms", pair, 1e-6, "ms");
    mismatched
}

//! Cascade-fusion gate: multi-stencil plans stream at single-pass speed.
//!
//! PR 6 generalised the Fig. 4 line buffer into a *cascade* of fused
//! regions — one `2·radius+1` row ring per stencil stage, each fed on
//! demand by the one upstream. This gate checks the claim end to end on
//! the two-stencil `basedetail` preset:
//!
//! * **Fusion** — the plan segments into a single fused pass with two
//!   cascaded regions (`StreamingDecision::FullyFused`; no barriers, no
//!   fallback reasons).
//! * **Bit-identity** — the cascade matches the two-pass planner exactly
//!   (`assert_eq!` on pixels, not a tolerance) on every synthetic scene
//!   plus degenerate 1×N / N×1 / sub-radius geometries, at 1, 2 and 8 row
//!   threads, in both `f32` and `Fix16`.
//! * **Speed** — at 1024×768 a *single-threaded* fused cascade must be at
//!   least 2× faster than executing the same plan two-pass. The run fails
//!   (non-zero exit) otherwise.
//!
//! It also prints the codesign view of the cascade — one kernel schedule
//! per region, additive BRAM-analogue ring footprints, per-region
//! initiation intervals — and persists everything to `BENCH_fusion.json`.
//!
//! ```text
//! cargo run -p bench --release --bin fusion    # CI=true trims iterations
//! ```

use apfixed::Fix16;
use bench::{time_best, write_bench_json};
use codesign::flow::{CoDesignFlow, DesignImplementation};
use codesign::reports::json;
use hdr_image::synth::SceneKind;
use hdr_image::LuminanceImage;
use tonemap_core::plan::{PipelinePlan, PlanTuning};
use tonemap_core::{Sample, StreamingToneMapper, ToneMapParams, ToneMapper};

const WIDTH: usize = 1024;
const HEIGHT: usize = 768;
const REQUIRED_SPEEDUP: f64 = 2.0;
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn scenes() -> Vec<(String, LuminanceImage)> {
    let mut scenes = Vec::new();
    for kind in SceneKind::ALL {
        for (w, h, seed) in [(96usize, 72usize, 1u64), (57, 33, 2)] {
            scenes.push((format!("{kind:?}-{w}x{h}"), kind.generate(w, h, seed)));
        }
    }
    // Degenerate geometries keep the clamped ring/window paths honest.
    scenes.push(("row-1xN".into(), SceneKind::GradientRamp.generate(1, 64, 3)));
    scenes.push(("col-Nx1".into(), SceneKind::GradientRamp.generate(64, 1, 4)));
    scenes.push((
        "sub-radius".into(),
        SceneKind::SunAndShadow.generate(5, 7, 5),
    ));
    scenes
}

fn identity_checks<S: Sample>(
    label: &str,
    plan: &PipelinePlan,
    params: ToneMapParams,
    two_pass: &ToneMapper,
) -> usize {
    let mut checked = 0;
    for (name, hdr) in scenes() {
        let expected = two_pass.map_luminance_hw_blur::<S>(&hdr);
        for threads in THREAD_COUNTS {
            let streamed = StreamingToneMapper::<S>::compile(plan.clone(), params)
                .expect("basedetail compiles")
                .with_threads(threads)
                .map_luminance(&hdr);
            assert_eq!(
                streamed, expected,
                "{label} cascade diverged from two-pass on {name} at {threads} thread(s)"
            );
        }
        checked += 1;
    }
    println!("  {label:<6} bit-identical on {checked} scenes at {THREAD_COUNTS:?} threads");
    checked
}

fn main() {
    let params = ToneMapParams::paper_default();
    let plan = PipelinePlan::preset("basedetail", &params, &PlanTuning::default())
        .expect("default tuning valid")
        .expect("basedetail preset resolves");

    // Fusion shape: one fused segment, two cascaded regions, no barriers.
    let segmentation = plan.segmentation();
    assert!(segmentation.is_single_pass(), "basedetail has no barriers");
    assert_eq!(
        segmentation.region_count(),
        2,
        "basedetail has two stencils"
    );
    let stream = StreamingToneMapper::<f32>::compile(plan.clone(), params)
        .expect("basedetail compiles")
        .with_threads(1);
    let decision = stream.decision();
    assert!(
        decision.is_fused(),
        "the two-stencil plan must fully fuse, got: {decision}"
    );
    println!("basedetail plan: {decision}");

    println!("bit-identity of the fused cascade vs the two-pass planner:");
    let two_pass = ToneMapper::compile(plan.clone(), params).expect("basedetail compiles");
    let scenes_checked = identity_checks::<f32>("f32", &plan, params, &two_pass);
    identity_checks::<Fix16>("fix16", &plan, params, &two_pass);
    println!();

    // The codesign view: one kernel schedule per fused region.
    let flow = CoDesignFlow::paper_setup(WIDTH, HEIGHT);
    let design = DesignImplementation::FixedPointConversion;
    let cascade = flow.cascade_cost(&plan, design);
    println!("cascade cost at {WIDTH}x{HEIGHT} for the {design} design:");
    let mut region_rows: Vec<String> = Vec::new();
    for segment in &cascade.segments {
        for region in &segment.regions {
            println!(
                "  stage {:>2}: ring {:>3} rows = {:>3} BRAM-18K, II {}, latency {:>3} rows",
                region.stage_index,
                region.ring_rows,
                region.ring_bram_18k,
                region
                    .initiation_interval
                    .map_or("-".to_string(), |ii| ii.to_string()),
                region.latency_rows,
            );
            region_rows.push(json::obj([
                ("stage_index", json::num(region.stage_index as f64)),
                ("ring_rows", json::num(region.ring_rows as f64)),
                ("ring_bram_18k", json::num(region.ring_bram_18k as f64)),
                (
                    "initiation_interval",
                    region
                        .initiation_interval
                        .map_or("null".to_string(), |ii| json::num(ii as f64)),
                ),
                ("pl_seconds", json::num(region.pl_seconds)),
                ("latency_rows", json::num(region.latency_rows as f64)),
            ]));
        }
    }
    println!(
        "  total: {} BRAM-18K of rings, {:.6} s of PL time\n",
        cascade.total_ring_bram_18k, cascade.total_pl_seconds
    );

    // Speed gate: fused cascade vs the same plan executed two-pass.
    let ci = std::env::var("CI").is_ok();
    let iterations = if ci { 2 } else { 3 };
    let hdr = SceneKind::WindowInDarkRoom.generate(WIDTH, HEIGHT, 2018);
    println!("speed gate at {WIDTH}x{HEIGHT}, two stencils, best of {iterations} runs:");
    let mut sink = 0.0f32;
    let two_pass_seconds = time_best(iterations, || {
        sink += two_pass.map_luminance_hw_blur::<f32>(&hdr).pixels()[0];
    });
    let fused_seconds = time_best(iterations, || {
        sink += stream.map_luminance(&hdr).pixels()[0];
    });
    assert!(sink.is_finite(), "outputs must be finite");
    let speedup = two_pass_seconds / fused_seconds;
    println!("  {:<28} {two_pass_seconds:>8.3} s", "two-pass execution");
    println!(
        "  {:<28} {fused_seconds:>8.3} s  ({speedup:.2}x)",
        "fused cascade, 1 thread"
    );
    println!();
    println!(
        "single-thread cascade speedup over two-pass: {speedup:.2}x \
         (required >= {REQUIRED_SPEEDUP:.1}x)"
    );

    let pixels = (WIDTH * HEIGHT) as f64;
    write_bench_json(
        "fusion",
        &json::obj([
            ("gate", json::string("fusion")),
            ("plan", json::string("basedetail")),
            ("width", json::num(WIDTH as f64)),
            ("height", json::num(HEIGHT as f64)),
            ("decision", json::string(&decision.to_string())),
            ("regions", json::num(segmentation.region_count() as f64)),
            ("scenes_checked", json::num(scenes_checked as f64)),
            (
                "threads_checked",
                json::arr(THREAD_COUNTS.map(|t| json::num(t as f64))),
            ),
            ("bit_identical", String::from("true")),
            ("iterations", json::num(iterations as f64)),
            ("two_pass_seconds", json::num(two_pass_seconds)),
            ("fused_seconds", json::num(fused_seconds)),
            ("fused_speedup", json::num(speedup)),
            ("required_speedup", json::num(REQUIRED_SPEEDUP)),
            (
                "ns_per_pixel",
                json::obj([
                    ("two_pass", json::num(two_pass_seconds * 1e9 / pixels)),
                    ("fused", json::num(fused_seconds * 1e9 / pixels)),
                ]),
            ),
            (
                "cascade_cost",
                json::obj([
                    ("design", json::string(&design.to_string())),
                    ("regions", json::arr(region_rows)),
                    (
                        "total_ring_bram_18k",
                        json::num(cascade.total_ring_bram_18k as f64),
                    ),
                    ("total_pl_seconds", json::num(cascade.total_pl_seconds)),
                ]),
            ),
        ]),
    );

    assert!(
        speedup >= REQUIRED_SPEEDUP,
        "fused cascade speedup {speedup:.2}x fell below the required {REQUIRED_SPEEDUP:.1}x"
    );
}

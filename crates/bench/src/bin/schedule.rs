//! Auto-scheduler gate: `schedule=auto` must pick a near-optimal point.
//!
//! PR 7 turned the execution strategy into data: a [`Scheduler`] enumerates
//! every legal [`SchedulePoint`] for a plan (two-pass vs streaming, worker
//! counts, slice heights) and prices each one with the co-design cost
//! model. This gate closes the loop against the wall clock:
//!
//! * **Coverage** — every synthetic scene kind at three resolutions; every
//!   enumerated point is compiled through the engines' one compile entry,
//!   `CompiledPlan::new`, and measured directly, so the ranking is checked
//!   against ground truth, not against itself.
//! * **Optimality** — the point `schedule=auto` picks must never be more
//!   than 10% slower than the *best measured* point for that scene (plus a
//!   small absolute floor so micro-second timer noise at thumbnail sizes
//!   cannot fail the run). The run exits non-zero otherwise.
//! * **Calibration** — predicted vs measured ns/pixel is recorded for
//!   every point. The model prices the *modeled Zynq platform*, not the
//!   host CPU, so the absolute scale differs by construction; what must
//!   hold is the *ranking*, reported as the fraction of scenes where the
//!   model's winner is also the measured-fastest point.
//! * **Serving** — one end-to-end `TonemapService` batch on
//!   `sw-f32?pipeline=basedetail&schedule=auto` proves the spec is
//!   servable and that schedule telemetry reaches the per-engine stats.
//!
//! Everything is persisted to `BENCH_schedule.json`.
//!
//! ```text
//! cargo run -p bench --release --bin schedule    # CI=true trims iterations
//! ```

use bench::{time_best, write_bench_json};
use codesign::flow::DesignImplementation;
use codesign::reports::json;
use hdr_image::synth::SceneKind;
use hdr_image::LuminanceImage;
use std::sync::Arc;
use tonemap_backend::{CompiledPlan, Numerics};
use tonemap_core::plan::{PipelinePlan, PlanTuning};
use tonemap_core::{FrameReductions, ToneMapParams};
use tonemap_scheduler::{HostModel, SampleFormat, ScheduleClass, SchedulePoint, Scheduler};
use tonemap_service::{JobRequest, ServiceConfig, TonemapService};

const RESOLUTIONS: [(usize, usize); 3] = [(160, 120), (320, 240), (640, 480)];
/// The chosen point may cost at most 10% more than the best measured one.
const TOLERANCE: f64 = 1.10;
/// Absolute slack absorbing scheduler-invisible timer noise on tiny frames.
const NOISE_FLOOR_SECONDS: f64 = 250e-6;

/// Compiles the executor a point names and measures it on one scene.
/// Compilation happens outside the timed region: the memoizing engine
/// layer pays it once per resolution, so the gate times steady state.
fn measure_point(
    point: &SchedulePoint,
    plan: &PipelinePlan,
    params: ToneMapParams,
    hdr: &LuminanceImage,
    iterations: usize,
) -> f64 {
    let compiled =
        CompiledPlan::new(plan.clone(), params, Numerics::F32, point).expect("plan compiles");
    let mut sink = 0.0f32;
    let seconds = time_best(iterations, || {
        sink += compiled.map_luminance(hdr, &mut FrameReductions).pixels()[0];
    });
    assert!(sink.is_finite(), "outputs must be finite");
    seconds
}

fn main() {
    let params = ToneMapParams::paper_default();
    let plan = PipelinePlan::preset("basedetail", &params, &PlanTuning::default())
        .expect("default tuning valid")
        .expect("basedetail preset resolves");
    let host = HostModel::detected();
    let scheduler = Scheduler::new(
        params,
        ScheduleClass {
            format: SampleFormat::F32,
            design: DesignImplementation::SwSourceCode,
        },
    )
    .expect("paper params valid")
    .with_host(host);

    let ci = std::env::var("CI").is_ok();
    let iterations = if ci { 2 } else { 3 };
    println!(
        "auto-scheduler gate: basedetail plan, {} host core(s), best of {iterations} runs",
        host.cores()
    );
    println!(
        "chosen point must stay within {:.0}% of the best measured point\n",
        (TOLERANCE - 1.0) * 100.0
    );

    let mut scene_rows: Vec<String> = Vec::new();
    let mut worst_ratio = 0.0f64;
    let mut scale_sum = 0.0f64;
    let mut scale_count = 0usize;
    let mut rank_agreements = 0usize;
    let mut scenes_measured = 0usize;
    for (width, height) in RESOLUTIONS {
        // The scheduler never sees pixels, so one report covers every
        // scene at this resolution.
        let report = scheduler.schedule(&plan, width, height);
        let winner = report.winner();
        println!(
            "{width}x{height}: {} point(s) enumerated, winner {}",
            report.ranked.len(),
            winner.point
        );
        for priced in &report.ranked {
            println!(
                "    {:<44} predicted {:>9.2} ns/px  ({})",
                priced.point.to_string(),
                priced.predicted_ns_per_pixel,
                priced.verdict
            );
        }
        for kind in SceneKind::ALL {
            let hdr = kind.generate(width, height, 2018);
            let pixels = (width * height) as f64;
            let mut measured: Vec<(String, f64, f64)> = Vec::new();
            let mut auto_seconds = f64::NAN;
            let mut best_seconds = f64::INFINITY;
            let mut point_rows: Vec<String> = Vec::new();
            for priced in &report.ranked {
                let seconds = measure_point(&priced.point, &plan, params, &hdr, iterations);
                let measured_ns = seconds * 1e9 / pixels;
                // Predicted-over-measured is a platform-to-host scale
                // factor, not an error: the model prices the Zynq target.
                let scale = priced.predicted_ns_per_pixel / measured_ns;
                scale_sum += scale;
                scale_count += 1;
                if priced.point == winner.point {
                    auto_seconds = seconds;
                }
                best_seconds = best_seconds.min(seconds);
                measured.push((priced.point.to_string(), measured_ns, scale));
                point_rows.push(json::obj([
                    ("point", json::string(&priced.point.to_string())),
                    (
                        "predicted_ns_per_pixel",
                        json::num(priced.predicted_ns_per_pixel),
                    ),
                    ("measured_ns_per_pixel", json::num(measured_ns)),
                    ("measured_seconds", json::num(seconds)),
                    ("predicted_over_measured", json::num(scale)),
                    ("chosen", (priced.point == winner.point).to_string()),
                ]));
            }
            let ratio = auto_seconds / best_seconds;
            worst_ratio = worst_ratio.max(ratio);
            scenes_measured += 1;
            // Rank calibration: the model's winner is also the wall-clock
            // winner (within the noise floor).
            if auto_seconds <= best_seconds + NOISE_FLOOR_SECONDS {
                rank_agreements += 1;
            }
            let within = auto_seconds <= best_seconds * TOLERANCE + NOISE_FLOOR_SECONDS;
            println!(
                "  {kind:?}: auto/best {ratio:>5.2}x  ({})",
                measured
                    .iter()
                    .map(|(p, ns, _)| format!("{p}: {ns:.1} ns/px"))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            scene_rows.push(json::obj([
                ("scene", json::string(&format!("{kind:?}"))),
                ("width", json::num(width as f64)),
                ("height", json::num(height as f64)),
                ("chosen_point", json::string(&winner.point.to_string())),
                ("auto_seconds", json::num(auto_seconds)),
                ("best_seconds", json::num(best_seconds)),
                ("auto_over_best", json::num(ratio)),
                ("points", json::arr(point_rows)),
            ]));
            assert!(
                within,
                "schedule=auto picked {} at {auto_seconds:.6} s on {kind:?} \
                 {width}x{height}, but the best measured point ran in \
                 {best_seconds:.6} s — more than {TOLERANCE:.2}x away",
                winner.point
            );
        }
        println!();
    }
    let mean_scale = scale_sum / scale_count.max(1) as f64;
    let rank_agreement = rank_agreements as f64 / scenes_measured.max(1) as f64;
    println!(
        "worst auto/best ratio {worst_ratio:.3}x over {scenes_measured} scenes; \
         model winner = measured winner on {rank_agreements}/{scenes_measured}; \
         mean platform-to-host scale {mean_scale:.0}x over {scale_count} points\n"
    );

    // End-to-end: the spec is servable and schedule telemetry reaches the
    // per-engine stats.
    let spec = "sw-f32?pipeline=basedetail&schedule=auto";
    let service = TonemapService::standard(ServiceConfig::with_workers(2).queue_capacity(8));
    let scene = Arc::new(SceneKind::WindowInDarkRoom.generate(320, 240, 7));
    let jobs = (0..4)
        .map(|_| {
            JobRequest::luminance(Arc::clone(&scene))
                .on_backend(spec)
                .with_telemetry()
        })
        .collect();
    let responses = service.execute_batch(jobs).expect("scheduled jobs serve");
    let telemetry = responses[0].telemetry().expect("telemetry requested");
    assert!(
        telemetry.schedule.is_some(),
        "scheduled runs carry schedule telemetry"
    );
    service.shutdown();
    let stats = service.stats();
    let engine = stats
        .per_engine
        .iter()
        .find(|row| row.engine == "sw-f32")
        .expect("the scheduled engine reports stats");
    assert_eq!(engine.scheduled_jobs, 4, "all four jobs were scheduled");
    let (predicted, measured_mean) = engine
        .predicted_vs_measured()
        .expect("telemetry jobs carry predictions");
    println!("service run on `{spec}`: {} jobs", stats.completed);
    println!("  resolved point: {}", telemetry.point);
    println!(
        "  predicted {:.6} s vs measured {:.6} s per job ({})",
        predicted,
        measured_mean,
        engine.schedule.as_deref().unwrap_or("unscheduled")
    );

    write_bench_json(
        "schedule",
        &json::obj([
            ("gate", json::string("schedule")),
            ("plan", json::string("basedetail")),
            ("host_cores", json::num(host.cores() as f64)),
            ("iterations", json::num(iterations as f64)),
            ("tolerance", json::num(TOLERANCE)),
            ("noise_floor_seconds", json::num(NOISE_FLOOR_SECONDS)),
            ("worst_auto_over_best", json::num(worst_ratio)),
            ("rank_agreement", json::num(rank_agreement)),
            ("mean_platform_to_host_scale", json::num(mean_scale)),
            ("measured_points", json::num(scale_count as f64)),
            ("scenes", json::arr(scene_rows)),
            (
                "service",
                json::obj([
                    ("spec", json::string(spec)),
                    ("jobs", json::num(stats.completed as f64)),
                    ("scheduled_jobs", json::num(engine.scheduled_jobs as f64)),
                    ("resolved_point", json::string(&telemetry.point.to_string())),
                    ("predicted_seconds_per_job", json::num(predicted)),
                    ("measured_seconds_per_job", json::num(measured_mean)),
                ]),
            ),
        ]),
    );
}

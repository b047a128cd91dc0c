//! Service-layer latency gate: the per-class serving policies of the v2
//! service under a mixed interactive/batch load.
//!
//! The throughput gate asks "does the pool scale?"; this gate asks "does
//! scaling keep latency-sensitive work fast?". It runs the same
//! measure-then-model methodology as Table II:
//!
//! 1. **Calibrate** on a 1-worker service: every job of the mixed load
//!    runs serially, giving contention-free per-class service-time samples
//!    and the measured mean the admission model uses.
//! 2. **Model** the 8-worker service from those samples: batch makespan by
//!    LPT scheduling onto 8 model workers, and the worst-case interactive
//!    completion as the interactive-class LPT makespan *plus* one
//!    head-of-line batch job (workers are non-preemptive, so an
//!    interactive job can wait out at most one already-running batch job).
//! 3. **Serve** the same load on a real 8-worker service and check the
//!    ground truth: bit-identical outputs, nothing expired or lost, and
//!    both per-class latency histograms populated.
//!
//! The run fails (non-zero exit) unless the modeled batch makespan at 8
//! workers beats the 1-worker baseline by >= 3x AND the modeled
//! interactive p99 stays within the service-time bound
//! `3 x max(interactive sample) + max(batch sample)` — both sides scale
//! with host speed, so the gate is machine-independent. A deterministic
//! admission-control demonstration (a budget of a tenth of the calibrated
//! mean must be shed at the door) rides along. Everything is persisted to
//! `BENCH_latency.json`, including the raw log2 histogram buckets.
//!
//! ```text
//! cargo run -p bench --release --bin latency    # CI=true caps the load
//! ```

use bench::write_bench_json;
use codesign::reports::json;
use hdr_image::synth::SceneKind;
use hdr_image::LuminanceImage;
use std::sync::Arc;
use std::time::Duration;
use tonemap_backend::{BackendRegistry, TonemapRequest, TonemapResponse};
use tonemap_service::{
    JobRequest, LatencyHistogram, Priority, ServiceConfig, ServiceError, ServiceStats,
    TonemapService,
};

/// One job of the mixed load: scene, spec, and priority class.
struct LoadJob {
    scene: Arc<LuminanceImage>,
    spec: &'static str,
    priority: Priority,
}

/// The mixed load: small interactive frames on the two headline engines,
/// larger batch frames cycling every registered engine.
fn mixed_load(ci: bool) -> Vec<LoadJob> {
    let engines = BackendRegistry::standard().names();
    let (interactive_jobs, batch_jobs) = if ci { (8, 16) } else { (16, 24) };
    let (interactive_side, batch_side) = if ci { (64, 96) } else { (128, 192) };
    let mut jobs = Vec::new();
    for i in 0..interactive_jobs {
        jobs.push(LoadJob {
            scene: Arc::new(SceneKind::WindowInDarkRoom.generate(
                interactive_side,
                interactive_side,
                9000 + i as u64,
            )),
            spec: if i % 2 == 0 { "sw-f32" } else { "hw-fix16" },
            priority: Priority::Interactive,
        });
    }
    for i in 0..batch_jobs {
        jobs.push(LoadJob {
            scene: Arc::new(SceneKind::MemorialComposite.generate(
                batch_side,
                batch_side,
                9100 + i as u64,
            )),
            spec: engines[i % engines.len()],
            priority: Priority::Batch,
        });
    }
    jobs
}

/// Runs the whole load on a service, interactive jobs first (they would
/// overtake queued batch work anyway), and waits for every response in
/// submission order.
fn serve(service: &TonemapService, load: &[LoadJob]) -> Vec<TonemapResponse> {
    let handles: Vec<_> = load
        .iter()
        .map(|job| {
            service
                .submit(
                    JobRequest::luminance(Arc::clone(&job.scene))
                        .on_backend(job.spec)
                        .with_priority(job.priority),
                )
                .expect("the load fits the queue bound")
        })
        .collect();
    handles
        .into_iter()
        .map(|handle| handle.wait().expect("every load job completes"))
        .collect()
}

fn max_sample(samples: &[f64]) -> f64 {
    samples.iter().fold(0.0f64, |a, &b| a.max(b))
}

fn histogram_json(histogram: &LatencyHistogram) -> String {
    json::obj([
        ("count", json::num(histogram.count() as f64)),
        ("mean_seconds", json::num(histogram.mean_seconds())),
        ("p50_seconds", json::num(histogram.p50())),
        ("p95_seconds", json::num(histogram.p95())),
        ("p99_seconds", json::num(histogram.p99())),
        ("max_seconds", json::num(histogram.max_seconds())),
        (
            "buckets",
            json::arr(histogram.buckets().into_iter().map(|(lo, hi, count)| {
                json::obj([
                    ("lo_seconds", json::num(lo)),
                    ("hi_seconds", json::num(hi)),
                    ("count", json::num(count as f64)),
                ])
            })),
        ),
    ])
}

fn class_counts(load: &[LoadJob], priority: Priority) -> u64 {
    load.iter().filter(|j| j.priority == priority).count() as u64
}

fn main() {
    let ci = std::env::var("CI").is_ok();
    let load = mixed_load(ci);
    let interactive_count = class_counts(&load, Priority::Interactive);
    let batch_count = class_counts(&load, Priority::Batch);
    println!(
        "Service latency: {interactive_count} interactive + {batch_count} batch jobs, \
         mixed classes on one queue\n"
    );

    // Ground truth for bit-identity: the plain registry, no service at all.
    let registry = BackendRegistry::standard();
    let baseline: Vec<TonemapResponse> = load
        .iter()
        .map(|job| {
            registry
                .execute(&TonemapRequest::luminance(&job.scene).on_backend(job.spec))
                .expect("every load spec executes")
        })
        .collect();

    // Phase 1 — calibrate: serial service run, contention-free samples.
    let calibration_service =
        TonemapService::standard(ServiceConfig::with_workers(1).queue_capacity(load.len()));
    let responses = serve(&calibration_service, &load);
    for (index, (served, direct)) in responses.iter().zip(&baseline).enumerate() {
        assert!(
            served.payload() == direct.payload(),
            "calibration job {index} diverged from direct execution"
        );
    }
    calibration_service.shutdown();
    let model: ServiceStats = calibration_service.stats();
    let interactive_samples = model.class_seconds(Priority::Interactive).to_vec();
    let batch_samples = model.class_seconds(Priority::Batch).to_vec();
    let max_interactive = max_sample(&interactive_samples);
    let max_batch = max_sample(&batch_samples);
    let mean_batch = batch_samples.iter().sum::<f64>() / batch_samples.len() as f64;
    println!(
        "calibration (1 worker): interactive mean {:.3} ms / max {:.3} ms, \
         batch mean {:.3} ms / max {:.3} ms",
        1e3 * interactive_samples.iter().sum::<f64>() / interactive_samples.len() as f64,
        1e3 * max_interactive,
        1e3 * mean_batch,
        1e3 * max_batch,
    );

    // Phase 2 — model the 8-worker service from the 1-worker samples.
    let batch_makespan_1 = model.modeled_class_makespan_seconds(Priority::Batch, 1);
    let batch_makespan_8 = model.modeled_class_makespan_seconds(Priority::Batch, 8);
    let batch_speedup = batch_makespan_1 / batch_makespan_8;
    let interactive_p99_modeled =
        model.modeled_class_makespan_seconds(Priority::Interactive, 8) + max_batch;
    let interactive_p99_bound = 3.0 * max_interactive + max_batch;
    println!(
        "modeled 8-worker batch makespan {:.3} ms vs 1-worker {:.3} ms: {batch_speedup:.2}x \
         (required >= 3.0x)",
        1e3 * batch_makespan_8,
        1e3 * batch_makespan_1,
    );
    println!(
        "modeled 8-worker interactive p99 {:.3} ms (LPT + one head-of-line batch job), \
         bound 3*max_i + max_b = {:.3} ms\n",
        1e3 * interactive_p99_modeled,
        1e3 * interactive_p99_bound,
    );

    // Phase 3 — serve the identical load on a real 8-worker service.
    let service =
        TonemapService::standard(ServiceConfig::with_workers(8).queue_capacity(load.len()));
    let responses = serve(&service, &load);
    for (index, (served, direct)) in responses.iter().zip(&baseline).enumerate() {
        assert!(
            served.payload() == direct.payload(),
            "8-worker job {index} diverged from direct execution"
        );
    }
    let stats = service.stats();
    assert_eq!(stats.completed, load.len() as u64, "every job completed");
    assert_eq!(stats.expired, 0, "no deadline-free job may expire");
    assert_eq!(stats.failed + stats.lost, 0, "no job may fail or be lost");
    assert_eq!(
        stats.latency(Priority::Interactive).count(),
        interactive_count
    );
    assert_eq!(stats.latency(Priority::Batch).count(), batch_count);
    println!("measured 8-worker run (wall-clock on this host, informational):");
    for (label, histogram) in [
        ("interactive", stats.latency(Priority::Interactive)),
        ("batch", stats.latency(Priority::Batch)),
    ] {
        println!(
            "  {label:<12} {:>3} jobs  p50 {:>9.3} ms  p95 {:>9.3} ms  p99 {:>9.3} ms  \
             max {:>9.3} ms",
            histogram.count(),
            1e3 * histogram.p50(),
            1e3 * histogram.p95(),
            1e3 * histogram.p99(),
            1e3 * histogram.max_seconds(),
        );
    }
    println!(
        "  steals {} across {} shards, queue capacity {}",
        stats.steals, stats.shards, stats.queue_capacity
    );

    // Phase 4 — deterministic admission-control shed: with the model
    // calibrated to the measured batch mean, a budget of a tenth of that
    // mean is unmeetable by construction (predicted >= mean > budget).
    service.calibrate_admission(mean_batch);
    let tight_budget = Duration::from_secs_f64(mean_batch / 10.0);
    let shed = service.submit(
        JobRequest::luminance(Arc::clone(&load[0].scene))
            .on_backend(load[0].spec)
            .with_deadline(tight_budget),
    );
    match shed {
        Err(ServiceError::DeadlineUnmeetable {
            predicted_seconds, ..
        }) => println!(
            "\nadmission control: a {:.3} ms budget shed at the door \
             (predicted completion {:.3} ms)",
            1e3 * tight_budget.as_secs_f64(),
            1e3 * predicted_seconds,
        ),
        other => panic!("admission must shed the unmeetable budget, got {other:?}"),
    }
    let stats = service.stats();
    assert_eq!(stats.shed, 1);
    service.shutdown();

    write_bench_json(
        "latency",
        &json::obj([
            ("gate", json::string("latency")),
            ("interactive_jobs", json::num(interactive_count as f64)),
            ("batch_jobs", json::num(batch_count as f64)),
            ("batch_makespan_1w_seconds", json::num(batch_makespan_1)),
            ("batch_makespan_8w_seconds", json::num(batch_makespan_8)),
            (
                "modeled_batch_speedup_at_8_workers",
                json::num(batch_speedup),
            ),
            ("required_batch_speedup", json::num(3.0)),
            (
                "modeled_interactive_p99_seconds",
                json::num(interactive_p99_modeled),
            ),
            (
                "interactive_p99_bound_seconds",
                json::num(interactive_p99_bound),
            ),
            ("expired", json::num(stats.expired as f64)),
            ("shed", json::num(stats.shed as f64)),
            ("steals", json::num(stats.steals as f64)),
            (
                "interactive",
                histogram_json(stats.latency(Priority::Interactive)),
            ),
            ("batch", histogram_json(stats.latency(Priority::Batch))),
            ("bit_identical", String::from("true")),
        ]),
    );

    assert!(
        batch_speedup >= 3.0,
        "modeled 8-worker batch speedup {batch_speedup:.2}x fell below the required 3x"
    );
    assert!(
        interactive_p99_modeled <= interactive_p99_bound,
        "modeled interactive p99 {:.3} ms exceeded the bound {:.3} ms",
        1e3 * interactive_p99_modeled,
        1e3 * interactive_p99_bound,
    );
    println!("\nlatency gate: PASS");
}

//! Service-layer batch throughput: the Table I/II methodology extended to
//! a multi-core host.
//!
//! Shards one batch of synthetic 256×256 tone-mapping jobs (cycling
//! through every registered engine spec) across `tonemap-service` worker pools of
//! 1, 2, 4 and 8 threads, and reports:
//!
//! * **measured** wall-clock throughput of each pool on *this* machine
//!   (which may have any number of physical cores — CI containers often
//!   have one), and
//! * **modeled** multi-core throughput: each job's measured service time,
//!   scheduled onto N model workers exactly as the platform model
//!   schedules the blur kernel onto the PL — predictions from
//!   measurements, the same method behind every Table II number.
//!
//! The run fails (non-zero exit) unless the modeled 8-worker batch
//! throughput is at least 3× the 1-worker baseline and every response is
//! bit-identical to single-threaded execution. The worker-scaling table is
//! persisted to `BENCH_throughput.json` in the working directory.
//!
//! ```text
//! cargo run -p bench --release --bin throughput    # CI=true caps the batch
//! ```

use bench::write_bench_json;
use codesign::reports::json;
use hdr_image::synth::SceneKind;
use hdr_image::LuminanceImage;
use std::sync::Arc;
use std::time::Instant;
use tonemap_backend::{BackendRegistry, TonemapRequest, TonemapResponse};
use tonemap_service::{JobRequest, ServiceConfig, ServiceStats, TonemapService};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const SIDE: usize = 256;

fn main() {
    let ci = std::env::var("CI").is_ok();
    let job_count = if ci { 16 } else { 24 };
    // Jobs cycle through every registered engine (the registry is the
    // source of truth, so a newly registered engine joins the gate
    // automatically).
    let registry = BackendRegistry::standard();
    let engines = registry.names();
    println!("Service throughput: {job_count} jobs of {SIDE}x{SIDE}, specs cycling {engines:?}\n");

    let scenes: Vec<Arc<LuminanceImage>> = (0..job_count)
        .map(|i| Arc::new(SceneKind::WindowInDarkRoom.generate(SIDE, SIDE, 2018 + i as u64)))
        .collect();
    let specs: Vec<&str> = (0..job_count).map(|i| engines[i % engines.len()]).collect();

    // Single-threaded reference: the plain registry batch path, no service.
    let start = Instant::now();
    let baseline: Vec<TonemapResponse> = scenes
        .iter()
        .zip(&specs)
        .map(|(scene, spec)| {
            registry
                .execute(&TonemapRequest::luminance(scene).on_backend(*spec))
                .expect("every standard spec executes")
        })
        .collect();
    let serial_seconds = start.elapsed().as_secs_f64();
    println!(
        "single-threaded registry baseline: {serial_seconds:.3} s ({:.1} jobs/s)\n",
        job_count as f64 / serial_seconds
    );

    println!(
        "{:>7} {:>12} {:>15} {:>12} {:>15} {:>9}",
        "workers", "measured s", "measured job/s", "modeled s", "modeled job/s", "speedup"
    );
    let mut single_worker_stats: Option<ServiceStats> = None;
    let mut eight_worker_stats: Option<ServiceStats> = None;
    let mut scaling_rows: Vec<String> = Vec::new();
    for workers in WORKER_COUNTS {
        let service = TonemapService::standard(
            ServiceConfig::with_workers(workers).queue_capacity(job_count),
        );
        let jobs: Vec<JobRequest> = scenes
            .iter()
            .zip(&specs)
            .map(|(scene, spec)| JobRequest::luminance(Arc::clone(scene)).on_backend(*spec))
            .collect();
        let start = Instant::now();
        let responses = service
            .execute_batch(jobs)
            .expect("the sharded batch executes");
        let measured_seconds = start.elapsed().as_secs_f64();
        let identical = responses
            .iter()
            .zip(&baseline)
            .all(|(sharded, single)| sharded.payload() == single.payload());
        assert!(
            identical,
            "{workers}-worker outputs diverged from single-threaded execution"
        );
        service.shutdown();
        let stats = service.stats();
        if workers == 1 {
            single_worker_stats = Some(stats.clone());
        }
        if workers == 8 {
            eight_worker_stats = Some(stats.clone());
        }
        // The host model always schedules the 1-worker run's measured
        // per-job service times (free of any same-core contention) onto N
        // model workers; WORKER_COUNTS starts at 1, so that run exists by
        // the time any row is printed.
        let model = single_worker_stats
            .as_ref()
            .expect("the 1-worker row runs first");
        println!(
            "{workers:>7} {measured_seconds:>12.3} {:>15.1} {:>12.3} {:>15.1} {:>8.2}x",
            job_count as f64 / measured_seconds,
            model.modeled_makespan_seconds(workers),
            model.modeled_throughput(workers),
            model.modeled_speedup(workers),
        );
        scaling_rows.push(json::obj([
            ("workers", json::num(workers as f64)),
            ("measured_seconds", json::num(measured_seconds)),
            (
                "measured_jobs_per_second",
                json::num(job_count as f64 / measured_seconds),
            ),
            (
                "modeled_seconds",
                json::num(model.modeled_makespan_seconds(workers)),
            ),
            (
                "modeled_jobs_per_second",
                json::num(model.modeled_throughput(workers)),
            ),
            ("modeled_speedup", json::num(model.modeled_speedup(workers))),
        ]));
    }

    let model = single_worker_stats.expect("the 1-worker row always runs");
    let speedup = model.modeled_speedup(8);
    println!();
    let eight = eight_worker_stats.expect("the 8-worker row always runs");
    println!("per-engine utilisation of the 8-worker run:");
    for engine in &eight.per_engine {
        println!(
            "  {:<14} {:>3} jobs {:>9.3} s busy {:>5.1}% of service busy time",
            engine.engine,
            engine.jobs,
            engine.busy_seconds,
            engine.share * 100.0
        );
    }
    println!(
        "queue: capacity {}, {} submitted, {} rejected; pool utilisation {:.1}%",
        eight.queue_capacity,
        eight.submitted,
        eight.rejected,
        eight.utilisation() * 100.0
    );
    println!();
    println!(
        "batch throughput at 8 workers: {speedup:.2}x the 1-worker baseline \
         (modeled multi-core host, LPT schedule of measured job times; required >= 3.0x)"
    );
    println!(
        "worker outputs bit-identical to single-threaded execution across all {} engine specs: yes",
        engines.len()
    );

    write_bench_json(
        "throughput",
        &json::obj([
            ("gate", json::string("throughput")),
            ("side", json::num(SIDE as f64)),
            ("jobs", json::num(job_count as f64)),
            ("engine_specs", json::num(engines.len() as f64)),
            ("serial_seconds", json::num(serial_seconds)),
            ("workers", json::arr(scaling_rows)),
            ("modeled_speedup_at_8_workers", json::num(speedup)),
            ("required_speedup", json::num(3.0)),
            ("bit_identical", String::from("true")),
        ]),
    );

    assert!(
        speedup >= 3.0,
        "modeled 8-worker speedup {speedup:.2}x fell below the required 3x"
    );
}

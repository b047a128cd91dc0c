//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <stills-1mp|thumbs-mixed|video-2streams> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` serves the workload through `TonemapService` with tracing
//! off and prints the end-to-end metrics. `--trace 1` replays the same
//! seeded inputs through each layer's public functions with a span around
//! every call, writes the spans to `perfbench/traces/`, and prints the
//! per-layer metrics. Both check every output and reconcile every count;
//! the last line of standard output is the JSON result, and the exit code
//! is non-zero when any output or count is wrong. See `perfbench/README.md`
//! for the workloads and for which layer metric should move which
//! end-to-end metric.

mod host;
mod inputs;
mod layers;
mod report;
mod serve;
mod stats;
mod trace;

use host::HostFloors;
use inputs::{StillsInputs, ThumbInputs, VideoInputs};
use report::{result_line, Metrics};
use serve::Served;
use stats::{median, percentile};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Set-ups per untraced run: at least [`SETUP_MIN`], and more while they
/// have taken less than [`SETUP_BUDGET`] (cheap set-ups repeat more, so
/// their median is as steady as a costly one's). `setup_s` is the median.
const SETUP_MIN: usize = 5;
const SETUP_MAX: usize = 60;
const SETUP_BUDGET: Duration = Duration::from_millis(1500);

/// Window of each served run inside the traced run.
const TRACED_WINDOW: Duration = Duration::from_secs(3);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Stills,
    Thumbs,
    Video,
}

impl Workload {
    const NAMES: [(&'static str, Workload); 3] = [
        ("stills-1mp", Workload::Stills),
        ("thumbs-mixed", Workload::Thumbs),
        ("video-2streams", Workload::Video),
    ];

    fn name(self) -> &'static str {
        Self::NAMES
            .iter()
            .find(|(_, w)| *w == self)
            .map(|(name, _)| *name)
            .expect("every workload is named")
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::NAMES
                        .iter()
                        .find(|(name, _)| *name == value)
                        .map(|(_, w)| *w)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The inputs of one workload, generated from the seed.
enum Inputs {
    Stills(StillsInputs),
    Thumbs(ThumbInputs),
    Video(VideoInputs),
}

impl Inputs {
    fn generate(workload: Workload, seed: u64, window: Duration) -> Self {
        match workload {
            Workload::Stills => Inputs::Stills(StillsInputs::generate(seed)),
            Workload::Thumbs => Inputs::Thumbs(ThumbInputs::generate(seed, window.as_secs_f64())),
            Workload::Video => Inputs::Video(VideoInputs::generate(seed)),
        }
    }
}

/// The set-up durations of one run, and whether to repeat set-up.
struct Setups {
    repeat: bool,
    seconds: Vec<f64>,
}

impl Setups {
    fn more(&self) -> bool {
        let spent: f64 = self.seconds.iter().sum();
        self.repeat
            && self.seconds.len() < SETUP_MAX
            && (self.seconds.len() < SETUP_MIN || spent < SETUP_BUDGET.as_secs_f64())
    }

    fn time<R>(&mut self, setup: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = setup();
        self.seconds.push(start.elapsed().as_secs_f64());
        result
    }
}

/// Sets the workload up (repeatedly when `repeat`, keeping the last
/// service) and serves it for `window`. Returns the set-up times in
/// seconds.
fn serve(
    inputs: &Inputs,
    window: Duration,
    repeat: bool,
    tracer: &mut Tracer,
) -> Result<(Vec<f64>, Served), String> {
    let mut setups = Setups {
        repeat,
        seconds: Vec::new(),
    };
    let served = match inputs {
        Inputs::Stills(inputs) => {
            let mut service = setups.time(|| serve::setup_stills(inputs))?;
            while setups.more() {
                drop(service);
                service = setups.time(|| serve::setup_stills(inputs))?;
            }
            serve::serve_stills(&service, inputs, window, tracer)
        }
        Inputs::Thumbs(inputs) => {
            let mut service = setups.time(|| serve::setup_thumbs(inputs))?;
            while setups.more() {
                drop(service);
                service = setups.time(|| serve::setup_thumbs(inputs))?;
            }
            serve::serve_thumbs(&service, inputs, tracer)
        }
        Inputs::Video(inputs) => {
            while setups.more() {
                setups.time(|| {
                    let service = serve::video_service();
                    serve::open_video(&service, inputs).map(drop)
                })?;
            }
            let start = Instant::now();
            let service = serve::video_service();
            let streams = serve::open_video(&service, inputs)?;
            setups.seconds.push(start.elapsed().as_secs_f64());
            serve::serve_video(&service, streams, window, tracer)
        }
    };
    Ok((setups.seconds, served))
}

fn end_to_end(m: &mut Metrics, setup_s: &[f64], served: &Served) {
    m.push("setup_s", median(setup_s), "s", setup_s.len());
    let elapsed = served.elapsed_s;
    let n = served.completed as usize;
    let rate = (elapsed > 0.0).then(|| served.completed as f64 / elapsed);
    m.push("jobs_per_s", rate, "1/s", n);
    let mpix = (elapsed > 0.0).then(|| served.pixels as f64 / elapsed / 1e6);
    m.push("mpix_per_s", mpix, "Mpx/s", n);
    let all = &served.latency_ms;
    m.push("latency_p50_ms", percentile(all, 0.5), "ms", all.len());
    m.push("latency_p90_ms", percentile(all, 0.9), "ms", all.len());
    let interactive = &served.interactive_ms;
    m.push(
        "interactive_p50_ms",
        percentile(interactive, 0.5),
        "ms",
        interactive.len(),
    );
    m.push(
        "interactive_p90_ms",
        percentile(interactive, 0.9),
        "ms",
        interactive.len(),
    );
    m.push("peak_rss_mb", served.peak_rss_mb, "MiB", 1);
}

/// Per-class and pool metrics of the service under the thumbs load.
fn service_layer(m: &mut Metrics, tracer: &Tracer, served: &Served) {
    use tonemap_service::Priority;
    let submit = tracer.self_times("service.submit");
    m.push(
        "service.submit_us",
        median(&submit).map(|ns| ns / 1e3),
        "us",
        submit.len(),
    );
    if let Some(stats) = &served.stats {
        for (priority, busy_name, wait_name) in [
            (
                Priority::Interactive,
                "service.busy_ms_mean.interactive",
                "service.wait_ms_mean.interactive",
            ),
            (
                Priority::Batch,
                "service.busy_ms_mean.batch",
                "service.wait_ms_mean.batch",
            ),
        ] {
            let busy = stats.class_seconds(priority);
            let busy_mean = stats::mean(busy).map(|s| s * 1e3);
            m.push(busy_name, busy_mean, "ms", busy.len());
            let latency = stats.latency(priority);
            let wait = busy_mean.map(|busy| latency.mean_seconds() * 1e3 - busy);
            m.push(wait_name, wait, "ms", latency.count() as usize);
        }
        let jobs = stats.completed as usize;
        let steals = (jobs > 0).then(|| stats.steals as f64 / jobs as f64);
        m.push("service.steals_per_job", steals, "ratio", jobs);
    }
    if let Some(pool) = served.frame_pool {
        let reuse = (pool.acquired > 0).then(|| pool.reused as f64 / pool.acquired as f64);
        m.push(
            "service.frame_reuse_ratio",
            reuse,
            "ratio",
            pool.acquired as usize,
        );
    }
    let snapshot = tracer.self_times("service.stats");
    m.push(
        "service.stats_snapshot_us",
        median(&snapshot).map(|ns| ns / 1e3),
        "us",
        snapshot.len(),
    );
    let lag = &served.sender_lag_ms;
    m.push(
        "load.sender_lag_p90_ms",
        percentile(lag, 0.9),
        "ms",
        lag.len(),
    );
}

/// What a run reports besides its metrics.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    bad: u64,
    problems: Vec<String>,
}

impl Outcome {
    fn add(&mut self, label: &str, served: &Served) {
        self.attempted += served.attempted;
        self.bad += served.bad();
        self.problems
            .extend(served.problems.iter().map(|p| format!("{label}: {p}")));
        if served.bad() > 0 && served.problems.is_empty() {
            self.problems.push(format!(
                "{label}: {} jobs failed or were refused",
                served.bad()
            ));
        }
        println!(
            "{label}: attempted {} completed {} failed {} refused {} mismatched {} \
             non-finite {} failed_ratio {:.6} over {:.2} s",
            served.attempted,
            served.completed,
            served.failed,
            served.refused,
            served.mismatched,
            served.non_finite,
            served.failed_ratio(),
            served.elapsed_s,
        );
    }
}

fn untraced(args: &Args, m: &mut Metrics, outcome: &mut Outcome) -> Result<(), String> {
    let window = Duration::from_secs(args.seconds);
    let inputs = Inputs::generate(args.workload, args.seed, window);
    let mut tracer = Tracer::new(Instant::now(), false);
    let (setup_s, served) = serve(&inputs, window, true, &mut tracer)?;
    outcome.add(args.workload.name(), &served);
    end_to_end(m, &setup_s, &served);
    if let Some((q1, q3)) = stats::quartiles(&served.latency_ms) {
        println!("latency quartiles {q1:.4} .. {q3:.4} ms");
    }
    let lag = &served.sender_lag_ms;
    if let Some(p90) = percentile(lag, 0.9) {
        println!("sender_lag_p90_ms {p90:.4} ms (n={})", lag.len());
    }
    println!(
        "setup_s over {} set-ups, spread {:.3}",
        setup_s.len(),
        stats::spread(&setup_s).unwrap_or(f64::NAN)
    );
    Ok(())
}

fn traced(args: &Args, m: &mut Metrics, outcome: &mut Outcome) -> Result<PathBuf, String> {
    let mut tracer = Tracer::new(Instant::now(), true);
    let floors = HostFloors::measure(&mut tracer);
    let stills = StillsInputs::generate(args.seed);
    let thumbs = ThumbInputs::generate(args.seed, TRACED_WINDOW.as_secs_f64());
    let video = VideoInputs::generate(args.seed);
    layers::host(m, &floors);
    layers::core(m, &mut tracer, &stills, &floors);
    layers::backend(m, &mut tracer, &thumbs);
    layers::scheduler(m, &mut tracer, &stills, &thumbs);
    layers::service_idle(m, &mut tracer, &thumbs);
    let mismatched = layers::video(m, &mut tracer, &video);
    outcome.attempted += (inputs::VIDEO_FRAMES / 2) as u64;
    outcome.bad += mismatched;
    if mismatched > 0 {
        outcome.problems.push(format!(
            "{mismatched} served replay frames differ from local ones"
        ));
    }

    // The service layer under the open-loop thumbs mix, traced.
    let thumbs_inputs = Inputs::Thumbs(thumbs);
    let (_, service_run) = serve(&thumbs_inputs, TRACED_WINDOW, false, &mut tracer)?;
    outcome.add("service replay (thumbs-mixed, traced)", &service_run);
    service_layer(m, &tracer, &service_run);

    // Tracing overhead on this run's workload: the same window untraced,
    // then traced.
    let inputs = match args.workload {
        Workload::Thumbs => thumbs_inputs,
        Workload::Stills => Inputs::Stills(stills),
        Workload::Video => Inputs::Video(video),
    };
    let mut off = Tracer::new(Instant::now(), false);
    let (_, plain) = serve(&inputs, TRACED_WINDOW, false, &mut off)?;
    outcome.add(&format!("{} untraced", args.workload.name()), &plain);
    let (_, with_spans) = serve(&inputs, TRACED_WINDOW, false, &mut tracer)?;
    outcome.add(&format!("{} traced", args.workload.name()), &with_spans);
    let overhead = median(&with_spans.latency_ms)
        .zip(median(&plain.latency_ms))
        .map(|(traced, plain)| traced / plain);
    m.push(
        "trace_overhead",
        overhead,
        "ratio",
        with_spans.latency_ms.len().min(plain.latency_ms.len()),
    );

    let path = PathBuf::from(format!(
        "perfbench/traces/{}-seed{}.csv",
        args.workload.name(),
        args.seed
    ));
    tracer
        .write_csv(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("error: {error}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::NAMES.map(|(name, _)| name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench {} seed {} window {} s trace {} ({} workers, available_parallelism {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        serve::WORKERS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let mut metrics = Metrics::default();
    let mut outcome = Outcome::default();
    let run = if args.trace {
        traced(&args, &mut metrics, &mut outcome).map(|path| {
            println!("spans written to {}", path.display());
        })
    } else {
        untraced(&args, &mut metrics, &mut outcome).map(|()| {
            // The floors tell host drift apart from a code change; an
            // untraced run measures them last, after its peak RSS.
            let floors = HostFloors::measure(&mut Tracer::new(Instant::now(), true));
            println!(
                "host floors: memcpy {:.4} ns/px, fma {:.5} ns/tap, parallelism {:.3}",
                floors.memcpy_ns_px, floors.fma_ns_tap, floors.parallelism
            );
            report_drift(&floors);
        })
    };
    if let Err(error) = run {
        eprintln!("error: {error}");
        return ExitCode::FAILURE;
    }
    if args.trace {
        let floors = (
            metrics.get("host.memcpy_ns_px"),
            metrics.get("host.parallelism"),
        );
        if let (Some(memcpy_ns_px), Some(parallelism)) = floors {
            report_drift(&HostFloors {
                memcpy_ns_px,
                fma_ns_tap: 0.0,
                parallelism,
            });
        }
    }
    metrics.print_table();
    outcome.problems.extend(metrics.missing.iter().cloned());
    for problem in &outcome.problems {
        println!("PROBLEM: {problem}");
    }
    let correct = outcome.problems.is_empty() && outcome.bad == 0;
    println!(
        "{}",
        result_line(correct, outcome.attempted, outcome.bad, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn report_drift(floors: &HostFloors) {
    let drift = floors.drift();
    if drift.is_empty() {
        println!("host floors within the benchmark's bounds");
    }
    for line in drift {
        println!("HOST DRIFT (not a code change): {line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload thumbs-mixed --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Thumbs);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload stills-1mp --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload stills-1mp --seed 1 --trace 0").is_err());
    }

    /// Every workload and metric BENCHMARK.json declares is one this code
    /// serves or emits.
    #[test]
    fn benchmark_json_declares_only_served_workloads_and_emitted_metrics() {
        let declared =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let source = [include_str!("main.rs"), include_str!("layers.rs")].concat();
        let names: Vec<&str> = declared
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| &rest[..rest.find('"').expect("closing quote")])
            .collect();
        for name in &names {
            assert!(
                source.contains(&format!("\"{name}\"")),
                "{name} is declared but neither served nor emitted"
            );
        }
    }
}

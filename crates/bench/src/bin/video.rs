//! Video gate: temporal adaptation must be stable, correct and fast.
//!
//! Five properties, each a hard assertion:
//!
//! 1. **Anti-flicker** — on an exposure ramp with shimmer, a leaky
//!    session's mean frame-to-frame flicker must be strictly below a
//!    per-frame-independent session's. This is the observable the whole
//!    temporal subsystem exists for.
//! 2. **Steady-state identity** — on a static scene, every adapted frame
//!    must be bit-identical to a single-frame registry execution of the
//!    same spec (minus the temporal keys): the integrator's fixed point is
//!    exactly single-frame semantics, so enabling `temporal=leaky` on
//!    stable content costs zero fidelity.
//! 3. **Scene-cut convergence** — on a ramp with a hard cut, the detector
//!    must fire exactly at the cut frame and the adapted output must
//!    converge to the independent output within K = 3 frames of the cut
//!    (the reset makes it snap at the cut itself).
//! 4. **Stream throughput** — a service video stream (per-stream FIFO,
//!    frame-pool staging, turn gate) must deliver at least 0.9x the
//!    throughput of the same frames as independent single-frame jobs on
//!    an identically-sized service: ordering must not cost serving speed.
//! 5. **Session overhead** — a leaky session on the fused stream engine
//!    must take at most 1.45x the time of single-frame registry execution
//!    of the same frames: the session's own per-frame work (scene-cut
//!    signature, statistics, output metrics, plan rebuild) must stay small
//!    next to the engine. The Reinhard pair's ratio, which adds the
//!    log-average, is reported without a bound.
//!
//! Results persist to `BENCH_video.json`.
//!
//! ```text
//! cargo run -p bench --release --bin video    # CI=true shrinks the load
//! ```

use bench::{time_best, write_bench_json};
use codesign::reports::json;
use hdr_image::sequence::{FrameSequence, SequenceKind};
use hdr_image::synth::SceneKind;
use std::hint::black_box;
use std::time::Instant;
use tonemap_backend::{BackendRegistry, TonemapRequest};
use tonemap_service::{FrameSequenceRequest, JobRequest, ServiceConfig, TonemapService};
use tonemap_video::VideoSession;

/// Frames a cut may take to re-agree with independent execution.
const CONVERGENCE_BUDGET_FRAMES: usize = 3;
/// Stream throughput must reach this fraction of single-frame throughput.
const REQUIRED_THROUGHPUT_RATIO: f64 = 0.9;
/// A leaky session may take at most this multiple of single-frame
/// execution of the same frames on the same engine.
const MAX_SESSION_OVER_EXECUTE: f64 = 1.45;

struct Load {
    width: usize,
    height: usize,
    frames: usize,
    throughput_frames: usize,
}

fn load(ci: bool) -> Load {
    if ci {
        Load {
            width: 96,
            height: 72,
            frames: 12,
            throughput_frames: 12,
        }
    } else {
        Load {
            width: 192,
            height: 144,
            frames: 24,
            throughput_frames: 24,
        }
    }
}

fn main() {
    let ci = std::env::var("CI").is_ok();
    let load = load(ci);
    println!(
        "Video gate: {}x{} frames, {}-frame sequences\n",
        load.width, load.height, load.frames
    );

    // 1 — anti-flicker on an exposure ramp with shimmer.
    let ramp = FrameSequence::new(
        SequenceKind::ExposureRamp { decades: 1.0 },
        SceneKind::WindowInDarkRoom,
        load.width,
        load.height,
        load.frames,
        2018,
    );
    let adapted_spec = "sw-f32?pipeline=reinhard&temporal=leaky&tau=4";
    let mut adapted = VideoSession::from_spec(adapted_spec).unwrap();
    let mut independent = VideoSession::from_spec("sw-f32?pipeline=reinhard").unwrap();
    for frame in ramp.frames() {
        adapted.process(&frame);
        independent.process(&frame);
    }
    let adapted_flicker = adapted.summary().mean_flicker;
    let independent_flicker = independent.summary().mean_flicker;
    println!(
        "anti-flicker (exposure ramp): adapted mean flicker {adapted_flicker:.6} vs \
         independent {independent_flicker:.6}"
    );
    assert!(
        adapted_flicker < independent_flicker,
        "leaky adaptation must flicker strictly less than per-frame execution \
         ({adapted_flicker} vs {independent_flicker})"
    );
    assert!(
        adapted.summary().cuts.is_empty(),
        "a smooth ramp must not trip the cut detector"
    );

    // 2 — steady-state bit-identity on a static scene, against true
    // single-frame execution through the registry.
    let registry = BackendRegistry::standard();
    let static_sequence = FrameSequence::new(
        SequenceKind::Static,
        SceneKind::SunAndShadow,
        load.width,
        load.height,
        load.frames.min(8),
        77,
    );
    let mut steady = VideoSession::from_spec(adapted_spec).unwrap();
    let mut static_identical = true;
    for frame in static_sequence.frames() {
        let (output, _) = steady.process(&frame);
        let direct = registry
            .execute(&TonemapRequest::luminance(&frame).on_backend("sw-f32?pipeline=reinhard"))
            .unwrap()
            .into_frame()
            .expect("display-referred responses carry the frame");
        static_identical &= output.pixels() == direct.as_slice();
    }
    println!(
        "steady state (static scene): adapted output bit-identical to single-frame \
         registry execution across {} frames: {static_identical}",
        static_sequence.len()
    );
    assert!(
        static_identical,
        "adapted steady state must be bit-identical to single-frame execution"
    );

    // 3 — scene-cut detection and convergence.
    let cut_at = load.frames / 2;
    let cut_sequence = FrameSequence::new(
        SequenceKind::RampWithCut {
            decades: 1.0,
            cut_at,
        },
        SceneKind::WindowInDarkRoom,
        load.width,
        load.height,
        load.frames,
        2018,
    );
    let mut cut_adapted = VideoSession::from_spec(adapted_spec).unwrap();
    let mut cut_independent = VideoSession::from_spec("sw-f32?pipeline=reinhard").unwrap();
    let mut convergence_frame = None;
    for (index, frame) in cut_sequence.frames().enumerate() {
        let (a, _) = cut_adapted.process(&frame);
        let (b, _) = cut_independent.process(&frame);
        if index >= cut_at && convergence_frame.is_none() && a.pixels() == b.pixels() {
            convergence_frame = Some(index);
        }
    }
    let detected = cut_adapted.cuts().to_vec();
    let convergence_frame =
        convergence_frame.expect("the adapted stream must re-agree with independent execution");
    let convergence_lag = convergence_frame - cut_at;
    println!(
        "scene cut at frame {cut_at}: detector fired at {detected:?}, adapted output \
         converged {convergence_lag} frame(s) after the cut (budget {CONVERGENCE_BUDGET_FRAMES})"
    );
    assert_eq!(
        detected,
        vec![cut_at],
        "the detector must fire exactly once, at the cut"
    );
    assert!(
        convergence_lag <= CONVERGENCE_BUDGET_FRAMES,
        "convergence took {convergence_lag} frames, budget {CONVERGENCE_BUDGET_FRAMES}"
    );

    // 4 — stream throughput vs single-frame jobs. Same frames, same
    // engine, identically-sized single-worker services so the comparison
    // isolates the stream machinery (shard pin, turn gate, staging). Each
    // side warms up untimed and keeps its best of three timed reps, so
    // scheduler noise on a shared CI host cannot flip the verdict.
    let throughput_sequence = FrameSequence::new(
        SequenceKind::ExposureRamp { decades: 1.0 },
        SceneKind::MemorialComposite,
        load.width,
        load.height,
        load.throughput_frames,
        4242,
    );
    let frames: Vec<_> = throughput_sequence.frames().collect();
    let config = ServiceConfig::with_workers(1)
        .shards(1)
        .queue_capacity(frames.len().max(1) + 1);
    const REPS: usize = 3;

    let measure_jobs = || {
        let service = TonemapService::standard(config);
        let warmup = service
            .submit(
                JobRequest::luminance(frames[0].clone()).on_backend("sw-f32?pipeline=basedetail"),
            )
            .unwrap();
        warmup.wait().unwrap();
        let started = Instant::now();
        let handles: Vec<_> = frames
            .iter()
            .map(|frame| {
                service
                    .submit(
                        JobRequest::luminance(frame.clone())
                            .on_backend("sw-f32?pipeline=basedetail"),
                    )
                    .unwrap()
            })
            .collect();
        for handle in handles {
            handle.wait().unwrap();
        }
        let seconds = started.elapsed().as_secs_f64();
        service.shutdown();
        seconds
    };
    let measure_stream = || {
        let service = TonemapService::standard(config);
        let mut stream = service
            .open_stream(FrameSequenceRequest::on_backend(
                "sw-f32?pipeline=basedetail&temporal=leaky&tau=4",
            ))
            .unwrap();
        stream.submit_frame(&frames[0]).unwrap().wait().unwrap();
        let started = Instant::now();
        let handles: Vec<_> = frames
            .iter()
            .map(|frame| stream.submit_frame(frame).unwrap())
            .collect();
        for handle in handles {
            handle.wait().unwrap();
        }
        let seconds = started.elapsed().as_secs_f64();
        let stats = service.stats();
        assert_eq!(stats.frames_completed, frames.len() as u64 + 1);
        // Submission was fully pipelined, so most staging frames were
        // acquired before the first recycle could land — reuse is a
        // steady-state property (asserted in the service's sequential
        // 100-frame test); here the loop must at least close: every
        // staged frame returned, none poisoned.
        let pool = service.frame_pool_stats();
        assert_eq!(pool.acquired, frames.len() as u64 + 1);
        assert_eq!(
            pool.recycled + pool.discarded_over_cap,
            frames.len() as u64 + 1,
            "every staging frame must return to the pool, stats: {pool:?}"
        );
        assert_eq!(pool.dropped_poisoned, 0);
        drop(stream);
        service.shutdown();
        seconds
    };
    let job_seconds = (0..REPS).map(|_| measure_jobs()).fold(f64::MAX, f64::min);
    let stream_seconds = (0..REPS).map(|_| measure_stream()).fold(f64::MAX, f64::min);

    let job_fps = frames.len() as f64 / job_seconds;
    let stream_fps = frames.len() as f64 / stream_seconds;
    let ratio = stream_fps / job_fps;
    println!(
        "throughput ({} frames, 1 worker): stream {stream_fps:.1} fps vs single-frame \
         jobs {job_fps:.1} fps — ratio {ratio:.3} (required >= {REQUIRED_THROUGHPUT_RATIO})",
        frames.len()
    );

    // 5 — session overhead: the same frames through a leaky session and
    // as single-frame registry executions of the engine spec, each side
    // its best of three timed passes after `time_best`'s untimed warm-up.
    let session_over_execute = |session_spec: &str, engine_spec: &str| {
        let mut session = VideoSession::from_spec(session_spec).unwrap();
        let execute = |frame| {
            registry
                .execute(&TonemapRequest::luminance(frame).on_backend(engine_spec))
                .unwrap()
        };
        let session_seconds = time_best(REPS, || {
            for frame in &frames {
                black_box(session.process(frame));
            }
        });
        let execute_seconds = time_best(REPS, || {
            for frame in &frames {
                black_box(execute(frame));
            }
        });
        session_seconds / execute_seconds
    };
    let session_ratio = session_over_execute("sw-f32-stream?temporal=leaky&tau=4", "sw-f32-stream");
    let reinhard_session_ratio = session_over_execute(
        "sw-f32-stream?pipeline=reinhard&temporal=leaky&tau=4",
        "sw-f32-stream?pipeline=reinhard",
    );
    println!(
        "session overhead ({} frames): leaky session {session_ratio:.3}x single-frame \
         execution (bound {MAX_SESSION_OVER_EXECUTE}), Reinhard pair {reinhard_session_ratio:.3}x \
         (unbounded)",
        frames.len()
    );

    write_bench_json(
        "video",
        &json::obj([
            ("gate", json::string("video")),
            ("frames", json::num(load.frames as f64)),
            ("width", json::num(load.width as f64)),
            ("height", json::num(load.height as f64)),
            ("adapted_mean_flicker", json::num(adapted_flicker)),
            ("independent_mean_flicker", json::num(independent_flicker)),
            (
                "flicker_ratio",
                json::num(adapted_flicker / independent_flicker),
            ),
            ("static_bit_identical", String::from("true")),
            ("cut_frame", json::num(cut_at as f64)),
            (
                "detected_cuts",
                json::arr(detected.iter().map(|&c| json::num(c as f64))),
            ),
            ("convergence_lag_frames", json::num(convergence_lag as f64)),
            (
                "convergence_budget_frames",
                json::num(CONVERGENCE_BUDGET_FRAMES as f64),
            ),
            ("stream_fps", json::num(stream_fps)),
            ("single_frame_fps", json::num(job_fps)),
            ("throughput_ratio", json::num(ratio)),
            (
                "required_throughput_ratio",
                json::num(REQUIRED_THROUGHPUT_RATIO),
            ),
            ("session_over_execute", json::num(session_ratio)),
            (
                "max_session_over_execute",
                json::num(MAX_SESSION_OVER_EXECUTE),
            ),
            (
                "reinhard_session_over_execute",
                json::num(reinhard_session_ratio),
            ),
        ]),
    );

    assert!(
        ratio >= REQUIRED_THROUGHPUT_RATIO,
        "stream throughput ratio {ratio:.3} fell below {REQUIRED_THROUGHPUT_RATIO}"
    );
    assert!(
        session_ratio <= MAX_SESSION_OVER_EXECUTE,
        "a leaky session took {session_ratio:.3}x single-frame execution, above \
         {MAX_SESSION_OVER_EXECUTE}"
    );
    println!("\nvideo gate: PASS");
}

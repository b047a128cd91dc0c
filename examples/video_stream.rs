//! Video as a first-class workload: tone-map a synthetic HDR sequence —
//! an exposure ramp with a hard scene cut halfway — through a service
//! video stream. The leaky temporal session smooths the ramp (less
//! flicker than per-frame execution), the cut detector resets adaptation
//! exactly at the cut, and per-frame metrics stream back with each frame.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example video_stream   # CI=true caps sizes
//! ```

use std::error::Error;
use tonemap_zynq_repro::prelude::*;

fn main() -> Result<(), Box<dyn Error>> {
    let ci = std::env::var("CI").is_ok();
    let (width, height, frames) = if ci { (96, 72, 12) } else { (192, 144, 24) };
    let cut_at = frames / 2;

    // 1. A synthetic HDR sequence: brightness ramps over one decade, then
    //    hard-cuts to a different scene at `cut_at`.
    let sequence = FrameSequence::new(
        SequenceKind::RampWithCut {
            decades: 1.0,
            cut_at,
        },
        SceneKind::WindowInDarkRoom,
        width,
        height,
        frames,
        2018,
    );
    println!(
        "sequence: {width}x{height}, {frames} frames, exposure ramp with a cut at frame {cut_at}\n"
    );

    // 2. Open a temporal stream on the service. The spec carries the
    //    engine, the pipeline AND the temporal policy; frames of one
    //    stream run in FIFO order through the stream's mailbox.
    let spec = "sw-f32?pipeline=reinhard&temporal=leaky&tau=4";
    let service = TonemapService::standard(ServiceConfig::with_workers(2));
    let mut stream = service.open_stream(FrameSequenceRequest::on_backend(spec))?;
    println!("stream {} open on `{spec}`", stream.stream_id());
    println!("frame  brightness  flicker    t-PSNR      cut");

    for frame in sequence.frames() {
        let outcome = stream.submit_frame(&frame)?.wait()?;
        let m = outcome.metrics;
        println!(
            "  {:>2}   {:>9.5}  {}  {}  {}",
            m.index,
            m.mean_brightness,
            m.flicker_delta
                .map_or_else(|| "    —    ".into(), |f| format!("{f:.6}")),
            m.temporal_psnr_db
                .map_or_else(|| "   —    ".into(), |p| format!("{p:>6.1} dB")),
            if m.scene_cut {
                "<-- scene cut: adaptation reset"
            } else {
                ""
            }
        );
        // Hand the delivered frame back so the pool can re-stage with it.
        stream.recycle(outcome.output);
    }

    // 3. The stream summary: where the detector fired and how stable the
    //    output was. The cut frame's flicker spike is genuine (the scene
    //    really changed); the ramp frames are the ones adaptation smooths.
    let summary = stream.summary();
    println!(
        "\nsummary: {} frames, cuts detected at {:?}, mean flicker {:.6}, peak {:.6}",
        summary.frames, summary.cuts, summary.mean_flicker, summary.peak_flicker
    );
    assert_eq!(summary.cuts, vec![cut_at]);

    // 4. The counterfactual: the same frames per-frame-independent. The
    //    adapted stream flickers less on the ramp — that is the point of
    //    the temporal subsystem.
    let mut independent = VideoSession::from_spec("sw-f32?pipeline=reinhard")?;
    for frame in sequence.frames() {
        independent.process(&frame);
    }
    println!(
        "vs per-frame-independent mean flicker {:.6} — adaptation smooths the ramp",
        independent.summary().mean_flicker
    );

    // 5. Frames are accounted apart from jobs: this run was one stream,
    //    zero jobs.
    let stats = service.stats();
    println!(
        "stats: {} frames over {} active stream(s), {} single-frame jobs",
        stats.frames_completed, stats.streams_active, stats.submitted
    );
    drop(stream);
    service.shutdown();
    Ok(())
}

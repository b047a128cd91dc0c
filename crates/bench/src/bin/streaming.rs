//! Streaming-engine gate: parity and the line-buffer speedup.
//!
//! The paper's Table I exists because restructuring the blur around a BRAM
//! line buffer (Fig. 4) turns random DDR traffic into a single stream; the
//! `sw-f32-stream` / `hw-fix16-stream` engines apply the same restructuring
//! in software. This gate checks both halves of that claim:
//!
//! * **Parity** — on every synthetic scene (plus degenerate 1×N / N×1
//!   geometries) `sw-f32-stream`, `sw-f32`, `hw-fix16-stream` and
//!   `hw-fix16` must equal the per-pixel two-pass reference (`ToneMapper`)
//!   in their blur format bit for bit: every engine runs the same
//!   arithmetic at another schedule point, so even a 1-LSB slip is a bug.
//! * **Speed** — at 1024×768 with the paper-default 41-tap kernel, one
//!   *single-threaded* streaming pass must be at least 2× faster than the
//!   per-pixel two-pass reference, and the Q4.12 stream (`Fix16` taps) may
//!   cost at most 4× the `f32` stream, so a return to wide-integer
//!   emulation of the 16-bit datapath fails. Fusion's own share — the
//!   fused stream against the `sw-f32` engine's two-pass point, the same
//!   stream with every stencil materialized — is reported, not gated.
//! * **Colour points** — the `hsv-reinhard` colour plan streamed over an
//!   RGB frame (normalize, RGB → HSV, Reinhard on V, HSV → RGB: the colour
//!   walk's row pass) must equal the two-pass `map_rgb_hw_blur` bit for
//!   bit and may cost at most 1.3× the single-thread `f32` paper stream,
//!   so a return to a per-pixel interpreter of the colour ops fails.
//!
//! The run fails (non-zero exit) if any check fails.
//!
//! The measured seconds, speedup ratios and ns/pixel figures are persisted
//! to `BENCH_streaming.json` in the working directory.
//!
//! ```text
//! cargo run -p bench --release --bin streaming    # CI=true trims iterations
//! ```

use apfixed::Fix16;
use bench::{time_best, write_bench_json};
use codesign::reports::json;
use hdr_image::synth::SceneKind;
use hdr_image::{LuminanceImage, RgbImage};
use tonemap_backend::{BackendRegistry, TonemapRequest};
use tonemap_core::{PipelinePlan, PlanTuning, StreamingToneMapper, ToneMapParams, ToneMapper};

const WIDTH: usize = 1024;
const HEIGHT: usize = 768;
const REQUIRED_SPEEDUP: f64 = 2.0;
const MAX_FIX16_OVER_F32: f64 = 4.0;
/// The colour row's bound over the f32 paper stream: ~1.65 with a per-pixel
/// interpreter of the colour ops, ~1.0 with row kernels on the gate host.
const MAX_COLOR_OVER_PAPER: f64 = 1.3;

/// Index and values of the first pixel whose bits differ, if any.
fn first_mismatch(a: &LuminanceImage, b: &LuminanceImage) -> Option<(usize, f32, f32)> {
    assert_eq!(a.dimensions(), b.dimensions(), "dimensions differ");
    a.pixels()
        .iter()
        .zip(b.pixels())
        .position(|(x, y)| x.to_bits() != y.to_bits())
        .map(|i| (i, a.pixels()[i], b.pixels()[i]))
}

/// Index of the first RGB pixel whose channel bits differ, if any.
fn first_rgb_mismatch(a: &RgbImage, b: &RgbImage) -> Option<usize> {
    assert_eq!(a.dimensions(), b.dimensions(), "dimensions differ");
    a.pixels()
        .iter()
        .zip(b.pixels())
        .position(|(x, y)| [x.r, x.g, x.b].map(f32::to_bits) != [y.r, y.g, y.b].map(f32::to_bits))
}

fn parity_checks() {
    let registry = BackendRegistry::standard();
    let scenes: Vec<(&str, LuminanceImage)> = vec![
        (
            "window-in-dark-room",
            SceneKind::WindowInDarkRoom.generate(160, 120, 1),
        ),
        (
            "sun-and-shadow",
            SceneKind::SunAndShadow.generate(96, 144, 2),
        ),
        (
            "gradient-ramp",
            SceneKind::GradientRamp.generate(128, 96, 3),
        ),
        (
            "memorial-composite",
            SceneKind::MemorialComposite.generate(112, 112, 4),
        ),
        ("row-image-1xN", SceneKind::GradientRamp.generate(1, 96, 5)),
        (
            "column-image-Nx1",
            SceneKind::GradientRamp.generate(96, 1, 6),
        ),
        ("sub-radius", SceneKind::SunAndShadow.generate(7, 5, 7)),
    ];
    println!("parity of the engines against the per-pixel two-pass reference:");
    let reference = ToneMapper::new(ToneMapParams::paper_default());
    for (name, scene) in &scenes {
        let run = |spec: &str| {
            registry
                .execute(&TonemapRequest::luminance(scene).on_backend(spec))
                .expect("standard spec executes")
                .luminance()
                .expect("display-referred payload")
                .clone()
        };
        let f32_reference = reference.map_luminance_hw_blur::<f32>(scene);
        let fix16_reference = reference.map_luminance_hw_blur::<Fix16>(scene);
        for (spec, expected) in [
            ("sw-f32-stream", &f32_reference),
            ("sw-f32", &f32_reference),
            ("hw-fix16-stream", &fix16_reference),
            ("hw-fix16", &fix16_reference),
        ] {
            if let Some((i, x, y)) = first_mismatch(&run(spec), expected) {
                panic!("{spec} diverged from the reference on {name} at pixel {i}: {x} vs {y}");
            }
        }
        println!("  {name:<20} f32 and fix16 engines bit-identical");
    }
    println!();
}

fn main() {
    parity_checks();

    let ci = std::env::var("CI").is_ok();
    let iterations = if ci { 2 } else { 3 };
    let params = ToneMapParams::paper_default();
    let hdr = SceneKind::WindowInDarkRoom.generate(WIDTH, HEIGHT, 2018);
    println!(
        "speed gate at {WIDTH}x{HEIGHT}, {} taps, best of {iterations} runs:",
        params.blur.taps()
    );

    let two_pass = ToneMapper::new(params);
    let mut sink = 0.0f32;
    let reference_seconds = time_best(iterations, || {
        sink += two_pass.map_luminance_f32(&hdr).pixels()[0];
    });

    let streaming = StreamingToneMapper::<f32>::new(params);
    let streaming_seconds = time_best(iterations, || {
        sink += streaming.map_luminance(&hdr).pixels()[0];
    });

    let two_pass_point = StreamingToneMapper::<f32>::new(params).with_materialized_stencils(true);
    let two_pass_point_seconds = time_best(iterations, || {
        sink += two_pass_point.map_luminance(&hdr).pixels()[0];
    });

    let streaming_fix16 = StreamingToneMapper::<Fix16>::new(params);
    let fix16_seconds = time_best(iterations, || {
        sink += streaming_fix16.map_luminance(&hdr).pixels()[0];
    });

    let threads = tonemap_scheduler::HostModel::detected().cores();
    let threaded = StreamingToneMapper::<f32>::new(params).with_threads(threads);
    let threaded_seconds = time_best(iterations, || {
        sink += threaded.map_luminance(&hdr).pixels()[0];
    });

    let color_plan = PipelinePlan::preset("hsv-reinhard", &params, &PlanTuning::default())
        .expect("the hsv-reinhard preset is valid")
        .expect("hsv-reinhard is a preset");
    let color_hdr = SceneKind::WindowInDarkRoom.generate_rgb(WIDTH, HEIGHT, 2018);
    let color_stream = StreamingToneMapper::<f32>::compile(color_plan.clone(), params)
        .expect("paper parameters are valid");
    let color_reference = ToneMapper::compile(color_plan, params)
        .expect("paper parameters are valid")
        .map_rgb_hw_blur::<f32>(&color_hdr)
        .expect("colour plans execute");
    let color_out = color_stream
        .map_rgb(&color_hdr)
        .expect("colour plans execute");
    if let Some(i) = first_rgb_mismatch(&color_out, &color_reference) {
        panic!(
            "hsv-reinhard stream diverged from map_rgb_hw_blur at pixel {i}: {:?} vs {:?}",
            color_out.pixels()[i],
            color_reference.pixels()[i]
        );
    }
    let color_seconds = time_best(iterations, || {
        let out = color_stream
            .map_rgb(&color_hdr)
            .expect("colour plans execute");
        sink += out.pixels()[0].r;
    });
    assert!(sink.is_finite(), "outputs must be finite");

    let speedup = reference_seconds / streaming_seconds;
    let fusion_share = two_pass_point_seconds / streaming_seconds;
    println!(
        "  {:<30} {reference_seconds:>8.3} s",
        "per-pixel two-pass reference"
    );
    println!(
        "  {:<30} {two_pass_point_seconds:>8.3} s",
        "sw-f32 two-pass point"
    );
    println!(
        "  {:<30} {streaming_seconds:>8.3} s  ({speedup:.2}x)",
        "streaming, 1 thread"
    );
    println!(
        "  {:<30} {threaded_seconds:>8.3} s  ({:.2}x)",
        format!("streaming, {threads} thread(s)"),
        reference_seconds / threaded_seconds
    );
    let fix16_over_f32 = fix16_seconds / streaming_seconds;
    println!(
        "  {:<30} {fix16_seconds:>8.3} s  ({fix16_over_f32:.2}x the f32 stream)",
        "streaming Fix16, 1 thread"
    );
    let color_over_paper = color_seconds / streaming_seconds;
    println!(
        "  {:<30} {color_seconds:>8.3} s  ({color_over_paper:.2}x the f32 stream)",
        "hsv-reinhard colour, 1 thread"
    );
    println!();
    println!(
        "single-thread streaming speedup over the per-pixel two-pass reference: {speedup:.2}x \
         (required >= {REQUIRED_SPEEDUP:.1}x)"
    );
    println!(
        "fusion's own share, the stream over the sw-f32 two-pass point: {fusion_share:.2}x \
         (reported, not gated)"
    );
    println!(
        "Fix16 stream over f32 stream: {fix16_over_f32:.2}x (required <= {MAX_FIX16_OVER_F32:.1}x)"
    );
    println!(
        "hsv-reinhard colour stream over f32 stream: {color_over_paper:.2}x \
         (required <= {MAX_COLOR_OVER_PAPER:.1}x)"
    );

    let pixels = (WIDTH * HEIGHT) as f64;
    let ns_per_pixel = |seconds: f64| json::num(seconds * 1e9 / pixels);
    write_bench_json(
        "streaming",
        &json::obj([
            ("gate", json::string("streaming")),
            ("width", json::num(WIDTH as f64)),
            ("height", json::num(HEIGHT as f64)),
            ("taps", json::num(params.blur.taps() as f64)),
            ("iterations", json::num(iterations as f64)),
            ("two_pass_seconds", json::num(reference_seconds)),
            ("two_pass_point_seconds", json::num(two_pass_point_seconds)),
            ("fusion_share", json::num(fusion_share)),
            ("streaming_seconds", json::num(streaming_seconds)),
            ("threaded_seconds", json::num(threaded_seconds)),
            ("threads", json::num(threads as f64)),
            ("single_thread_speedup", json::num(speedup)),
            (
                "threaded_speedup",
                json::num(reference_seconds / threaded_seconds),
            ),
            (
                "ns_per_pixel",
                json::obj([
                    ("two_pass", ns_per_pixel(reference_seconds)),
                    ("two_pass_point", ns_per_pixel(two_pass_point_seconds)),
                    ("streaming", ns_per_pixel(streaming_seconds)),
                    ("threaded", ns_per_pixel(threaded_seconds)),
                    ("streaming_fix16", ns_per_pixel(fix16_seconds)),
                    ("color_points", ns_per_pixel(color_seconds)),
                ]),
            ),
            ("required_speedup", json::num(REQUIRED_SPEEDUP)),
            ("fix16_over_f32", json::num(fix16_over_f32)),
            ("max_fix16_over_f32", json::num(MAX_FIX16_OVER_F32)),
            ("color_over_paper", json::num(color_over_paper)),
            ("max_color_over_paper", json::num(MAX_COLOR_OVER_PAPER)),
        ]),
    );

    assert!(
        speedup >= REQUIRED_SPEEDUP,
        "streaming speedup {speedup:.2}x fell below the required {REQUIRED_SPEEDUP:.1}x"
    );
    assert!(
        fix16_over_f32 <= MAX_FIX16_OVER_F32,
        "the Fix16 stream costs {fix16_over_f32:.2}x the f32 stream, above the allowed \
         {MAX_FIX16_OVER_F32:.1}x"
    );
    assert!(
        color_over_paper <= MAX_COLOR_OVER_PAPER,
        "the hsv-reinhard colour stream costs {color_over_paper:.2}x the f32 stream, above the \
         allowed {MAX_COLOR_OVER_PAPER:.1}x"
    );
}

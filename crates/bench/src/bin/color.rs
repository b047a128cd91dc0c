//! Colour-management gate: the typed register-file refactor must serve
//! every colour-managed preset at reference quality.
//!
//! PR 9 replaced the implicit `{image, mask}` luminance register pair with
//! a typed register file — every register carries a `ChannelLayout`, ops
//! declare layout signatures, and the old hard-coded backend RGB path
//! became explicit plan composition (`ExtractLuminance … ReapplyRatio`).
//! This gate closes the loop on pixels:
//!
//! * **Catalogue quality** — every colour-managed preset (`hsv-reinhard`,
//!   `filmic`, `aces`, `drago`, `pq-out`, `hlg-out`) runs through the
//!   registry on both `sw-f32` (the float reference) and `hw-fix16` (the
//!   paper's Q4.12 accelerator datapath); PSNR/SSIM of the fixed-point
//!   output against the float reference must clear per-preset floors, and
//!   every channel of every output must be finite and display-ranged.
//! * **Bit identity** — on the paper preset, the RGB-via-plan path must
//!   reproduce the old extract/run/reapply wrapper *exactly*, and the
//!   streaming engines must match their two-pass counterparts bit for bit
//!   on a colour-input plan.
//! * **Transfer-function round trips** — `EOTF(OETF(x)) = x` across the
//!   display range for PQ (at three mastering peaks) and HLG, within tight
//!   absolute bounds.
//!
//! Everything is persisted to `BENCH_color.json`.
//!
//! ```text
//! cargo run -p bench --release --bin color    # CI=true trims resolution
//! ```

use bench::{paper_registry, write_bench_json};
use codesign::quality::compare_outputs;
use codesign::reports::json;
use hdr_image::rgb::{luminance_plane, reapply_color};
use hdr_image::synth::SceneKind;
use hdr_image::RgbImage;
use tonemap_backend::TonemapRequest;
use tonemap_core::color::{hlg_eotf, hlg_oetf, pq_eotf, pq_oetf};

/// The colour-managed preset catalogue with its quality floors: the PSNR
/// (dB) and SSIM the `hw-fix16` output must reach against the `sw-f32`
/// reference. Floors are set ~5 dB / ~0.005 below healthy measurements so
/// the gate trips on real regressions (a swapped channel, a saturating
/// datapath, a NaN) and not on quantisation noise.
const PRESETS: [(&str, f64, f64); 6] = [
    ("hsv-reinhard", 40.0, 0.98),
    ("filmic", 40.0, 0.98),
    ("aces", 40.0, 0.98),
    ("drago", 35.0, 0.97),
    ("pq-out", 35.0, 0.97),
    ("hlg-out", 35.0, 0.97),
];

/// Asserts every channel of every pixel is finite and display-ranged.
fn assert_display_ranged(image: &RgbImage, label: &str) {
    for pixel in image.pixels() {
        for channel in [pixel.r, pixel.g, pixel.b] {
            assert!(
                channel.is_finite() && (0.0..=1.0).contains(&channel),
                "{label}: channel {channel} escapes the display range"
            );
        }
    }
}

fn main() {
    let registry = paper_registry();
    let ci = std::env::var("CI").is_ok();
    let (width, height) = if ci { (256, 192) } else { (512, 384) };
    let hdr = SceneKind::MemorialComposite.generate_rgb(width, height, 2018);
    println!("colour-management gate: {width}x{height} synthetic RGB input\n");

    // Catalogue quality: hw-fix16 vs the sw-f32 reference, per preset.
    println!(
        "{:<14} {:>10} {:>8}   floors",
        "preset", "PSNR (dB)", "SSIM"
    );
    let mut preset_rows: Vec<String> = Vec::new();
    for (preset, psnr_floor, ssim_floor) in PRESETS {
        let reference = registry
            .execute(&TonemapRequest::rgb(&hdr).on_backend(format!("sw-f32?pipeline={preset}")))
            .expect("float reference executes");
        let reference = reference.rgb().expect("RGB payload");
        let fixed = registry
            .execute(&TonemapRequest::rgb(&hdr).on_backend(format!("hw-fix16?pipeline={preset}")))
            .expect("fixed-point engine executes");
        let fixed = fixed.rgb().expect("RGB payload");
        assert_display_ranged(reference, &format!("sw-f32 {preset}"));
        assert_display_ranged(fixed, &format!("hw-fix16 {preset}"));
        // Quality is judged on the luminance plane, like the paper's Fig. 5
        // comparison (PSNR/SSIM are luminance metrics there too).
        let report = compare_outputs(&luminance_plane(reference), &luminance_plane(fixed), 16, 12);
        println!(
            "{preset:<14} {:>10.1} {:>8.4}   (≥{psnr_floor:.0} dB, ≥{ssim_floor:.2})",
            report.psnr_db, report.ssim
        );
        assert!(
            report.psnr_db >= psnr_floor,
            "{preset}: hw-fix16 PSNR {:.1} dB fell below the {psnr_floor:.0} dB floor",
            report.psnr_db
        );
        assert!(
            report.ssim >= ssim_floor,
            "{preset}: hw-fix16 SSIM {:.4} fell below the {ssim_floor:.2} floor",
            report.ssim
        );
        // A preset with no fixed-point stage (a pure point-op colour plan)
        // is bit-identical across engines; its PSNR is infinite, which the
        // JSON writer rejects — cap the recorded value.
        preset_rows.push(json::obj([
            ("preset", json::string(preset)),
            ("psnr_db", json::num(report.psnr_db.min(99.0))),
            ("ssim", json::num(report.ssim)),
            ("psnr_floor_db", json::num(psnr_floor)),
            ("ssim_floor", json::num(ssim_floor)),
        ]));
    }

    // Bit identity: the RGB-via-plan path reproduces the old hard-coded
    // wrapper exactly on the paper preset …
    let mut identity_rows: Vec<String> = Vec::new();
    for engine in ["sw-f32", "hw-fix16"] {
        let via_plan = registry
            .execute(&TonemapRequest::rgb(&hdr).on_backend(engine))
            .expect("paper-preset RGB executes");
        let mapped = registry
            .execute(&TonemapRequest::luminance(&luminance_plane(&hdr)).on_backend(engine))
            .expect("paper-preset luminance executes");
        let manual = reapply_color(&hdr, mapped.luminance().expect("luminance payload"))
            .expect("wrapper recombines");
        assert_eq!(
            via_plan.rgb().expect("RGB payload"),
            &manual,
            "{engine}: the plan-composed RGB path diverged from the classic wrapper"
        );
        identity_rows.push(json::obj([
            ("pair", json::string(&format!("{engine} plan-vs-wrapper"))),
            ("bit_identical", "true".to_string()),
        ]));
    }
    println!("\npaper preset: plan-composed RGB == classic wrapper on sw-f32 and hw-fix16");
    // … and the streaming engines match two-pass bit for bit on a
    // colour-input plan.
    for (streamed, classic) in [("sw-f32-stream", "sw-f32"), ("hw-fix16-stream", "hw-fix16")] {
        let a = registry
            .execute(
                &TonemapRequest::rgb(&hdr).on_backend(format!("{streamed}?pipeline=hsv-reinhard")),
            )
            .expect("streaming colour plan executes");
        let b = registry
            .execute(
                &TonemapRequest::rgb(&hdr).on_backend(format!("{classic}?pipeline=hsv-reinhard")),
            )
            .expect("two-pass colour plan executes");
        assert_eq!(
            a.rgb().expect("RGB payload"),
            b.rgb().expect("RGB payload"),
            "{streamed} diverged from {classic} on hsv-reinhard"
        );
        identity_rows.push(json::obj([
            (
                "pair",
                json::string(&format!("{streamed}-vs-{classic} hsv-reinhard")),
            ),
            ("bit_identical", "true".to_string()),
        ]));
    }
    println!("hsv-reinhard: streaming engines == two-pass engines bit for bit");

    // Transfer-function round trips across the display range.
    const STEPS: usize = 4096;
    const PQ_BOUND: f64 = 2e-4;
    const HLG_BOUND: f64 = 2e-6;
    let mut roundtrip_rows: Vec<String> = Vec::new();
    println!();
    for peak_nits in [100.0f32, 1000.0, 10_000.0] {
        let mut worst = 0.0f64;
        for step in 0..=STEPS {
            let value = step as f32 / STEPS as f32;
            let back = pq_eotf(pq_oetf(value, peak_nits), peak_nits);
            worst = worst.max((f64::from(back) - f64::from(value)).abs());
        }
        println!(
            "PQ round trip @ {peak_nits:>6.0} nits: worst |Δ| {worst:.2e} (bound {PQ_BOUND:.0e})"
        );
        assert!(
            worst <= PQ_BOUND,
            "PQ round trip at {peak_nits} nits drifted by {worst:.2e}"
        );
        roundtrip_rows.push(json::obj([
            ("transfer", json::string("pq")),
            ("peak_nits", json::num(f64::from(peak_nits))),
            ("worst_abs_error", json::num(worst)),
            ("bound", json::num(PQ_BOUND)),
        ]));
    }
    let mut worst = 0.0f64;
    for step in 0..=STEPS {
        let value = step as f32 / STEPS as f32;
        let back = hlg_eotf(hlg_oetf(value));
        worst = worst.max((f64::from(back) - f64::from(value)).abs());
    }
    println!("HLG round trip:               worst |Δ| {worst:.2e} (bound {HLG_BOUND:.0e})");
    assert!(worst <= HLG_BOUND, "HLG round trip drifted by {worst:.2e}");
    roundtrip_rows.push(json::obj([
        ("transfer", json::string("hlg")),
        ("worst_abs_error", json::num(worst)),
        ("bound", json::num(HLG_BOUND)),
    ]));

    write_bench_json(
        "color",
        &json::obj([
            ("gate", json::string("color")),
            ("width", json::num(width as f64)),
            ("height", json::num(height as f64)),
            ("presets", json::arr(preset_rows)),
            ("bit_identity", json::arr(identity_rows)),
            ("roundtrips", json::arr(roundtrip_rows)),
        ]),
    );
}

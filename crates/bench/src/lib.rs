//! Shared helpers for the report binaries and Criterion benches.
//!
//! The paper's evaluation artefacts are regenerated by the binaries in
//! `src/bin/` (one per table/figure, plus `all_results` which prints
//! everything); the Criterion benches in `benches/` measure the wall-clock
//! performance of the functional library itself (blur, full pipeline,
//! fixed-point arithmetic, metrics, and the analytical simulator).
//!
//! | Paper artefact | Binary |
//! |---|---|
//! | Table I (optimization steps) | `cargo run -p bench --release --bin table1` |
//! | Table II (execution times) | `cargo run -p bench --release --bin table2` |
//! | Fig. 5 (image quality, PSNR/SSIM) | `cargo run -p bench --release --bin fig5_quality` |
//! | Fig. 6 (PS/PL execution-time split) | `cargo run -p bench --release --bin fig6` |
//! | Fig. 7 (per-rail energy) | `cargo run -p bench --release --bin fig7` |
//! | Fig. 8 (bottomline vs overhead) | `cargo run -p bench --release --bin fig8` |
//! | Vivado-HLS-style reports | `cargo run -p bench --release --bin hls_reports` |
//! | Everything at once | `cargo run -p bench --release --bin all_results` |
//!
//! All of the binaries execute the pipeline through the
//! [`tonemap_backend::BackendRegistry`] engine layer ([`paper_registry`])
//! via the fallible `TonemapRequest`/`TonemapResponse` job contract; none
//! of them call the `ToneMapper` execution methods directly.

use codesign::flow::{CoDesignFlow, DesignImplementation, FlowReport};
use hdr_image::synth::SceneKind;
use hdr_image::LuminanceImage;
use tonemap_backend::BackendRegistry;

/// The paper's evaluation resolution.
pub const PAPER_WIDTH: usize = 1024;
/// The paper's evaluation resolution.
pub const PAPER_HEIGHT: usize = 1024;

/// The standard backend registry configured with the paper's parameters —
/// the single entry point through which every report binary executes the
/// pipeline and queries the platform model.
pub fn paper_registry() -> BackendRegistry {
    BackendRegistry::standard()
}

/// The co-design flow configured exactly as in the paper's experiments,
/// for the design-exploration surfaces that are not execution paths
/// (profiling, HLS kernel scheduling/reports, the beyond-paper extension).
pub fn paper_flow() -> CoDesignFlow {
    CoDesignFlow::paper_setup(PAPER_WIDTH, PAPER_HEIGHT)
}

/// Evaluates all five design implementations at the paper's resolution,
/// routed through the [`BackendRegistry`] engine layer.
pub fn paper_flow_report() -> FlowReport {
    paper_registry()
        .flow_report(PAPER_WIDTH, PAPER_HEIGHT)
        .expect("the standard registry covers every Table II design")
}

/// The synthetic stand-in for the paper's 1024×1024 HDR input (Fig. 5a);
/// see DESIGN.md §2 for the substitution rationale.
pub fn paper_input() -> LuminanceImage {
    SceneKind::paper_input()
}

/// A smaller input for benches that exercise the functional pipeline where
/// the paper resolution would make Criterion iterations needlessly long.
pub fn bench_input(size: usize) -> LuminanceImage {
    SceneKind::WindowInDarkRoom.generate(size, size, 2018)
}

/// Best-of-N wall time of one closure, in seconds — the one timer the gate
/// binaries share.
///
/// The closure first runs once untimed, so the timed calls measure the
/// kernel rather than the allocator warming up for its first outputs.
pub fn time_best<F: FnMut()>(iterations: usize, mut f: F) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..iterations {
        let start = std::time::Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Writes a gate's machine-readable results to `BENCH_<gate>.json` in the
/// current working directory (next to the textual report on stdout), so CI
/// runs persist the measured numbers instead of a pass/fail bit. Returns
/// the path written.
pub fn write_bench_json(gate: &str, json: &str) -> std::path::PathBuf {
    let path = std::path::PathBuf::from(format!("BENCH_{gate}.json"));
    std::fs::write(&path, format!("{json}\n"))
        .unwrap_or_else(|e| panic!("writing {} failed: {e}", path.display()));
    println!("wrote {}", path.display());
    path
}

/// Paper reference values of Table II, used by the report binaries to print
/// a side-by-side comparison: `(design, blur seconds, total seconds)`.
pub fn paper_table2_reference() -> [(DesignImplementation, f64, f64); 5] {
    [
        (DesignImplementation::SwSourceCode, 7.29, 26.66),
        (DesignImplementation::MarkedHwFunction, 176.00, 195.28),
        (DesignImplementation::SequentialMemoryAccesses, 17.02, 35.34),
        (DesignImplementation::HlsPragmas, 0.79, 19.10),
        (DesignImplementation::FixedPointConversion, 0.42, 19.27),
    ]
}

/// Paper reference values for the energy experiment (Fig. 7): software ≈30 J,
/// final fixed-point design ≈23 J (a 23 % reduction).
pub const PAPER_ENERGY_SW_J: f64 = 30.0;
/// See [`PAPER_ENERGY_SW_J`].
pub const PAPER_ENERGY_FXP_J: f64 = 23.0;
/// Paper reference for Fig. 5: PSNR of the 16-bit fixed-point output against
/// the 32-bit floating-point output.
pub const PAPER_PSNR_DB: f64 = 66.0;
/// Paper reference for Fig. 5: SSIM of the same comparison.
pub const PAPER_SSIM: f64 = 1.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_tables_are_consistent_with_the_paper_text() {
        let reference = paper_table2_reference();
        assert_eq!(reference.len(), 5);
        // 17x function speed-up and 23% energy reduction quoted in the
        // abstract/conclusion.
        let speedup = reference[0].1 / reference[4].1;
        assert!(speedup > 17.0 && speedup < 17.5);
        let reduction = 1.0 - PAPER_ENERGY_FXP_J / PAPER_ENERGY_SW_J;
        assert!((reduction - 0.233).abs() < 0.01);
    }

    #[test]
    fn bench_input_is_deterministic_and_hdr() {
        let a = bench_input(64);
        let b = bench_input(64);
        assert_eq!(a, b);
        assert!(a.dynamic_range() > 100.0);
    }
}

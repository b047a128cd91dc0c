//! Host floors measured in the same run, and process memory.
//!
//! The floors move with the machine, not with the code: a run whose
//! floors leave [`DRIFT_BOUNDS`] is reported as host drift, so its other
//! numbers are not read as a code change.

use crate::stats::median;
use crate::trace::Tracer;
use std::hint::black_box;

/// Pixels (f32) per memcpy buffer. A cloud VM often reports the whole
/// socket's last-level cache (300 MiB on a 2-vCPU Xeon VM), shared with
/// other tenants, so the copy uses two 128 MiB buffers: beyond any one
/// tenant's share of the cache while staying small on a shared machine.
const MEMCPY_PIXELS: usize = 32 << 20;

/// Blur taps of the paper's kernel (radius 20).
pub const TAPS: usize = 41;

/// Row geometry of the FMA floor: the stills frame width, one row at a
/// time so the working set stays in L1/L2, like the streaming blur's rings.
const FMA_WIDTH: usize = 1024;
const FMA_ROWS: usize = 768;

/// Accepted ranges of the floors, as `(name, low, high)`. Outside them
/// the run is flagged as host drift. The 2-vCPU host the baseline was
/// taken on measured memcpy at 0.37–0.55 ns/px and parallelism anywhere
/// from 0.73 to 1.9 as its neighbours came and went; the ranges take that
/// swing with a margin, so only a different machine or a saturated one
/// falls outside.
pub const DRIFT_BOUNDS: [(&str, f64, f64); 2] = [
    ("host.memcpy_ns_px", 0.2, 0.8),
    ("host.parallelism", 0.6, 2.1),
];

#[derive(Debug, Clone, Copy)]
pub struct HostFloors {
    pub memcpy_ns_px: f64,
    pub fma_ns_tap: f64,
    pub parallelism: f64,
}

impl HostFloors {
    /// Measures every floor, recording one span per repetition.
    pub fn measure(tracer: &mut Tracer) -> Self {
        let src = vec![1.5f32; MEMCPY_PIXELS];
        let mut dst = vec![0.5f32; MEMCPY_PIXELS];
        for _ in 0..4 {
            tracer.time("host.memcpy", 0, || {
                black_box(&mut dst).copy_from_slice(black_box(&src))
            });
        }
        drop((src, dst));
        for _ in 0..5 {
            tracer.time("host.fma", 0, || fma_rows(FMA_ROWS));
        }
        let mut one = Vec::new();
        let mut two = Vec::new();
        for _ in 0..3 {
            one.push(timed(|| fma_rows(4 * FMA_ROWS)));
            two.push(timed(|| {
                std::thread::scope(|scope| {
                    let other = scope.spawn(|| fma_rows(4 * FMA_ROWS));
                    fma_rows(4 * FMA_ROWS);
                    other.join().expect("probe thread panicked");
                })
            }));
        }
        let memcpy = median(&tracer.self_times("host.memcpy")).unwrap_or(f64::NAN);
        let fma = median(&tracer.self_times("host.fma")).unwrap_or(f64::NAN);
        let (one, two) = (median(&one).unwrap_or(1.0), median(&two).unwrap_or(1.0));
        HostFloors {
            memcpy_ns_px: memcpy / MEMCPY_PIXELS as f64,
            fma_ns_tap: fma / (FMA_ROWS * FMA_WIDTH * TAPS) as f64,
            parallelism: 2.0 * one / two,
        }
    }

    /// Names of the floors outside [`DRIFT_BOUNDS`].
    pub fn drift(&self) -> Vec<String> {
        DRIFT_BOUNDS
            .iter()
            .filter_map(|&(name, low, high)| {
                let value = match name {
                    "host.memcpy_ns_px" => self.memcpy_ns_px,
                    _ => self.parallelism,
                };
                (!(low..=high).contains(&value))
                    .then(|| format!("{name} = {value:.3} outside [{low}, {high}]"))
            })
            .collect()
    }
}

fn timed<R>(work: impl FnOnce() -> R) -> f64 {
    let start = std::time::Instant::now();
    black_box(work());
    start.elapsed().as_nanos() as f64
}

/// `rows` rows of a 41-tap horizontal FIR in tap-major order: the same
/// independent, vectorizable `mul_add`s the streaming blur issues.
fn fma_rows(rows: usize) -> f32 {
    let weights = [1.0f32 / TAPS as f32; TAPS];
    let input: Vec<f32> = (0..FMA_WIDTH + TAPS)
        .map(|i| (i % 17) as f32 * 0.01)
        .collect();
    let mut acc = vec![0.0f32; FMA_WIDTH];
    let mut checksum = 0.0f32;
    for _ in 0..rows {
        acc.fill(0.0);
        let input = black_box(&input);
        for (k, &w) in weights.iter().enumerate() {
            let window = &input[k..k + FMA_WIDTH];
            for (a, &x) in acc.iter_mut().zip(window) {
                *a = w.mul_add(x, *a);
            }
        }
        checksum += acc[FMA_WIDTH / 2];
    }
    black_box(checksum)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

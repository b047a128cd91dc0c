//! Micro-benchmarks of the fixed-point arithmetic substrate against native
//! `f32`, the software counterpart of the paper's FlP → FxP conversion.

use apfixed::{Fix, Fix16};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;
use tonemap_core::blur::{gaussian_kernel, quantize_kernel};
use tonemap_core::{BlurParams, Sample};

fn arithmetic(c: &mut Criterion) {
    let mut group = c.benchmark_group("fixed_point_arithmetic");
    group
        .sample_size(30)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let xs_f32: Vec<f32> = (0..4096)
        .map(|i| (i as f32 * 0.001).sin() * 0.5 + 0.5)
        .collect();
    let ws_f32: Vec<f32> = (0..4096)
        .map(|i| ((i * 7) as f32 * 0.002).cos() * 0.4 + 0.5)
        .collect();
    let xs_fix: Vec<Fix16> = xs_f32.iter().map(|&v| Fix16::from_f32(v)).collect();
    let ws_fix: Vec<Fix16> = ws_f32.iter().map(|&v| Fix16::from_f32(v)).collect();
    let xs_fix32: Vec<Fix<32, 24>> = xs_f32.iter().map(|&v| Fix::from_f32(v)).collect();
    let ws_fix32: Vec<Fix<32, 24>> = ws_f32.iter().map(|&v| Fix::from_f32(v)).collect();

    group.bench_function("mac_f32", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for (&x, &w) in xs_f32.iter().zip(&ws_f32) {
                acc = w.mul_add(x, acc);
            }
            black_box(acc)
        })
    });
    group.bench_function("mac_fix16", |b| {
        b.iter(|| {
            let mut acc = Fix16::ZERO;
            for (&x, &w) in xs_fix.iter().zip(&ws_fix) {
                acc = w.mul_add(x, acc);
            }
            black_box(acc)
        })
    });
    group.bench_function("mac_fix32", |b| {
        b.iter(|| {
            let mut acc = Fix::<32, 24>::ZERO;
            for (&x, &w) in xs_fix32.iter().zip(&ws_fix32) {
                acc = w.mul_add(x, acc);
            }
            black_box(acc)
        })
    });
    group.bench_function("quantise_f32_to_fix16", |b| {
        b.iter(|| {
            let mut acc = 0i64;
            for &x in &xs_f32 {
                acc = acc.wrapping_add(Fix16::from_f32(x).raw());
            }
            black_box(acc)
        })
    });

    group.finish();
}

/// One tap-major pass of a 41-tap kernel over an edge-padded row: for each
/// tap, one multiply-accumulate across the whole row. The compiler can
/// vectorize its inner loop across pixels — unlike the loop-carried `mac_*`
/// chains above — but every multiply-add loads and stores its accumulator,
/// which the output-stationary passes of `StreamingToneMapper` avoid.
fn tap_major_row<S: Sample>(dst: &mut [S], padded: &[S], kernel: &[S]) {
    let width = dst.len();
    dst.fill(S::zero());
    for (k, &weight) in kernel.iter().enumerate() {
        for (d, &sample) in dst.iter_mut().zip(&padded[k..k + width]) {
            *d = weight.mul_add(sample, *d);
        }
    }
}

fn row_kernels(c: &mut Criterion) {
    const WIDTH: usize = 1024;
    let mut group = c.benchmark_group("tap_major_row_41_taps_1024_px");
    group
        .sample_size(30)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let taps = gaussian_kernel(&BlurParams::paper_default());
    let padded: Vec<f32> = (0..WIDTH + taps.len() - 1)
        .map(|i| (i as f32 * 0.01).sin() * 0.5 + 0.5)
        .collect();

    let kernel_f32 = quantize_kernel::<f32>(&taps);
    let mut row_f32 = vec![0.0f32; WIDTH];
    group.bench_function("f32", |b| {
        b.iter(|| {
            tap_major_row(&mut row_f32, black_box(&padded), &kernel_f32);
            black_box(row_f32[WIDTH / 2])
        })
    });

    let kernel_fix16 = quantize_kernel::<Fix16>(&taps);
    let padded_fix16: Vec<Fix16> = padded.iter().map(|&v| Fix16::from_f32(v)).collect();
    let mut row_fix16 = vec![Fix16::ZERO; WIDTH];
    group.bench_function("fix16", |b| {
        b.iter(|| {
            tap_major_row(&mut row_fix16, black_box(&padded_fix16), &kernel_fix16);
            black_box(row_fix16[WIDTH / 2])
        })
    });

    group.finish();
}

criterion_group!(benches, arithmetic, row_kernels);
criterion_main!(benches);

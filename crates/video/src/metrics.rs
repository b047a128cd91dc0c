//! Inline stability metrics and the scene-cut frame signature.
//!
//! The per-frame statistics — the signature's mean log₂ luminance and
//! histogram, and the Reinhard log-average — sum a logarithm over every
//! sample. Every term is a positive normal float `x = 2^e·m` with `m` in
//! `[1, 2)`, so `Σ log₂ x = Σ e + log₂ Π m`: each lane sums its samples'
//! exponents exactly as integers and multiplies their mantissas, and takes
//! one branch-free [`log2`] of its product per block of [`BLOCK`] samples
//! instead of one per sample. The signature's bins are counted from the
//! same bits, and the frame maximum is folded into the same pass, so a
//! session reads each raw frame once before its executor runs. The lane
//! loops vectorize like the engines' pixel loops and call no libm.

use hdr_image::LuminanceImage;

/// Number of log-luminance bins in a [`Signature`] histogram.
const SIGNATURE_BINS: usize = 16;

/// The signature histogram's bin edges. The histogram spans `[-20, 20]`
/// in log₂ luminance (~12 decades, far beyond any synthetic or
/// photographic input) in 16 bins, so a sample `v` falls in bin
/// `floor((log₂ v + 20) / 40 · 16)`, clamped to the range. Edge `k − 1`
/// (k = 1..=15) is the smallest `f32` whose bin is at least `k`:
/// `2^(2.5k − 20)` rounded up to `f32`. A sample's bin is the number of
/// edges at or below it; the tests derive each edge again from the formula
/// in libm.
const BIN_EDGES: [f32; SIGNATURE_BINS - 1] = [
    5.394797e-6,
    3.0517578e-5,
    0.0001726335,
    0.0009765625,
    0.005524272,
    0.03125,
    0.1767767,
    1.0,
    5.6568546,
    32.0,
    181.01935,
    1024.0,
    5792.619,
    32768.0,
    185363.81,
];

/// The mantissa bits of the smallest `f32` at or above √2.
const SQRT_2_MANTISSA: u32 = 0x35_04f4;

/// A positive normal `f32`'s place on the half-octave grid,
/// `floor(2·log₂ v) + 254`: twice its biased exponent, plus one when its
/// mantissa is at least √2's. Adding `2²³ − SQRT_2_MANTISSA` to the bits
/// carries into the exponent field exactly then.
#[inline(always)]
const fn half_octave(bits: u32) -> u32 {
    (bits >> 23) + ((bits + ((1 << 23) - SQRT_2_MANTISSA)) >> 23)
}

/// Each bin edge's place on the half-octave grid. Edge `k − 1` sits at
/// `floor(2·log₂ v) = 5k − 40`, and each edge is a power of two or √2
/// times one rounded up, so it is the smallest `f32` at its place: a
/// positive normal sample is at or above an edge exactly when its place
/// is.
const EDGE_PLACES: [i16; SIGNATURE_BINS - 1] = {
    let mut places = [0; SIGNATURE_BINS - 1];
    let mut k = 0;
    while k < places.len() {
        places[k] = half_octave(BIN_EDGES[k].to_bits()) as i16;
        k += 1;
    }
    places
};

/// Samples per step of a statistics pass: two 256-bit registers of `f32`
/// input, one of `i16` places, four of `f64` mantissa products.
const LANES: usize = 16;

/// Samples per block of a statistics pass. A lane multiplies at most
/// `BLOCK / LANES` = 256 mantissas in `[1, 2)` before the block flushes
/// its product through [`log2`], so the product stays below 2²⁵⁶ and
/// never overflows; each multiply rounds once. A block's per-lane bin
/// counts fit `u16`, and the log-average maps each block into a stack
/// buffer that stays in L1.
const BLOCK: usize = 4096;

/// The exponent bias of `f32`.
const F32_BIAS: u64 = 127;

/// The exponent bias of `f64`.
const F64_BIAS: u64 = 1023;

/// The mantissa field of an `f32`.
const F32_MANTISSA_MASK: u32 = (1 << 23) - 1;

/// The bits of `1.0f32`.
const F32_ONE_BITS: u32 = 0x3f80_0000;

/// The bits of √½: [`log2`] reduces its argument into `[√½, √2)`.
const SQRT_HALF_BITS: u64 = 0x3fe6_a09e_667f_3bcd;

/// The bits of 1.0.
const ONE_BITS: u64 = 0x3ff0_0000_0000_0000;

/// The mantissa field of an `f64`.
const MANTISSA_MASK: u64 = (1 << 52) - 1;

/// 2⁵²: an integer below it, placed in its mantissa field, converts to
/// `f64` with one subtraction.
const TWO_52: f64 = 4_503_599_627_370_496.0;

/// fdlibm's minimax coefficients (`e_log.c`, `Lg1`–`Lg7`) of
/// `ln(1 + f) = 2s + s·(Lg1·s² + Lg2·s⁴ + … + Lg7·s¹⁴)` with
/// `s = f / (2 + f)`, for `1 + f` in `[√½, √2)`.
const LG: [f64; 7] = [
    0.6666666666666735,
    0.3999999999940942,
    0.2857142874366239,
    0.22222198432149784,
    0.1818357216161805,
    0.15313837699209373,
    0.14798198605116586,
];

/// `log₂ x` for a positive normal `x`, within 2 ulp of libm, with no
/// branch or table lookup, so lane loops over it vectorize.
///
/// It splits `x = 2^k · m` with `m` in `[√½, √2)`, evaluates `ln m` as
/// fdlibm's `log` does, and returns `k + ln m · log₂ e`. Zero, negative,
/// subnormal and non-finite arguments are outside its domain; callers
/// floor their samples first.
#[inline(always)]
fn log2(x: f64) -> f64 {
    // Adding `1.0 − √½` to the bits carries into the exponent field
    // exactly when the mantissa is at least √2's.
    let t = x.to_bits() + (ONE_BITS - SQRT_HALF_BITS);
    let k = f64::from_bits((t >> 52) | TWO_52.to_bits()) - (TWO_52 + 1023.0);
    let m = f64::from_bits((t & MANTISSA_MASK) + SQRT_HALF_BITS);
    let f = m - 1.0;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let even = w * w.mul_add(w.mul_add(LG[5], LG[3]), LG[1]);
    let odd = z * w.mul_add(w.mul_add(w.mul_add(LG[6], LG[4]), LG[2]), LG[0]);
    let half_f2 = 0.5 * f * f;
    let ln_m = f - (half_f2 - s * (half_f2 + (odd + even)));
    ln_m.mul_add(std::f64::consts::LOG2_E, k)
}

/// The signature's view of a raw sample: non-finite and non-positive
/// samples count as the 10⁻⁶ luminance floor.
#[inline(always)]
fn signature_sample(v: f32) -> f32 {
    if v.is_finite() {
        v.max(1e-6)
    } else {
        1e-6
    }
}

/// A running `Σ log₂` over positive normal floats: the exact sum of their
/// biased exponents and, per lane, the sum of the `log₂` of each block's
/// mantissa product.
#[derive(Default)]
struct Log2Sum {
    exponents: u64,
    mantissas: [f64; LANES],
}

impl Log2Sum {
    /// Adds a block's per-lane exponent sums and mantissa products: one
    /// [`log2`] per lane.
    fn flush<E: Copy + Into<u64>>(&mut self, exponents: &[E; LANES], products: &[f64; LANES]) {
        self.exponents += exponents.iter().map(|&e| e.into()).sum::<u64>();
        for (sum, &product) in self.mantissas.iter_mut().zip(products) {
            *sum += log2(product);
        }
    }

    /// The mean `log₂` of `count` flushed samples whose exponents carry
    /// `bias`.
    fn mean(&self, bias: u64, count: usize) -> f64 {
        let exponents = self.exponents as i64 - (bias * count as u64) as i64;
        let sum = exponents as f64 + self.mantissas.iter().sum::<f64>();
        sum / count.max(1) as f64
    }
}

/// Per-frame stability metrics, computed inline by
/// [`VideoSession::process`](crate::VideoSession::process).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameMetrics {
    /// Zero-based index of the frame within the stream.
    pub index: usize,
    /// `true` when the scene-cut detector fired on this frame (the
    /// adaptation state was reset before tone mapping it).
    pub scene_cut: bool,
    /// Mean display-referred output brightness of the frame.
    pub mean_brightness: f64,
    /// `|Δ mean_brightness|` against the previous frame — the flicker
    /// observable; `None` on the first frame.
    pub flicker_delta: Option<f64>,
    /// Per-pixel temporal PSNR (dB, peak 1.0) against the previous output
    /// frame; infinite when bit-identical, `None` on the first frame or
    /// after a resolution change.
    pub temporal_psnr_db: Option<f64>,
}

/// Whole-stream aggregate of the per-frame metrics
/// ([`VideoSession::summary`](crate::VideoSession::summary)).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSummary {
    /// Frames processed since construction (or the last reset).
    pub frames: usize,
    /// Frame indices where the scene-cut detector fired.
    pub cuts: Vec<usize>,
    /// Mean flicker delta across all frame pairs (cut frames included);
    /// `0.0` with fewer than two frames.
    pub mean_flicker: f64,
    /// Largest single flicker delta observed.
    pub peak_flicker: f64,
    /// Smallest temporal PSNR observed (dB); infinite when every measured
    /// pair was bit-identical (or none was measured).
    pub min_temporal_psnr_db: f64,
}

/// A compact statistical fingerprint of a raw HDR frame, used by the
/// scene-cut detector: mean log₂ luminance plus a 16-bin log-luminance
/// histogram (as fractions). Distance between signatures is
/// `|Δ mean| + L1(histograms)` — content changes move the histogram
/// (bounded contribution of 2), exposure changes move the mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Signature {
    mean_log2: f64,
    histogram: [f64; SIGNATURE_BINS],
}

impl Signature {
    /// Fingerprints a raw (scene-referred) frame. Non-finite and
    /// non-positive pixels count as the 10⁻⁶ luminance floor.
    pub fn of(frame: &LuminanceImage) -> Self {
        signature_and_max(frame).0
    }

    /// Distance to another signature: `|Δ mean_log2|` plus the L1 distance
    /// of the histogram fractions (the latter bounded by 2).
    pub fn distance(&self, other: &Signature) -> f64 {
        let hist: f64 = self
            .histogram
            .iter()
            .zip(&other.histogram)
            .map(|(a, b)| (a - b).abs())
            .sum();
        (self.mean_log2 - other.mean_log2).abs() + hist
    }

    /// The frame's mean log₂ luminance.
    pub fn mean_log2(&self) -> f64 {
        self.mean_log2
    }
}

/// One pass over a raw frame: its [`Signature`] and its largest finite
/// sample, or +0 when no sample is finite and positive.
///
/// The maximum equals [`max_pixel`](tonemap_core::normalize::max_pixel)
/// bit for bit: every lane starts at +0 and takes a finite sample only when
/// it is strictly larger, as `max_pixel`'s lanes do, and the result of that
/// rule does not depend on the order of the fold.
pub(crate) fn signature_and_max(frame: &LuminanceImage) -> (Signature, f32) {
    let mut pass = RawPass {
        log2: Log2Sum::default(),
        at_least: [0; SIGNATURE_BINS - 1],
        max: 0.0,
        places: [[0; LANES]; BLOCK / LANES],
    };
    let (steps, tail) = frame.pixels().as_chunks::<LANES>();
    for block in steps.chunks(BLOCK / LANES) {
        pass.add_block(block, LANES);
    }
    if !tail.is_empty() {
        let mut padded = [0.0f32; LANES];
        padded[..tail.len()].copy_from_slice(tail);
        pass.add_block(&[padded], tail.len());
    }
    let total = frame.pixel_count().max(1) as f64;
    // Bin b holds the samples at or above `BIN_EDGES[b − 1]` but below
    // `BIN_EDGES[b]`.
    let mut histogram = [0.0f64; SIGNATURE_BINS];
    let mut above = frame.pixel_count() as u64;
    for (slot, next) in histogram
        .iter_mut()
        .zip(pass.at_least.into_iter().chain([0]))
    {
        *slot = (above - next) as f64 / total;
        above = next;
    }
    let signature = Signature {
        mean_log2: pass.log2.mean(F32_BIAS, frame.pixel_count()),
        histogram,
    };
    (signature, pass.max)
}

/// The raw-frame pass's running totals, and the places of the block in
/// flight.
struct RawPass {
    log2: Log2Sum,
    /// Per bin edge, the samples at or above it.
    at_least: [u64; SIGNATURE_BINS - 1],
    max: f32,
    places: [[i16; LANES]; BLOCK / LANES],
}

impl RawPass {
    /// Adds a block of at most `BLOCK / LANES` steps whose leading `valid`
    /// lanes hold raw samples. The rest are +0 padding: they keep +0 bits
    /// — exponent 0, mantissa 1, a place below every edge — and never
    /// raise the maximum, so they add nothing.
    ///
    /// A first loop keeps the log₂ terms and the maximum in registers and
    /// writes each sample's place to a buffer in L1; a second counts the
    /// places at or above each edge. On an x86-64-v3 Xeon at 640×360 the
    /// two loops ran 0.3–0.5 ns/px faster than one loop over both.
    #[inline(always)]
    fn add_block(&mut self, steps: &[[f32; LANES]], valid: usize) {
        let mut exponents = [0u32; LANES];
        let mut products = [1.0f64; LANES];
        let mut max = [0.0f32; LANES];
        for (step, places) in steps.iter().zip(&mut self.places) {
            let mut bits = [0u32; LANES];
            for ((bits, max), &v) in bits.iter_mut().zip(&mut max).zip(step).take(valid) {
                let finite = if v.is_finite() { v } else { 0.0 };
                *max = if finite > *max { finite } else { *max };
                *bits = signature_sample(v).to_bits();
            }
            for (exponent, &bits) in exponents.iter_mut().zip(&bits) {
                *exponent += bits >> 23;
            }
            for (product, &bits) in products.iter_mut().zip(&bits) {
                *product *= f64::from(f32::from_bits((bits & F32_MANTISSA_MASK) | F32_ONE_BITS));
            }
            for (place, &bits) in places.iter_mut().zip(&bits) {
                *place = half_octave(bits) as i16;
            }
        }
        self.log2.flush(&exponents, &products);
        self.max = max
            .into_iter()
            .fold(self.max, |max, v| if v > max { v } else { max });
        let mut at_least = [[0u16; LANES]; SIGNATURE_BINS - 1];
        for places in &self.places[..steps.len()] {
            for (counts, &edge) in at_least.iter_mut().zip(&EDGE_PLACES) {
                for (count, &place) in counts.iter_mut().zip(places) {
                    *count += u16::from(place >= edge);
                }
            }
        }
        for (total, lanes) in self.at_least.iter_mut().zip(&at_least) {
            *total += lanes.iter().map(|&count| u64::from(count)).sum::<u64>();
        }
    }
}

/// The mean of `ln(10⁻⁴ + max(v, 0))` over `frame` mapped through `sample`
/// — the register an executor ingests — without building that register:
/// the log-average observation behind Reinhard key adaptation. `sample`
/// returns finite values, as the executor's ingest does. Each block is
/// mapped into a stack buffer and summed there, so both loops vectorize.
/// The floor at 0 keeps the mean finite when the register holds negative
/// samples, which it does when a frame's maximum is not positive and the
/// frame is therefore not scaled.
pub(crate) fn log_average(frame: &LuminanceImage, sample: impl Fn(f32) -> f32) -> f64 {
    let mut log2 = Log2Sum::default();
    let mut buffer = [[0.0f32; LANES]; BLOCK / LANES];
    let (steps, tail) = frame.pixels().as_chunks::<LANES>();
    for block in steps.chunks(BLOCK / LANES) {
        let register = &mut buffer[..block.len()];
        for (slot, &v) in register
            .as_flattened_mut()
            .iter_mut()
            .zip(block.as_flattened())
        {
            *slot = sample(v);
        }
        add_log_average_block(&mut log2, register, LANES);
    }
    if !tail.is_empty() {
        let mut padded = [0.0f32; LANES];
        for (slot, &v) in padded.iter_mut().zip(tail) {
            *slot = sample(v);
        }
        add_log_average_block(&mut log2, &[padded], tail.len());
    }
    log2.mean(F64_BIAS, frame.pixel_count()) * std::f64::consts::LN_2
}

/// Adds the terms `10⁻⁴ + max(v, 0)` of a block of register steps whose
/// leading `valid` lanes hold samples; the padded lanes keep +0 bits, so
/// they add nothing.
#[inline(always)]
fn add_log_average_block(log2: &mut Log2Sum, steps: &[[f32; LANES]], valid: usize) {
    let mut exponents = [0u64; LANES];
    let mut products = [1.0f64; LANES];
    for step in steps {
        let mut bits = [0u64; LANES];
        for (bits, &v) in bits.iter_mut().zip(step).take(valid) {
            *bits = (1e-4 + f64::from(v.max(0.0))).to_bits();
        }
        for (exponent, &bits) in exponents.iter_mut().zip(&bits) {
            *exponent += bits >> 52;
        }
        for (product, &bits) in products.iter_mut().zip(&bits) {
            *product *= f64::from_bits((bits & MANTISSA_MASK) | ONE_BITS);
        }
    }
    log2.flush(&exponents, &products);
}

/// The output pass of a frame: its mean brightness and, when `previous`
/// holds an output of the same dimensions, the per-pixel temporal PSNR
/// against it (dB, peak 1.0; infinite when bit-identical, `None`
/// otherwise). The frame then replaces `previous`, copied into its buffer
/// when the dimensions match.
///
/// Both sums run sequentially from `Iterator::sum`'s −0.0, so they equal
/// [`LuminanceImage::mean`] and a separate PSNR pass bit for bit.
pub(crate) fn output_metrics(
    current: &LuminanceImage,
    previous: &mut Option<LuminanceImage>,
) -> (f64, Option<f64>) {
    match previous {
        Some(kept) if kept.dimensions() == current.dimensions() => {
            let (mut sum, mut squares) = (-0.0f64, -0.0f64);
            for (kept, &v) in kept.pixels_mut().iter_mut().zip(current.pixels()) {
                sum += f64::from(v);
                let d = f64::from(*kept) - f64::from(v);
                squares += d * d;
                *kept = v;
            }
            let pixels = current.pixel_count() as f64;
            let mse = squares / pixels.max(1.0);
            let psnr = if mse == 0.0 {
                f64::INFINITY
            } else {
                10.0 * (1.0 / mse).log10()
            };
            (sum / pixels, Some(psnr))
        }
        _ => {
            *previous = Some(current.clone());
            (current.mean(), None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdr_image::sequence::{FrameSequence, SequenceKind};
    use hdr_image::synth::SceneKind;
    use tonemap_core::normalize::{max_pixel, normalize_sample};

    /// The libm signature the lane pass replaced: the reference it must
    /// match — bins bit for bit, the mean within [`LOG2_MEAN_BOUND`].
    fn reference_signature(frame: &LuminanceImage) -> Signature {
        let mut sum = 0.0f64;
        let mut counts = [0u64; SIGNATURE_BINS];
        for &v in frame.pixels() {
            let v = if v.is_finite() { v.max(1e-6) } else { 1e-6 };
            sum += f64::from(v).log2();
            counts[reference_bin(v)] += 1;
        }
        let total = frame.pixel_count().max(1) as f64;
        let mut histogram = [0.0f64; SIGNATURE_BINS];
        for (slot, count) in histogram.iter_mut().zip(counts) {
            *slot = count as f64 / total;
        }
        Signature {
            mean_log2: sum / total,
            histogram,
        }
    }

    /// The reference bin of a raw sample, over `[-20, 20]` in log₂.
    fn reference_bin(v: f32) -> usize {
        const SPAN: f64 = 40.0;
        let v = if v.is_finite() { v.max(1e-6) } else { 1e-6 };
        let bin = ((f64::from(v).log2() + SPAN / 2.0) / SPAN * SIGNATURE_BINS as f64).floor();
        (bin.max(0.0) as usize).min(SIGNATURE_BINS - 1)
    }

    /// The libm log-average the lane pass replaced, with its floor at 0.
    fn reference_mean_ln(register: &LuminanceImage) -> f64 {
        let sum: f64 = register
            .pixels()
            .iter()
            .map(|&v| (1e-4 + f64::from(v.max(0.0))).ln())
            .sum();
        sum / register.pixel_count().max(1) as f64
    }

    /// The separate PSNR pass the output pass replaced.
    fn reference_psnr(previous: &LuminanceImage, current: &LuminanceImage) -> Option<f64> {
        if previous.dimensions() != current.dimensions() {
            return None;
        }
        let sum: f64 = previous
            .pixels()
            .iter()
            .zip(current.pixels())
            .map(|(&a, &b)| {
                let d = f64::from(a) - f64::from(b);
                d * d
            })
            .sum();
        let mse = sum / previous.pixel_count().max(1) as f64;
        Some(if mse == 0.0 {
            f64::INFINITY
        } else {
            10.0 * (1.0 / mse).log10()
        })
    }

    /// Largest distance of the lane passes' mean log₂ and log-average from
    /// the libm reference, on frames up to 4096×2160.
    const LOG2_MEAN_BOUND: f64 = 1e-11;

    /// A sample's bin as the lane pass counts it: the edges at or below it.
    fn edge_bin(v: f32) -> usize {
        let v = signature_sample(v);
        BIN_EDGES.iter().filter(|&&edge| v >= edge).count()
    }

    fn row(pixels: Vec<f32>) -> LuminanceImage {
        LuminanceImage::from_vec(pixels.len(), 1, pixels).expect("a non-empty row")
    }

    /// Differences between `a` and `b` in units in the last place.
    fn ulps(a: f64, b: f64) -> u64 {
        assert_eq!(a.is_sign_negative(), b.is_sign_negative(), "{a} vs {b}");
        a.to_bits().abs_diff(b.to_bits())
    }

    /// xorshift64: a seeded stream of uniform values in `[0, 1)`.
    fn uniforms(mut state: u64) -> impl Iterator<Item = f64> {
        std::iter::repeat_with(move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        })
    }

    #[test]
    fn identical_frames_have_zero_distance_and_infinite_psnr() {
        let frame = SceneKind::WindowInDarkRoom.generate(32, 24, 3);
        let signature = Signature::of(&frame);
        assert_eq!(signature.distance(&signature), 0.0);
        let mut previous = Some(frame.clone());
        let (_, psnr) = output_metrics(&frame, &mut previous);
        assert!(psnr.unwrap().is_infinite());
    }

    #[test]
    fn scene_changes_and_exposure_steps_both_move_the_signature() {
        let a = SceneKind::WindowInDarkRoom.generate(32, 24, 3);
        let b = SceneKind::SunAndShadow.generate(32, 24, 3);
        assert!(Signature::of(&a).distance(&Signature::of(&b)) > 0.5);
        // A two-decade exposure step moves the mean by ~6.6 log2 units.
        let brighter = a.map(|&v| v * 100.0);
        assert!(Signature::of(&a).distance(&Signature::of(&brighter)) > 5.0);
    }

    #[test]
    fn psnr_is_finite_for_differing_frames_and_none_across_resolutions() {
        let a = LuminanceImage::filled(8, 8, 0.25);
        let b = LuminanceImage::filled(8, 8, 0.5);
        let mut previous = Some(a);
        let db = output_metrics(&b, &mut previous).1.unwrap();
        assert!(db.is_finite() && db > 0.0);
        assert_eq!(
            previous.as_ref(),
            Some(&b),
            "the output pass keeps the frame"
        );
        let other = LuminanceImage::filled(4, 4, 0.5);
        assert_eq!(output_metrics(&other, &mut previous).1, None);
        assert_eq!(previous, Some(other));
    }

    #[test]
    fn the_output_pass_equals_mean_and_a_separate_psnr_pass_bit_for_bit() {
        let frames = FrameSequence::new(
            SequenceKind::ExposureRamp { decades: 1.0 },
            SceneKind::MemorialComposite,
            37,
            23,
            4,
            5,
        );
        let mut previous = None;
        let mut last: Option<LuminanceImage> = None;
        for frame in frames.frames() {
            let output = frame.map(|&v| (v / (1.0 + v)).sqrt());
            let (mean, psnr) = output_metrics(&output, &mut previous);
            assert_eq!(mean.to_bits(), output.mean().to_bits());
            let expected = last.as_ref().and_then(|last| reference_psnr(last, &output));
            assert_eq!(psnr.map(f64::to_bits), expected.map(f64::to_bits));
            last = Some(output);
        }
        // Signed zeros too: an all-(−0) frame keeps `mean`'s −0.
        let negative_zero = LuminanceImage::filled(3, 3, -0.0f32);
        let mut previous = Some(negative_zero.clone());
        let (mean, _) = output_metrics(&negative_zero, &mut previous);
        assert_eq!(mean.to_bits(), negative_zero.mean().to_bits());
    }

    #[test]
    fn bin_edges_are_the_reference_bin_boundaries() {
        for (index, &edge) in BIN_EDGES.iter().enumerate() {
            let bin = index + 1;
            // The smallest positive `f32` whose reference bin reaches
            // `bin`, by bisection over the ordered bit patterns.
            let (mut below, mut at) = (0u32, f32::MAX.to_bits());
            while at - below > 1 {
                let mid = below + (at - below) / 2;
                if reference_bin(f32::from_bits(mid)) >= bin {
                    at = mid;
                } else {
                    below = mid;
                }
            }
            assert_eq!(edge.to_bits(), at, "edge of bin {bin}");
        }
    }

    #[test]
    fn bins_match_the_reference_near_every_edge_and_on_special_values() {
        const REACH: u32 = 1 << 16;
        for &edge in &BIN_EDGES {
            let bits = edge.to_bits();
            let near: Vec<f32> = (bits - REACH..=bits + REACH).map(f32::from_bits).collect();
            for &v in &near {
                assert_eq!(edge_bin(v), reference_bin(v), "{v:e} near edge {edge:e}");
            }
            let frame = row(near);
            assert_eq!(
                Signature::of(&frame).histogram,
                reference_signature(&frame).histogram
            );
        }
        let floor = 1e-6f32.to_bits();
        let special = [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            -0.5,
            -f32::MAX,
            f32::from_bits(1),
            f32::from_bits(floor - 1),
            1e-6,
            f32::from_bits(floor + 1),
            f32::MAX,
        ];
        for v in special {
            let pixel = row(vec![v]);
            let (lanes, reference) = (Signature::of(&pixel), reference_signature(&pixel));
            assert_eq!(lanes.histogram, reference.histogram, "{v:e}");
            assert_eq!(edge_bin(v), reference_bin(v), "{v:e}");
            assert!(ulps(lanes.mean_log2, reference.mean_log2) <= 2, "{v:e}");
        }
    }

    #[test]
    fn the_log2_kernel_is_within_two_ulp_of_libm() {
        // Every 251st `f32` from the signature's floor to `f32::MAX`: the
        // signature's whole domain.
        let mut bits = 1e-6f32.to_bits();
        while bits <= f32::MAX.to_bits() {
            let x = f64::from(f32::from_bits(bits));
            assert!(ulps(log2(x), x.log2()) <= 2, "log2({x:e})");
            bits += 251;
        }
        // The log-average's domain, 1e-4 + [0, 2), as `ln`.
        for v in uniforms(17).take(200_000) {
            let x = 1e-4 + 2.0 * v;
            let ln = log2(x) * std::f64::consts::LN_2;
            assert!(ulps(ln, x.ln()) <= 3, "ln({x:e})");
        }
        // Positive normal `f64`s of every exponent.
        let (min, max) = (f64::MIN_POSITIVE.to_bits(), f64::MAX.to_bits());
        for v in uniforms(29).take(200_000) {
            let x = f64::from_bits(min + (v * (max - min) as f64) as u64);
            assert!(ulps(log2(x), x.log2()) <= 2, "log2({x:e})");
        }
    }

    /// Asserts that the lane passes bin `frame` exactly as the reference
    /// does and keep its mean log₂ and log-average within the bound.
    fn assert_lane_means_within_bound(frame: &LuminanceImage) {
        let (lanes, reference) = (Signature::of(frame), reference_signature(frame));
        assert_eq!(lanes.histogram, reference.histogram);
        let error = (lanes.mean_log2 - reference.mean_log2).abs();
        assert!(error <= LOG2_MEAN_BOUND, "mean log2 off by {error:e}");
        let mean_ln = log_average(frame, |v| v);
        let error = (mean_ln - reference_mean_ln(frame)).abs();
        assert!(error <= LOG2_MEAN_BOUND, "log-average off by {error:e}");
    }

    #[test]
    fn lane_means_stay_within_the_bound_on_every_lane_tail() {
        let mut values = uniforms(2018);
        for len in 1..=33 {
            // Twelve decades, 1e-6..1e6, a tenth of them negative.
            let frame = row((0..len)
                .map(|_| {
                    let v = 10f64.powf(12.0 * values.next().unwrap() - 6.0) as f32;
                    if values.next().unwrap() < 0.1 {
                        -v
                    } else {
                        v
                    }
                })
                .collect());
            assert_lane_means_within_bound(&frame);
        }
    }

    #[test]
    fn lane_means_stay_within_the_bound_on_every_scene() {
        for scene in SceneKind::ALL {
            assert_lane_means_within_bound(&scene.generate(1024, 768, 9));
        }
    }

    /// The mean of `terms` with Neumaier's compensated sum. A plain
    /// sequential sum drifts by up to half an ulp of the running sum per
    /// term: over 12,303 copies of log₂(`f32::MAX`) its mean is 1.5e-11
    /// off, beyond the bound.
    fn compensated_mean(terms: impl Iterator<Item = f64>) -> f64 {
        let (mut sum, mut compensation, mut count) = (0.0f64, 0.0f64, 0usize);
        for term in terms {
            let next = sum + term;
            compensation += if sum.abs() >= term.abs() {
                (sum - next) + term
            } else {
                (term - next) + sum
            };
            sum = next;
            count += 1;
        }
        (sum + compensation) / count.max(1) as f64
    }

    /// Asserts that one raw-frame pass bins `frame` exactly as the
    /// reference does, keeps its mean log₂ and the log-average of its
    /// unscaled register within the bound of the libm terms' mean, and
    /// takes its maximum bit for bit as `max_pixel` does.
    fn assert_block_sums_within_bound(frame: &LuminanceImage) {
        let (signature, max) = signature_and_max(frame);
        assert_eq!(signature.histogram, reference_signature(frame).histogram);
        let log2s = frame
            .pixels()
            .iter()
            .map(|&v| f64::from(signature_sample(v)).log2());
        let error = (signature.mean_log2 - compensated_mean(log2s)).abs();
        assert!(error <= LOG2_MEAN_BOUND, "mean log2 off by {error:e}");
        // The executor's ingest without a scale: non-finite samples read 0.
        let ingest = |v| normalize_sample(v, None);
        let lns = frame
            .pixels()
            .iter()
            .map(|&v| (1e-4 + f64::from(ingest(v).max(0.0))).ln());
        let error = (log_average(frame, ingest) - compensated_mean(lns)).abs();
        assert!(error <= LOG2_MEAN_BOUND, "log-average off by {error:e}");
        assert_eq!(max.to_bits(), max_pixel(frame).to_bits());
    }

    /// A row of `len` samples over twelve decades, 1e-6..1e6.
    fn twelve_decades(len: usize, values: &mut impl Iterator<Item = f64>) -> LuminanceImage {
        row((0..len)
            .map(|_| 10f64.powf(12.0 * values.next().unwrap() - 6.0) as f32)
            .collect())
    }

    #[test]
    fn each_edge_is_the_smallest_f32_at_its_half_octave_place() {
        for (k, (&edge, &place)) in (1..).zip(BIN_EDGES.iter().zip(&EDGE_PLACES)) {
            // Edge k − 1 sits at floor(2·log₂ v) = 5k − 40.
            assert_eq!(i32::from(place), 5 * k - 40 + 254, "edge {edge:e}");
            let bits = edge.to_bits();
            assert_eq!(
                half_octave(bits - 1) + 1,
                half_octave(bits),
                "edge {edge:e}"
            );
        }
        // The floor and the +0 padding sit below every edge.
        for bits in [1e-6f32.to_bits(), 0] {
            let place = half_octave(bits) as i16;
            assert!(EDGE_PLACES.iter().all(|&edge| place < edge), "{bits:#x}");
        }
    }

    #[test]
    fn block_sums_stay_within_the_bound_on_extreme_frames() {
        // Every mantissa all ones, the largest products a lane can take,
        // over every exponent from the signature's floor to `f32::MAX`'s.
        let all_ones =
            (107..=254u32).map(|exponent| f32::from_bits((exponent << 23) | F32_MANTISSA_MASK));
        assert_block_sums_within_bound(&row(all_ones.cycle().take(3 * BLOCK + 7).collect()));
        for len in [BLOCK, 3 * BLOCK + 15] {
            assert_block_sums_within_bound(&row(vec![f32::MAX; len]));
        }
        // Every sample at the floor.
        let floor = [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            -1.0,
            -f32::MAX,
            f32::from_bits(1),
            f32::from_bits(F32_MANTISSA_MASK),
        ];
        assert_block_sums_within_bound(&row(floor.into_iter().cycle().take(BLOCK + 9).collect()));
        // Positive samples of every exponent, up to `f32::MAX`, unscaled.
        let mut values = uniforms(4096);
        let top = f64::from(f32::MAX.to_bits());
        let wide =
            (0..2 * BLOCK + 3).map(|_| f32::from_bits(1 + (values.next().unwrap() * top) as u32));
        assert_block_sums_within_bound(&row(wide.collect()));
        // Around one block, and every tail after three.
        let lengths = [BLOCK - 1, BLOCK, BLOCK + 1]
            .into_iter()
            .chain((1..LANES).map(|tail| 3 * BLOCK + tail));
        for len in lengths {
            assert_block_sums_within_bound(&twelve_decades(len, &mut values));
        }
    }

    #[test]
    fn the_pass_maximum_equals_max_pixel_bit_for_bit() {
        let non_positive = [
            -0.0,
            0.0,
            -1.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -f32::MAX,
        ];
        let non_positive = row(non_positive.into_iter().cycle().take(BLOCK + 5).collect());
        assert_eq!(
            signature_and_max(&non_positive).1.to_bits(),
            0.0f32.to_bits()
        );
        let mut values = uniforms(29);
        let mut frames: Vec<LuminanceImage> = SceneKind::ALL
            .iter()
            .map(|scene| scene.generate(37, 23, 5))
            .collect();
        for len in [2, LANES - 1, LANES + 1, BLOCK + 3] {
            // +∞ first, and the largest finite sample last, in a tail lane.
            let mut frame = twelve_decades(len, &mut values);
            frame.pixels_mut()[0] = f32::INFINITY;
            frame.pixels_mut()[len - 1] = 2e6;
            frames.push(frame);
        }
        frames.push(row(vec![f32::INFINITY, f32::from_bits(1), -0.0]));
        for frame in &frames {
            assert_eq!(
                signature_and_max(frame).1.to_bits(),
                max_pixel(frame).to_bits()
            );
        }
    }

    #[test]
    fn cut_decisions_match_the_reference_on_every_sequence_and_scene() {
        let kinds = [
            SequenceKind::Static,
            SequenceKind::Pan {
                pixels_per_frame: 3,
            },
            SequenceKind::ExposureRamp { decades: 1.0 },
            SequenceKind::RampWithCut {
                decades: 1.0,
                cut_at: 3,
            },
        ];
        for kind in kinds {
            for scene in SceneKind::ALL {
                let frames = FrameSequence::new(kind, scene, 48, 36, 6, 31);
                let signatures: Vec<(Signature, Signature)> = frames
                    .frames()
                    .map(|frame| (Signature::of(&frame), reference_signature(&frame)))
                    .collect();
                for pair in signatures.windows(2) {
                    let (lanes, reference) = (
                        pair[1].0.distance(&pair[0].0),
                        pair[1].1.distance(&pair[0].1),
                    );
                    for threshold in [0.05, 0.5, 1.0, 4.0] {
                        assert_eq!(
                            lanes > threshold,
                            reference > threshold,
                            "{kind:?} {scene:?}: {lanes} vs {reference} at {threshold}"
                        );
                    }
                }
            }
        }
    }
}

//! The `f32` point path's power function: one branch-free, table-free
//! `exp2`/`log2` pair and the `pow` built from them.
//!
//! Masking raises every sample to a mask-driven exponent `2^(strength·c)`,
//! and the gamma curve raises it to a constant one. Through libm that is
//! one or two opaque calls per sample, and they keep every row kernel
//! scalar. These bodies are plain arithmetic, bit operations and selects,
//! so each row loop that calls them vectorizes. `impl Sample for f32`
//! routes `powf` and `exp2` here. `f64` keeps libm as the reference, and
//! `apfixed::Fix` keeps its own `powf_approx`.
//!
//! Accuracy, enforced by this module's tests against libm:
//!
//! * [`exp2`] is within 2 ulp for `|x| ≤ 126`. A result below 2⁻¹²⁶ (a
//!   subnormal) is flushed to 0, and from `x ≥ 127.5` on it is `+∞`.
//! * [`pow`], after the callers' `clamp01`, is within 2⁻²² absolute over
//!   bases in `[0, 1]` (subnormals included) and exponents in `[0, +∞]`.
//! * These cases are exact, as in libm: `pow(0, e > 0) = 0`,
//!   `pow(x, 0) = 1` (also `0⁰`) and `pow(1, e) = 1` (also `e = +∞`). A
//!   NaN or negative base counts as 0.

use std::f32::consts::LOG2_E;

/// `1.5·2²³`: adding it rounds an `f32` in `[−2²², 2²²]` to the nearest
/// integer (ties to even), which then sits in the low mantissa bits.
const ROUND_MAGIC: f32 = 12_582_912.0;

/// `(2^f − 1)/f` on `f ∈ [−½, ½]`, highest power first: a Chebyshev fit
/// whose `1 + f·q(f)` is within 2⁻²⁷·⁵ of `2^f` relatively.
const EXP2_POLY: [f32; 6] = [
    1.545_316_3e-4,
    1.339_086_3e-3,
    9.618_083e-3,
    5.550_357e-2,
    2.402_265e-1,
    6.931_472e-1,
];

/// `R(z)/z`, highest power first, for `ln(1 + f) = f − f²/2 + s·(f²/2 +
/// R(s²))` with `s = f/(2 + f)` and `s² ≤ (3 − 2√2)²`: a Chebyshev fit
/// within 2⁻²⁸ of `ln(1 + f)` relatively.
const LN_POLY: [f32; 3] = [2.957_995e-1, 3.998_878e-1, 6.666_668_5e-1];

/// The bits of `√½`: a mantissa at or above `√2`'s carries into the
/// exponent, so the reduced mantissa lies in `[√½, √2)`.
const SQRT_HALF_BITS: u32 = 0x3f35_04f3;
const ONE_BITS: u32 = 0x3f80_0000;
const MANTISSA_MASK: u32 = (1 << 23) - 1;

/// `2^x`.
///
/// The argument is clamped to `[−126, 128]` first, so the scale `2^n` is
/// always a normal number and the result of every lane is at least 2⁻¹²⁶:
/// no lane computes a subnormal, which x86 cores handle in a microcode
/// assist slower than the libm call this replaces. Lanes below −126 are
/// then flushed to 0. NaN stays NaN.
#[inline]
pub(crate) fn exp2(x: f32) -> f32 {
    let clamped = x.clamp(-126.0, 128.0);
    let shifted = clamped + ROUND_MAGIC;
    let f = clamped - (shifted - ROUND_MAGIC);
    let q = f.mul_add(EXP2_POLY[0], EXP2_POLY[1]);
    let q = f.mul_add(q, EXP2_POLY[2]);
    let q = f.mul_add(q, EXP2_POLY[3]);
    let q = f.mul_add(q, EXP2_POLY[4]);
    let q = f.mul_add(q, EXP2_POLY[5]);
    let p = f.mul_add(q, 1.0);
    // The low bits of `shifted` are `n`; moved into the exponent field
    // with the bias they are `2^n`, +∞ at n = 128.
    let exponent = shifted.to_bits().wrapping_sub(ROUND_MAGIC.to_bits() - 127);
    let scaled = p * f32::from_bits(exponent << 23);
    if x < -126.0 {
        0.0
    } else {
        scaled
    }
}

/// `log2(x)` for `x ≥ 0`, with `log2(0) = −∞` and `log2(+∞) = +∞`.
#[inline]
fn log2(x: f32) -> f32 {
    // A subnormal's bits, read as an integer, are its value in units of
    // 2⁻¹⁴⁹: converting them gives a normal `f32` and a −149 bias without
    // any arithmetic on a subnormal.
    let bits = x.to_bits();
    let (normal, bias) = if bits < f32::MIN_POSITIVE.to_bits() {
        (bits as f32, -149.0)
    } else {
        (x, 0.0)
    };
    let t = normal.to_bits() + (ONE_BITS - SQRT_HALF_BITS);
    let k = ((t >> 23) as i32 - 127) as f32 + bias;
    let m = f32::from_bits((t & MANTISSA_MASK) + SQRT_HALF_BITS);
    let f = m - 1.0;
    let s = f / (2.0 + f);
    let z = s * s;
    let r = z * z.mul_add(z.mul_add(LN_POLY[0], LN_POLY[1]), LN_POLY[2]);
    let half_f2 = 0.5 * f * f;
    let ln_m = f - (half_f2 - s * (half_f2 + r));
    let log2 = ln_m.mul_add(LOG2_E, k);
    if x == 0.0 {
        f32::NEG_INFINITY
    } else if x == f32::INFINITY {
        x
    } else {
        log2
    }
}

/// `x^e`, with a NaN or negative base counted as 0.
#[inline]
pub(crate) fn pow(x: f32, e: f32) -> f32 {
    let t = e * log2(x.max(0.0));
    // `0·∞` is NaN: a zero or infinite base at `e = 0`, or the base 1 at
    // `e = ±∞`. libm's result is 1 = 2⁰ in every such case.
    exp2(if t.is_nan() { 0.0 } else { t })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distance in units in the last place between two finite `f32`s of
    /// the same sign.
    fn ulps(a: f32, b: f32) -> u32 {
        a.to_bits().abs_diff(b.to_bits())
    }

    /// Every `stride`-th `f32` bit pattern from `from` to `to` (both
    /// non-negative), plus `to` itself.
    fn sweep(from: f32, to: f32, stride: u32) -> impl Iterator<Item = f32> {
        (from.to_bits()..to.to_bits())
            .step_by(stride as usize)
            .chain([to.to_bits()])
            .map(f32::from_bits)
    }

    /// libm's `pow` after the callers' clamp, the reference of [`pow`].
    fn libm_pow(x: f32, e: f32) -> f32 {
        x.max(0.0).powf(e).clamp(0.0, 1.0)
    }

    /// Exponents from 0 to +∞: zero, a geometric grid from 2⁻³⁰ to 2⁶⁴
    /// in quarter octaves, every masking exponent of the default strength
    /// (`2^(3c)` for `c` in steps of 1/64) and +∞.
    fn exponents() -> Vec<f32> {
        let mut grid = vec![0.0, f32::INFINITY];
        grid.extend((-120..=256).map(|k| (k as f32 / 4.0).exp2()));
        grid.extend((-64..=64).map(|c| (3.0 * c as f32 / 64.0).exp2()));
        grid
    }

    #[test]
    fn exp2_is_within_two_ulp_of_libm_on_the_normal_range() {
        let mut worst = 0;
        for x in sweep(0.0, 126.0, 4099).flat_map(|x| [x, -x]) {
            let (got, want) = (exp2(x), x.exp2());
            assert!(ulps(got, want) <= 2, "exp2({x}) = {got}, libm {want}");
            worst = worst.max(ulps(got, want));
        }
        assert!(worst <= 2);
    }

    #[test]
    fn exp2_flushes_subnormals_saturates_and_keeps_specials() {
        assert_eq!(exp2(0.0), 1.0);
        assert_eq!(exp2(-0.0), 1.0);
        assert_eq!(exp2(-126.0), f32::MIN_POSITIVE);
        for x in [-126.5, -140.0, -1e30, f32::NEG_INFINITY] {
            assert_eq!(exp2(x).to_bits(), 0, "exp2({x})");
        }
        for x in [127.5, 128.0, 1e30, f32::INFINITY] {
            assert_eq!(exp2(x), f32::INFINITY, "exp2({x})");
        }
        for k in -126..=127 {
            assert_eq!(exp2(k as f32), (k as f32).exp2(), "exp2({k})");
        }
        assert!(exp2(f32::NAN).is_nan());
    }

    #[test]
    fn log2_tracks_libm_on_normals_and_subnormals() {
        // Relative to libm's value, or absolute near the zero at 1.
        for x in sweep(f32::from_bits(1), f32::MAX, 40_009) {
            let (got, want) = (log2(x), x.log2());
            let tolerance = 2.0 * f32::EPSILON * want.abs().max(1e-7);
            assert!(
                (got - want).abs() <= tolerance,
                "log2({x}) = {got}, libm {want}"
            );
        }
        assert_eq!(log2(1.0), 0.0);
        assert_eq!(log2(0.0), f32::NEG_INFINITY);
        assert_eq!(log2(f32::INFINITY), f32::INFINITY);
        for k in -149..128 {
            assert_eq!(log2((k as f32).exp2()), k as f32, "log2(2^{k})");
        }
    }

    #[test]
    fn pow_is_within_2_pow_minus_22_of_libm_over_the_unit_interval() {
        let bound = (-22.0f32).exp2();
        let exponents = exponents();
        let mut worst = 0.0f32;
        // Every 65521st bit pattern of [0, 1] reaches into the subnormals
        // (the first 2²³ patterns) and through every binade above them.
        for x in sweep(0.0, 1.0, 65_521) {
            for &e in &exponents {
                let got = pow(x, e).clamp(0.0, 1.0);
                let error = (got - libm_pow(x, e)).abs();
                assert!(
                    error <= bound,
                    "pow({x:e}, {e}) = {got}, libm {}",
                    libm_pow(x, e)
                );
                worst = worst.max(error);
            }
        }
        assert!(worst > 0.0, "the sweep must exercise the approximation");
    }

    #[test]
    fn pow_is_exact_where_libm_is() {
        for e in exponents().into_iter().filter(|&e| e > 0.0) {
            assert_eq!(pow(0.0, e).to_bits(), 0, "pow(0, {e})");
            assert_eq!(pow(-0.0, e).to_bits(), 0, "pow(-0, {e})");
            assert_eq!(pow(1.0, e), 1.0, "pow(1, {e})");
        }
        for x in [
            0.0,
            -0.0,
            f32::from_bits(1),
            0.5,
            1.0,
            3.0,
            f32::MAX,
            f32::INFINITY,
        ] {
            assert_eq!(pow(x, 0.0), 1.0, "pow({x}, 0)");
        }
        assert_eq!(pow(1.0, f32::INFINITY), 1.0);
        // A NaN or negative base counts as 0, as the old `max(0.0)` made it.
        for x in [f32::NAN, -0.5, -1.0, f32::NEG_INFINITY] {
            assert_eq!(pow(x, 2.0).to_bits(), 0, "pow({x}, 2)");
            assert_eq!(pow(x, 0.0), 1.0, "pow({x}, 0)");
        }
        assert_eq!(pow(f32::INFINITY, 0.5), f32::INFINITY);
        assert_eq!(pow(0.25, 0.5), 0.5);
        assert_eq!(pow(0.5, 2.0), 0.25);
    }
}

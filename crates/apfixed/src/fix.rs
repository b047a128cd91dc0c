//! Compile-time-parameterised signed fixed-point numbers.

use crate::qformat::{QFormat, RoundingMode};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Shl, Shr, Sub, SubAssign};

/// A signed fixed-point number with `W` total bits and `F` fractional bits,
/// mirroring `ap_fixed<W, W - F>` from Vivado HLS.
///
/// The value is stored as a two's-complement raw integer in an `i32`, so
/// `W <= 32`. Arithmetic runs in the narrowest native integer that cannot
/// overflow for this format. The word length is a compile-time constant,
/// so the choice folds away and every instantiation compiles to a single
/// straight-line datapath:
///
/// * Every intermediate is bounded by that of [`Fix::mul_add`]:
///   `|a·b| + |c·2^F|` plus half an LSB for rounding, at most
///   `2^(2W-2) + 2^(W-1+F) + 2^(F-1)`. Sums, differences, negations,
///   products and shifted dividends stay below the same bound.
/// * If the bound is below `2^31` the format computes in `i32`. Q4.12
///   ([`Fix16`](crate::Fix16)) qualifies: `2^30 + 2^27 + 2^11 < 2^31`.
/// * Otherwise, if it is below `2^63`, in `i64` (`Fix<24, 18>`,
///   `Fix<32, 24>`).
/// * Otherwise in `i128` (e.g. `Fix<32, 32>`).
///
/// Results are re-quantised with round-to-nearest (ties away from zero) and
/// saturation, the `AP_RND`/`AP_SAT` configuration used by the paper's
/// accelerator after the floating-point to fixed-point conversion. At every
/// width this is the same integer function as the `i128`
/// [`QFormat::round_shift`] + [`QFormat::saturate_raw`] composition that
/// [`DynFix`](crate::DynFix) computes with.
///
/// # Example
///
/// ```
/// use apfixed::Fix;
///
/// type F16 = Fix<16, 12>;
/// let kernel_tap = F16::from_f64(0.0625);
/// let pixel = F16::from_f64(0.8);
/// let weighted = kernel_tap * pixel;
/// assert!((weighted.to_f64() - 0.05).abs() <= 2.0 * F16::FORMAT.epsilon());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Fix<const W: u32, const F: u32> {
    raw: i32,
}

/// The native integer a `Fix<W, F>` computes in (see [`Fix`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Datapath {
    I32,
    I64,
    I128,
}

/// The integer operations the datapath needs, on each native width.
trait Word:
    Copy
    + Ord
    + From<i32>
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + Shl<u32, Output = Self>
    + Shr<u32, Output = Self>
{
    const BITS: u32;

    /// The low 32 bits, for values already saturated into `W <= 32` bits.
    fn low_i32(self) -> i32;
}

macro_rules! impl_word {
    ($($t:ty),*) => {$(
        impl Word for $t {
            const BITS: u32 = <$t>::BITS;

            #[inline(always)]
            fn low_i32(self) -> i32 {
                self as i32
            }
        }
    )*};
}
impl_word!(i32, i64, i128);

/// Evaluates `$body` with `$t` naming the integer type of `$path`. The
/// path is an associated constant, so two of the three arms are dead in
/// every instantiation.
macro_rules! in_datapath {
    ($path:expr, $t:ident => $body:expr) => {
        match $path {
            Datapath::I32 => {
                type $t = i32;
                $body
            }
            Datapath::I64 => {
                type $t = i64;
                $body
            }
            Datapath::I128 => {
                type $t = i128;
                $body
            }
        }
    };
}

impl<const W: u32, const F: u32> Fix<W, F> {
    /// The format of this type (word length, fractional bits, rounding and
    /// saturation policy). Round-to-nearest + saturate, matching `AP_RND` /
    /// `AP_SAT`.
    pub const FORMAT: QFormat = QFormat::new_unchecked(W, F).with_rounding(RoundingMode::Nearest);

    // Compile-time validation of the const parameters. Instantiating an
    // invalid format (zero width, width > 32 — the raw value is an `i32` —
    // or F > W) fails to compile as soon as any arithmetic is used.
    const VALID: () = assert!(W >= 1 && W <= 32 && F <= W, "invalid Fix<W, F> parameters");

    /// The narrowest integer that holds every intermediate of this format's
    /// arithmetic; the bound is derived in [`Fix`]'s documentation.
    const DATAPATH: Datapath = {
        #[allow(clippy::let_unit_value)]
        let _ = Self::VALID;
        let bound = (1u128 << (2 * W - 2)) + (1u128 << (W - 1 + F)) + ((1u128 << F) >> 1);
        if bound < 1 << 31 {
            Datapath::I32
        } else if bound < 1 << 63 {
            Datapath::I64
        } else {
            Datapath::I128
        }
    };

    /// `2^F`, the weight of the integer one in raw units (exact in `f64`).
    const SCALE: f64 = (1u64 << F) as f64;

    /// `2^-F`, the weight of one LSB (exact in `f64`).
    const LSB: f64 = 1.0 / Self::SCALE;

    /// The value zero.
    pub const ZERO: Self = Self { raw: 0 };

    /// The value one. For formats with no integer bit beyond the sign
    /// (`W == F`), one is not representable and this constant saturates to
    /// the maximum value, like the corresponding `ap_fixed` assignment.
    pub const ONE: Self = Self {
        raw: {
            let ideal = 1i128 << F;
            let max = (1i128 << (W - 1)) - 1;
            if ideal > max {
                max as i32
            } else {
                ideal as i32
            }
        },
    };

    /// Smallest positive representable value (one LSB).
    pub const EPSILON: Self = Self { raw: 1 };

    /// Largest representable value.
    pub const MAX: Self = Self {
        raw: ((1i128 << (W - 1)) - 1) as i32,
    };

    /// Smallest (most negative) representable value.
    pub const MIN: Self = Self {
        raw: (-(1i128 << (W - 1))) as i32,
    };

    /// Saturates a wide intermediate into the `W`-bit range.
    #[inline(always)]
    fn saturate<T: Word>(wide: T) -> Self {
        let min = T::from(Self::MIN.raw);
        let max = T::from(Self::MAX.raw);
        Self {
            raw: wide.max(min).min(max).low_i32(),
        }
    }

    /// Drops the `F` extra fractional bits of a product-scaled intermediate,
    /// rounding to nearest with ties away from zero, then saturates.
    #[inline(always)]
    fn round_saturate<T: Word>(wide: T) -> Self {
        if F == 0 {
            return Self::saturate(wide);
        }
        // `wide >> (BITS - 1)` is -1 for a negative intermediate and 0
        // otherwise. Adding it with the half LSB makes the floor shift round
        // negative ties away from zero too, without a branch.
        let half = T::from(1) << (F - 1);
        Self::saturate((wide + half + (wide >> (T::BITS - 1))) >> F)
    }

    /// Creates a value from its raw two's-complement representation.
    ///
    /// The raw value is saturated into the `W`-bit range, so this never
    /// produces an out-of-range value.
    #[inline]
    pub fn from_raw(raw: i64) -> Self {
        #[allow(clippy::let_unit_value)]
        let _ = Self::VALID;
        Self::saturate(raw)
    }

    /// Returns the raw two's-complement representation (`value * 2^F`).
    #[inline]
    pub const fn raw(self) -> i64 {
        self.raw as i64
    }

    /// Converts from `f64`, rounding to nearest and saturating; `NaN`
    /// saturates to [`Fix::MAX`].
    #[inline]
    pub fn from_f64(value: f64) -> Self {
        #[allow(clippy::let_unit_value)]
        let _ = Self::VALID;
        // The scale and rounding of `QFormat::raw_from_f64`. The clamp runs
        // in `f64`, where every `W <= 32` bound is exact, so the cast needs
        // no wider integer. `f64::min` returns its non-NaN operand, so
        // taking `min` first sends NaN to `MAX` without a branch.
        let scaled = value * Self::SCALE;
        let rounded = if scaled >= 0.0 {
            (scaled + 0.5).floor()
        } else {
            -((-scaled) + 0.5).floor()
        };
        Self {
            raw: rounded.min(Self::MAX.raw as f64).max(Self::MIN.raw as f64) as i32,
        }
    }

    /// Converts from `f32`, rounding to nearest and saturating.
    #[inline]
    pub fn from_f32(value: f32) -> Self {
        Self::from_f64(value as f64)
    }

    /// Converts to `f64` exactly (every `Fix` value is exactly
    /// representable as an `f64`).
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.raw as f64 * Self::LSB
    }

    /// Converts to `f32` (may round for `W > 24`).
    #[inline]
    pub fn to_f32(self) -> f32 {
        self.to_f64() as f32
    }

    /// Returns the absolute value, saturating on `MIN`.
    #[must_use]
    pub fn abs(self) -> Self {
        if self.raw < 0 {
            -self
        } else {
            self
        }
    }

    /// Returns the smaller of two values.
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        if self.raw <= other.raw {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two values.
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        if self.raw >= other.raw {
            self
        } else {
            other
        }
    }

    /// Clamps the value into `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[must_use]
    pub fn clamp(self, lo: Self, hi: Self) -> Self {
        assert!(lo.raw <= hi.raw, "clamp bounds are reversed");
        self.max(lo).min(hi)
    }

    /// Returns `true` if the value is exactly zero.
    pub const fn is_zero(self) -> bool {
        self.raw == 0
    }

    /// Returns `true` if the value is negative.
    pub const fn is_negative(self) -> bool {
        self.raw < 0
    }

    /// Fused multiply-add `self * a + b`, quantising only once at the end —
    /// the behaviour of an HLS multiply-accumulate datapath with a wide
    /// internal accumulator.
    #[must_use]
    #[inline]
    pub fn mul_add(self, a: Self, b: Self) -> Self {
        in_datapath!(Self::DATAPATH, T => Self::round_saturate(
            T::from(self.raw) * T::from(a.raw) + (T::from(b.raw) << F)
        ))
    }

    /// Multiplies by an integer without intermediate quantisation.
    #[must_use]
    pub fn scale_int(self, k: i64) -> Self {
        Self::saturate(i128::from(self.raw) * i128::from(k))
    }

    /// Converts into a different fixed-point format, re-quantising.
    #[must_use]
    #[inline]
    pub fn convert<const W2: u32, const F2: u32>(self) -> Fix<W2, F2> {
        Fix::from_raw(Fix::<W2, F2>::FORMAT.requantize(self.raw(), &Self::FORMAT))
    }

    /// Raises the value to a non-negative real power using a fixed-point
    /// exponential/logarithm approximation.
    ///
    /// This mirrors how the non-linear masking gamma correction
    /// (`out = in^gamma`) would be realised in a fixed-point datapath: through
    /// `exp2(gamma * log2(in))` with polynomial approximations of `log2` and
    /// `exp2`. Inputs `<= 0` return zero.
    #[must_use]
    pub fn powf_approx(self, exponent: f64) -> Self {
        if self.raw <= 0 {
            return Self::ZERO;
        }
        // Work in f64 for the transcendental core; the result is quantised
        // back to the format, which is what matters for error analysis. A
        // genuinely bit-accurate CORDIC/LUT model is provided by the HLS
        // model crate for latency purposes; numerically the difference is
        // below the 16-bit quantisation floor.
        Self::from_f64(self.to_f64().powf(exponent))
    }
}

impl<const W: u32, const F: u32> fmt::Debug for Fix<W, F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fix<{W},{F}>({} = {})", self.raw, self.to_f64())
    }
}

impl<const W: u32, const F: u32> fmt::Display for Fix<W, F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f64(), f)
    }
}

impl<const W: u32, const F: u32> PartialOrd for Fix<W, F> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<const W: u32, const F: u32> Ord for Fix<W, F> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.raw.cmp(&other.raw)
    }
}

impl<const W: u32, const F: u32> Add for Fix<W, F> {
    type Output = Self;

    #[inline]
    fn add(self, rhs: Self) -> Self {
        in_datapath!(Self::DATAPATH, T => Self::saturate(T::from(self.raw) + T::from(rhs.raw)))
    }
}

impl<const W: u32, const F: u32> Sub for Fix<W, F> {
    type Output = Self;

    #[inline]
    fn sub(self, rhs: Self) -> Self {
        in_datapath!(Self::DATAPATH, T => Self::saturate(T::from(self.raw) - T::from(rhs.raw)))
    }
}

impl<const W: u32, const F: u32> Mul for Fix<W, F> {
    type Output = Self;

    #[inline]
    fn mul(self, rhs: Self) -> Self {
        in_datapath!(Self::DATAPATH, T => Self::round_saturate(T::from(self.raw) * T::from(rhs.raw)))
    }
}

impl<const W: u32, const F: u32> Div for Fix<W, F> {
    type Output = Self;

    /// Fixed-point division. Division by zero saturates to `MAX`/`MIN`
    /// depending on the sign of the dividend (hardware dividers typically
    /// flag-and-saturate rather than trap).
    #[inline]
    fn div(self, rhs: Self) -> Self {
        if rhs.raw == 0 {
            return if self.raw >= 0 { Self::MAX } else { Self::MIN };
        }
        in_datapath!(Self::DATAPATH, T => Self::saturate(
            (T::from(self.raw) << F) / T::from(rhs.raw)
        ))
    }
}

impl<const W: u32, const F: u32> Neg for Fix<W, F> {
    type Output = Self;

    #[inline]
    fn neg(self) -> Self {
        in_datapath!(Self::DATAPATH, T => Self::saturate(-T::from(self.raw)))
    }
}

impl<const W: u32, const F: u32> AddAssign for Fix<W, F> {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<const W: u32, const F: u32> SubAssign for Fix<W, F> {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl<const W: u32, const F: u32> MulAssign for Fix<W, F> {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<const W: u32, const F: u32> DivAssign for Fix<W, F> {
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl<const W: u32, const F: u32> Sum for Fix<W, F> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |acc, x| acc + x)
    }
}

impl<const W: u32, const F: u32> From<Fix<W, F>> for f64 {
    fn from(value: Fix<W, F>) -> Self {
        value.to_f64()
    }
}

impl<const W: u32, const F: u32> From<Fix<W, F>> for f32 {
    fn from(value: Fix<W, F>) -> Self {
        value.to_f32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type F16 = Fix<16, 12>;
    type F8 = Fix<8, 6>;

    #[test]
    fn constants_are_consistent() {
        assert_eq!(F16::ZERO.to_f64(), 0.0);
        assert_eq!(F16::ONE.to_f64(), 1.0);
        assert_eq!(F16::EPSILON.to_f64(), 1.0 / 4096.0);
        assert_eq!(F16::MIN.to_f64(), -8.0);
        assert!(F16::MAX.to_f64() < 8.0);
    }

    #[test]
    fn one_saturates_when_not_representable() {
        type Frac = Fix<8, 8>;
        assert_eq!(Frac::ONE.raw(), Frac::MAX.raw());
    }

    #[test]
    fn datapath_is_the_narrowest_word_whose_bound_holds() {
        assert_eq!(F16::DATAPATH, Datapath::I32);
        assert_eq!(F8::DATAPATH, Datapath::I32);
        assert_eq!(Fix::<8, 8>::DATAPATH, Datapath::I32);
        assert_eq!(Fix::<12, 9>::DATAPATH, Datapath::I32);
        assert_eq!(Fix::<24, 18>::DATAPATH, Datapath::I64);
        assert_eq!(Fix::<32, 24>::DATAPATH, Datapath::I64);
        assert_eq!(Fix::<32, 32>::DATAPATH, Datapath::I128);
    }

    #[test]
    fn lsb_constants_match_the_format() {
        assert_eq!(F16::LSB, F16::FORMAT.epsilon());
        assert_eq!(Fix::<32, 32>::LSB, Fix::<32, 32>::FORMAT.epsilon());
        assert_eq!(Fix::<32, 32>::SCALE * Fix::<32, 32>::LSB, 1.0);
    }

    #[test]
    fn addition_and_subtraction() {
        let a = F16::from_f64(1.25);
        let b = F16::from_f64(0.75);
        assert_eq!((a + b).to_f64(), 2.0);
        assert_eq!((a - b).to_f64(), 0.5);
        assert_eq!((b - a).to_f64(), -0.5);
    }

    #[test]
    fn addition_saturates() {
        let a = F16::from_f64(7.9);
        assert_eq!((a + a).raw(), F16::MAX.raw());
        let b = F16::from_f64(-7.9);
        assert_eq!((b + b).raw(), F16::MIN.raw());
    }

    #[test]
    fn multiplication_of_exact_powers_of_two_is_exact() {
        let a = F16::from_f64(0.5);
        let b = F16::from_f64(0.25);
        assert_eq!((a * b).to_f64(), 0.125);
        assert_eq!((a * F16::ONE).to_f64(), 0.5);
    }

    #[test]
    fn multiplication_error_is_bounded_by_one_lsb() {
        let a = F16::from_f64(1.2345);
        let b = F16::from_f64(0.6789);
        let exact = a.to_f64() * b.to_f64();
        assert!(((a * b).to_f64() - exact).abs() <= F16::FORMAT.epsilon());
    }

    #[test]
    fn division_basic_and_by_zero() {
        let a = F16::from_f64(1.0);
        let b = F16::from_f64(4.0);
        assert_eq!((a / b).to_f64(), 0.25);
        assert_eq!((a / F16::ZERO).raw(), F16::MAX.raw());
        assert_eq!(((-a) / F16::ZERO).raw(), F16::MIN.raw());
    }

    #[test]
    fn negation_saturates_min() {
        assert_eq!((-F16::MIN).raw(), F16::MAX.raw());
        assert_eq!((-F16::ONE).to_f64(), -1.0);
        assert_eq!((-Fix::<32, 24>::MIN).raw(), Fix::<32, 24>::MAX.raw());
    }

    #[test]
    fn mul_add_matches_wide_accumulation() {
        let a = F16::from_f64(0.3);
        let b = F16::from_f64(0.7);
        let c = F16::from_f64(0.11);
        let fused = a.mul_add(b, c);
        let expected = a.to_f64() * b.to_f64() + c.to_f64();
        assert!((fused.to_f64() - expected).abs() <= F16::FORMAT.epsilon());
    }

    #[test]
    fn mul_add_rounds_negative_half_lsb_ties_away_from_zero() {
        // -1 raw × 0.5 = exactly -½ LSB: rounds to -1 LSB, not 0.
        let minus_lsb = -F16::EPSILON;
        let half = F16::from_f64(0.5);
        assert_eq!(minus_lsb.mul_add(half, F16::ZERO).raw(), -1);
        assert_eq!(F16::EPSILON.mul_add(half, F16::ZERO).raw(), 1);
        assert_eq!((minus_lsb * half).raw(), -1);
    }

    #[test]
    fn conversion_between_widths() {
        let wide = Fix::<32, 24>::from_f64(1.23456789);
        let narrow: F16 = wide.convert();
        assert!((narrow.to_f64() - 1.23456789).abs() <= F16::FORMAT.epsilon());
        let widened: Fix<32, 24> = narrow.convert();
        assert_eq!(widened.to_f64(), narrow.to_f64());
    }

    #[test]
    fn ordering_follows_real_values() {
        let mut values: Vec<F16> = [0.5, -1.0, 3.25, 0.0, -7.5]
            .iter()
            .map(|&v| F16::from_f64(v))
            .collect();
        values.sort();
        let sorted: Vec<f64> = values.iter().map(|v| v.to_f64()).collect();
        assert_eq!(sorted, vec![-7.5, -1.0, 0.0, 0.5, 3.25]);
    }

    #[test]
    fn sum_over_iterator() {
        let total: F16 = (0..10).map(|_| F16::from_f64(0.125)).sum();
        assert_eq!(total.to_f64(), 1.25);
    }

    #[test]
    fn clamp_and_abs() {
        let v = F16::from_f64(-2.5);
        assert_eq!(v.abs().to_f64(), 2.5);
        assert_eq!(v.clamp(F16::ZERO, F16::ONE).to_f64(), 0.0);
        assert_eq!(
            F16::from_f64(0.375).clamp(F16::ZERO, F16::ONE).to_f64(),
            0.375
        );
    }

    #[test]
    #[should_panic(expected = "clamp bounds are reversed")]
    fn clamp_panics_on_reversed_bounds() {
        let _ = F16::ONE.clamp(F16::ONE, F16::ZERO);
    }

    #[test]
    fn powf_approx_on_unit_interval() {
        let x = F16::from_f64(0.25);
        let y = x.powf_approx(0.5);
        assert!((y.to_f64() - 0.5).abs() <= 2.0 * F16::FORMAT.epsilon());
        assert_eq!(F16::ZERO.powf_approx(2.0), F16::ZERO);
        assert_eq!(F16::from_f64(-0.5).powf_approx(2.0), F16::ZERO);
    }

    #[test]
    fn eight_bit_format_quantises_coarsely() {
        let x = F8::from_f64(0.3);
        assert!((x.to_f64() - 0.3).abs() <= F8::FORMAT.epsilon());
        assert!(F8::FORMAT.epsilon() > Fix::<16, 12>::FORMAT.epsilon());
    }

    #[test]
    fn debug_output_mentions_format_and_value() {
        let v = F16::from_f64(1.0);
        let dbg = format!("{v:?}");
        assert!(dbg.contains("Fix<16,12>"));
        assert!(dbg.contains("4096"));
    }
}

//! Abstraction over the scalar type the pipeline computes in.

use apfixed::Fix;

/// A scalar sample type the tone-mapping pipeline can compute in.
///
/// The paper evaluates the same algorithm in 32-bit floating point and in
/// 16-bit fixed point (`ap_fixed`); this trait is the seam that lets a single
/// implementation of every stage serve both, so the quality comparison of
/// Fig. 5 compares *numerics*, not two divergent code paths.
///
/// Implementations exist for `f32`, `f64` and every [`apfixed::Fix`]
/// instantiation.
pub trait Sample: Copy + PartialOrd + std::fmt::Debug + Send + Sync + 'static {
    /// The additive identity.
    fn zero() -> Self;
    /// The multiplicative identity.
    fn one() -> Self;
    /// Conversion from `f32` (quantising for fixed-point types).
    fn from_f32(value: f32) -> Self;
    /// Conversion to `f32`.
    fn to_f32(self) -> f32;
    /// Addition.
    fn add(self, rhs: Self) -> Self;
    /// Subtraction.
    fn sub(self, rhs: Self) -> Self;
    /// Multiplication.
    fn mul(self, rhs: Self) -> Self;
    /// Division. Implementations must not panic on division by zero; they
    /// saturate or return an implementation-defined value instead.
    fn div(self, rhs: Self) -> Self;
    /// Fused multiply-add `self * a + b`; the default maps to `mul` + `add`.
    fn mul_add(self, a: Self, b: Self) -> Self {
        self.mul(a).add(b)
    }
    /// The longest kernel whose taps [`Sample::nonneg_tap`] sums exactly: 0,
    /// the default, for a type with no exact integer form of them.
    const NONNEG_TAPS: usize = 0;
    /// `sum` plus the tap `self · x` in the type's raw integer units, for a
    /// tap sum whose weights and samples are all non-negative. From zero and
    /// stored by [`Sample::from_nonneg_sum`], a chain of at most
    /// [`Sample::NONNEG_TAPS`] of them equals the chain of
    /// [`Sample::mul_add`]s from zero bit for bit. Called only on a type
    /// whose `NONNEG_TAPS` is not 0.
    fn nonneg_tap(self, x: Self, sum: i32) -> i32 {
        let _ = (x, sum);
        unreachable!("a type without exact integer taps has NONNEG_TAPS = 0")
    }
    /// The value of a [`Sample::nonneg_tap`] sum.
    fn from_nonneg_sum(sum: i32) -> Self {
        let _ = sum;
        unreachable!("a type without exact integer taps has NONNEG_TAPS = 0")
    }
    /// Raises the value (assumed non-negative) to a real power.
    ///
    /// `f32` computes this and [`Sample::exp2`] with the crate's own
    /// branch-free kernel rather than libm, so row loops over it
    /// vectorize; `f64` keeps libm as the reference.
    fn powf(self, exponent: f32) -> Self;
    /// Base-2 exponential `2^self`.
    fn exp2(self) -> Self {
        Self::from_f32(self.to_f32().exp2())
    }
    /// Clamps into `[0, 1]`, the display-referred output range.
    fn clamp01(self) -> Self {
        let v = self;
        if v < Self::zero() {
            Self::zero()
        } else if Self::one() < v {
            Self::one()
        } else {
            v
        }
    }
    /// Component maximum.
    fn max_sample(self, rhs: Self) -> Self {
        if self < rhs {
            rhs
        } else {
            self
        }
    }
    /// `true` when this type is a fixed-point representation (used by the
    /// profiler to pick integer vs floating-point operator costs).
    fn is_fixed_point() -> bool {
        false
    }
    /// Number of bits in the representation (32 for `f32`, `W` for
    /// `Fix<W, F>`), used for bus-width selection in the data-motion model.
    fn bit_width() -> u32;
}

impl Sample for f32 {
    fn zero() -> Self {
        0.0
    }
    fn one() -> Self {
        1.0
    }
    fn from_f32(value: f32) -> Self {
        value
    }
    fn to_f32(self) -> f32 {
        self
    }
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }
    fn sub(self, rhs: Self) -> Self {
        self - rhs
    }
    fn mul(self, rhs: Self) -> Self {
        self * rhs
    }
    fn div(self, rhs: Self) -> Self {
        self / rhs
    }
    fn mul_add(self, a: Self, b: Self) -> Self {
        f32::mul_add(self, a, b)
    }
    // `#[inline]` lets the row loops of other crates inline the kernel,
    // which is what vectorizes them.
    #[inline]
    fn powf(self, exponent: f32) -> Self {
        crate::pow::pow(self, exponent)
    }
    #[inline]
    fn exp2(self) -> Self {
        crate::pow::exp2(self)
    }
    fn bit_width() -> u32 {
        32
    }
}

impl Sample for f64 {
    fn zero() -> Self {
        0.0
    }
    fn one() -> Self {
        1.0
    }
    fn from_f32(value: f32) -> Self {
        value as f64
    }
    fn to_f32(self) -> f32 {
        self as f32
    }
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }
    fn sub(self, rhs: Self) -> Self {
        self - rhs
    }
    fn mul(self, rhs: Self) -> Self {
        self * rhs
    }
    fn div(self, rhs: Self) -> Self {
        self / rhs
    }
    fn mul_add(self, a: Self, b: Self) -> Self {
        f64::mul_add(self, a, b)
    }
    fn powf(self, exponent: f32) -> Self {
        f64::powf(self.max(0.0), exponent as f64)
    }
    fn exp2(self) -> Self {
        f64::exp2(self)
    }
    fn bit_width() -> u32 {
        64
    }
}

impl<const W: u32, const F: u32> Sample for Fix<W, F> {
    fn zero() -> Self {
        Fix::ZERO
    }
    fn one() -> Self {
        Fix::ONE
    }
    fn from_f32(value: f32) -> Self {
        Fix::from_f32(value)
    }
    fn to_f32(self) -> f32 {
        Fix::to_f32(self)
    }
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }
    fn sub(self, rhs: Self) -> Self {
        self - rhs
    }
    fn mul(self, rhs: Self) -> Self {
        self * rhs
    }
    fn div(self, rhs: Self) -> Self {
        self / rhs
    }
    fn mul_add(self, a: Self, b: Self) -> Self {
        Fix::mul_add(self, a, b)
    }
    const NONNEG_TAPS: usize = Fix::<W, F>::NONNEG_TAPS;
    #[inline(always)]
    fn nonneg_tap(self, x: Self, sum: i32) -> i32 {
        Fix::nonneg_tap(self, x, sum)
    }
    #[inline(always)]
    fn from_nonneg_sum(sum: i32) -> Self {
        Fix::from_raw(sum.into())
    }
    fn powf(self, exponent: f32) -> Self {
        self.powf_approx(exponent as f64)
    }
    fn is_fixed_point() -> bool {
        true
    }
    fn bit_width() -> u32 {
        W
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apfixed::Fix16;

    fn exercise_sample<S: Sample>(tolerance: f32) {
        let half = S::from_f32(0.5);
        let quarter = S::from_f32(0.25);
        assert!((half.add(quarter).to_f32() - 0.75).abs() <= tolerance);
        assert!((half.sub(quarter).to_f32() - 0.25).abs() <= tolerance);
        assert!((half.mul(quarter).to_f32() - 0.125).abs() <= tolerance);
        assert!((half.div(quarter).to_f32() - 2.0).abs() <= 4.0 * tolerance);
        assert!((half.mul_add(quarter, quarter).to_f32() - 0.375).abs() <= tolerance);
        assert!((quarter.powf(0.5).to_f32() - 0.5).abs() <= 4.0 * tolerance);
        assert_eq!(S::from_f32(-0.5).clamp01().to_f32(), 0.0);
        assert_eq!(S::from_f32(1.5).clamp01().to_f32(), 1.0);
        assert!((S::from_f32(0.5).max_sample(S::from_f32(0.7)).to_f32() - 0.7).abs() <= tolerance);
        assert_eq!(S::zero().to_f32(), 0.0);
        assert!((S::one().to_f32() - 1.0).abs() <= tolerance);
    }

    #[test]
    fn f32_satisfies_sample_contract() {
        exercise_sample::<f32>(1e-6);
        assert!(!f32::is_fixed_point());
        assert_eq!(f32::bit_width(), 32);
    }

    #[test]
    fn f64_satisfies_sample_contract() {
        exercise_sample::<f64>(1e-6);
        assert_eq!(f64::bit_width(), 64);
    }

    #[test]
    fn fix16_satisfies_sample_contract() {
        exercise_sample::<Fix16>(2.0 * Fix16::FORMAT.epsilon() as f32);
        assert!(Fix16::is_fixed_point());
        assert_eq!(Fix16::bit_width(), 16);
    }

    #[test]
    fn fix16_division_by_zero_does_not_panic() {
        let v = Fix16::from_f32(0.5);
        let _ = Sample::div(v, Fix16::ZERO);
    }

    #[test]
    fn f32_division_by_zero_does_not_panic() {
        let v: f32 = 1.0;
        assert!(Sample::div(v, 0.0).is_infinite());
    }
}

//! Runtime description of a fixed-point format and its quantisation rules.

use crate::error::FormatError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Rounding behaviour applied when fractional precision is lost.
///
/// These mirror the Vivado HLS quantisation modes most relevant to the paper:
/// `AP_TRN` (truncate towards negative infinity, the HLS default) and
/// `AP_RND` (round to nearest, ties away from zero). Round-to-nearest-even is
/// provided for the ablation experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum RoundingMode {
    /// Truncate towards negative infinity (drop the extra bits). HLS `AP_TRN`.
    #[default]
    Truncate,
    /// Round to the nearest representable value, ties rounded away from zero.
    /// HLS `AP_RND`.
    Nearest,
    /// Round to the nearest representable value, ties rounded to the value
    /// with an even least-significant bit. HLS `AP_RND_CONV`.
    NearestEven,
}

/// Overflow behaviour applied when a value does not fit in the destination
/// word length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SaturationMode {
    /// Clamp to the largest/smallest representable value. HLS `AP_SAT`.
    #[default]
    Saturate,
    /// Keep only the low-order bits (two's-complement wrap-around). HLS
    /// `AP_WRAP`.
    Wrap,
}

/// A signed fixed-point format: total word length, fractional bits, and the
/// quantisation/overflow policies.
///
/// The represented value of a raw two's-complement integer `r` is
/// `r / 2^frac`. The integer part (including the sign bit) therefore spans
/// `width - frac` bits, exactly like `ap_fixed<width, width - frac>`.
///
/// # Example
///
/// ```
/// use apfixed::{QFormat, RoundingMode, SaturationMode};
///
/// let q = QFormat::new(16, 12)?;
/// assert_eq!(q.int_bits(), 4);
/// assert_eq!(q.epsilon(), 1.0 / 4096.0);
/// assert!(q.max_value() < 8.0 && q.max_value() > 7.999);
/// assert_eq!(q.min_value(), -8.0);
/// # Ok::<(), apfixed::FormatError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QFormat {
    width: u32,
    frac: u32,
    rounding: RoundingMode,
    saturation: SaturationMode,
}

impl QFormat {
    /// Maximum supported total word length in bits.
    ///
    /// 63 bits keeps every raw value (and every sum of two raw values) inside
    /// an `i64`, while products are computed in `i128`.
    pub const MAX_WIDTH: u32 = 63;

    /// Creates a format with `width` total bits and `frac` fractional bits,
    /// using the default policies ([`RoundingMode::Truncate`],
    /// [`SaturationMode::Saturate`]).
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::InvalidWidth`] if `width` is zero or larger than
    /// [`QFormat::MAX_WIDTH`], and [`FormatError::FracExceedsWidth`] if
    /// `frac > width`.
    pub fn new(width: u32, frac: u32) -> Result<Self, FormatError> {
        if width == 0 || width > Self::MAX_WIDTH {
            return Err(FormatError::InvalidWidth { width });
        }
        if frac > width {
            return Err(FormatError::FracExceedsWidth { width, frac });
        }
        Ok(QFormat {
            width,
            frac,
            rounding: RoundingMode::default(),
            saturation: SaturationMode::default(),
        })
    }

    /// Creates a format without validity checks, for use in `const` contexts
    /// (the const-generic [`Fix`](crate::Fix) type validates its parameters
    /// through a compile-time assertion instead).
    ///
    /// # Panics
    ///
    /// Does not panic, but an invalid combination will produce nonsensical
    /// arithmetic; prefer [`QFormat::new`] outside of const contexts.
    pub const fn new_unchecked(width: u32, frac: u32) -> Self {
        QFormat {
            width,
            frac,
            rounding: RoundingMode::Truncate,
            saturation: SaturationMode::Saturate,
        }
    }

    /// Returns a copy of this format with the given rounding mode.
    #[must_use]
    pub const fn with_rounding(mut self, rounding: RoundingMode) -> Self {
        self.rounding = rounding;
        self
    }

    /// Returns a copy of this format with the given saturation mode.
    #[must_use]
    pub const fn with_saturation(mut self, saturation: SaturationMode) -> Self {
        self.saturation = saturation;
        self
    }

    /// Total word length in bits (including the sign bit).
    pub const fn width(&self) -> u32 {
        self.width
    }

    /// Number of fractional bits.
    pub const fn frac_bits(&self) -> u32 {
        self.frac
    }

    /// Number of integer bits, including the sign bit
    /// (`width - frac`, i.e. the `I` of `ap_fixed<W, I>`).
    pub const fn int_bits(&self) -> u32 {
        self.width - self.frac
    }

    /// The rounding mode applied when precision is lost.
    pub const fn rounding(&self) -> RoundingMode {
        self.rounding
    }

    /// The overflow mode applied when a value does not fit.
    pub const fn saturation(&self) -> SaturationMode {
        self.saturation
    }

    /// The weight of one least-significant bit, `2^-frac`.
    #[inline]
    pub fn epsilon(&self) -> f64 {
        (0.5f64).powi(self.frac as i32)
    }

    /// Largest representable raw value (`2^(width-1) - 1`).
    #[inline]
    pub const fn max_raw(&self) -> i64 {
        if self.width == 0 {
            0
        } else {
            ((1i128 << (self.width - 1)) - 1) as i64
        }
    }

    /// Smallest representable raw value (`-2^(width-1)`).
    #[inline]
    pub const fn min_raw(&self) -> i64 {
        if self.width == 0 {
            0
        } else {
            (-(1i128 << (self.width - 1))) as i64
        }
    }

    /// Largest representable real value.
    pub fn max_value(&self) -> f64 {
        self.max_raw() as f64 * self.epsilon()
    }

    /// Smallest (most negative) representable real value.
    pub fn min_value(&self) -> f64 {
        self.min_raw() as f64 * self.epsilon()
    }

    /// Applies the overflow policy to an arbitrary raw value, returning a raw
    /// value that fits in `width` bits.
    #[inline]
    pub fn saturate_raw(&self, raw: i128) -> i64 {
        let max = self.max_raw() as i128;
        let min = self.min_raw() as i128;
        match self.saturation {
            SaturationMode::Saturate => raw.clamp(min, max) as i64,
            SaturationMode::Wrap => {
                let modulus = 1i128 << self.width;
                let mut wrapped = raw.rem_euclid(modulus);
                if wrapped > max {
                    wrapped -= modulus;
                }
                wrapped as i64
            }
        }
    }

    /// Right-shifts `raw` by `shift` bits applying the rounding policy, i.e.
    /// divides by `2^shift` with the configured rounding. `shift == 0` is the
    /// identity.
    #[inline]
    pub fn round_shift(&self, raw: i128, shift: u32) -> i128 {
        if shift == 0 {
            return raw;
        }
        let floor = raw >> shift;
        match self.rounding {
            RoundingMode::Truncate => floor,
            RoundingMode::Nearest => {
                // Add half an LSB of the destination before flooring; ties
                // (exactly half) round away from zero for positive values and
                // towards zero for negatives under plain add-half, so handle
                // the sign explicitly to get ties-away-from-zero.
                let half = 1i128 << (shift - 1);
                if raw >= 0 {
                    (raw + half) >> shift
                } else {
                    -(((-raw) + half) >> shift)
                }
            }
            RoundingMode::NearestEven => {
                let remainder = raw - (floor << shift);
                let half = 1i128 << (shift - 1);
                if remainder > half || (remainder == half && (floor & 1) == 1) {
                    floor + 1
                } else {
                    floor
                }
            }
        }
    }

    /// Converts a real value to the nearest raw representation under this
    /// format's rounding and saturation policies.
    ///
    /// Non-finite inputs saturate: `+inf`/`NaN` map to the maximum raw value
    /// and `-inf` to the minimum (matching the "garbage in, bounded garbage
    /// out" behaviour of hardware fixed-point datapaths).
    #[inline]
    pub fn raw_from_f64(&self, value: f64) -> i64 {
        if value.is_nan() || (value.is_infinite() && value > 0.0) {
            return self.max_raw();
        }
        if value.is_infinite() {
            return self.min_raw();
        }
        let scaled = value
            * (1u64 << self.frac.min(62)) as f64
            * if self.frac > 62 {
                (0.5f64).powi(-((self.frac - 62) as i32))
            } else {
                1.0
            };
        let rounded = match self.rounding {
            RoundingMode::Truncate => scaled.floor(),
            RoundingMode::Nearest => {
                if scaled >= 0.0 {
                    (scaled + 0.5).floor()
                } else {
                    -((-scaled) + 0.5).floor()
                }
            }
            RoundingMode::NearestEven => {
                let f = scaled.floor();
                let frac = scaled - f;
                if frac > 0.5 || (frac == 0.5 && (f as i64) % 2 != 0) {
                    f + 1.0
                } else {
                    f
                }
            }
        };
        self.saturate_raw(rounded as i128)
    }

    /// Converts a raw value in this format back to `f64`.
    #[inline]
    pub fn raw_to_f64(&self, raw: i64) -> f64 {
        raw as f64 * self.epsilon()
    }

    /// Re-quantises a raw value expressed in `from` format into this format.
    #[inline]
    pub fn requantize(&self, raw: i64, from: &QFormat) -> i64 {
        let raw = raw as i128;
        let adjusted = if from.frac > self.frac {
            self.round_shift(raw, from.frac - self.frac)
        } else {
            raw << (self.frac - from.frac)
        };
        self.saturate_raw(adjusted)
    }
}

impl fmt::Display for QFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}.{} (w={})", self.int_bits(), self.frac, self.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_bad_widths() {
        assert!(QFormat::new(0, 0).is_err());
        assert!(QFormat::new(64, 0).is_err());
        assert!(QFormat::new(8, 9).is_err());
        assert!(QFormat::new(63, 63).is_ok());
    }

    #[test]
    fn raw_bounds_for_16_bits() {
        let q = QFormat::new(16, 12).unwrap();
        assert_eq!(q.max_raw(), 32767);
        assert_eq!(q.min_raw(), -32768);
        assert!((q.max_value() - 7.999755859375).abs() < 1e-12);
        assert_eq!(q.min_value(), -8.0);
    }

    #[test]
    fn saturate_clamps_and_wrap_wraps() {
        let sat = QFormat::new(8, 0).unwrap();
        assert_eq!(sat.saturate_raw(1000), 127);
        assert_eq!(sat.saturate_raw(-1000), -128);
        let wrap = QFormat::new(8, 0)
            .unwrap()
            .with_saturation(SaturationMode::Wrap);
        assert_eq!(wrap.saturate_raw(130), 130 - 256);
        assert_eq!(wrap.saturate_raw(-129), 127);
        assert_eq!(wrap.saturate_raw(256), 0);
    }

    #[test]
    fn round_shift_truncate_floors_negative_values() {
        let q = QFormat::new(16, 8).unwrap();
        assert_eq!(q.round_shift(-3, 1), -2); // floor(-1.5) = -2
        assert_eq!(q.round_shift(3, 1), 1); // floor(1.5) = 1
    }

    #[test]
    fn round_shift_nearest_ties_away_from_zero() {
        let q = QFormat::new(16, 8)
            .unwrap()
            .with_rounding(RoundingMode::Nearest);
        assert_eq!(q.round_shift(3, 1), 2); // 1.5 -> 2
        assert_eq!(q.round_shift(-3, 1), -2); // -1.5 -> -2
        assert_eq!(q.round_shift(5, 2), 1); // 1.25 -> 1
    }

    #[test]
    fn round_shift_nearest_even() {
        let q = QFormat::new(16, 8)
            .unwrap()
            .with_rounding(RoundingMode::NearestEven);
        assert_eq!(q.round_shift(3, 1), 2); // 1.5 -> 2 (even)
        assert_eq!(q.round_shift(5, 1), 2); // 2.5 -> 2 (even)
        assert_eq!(q.round_shift(7, 1), 4); // 3.5 -> 4 (even)
    }

    #[test]
    fn f64_round_trip_within_epsilon() {
        let q = QFormat::new(16, 12)
            .unwrap()
            .with_rounding(RoundingMode::Nearest);
        for &v in &[0.0, 0.5, -0.5, 1.2345, -3.999, 7.9, -7.9] {
            let raw = q.raw_from_f64(v);
            let back = q.raw_to_f64(raw);
            assert!(
                (back - v).abs() <= q.epsilon(),
                "value {v} round-tripped to {back}"
            );
        }
    }

    #[test]
    fn f64_conversion_saturates_out_of_range() {
        let q = QFormat::new(16, 12).unwrap();
        assert_eq!(q.raw_from_f64(100.0), q.max_raw());
        assert_eq!(q.raw_from_f64(-100.0), q.min_raw());
        assert_eq!(q.raw_from_f64(f64::INFINITY), q.max_raw());
        assert_eq!(q.raw_from_f64(f64::NEG_INFINITY), q.min_raw());
        assert_eq!(q.raw_from_f64(f64::NAN), q.max_raw());
    }

    #[test]
    fn requantize_between_formats() {
        let wide = QFormat::new(32, 24).unwrap();
        let narrow = QFormat::new(16, 12)
            .unwrap()
            .with_rounding(RoundingMode::Nearest);
        let raw_wide = wide.raw_from_f64(1.5);
        let raw_narrow = narrow.requantize(raw_wide, &wide);
        assert_eq!(narrow.raw_to_f64(raw_narrow), 1.5);

        // Narrow to wide is exact.
        let back = wide.requantize(raw_narrow, &narrow);
        assert_eq!(wide.raw_to_f64(back), 1.5);
    }

    #[test]
    fn display_formats_q_notation() {
        let q = QFormat::new(16, 12).unwrap();
        assert_eq!(format!("{q}"), "Q4.12 (w=16)");
    }
}

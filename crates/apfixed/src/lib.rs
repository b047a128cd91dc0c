//! Software model of the Vivado HLS `ap_fixed` arbitrary-precision
//! fixed-point types.
//!
//! The SOCC 2018 paper converts the Gaussian-blur accelerator from 32-bit
//! floating point to a 16-bit `ap_fixed` representation ("FlP to FxP
//! conversion", Section III-C). This crate provides a bit-accurate software
//! equivalent so that the image-quality experiments (PSNR / SSIM of Fig. 5)
//! can be *measured* rather than assumed, and so that the HLS model can
//! reason about operator widths.
//!
//! Two representations are provided:
//!
//! * [`Fix`] — a compile-time-parameterised signed fixed-point number
//!   `Fix<W, F>` with `W` total bits and `F` fractional bits, mirroring
//!   `ap_fixed<W, W-F>`. This is the type used throughout the functional
//!   tone-mapping pipeline.
//! * [`DynFix`] — a runtime-parameterised value carrying its [`QFormat`],
//!   used by the design-space-exploration helpers where the word length is a
//!   sweep parameter.
//!
//! # Paper mapping
//!
//! §III-C ("FlP to FxP conversion") and the Fig. 5 quality evaluation: the
//! `hw-fix16` engine's blur runs on [`Fix16`] values from this crate, and
//! the Fig. 5b/5c word-length sweep (`cargo run -p bench --release --bin
//! fig5_quality`) sweeps [`DynFix`] formats.
//!
//! # Semantics
//!
//! A value is stored as a two's-complement integer `raw` of `W` bits; the
//! represented real number is `raw / 2^F`. Conversions and arithmetic apply a
//! [`RoundingMode`] when precision is lost and a [`SaturationMode`] when the
//! result does not fit in `W` bits — exactly the `AP_RND`/`AP_TRN` and
//! `AP_SAT`/`AP_WRAP` behaviours of the HLS types.
//!
//! The two representations compute the same integer functions at different
//! widths:
//!
//! * [`QFormat`] and [`DynFix`] (`W <= 63`) hold raw values in `i64` and
//!   compute every product, shift and rounding step in `i128`. They are the
//!   reference.
//! * [`Fix`] (`W <= 32`) holds its raw value in an `i32` and computes in the
//!   narrowest native integer whose overflow bound holds for its format:
//!   `i32` when `2^(2W-2) + 2^(W-1+F) + 2^(F-1) < 2^31`, as for [`Fix16`];
//!   `i64` below `2^63`, as for [`Fix32`]; `i128` otherwise. The bound
//!   covers the largest intermediate, a multiply-accumulate plus its
//!   rounding half-LSB, so no intermediate can overflow. Like the paper's
//!   16-bit `ap_fixed` datapath, Q4.12 therefore runs on narrow integers,
//!   and the property suite checks every operation against the `i128`
//!   reference.
//!
//! # Example
//!
//! ```
//! use apfixed::{Fix, QFormat};
//!
//! // ap_fixed<16, 4>: 16 bits total, 4 integer bits (incl. sign), 12 fractional.
//! type F16 = Fix<16, 12>;
//!
//! let a = F16::from_f64(1.5);
//! let b = F16::from_f64(0.25);
//! assert_eq!((a + b).to_f64(), 1.75);
//! assert_eq!((a * b).to_f64(), 0.375);
//!
//! // Quantisation error is bounded by the format's epsilon.
//! let x = F16::from_f64(0.123456789);
//! assert!((x.to_f64() - 0.123456789).abs() <= F16::FORMAT.epsilon());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dynfix;
mod error;
mod fix;
mod qformat;

pub use dynfix::DynFix;
pub use error::FormatError;
pub use fix::Fix;
pub use qformat::{QFormat, RoundingMode, SaturationMode};

/// Commonly used format in the paper's accelerator: 16-bit total word length.
///
/// The paper constrains hardware-function argument widths to 8/16/32/64 bits
/// for AXI bus alignment and selects 16 bits for the fixed-point blur. Pixel
/// values inside the tone-mapping pipeline are normalised to `[0, 1]`, with
/// intermediate blur accumulations staying within a few units, so 4 integer
/// bits (including sign) and 12 fractional bits is the natural split.
pub type Fix16 = Fix<16, 12>;

/// A wider accumulator format used inside multiply-accumulate chains,
/// mirroring the common HLS practice of letting the accumulator grow before
/// the final quantisation back to the bus width.
pub type Fix32 = Fix<32, 24>;

/// An 8-bit format used only in the width-sweep ablation experiments.
pub type Fix8 = Fix<8, 6>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aliases_have_expected_formats() {
        assert_eq!(Fix16::FORMAT.width(), 16);
        assert_eq!(Fix16::FORMAT.frac_bits(), 12);
        assert_eq!(Fix32::FORMAT.width(), 32);
        assert_eq!(Fix8::FORMAT.int_bits(), 2);
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Fix16>();
        assert_send_sync::<DynFix>();
        assert_send_sync::<QFormat>();
        assert_send_sync::<FormatError>();
    }
}

//! The pipeline as *data*: a validated operator graph the planners compile.
//!
//! The seed reproduction hard-coded the one normalize → invert → blur →
//! mask → adjust chain of Fig. 1 into [`crate::ToneMapper`]; every engine
//! could therefore serve exactly one tone-mapping operator. This module
//! turns the chain into a description — a [`PipelinePlan`] of typed
//! [`PipelineOp`] stages — that both execution schedules *compile*:
//!
//! * the two-pass planner ([`crate::ToneMapper`]) materialises one
//!   intermediate per stage, the shape of the paper's original software,
//!   and
//! * the streaming planner ([`crate::StreamingToneMapper`]) fuses the plan
//!   into a cascade of line-buffered regions — one row ring per stencil —
//!   and splits it at *materialization barriers* (reductions over an
//!   intermediate image, see [`PipelinePlan::segmentation`]) into fused
//!   segments, exactly as an HLS dataflow region breaks at a
//!   non-streamable dependence and resumes after it.
//!
//! This is the same move the paper's HLS flow makes for the Fig. 1
//! dataflow — describe the computation, let the backend pick the schedule —
//! applied at the API layer, following the image-processing-DSL line of
//! related work (Halide/HWTool-style stage graphs compiled per target).
//!
//! Three operator classes exist, mirroring what each costs the platform:
//!
//! | class | ops | streaming-fusible? |
//! |---|---|---|
//! | point | normalize*, mask, and every [`Curve`] (invert, adjust, gamma, log, Reinhard, Hable, ACES, Drago, PQ, HLG) | yes |
//! | stencil | separable Gaussian blur (mask producer) | yes — one line-buffer region each, cascaded back-to-back |
//! | reduction | histogram-equalization TMO | no — a materialization *barrier* splitting the plan into fused segments |
//!
//! (*) normalization needs a max-reduction, but over the *raw input*, which
//! the streaming pass already resolves in its scale pre-scan; it is
//! therefore only legal as the first stage ([`PlanError::NormalizeNotFirst`]).
//!
//! Every per-sample curve is one [`Curve`] value, defined once: its
//! parameter validation, its `Display` name, the colour layout it runs on,
//! its [`StageKind`], its per-sample op counts and its arithmetic
//! ([`Curve::apply`]). The two-pass walk, the fused row chains and the
//! colour walk all call that one definition, the way the paper's HLS flow
//! writes each Fig. 1 function once and places it on either side of the
//! PS/PL split.
//!
//! [`PipelinePlan::paper_default`] reproduces Fig. 1 exactly — compiled by
//! either planner it is bit-identical to the pre-redesign engines.

use crate::adjust::adjusted_sample;
use crate::color;
use crate::normalize::{finite_max, normalize_sample};
use crate::ops::{OpCounts, PipelineProfile, StageKind, StageProfile};
use crate::params::{AdjustParams, BlurParams, MaskingParams, ParamError, ToneMapParams};
use crate::point::Ingest;
use crate::reductions::{FrameReductions, Reductions};
use crate::sample::Sample;
use hdr_image::rgb::{luminance_plane, reapply_color, Rgb};
use hdr_image::{ImageBuffer, LuminanceImage, RgbImage};
use std::borrow::Cow;
use std::fmt;

/// The channel layout of a pipeline register — the typed shape of the data
/// an op reads and writes.
///
/// The original register pair (`{image, mask}`) was implicitly scalar; the
/// register-file redesign makes the layout explicit so colour ops can be
/// plan stages and layout violations become typed
/// [`PlanError::LayoutMismatch`] errors at [`PipelinePlan::with_input`]
/// time instead of runtime surprises.
///
/// | layout | channels | carried in |
/// |---|---|---|
/// | `Scalar` | 1 | a luminance plane ([`LuminanceImage`]) |
/// | `Rgb` | 3 | a colour image ([`RgbImage`]), linear RGB |
/// | `Hsv` | 3 | a colour image with `(h, s, v)` packed in `(r, g, b)` |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelLayout {
    /// One luminance sample per pixel.
    Scalar,
    /// Linear RGB, three samples per pixel.
    Rgb,
    /// Hue/saturation/value (hue in `[0, 1)`), three samples per pixel.
    Hsv,
}

impl ChannelLayout {
    /// Number of samples per pixel a register of this layout carries.
    pub const fn width(&self) -> usize {
        match self {
            ChannelLayout::Scalar => 1,
            ChannelLayout::Rgb | ChannelLayout::Hsv => 3,
        }
    }
}

impl fmt::Display for ChannelLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ChannelLayout::Scalar => "scalar",
            ChannelLayout::Rgb => "rgb",
            ChannelLayout::Hsv => "hsv",
        };
        f.write_str(name)
    }
}

/// One operator in a [`PipelinePlan`].
///
/// The plan executes over two registers: the *image* (the value being tone
/// mapped) and the *mask* (the low-pass neighbourhood estimate). Point ops
/// and reductions transform the image; [`PipelineOp::BlurMask`] is the one
/// stencil op and writes the mask register (leaving the image untouched);
/// [`PipelineOp::Mask`] consumes it. Every per-sample curve is a
/// [`PipelineOp::Curve`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PipelineOp {
    /// Divide every pixel by the image maximum, mapping into `[0, 1]`
    /// (max-reduction over the raw input + point scale). Only legal as the
    /// first stage.
    Normalize,
    /// Separable Gaussian blur of the (optionally inverted) image into the
    /// *mask* register — the stencil op the paper accelerates. The image
    /// register is left untouched, matching the Fig. 1 branch where the
    /// masking stage reads both the normalized image and its blur.
    BlurMask {
        /// Kernel shape of the blur.
        blur: BlurParams,
        /// Blur `1 − x` instead of `x` (Moroney's inverted-mask convention;
        /// pairs with [`MaskingParams::invert_mask`]).
        invert_input: bool,
    },
    /// Non-linear masking: mask-driven gamma correction of the image,
    /// consuming the mask register.
    Mask(MaskingParams),
    /// Histogram-equalization tone mapping: build a `bins`-level histogram
    /// of the image, integrate it into a CDF and remap every pixel through
    /// it — the reduction-backed operator (the classic CPU tone mapper of
    /// the GPGPU teaching codes).
    HistogramEq {
        /// Number of histogram levels (at least 2).
        bins: usize,
    },
    /// Converts an `Rgb` register to `Hsv` ([`crate::color::rgb_to_hsv`]),
    /// so tone curves can run on the value channel while hue and saturation
    /// ride along untouched.
    RgbToHsv,
    /// Converts an `Hsv` register back to `Rgb`
    /// ([`crate::color::hsv_to_rgb`]).
    HsvToRgb,
    /// Splits an `Rgb` register into its BT.709 luminance plane (the new
    /// `Scalar` register the following ops run on) while saving the colour
    /// pixels for a later [`PipelineOp::ReapplyRatio`] — the explicit form
    /// of the old hard-coded backend RGB path's `luminance_plane` step.
    ExtractLuminance,
    /// Recombines the saved colour with the tone-mapped luminance by
    /// per-pixel ratio scaling ([`hdr_image::rgb::reapply_color`]),
    /// clamping the ratio on zero-luminance pixels — the explicit form of
    /// the old RGB path's `reapply_color` step.
    ReapplyRatio,
    /// A per-sample curve from the [`Curve`] catalogue.
    Curve(Curve),
}

impl PipelineOp {
    /// The register layout this op writes when reading a register of the
    /// `input` layout, or `None` when the op's signature does not accept
    /// that layout (a [`PlanError::LayoutMismatch`] at validation time).
    ///
    /// Normalize accepts `Scalar` and `Rgb`; the stencil, mask and
    /// reduction ops are `Scalar`-only; a curve runs on `Scalar` and on its
    /// [`Curve::colour_layout`]; the conversions and the chroma split/merge
    /// pair move between layouts.
    pub const fn output_layout(&self, input: ChannelLayout) -> Option<ChannelLayout> {
        use ChannelLayout::{Hsv, Rgb, Scalar};
        match (self, input) {
            (PipelineOp::Normalize, Scalar | Rgb) => Some(input),
            (
                PipelineOp::BlurMask { .. } | PipelineOp::Mask(_) | PipelineOp::HistogramEq { .. },
                Scalar,
            ) => Some(Scalar),
            (PipelineOp::Curve(curve), _) => match (input, curve.colour_layout()) {
                (Scalar, _) | (Rgb, Rgb) | (Hsv, Hsv) => Some(input),
                _ => None,
            },
            (PipelineOp::RgbToHsv, Rgb) => Some(Hsv),
            (PipelineOp::HsvToRgb, Hsv) => Some(Rgb),
            (PipelineOp::ExtractLuminance, Rgb) => Some(Scalar),
            (PipelineOp::ReapplyRatio, Scalar) => Some(Rgb),
            _ => None,
        }
    }

    /// The [`StageKind`] this op reports its operation counts under.
    pub const fn stage_kind(&self) -> StageKind {
        match self {
            PipelineOp::Normalize => StageKind::Normalize,
            PipelineOp::BlurMask { .. } => StageKind::GaussianBlur,
            PipelineOp::Mask(_) => StageKind::NonlinearMasking,
            PipelineOp::HistogramEq { .. } => StageKind::HistogramEqualization,
            PipelineOp::RgbToHsv | PipelineOp::HsvToRgb => StageKind::ColorConversion,
            PipelineOp::ExtractLuminance | PipelineOp::ReapplyRatio => StageKind::ChromaSplit,
            PipelineOp::Curve(curve) => curve.stage_kind(),
        }
    }

    /// Validates this op's own parameters (not its position in a plan).
    pub fn validate(&self) -> Result<(), PlanError> {
        match *self {
            PipelineOp::BlurMask { blur, .. } => blur.validate().map_err(PlanError::InvalidStage),
            PipelineOp::Mask(MaskingParams { strength, .. }) => check(
                strength >= 0.0 && strength.is_finite(),
                PlanError::InvalidStage(ParamError::InvalidMaskingStrength(strength)),
            ),
            PipelineOp::HistogramEq { bins } => {
                check((2..=65_536).contains(&bins), PlanError::InvalidBins(bins))
            }
            PipelineOp::Curve(curve) => curve.validate(),
            PipelineOp::Normalize
            | PipelineOp::RgbToHsv
            | PipelineOp::HsvToRgb
            | PipelineOp::ExtractLuminance
            | PipelineOp::ReapplyRatio => Ok(()),
        }
    }

    /// Analytic operation counts of this op over a `width × height` image
    /// with `channels` colour channels, reading a register of the given
    /// `layout` (the stencil and reduction ops run on the single-channel
    /// plane, like the blur in the classic profile).
    ///
    /// The layout is the per-channel cost multiplier of the register-file
    /// redesign: point ops on a `Scalar` register keep the classic
    /// per-`channels` pricing, the same ops on an `Rgb` register pay for
    /// three channels, and tone curves on an `Hsv` register pay for one —
    /// only the value channel is transformed, hue and saturation stream
    /// through untouched.
    pub fn op_counts(
        &self,
        width: usize,
        height: usize,
        channels: usize,
        layout: ChannelLayout,
    ) -> OpCounts {
        // Point-op samples per pixel under the layout rule above.
        let per_pixel = match layout {
            ChannelLayout::Scalar => channels,
            ChannelLayout::Rgb => 3,
            ChannelLayout::Hsv => 1,
        };
        let pixels = (width * height) as u64;
        match *self {
            PipelineOp::Normalize => crate::normalize::op_counts(width, height, per_pixel),
            PipelineOp::BlurMask { blur, .. } => {
                crate::blur::op_counts_separable(&blur, width, height)
            }
            PipelineOp::Mask(_) => crate::masking::op_counts(width, height, per_pixel),
            PipelineOp::HistogramEq { bins } => OpCounts {
                // Histogram pass + CDF integration + remap pass, on the
                // single-channel plane.
                adds: pixels + bins as u64,
                muls: 2 * pixels, // level scaling in each pass
                divs: pixels,
                compares: 2 * pixels,
                loads: 2 * pixels,
                stores: pixels,
                ..OpCounts::zero()
            },
            PipelineOp::RgbToHsv | PipelineOp::HsvToRgb => OpCounts {
                // Per pixel: max/min (or sextant) selection network, the
                // hue/chroma ratios, and the three-channel rebuild.
                adds: 3 * pixels,
                muls: 3 * pixels,
                divs: 2 * pixels,
                compares: 6 * pixels,
                loads: 3 * pixels,
                stores: 3 * pixels,
                ..OpCounts::zero()
            },
            PipelineOp::ExtractLuminance => OpCounts {
                // BT.709 luminance dot product per pixel; the chroma save
                // is the extra three-sample store.
                adds: 2 * pixels,
                muls: 3 * pixels,
                loads: 3 * pixels,
                stores: 4 * pixels,
                ..OpCounts::zero()
            },
            PipelineOp::ReapplyRatio => OpCounts {
                // Old-luminance dot product, clamped ratio, three scaled
                // and clamped channels per pixel.
                adds: 2 * pixels,
                muls: 6 * pixels,
                divs: pixels,
                compares: 7 * pixels,
                loads: 4 * pixels,
                stores: 3 * pixels,
                ..OpCounts::zero()
            },
            PipelineOp::Curve(curve) => curve.sample_counts().scaled(pixels * per_pixel as u64),
        }
    }

    /// This op with its Reinhard key, if any, times `scale`, saturated into
    /// the accepted range: ∞ becomes `f32::MAX` and 0 the smallest positive
    /// subnormal. At a scale of 1 every key keeps its bits.
    pub(crate) fn with_key_scale(self, scale: f32) -> PipelineOp {
        match self {
            PipelineOp::Curve(Curve::Reinhard { key, white }) => {
                PipelineOp::Curve(Curve::Reinhard {
                    key: (key * scale).clamp(f32::from_bits(1), f32::MAX),
                    white,
                })
            }
            other => other,
        }
    }
}

impl fmt::Display for PipelineOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PipelineOp::Normalize => f.write_str("normalize"),
            PipelineOp::BlurMask { blur, invert_input } => write!(
                f,
                "blur-mask(σ={}, r={}{})",
                blur.sigma,
                blur.radius,
                if invert_input { ", inverted" } else { "" }
            ),
            PipelineOp::Mask(m) => write!(f, "mask(strength={})", m.strength),
            PipelineOp::HistogramEq { bins } => write!(f, "histogram-eq({bins})"),
            PipelineOp::RgbToHsv => f.write_str("rgb-to-hsv"),
            PipelineOp::HsvToRgb => f.write_str("hsv-to-rgb"),
            PipelineOp::ExtractLuminance => f.write_str("extract-luminance"),
            PipelineOp::ReapplyRatio => f.write_str("reapply-ratio"),
            PipelineOp::Curve(curve) => curve.fmt(f),
        }
    }
}

/// `Ok` when `valid`, otherwise `error`.
fn check(valid: bool, error: PlanError) -> Result<(), PlanError> {
    if valid {
        Ok(())
    } else {
        Err(error)
    }
}

/// A per-sample curve: the catalogue of point ops that map each sample on
/// its own, with no mask and no neighbourhood.
///
/// Each curve is defined here once — its parameter validation, its
/// `Display` name, the colour layout it runs on
/// ([`Curve::colour_layout`]), its [`StageKind`], its per-sample op counts
/// and its arithmetic ([`Curve::apply`]) — and every executor calls that
/// definition: the two-pass walk on its materialized register, the fused
/// row chains on each row, and the colour walk on each channel row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Curve {
    /// Point inversion `x ← 1 − x`.
    Invert,
    /// Brightness/contrast adjustment around mid-grey.
    Adjust(AdjustParams),
    /// Pure gamma curve `x ← x^γ`.
    Gamma {
        /// The exponent (positive and finite; `< 1` brightens).
        gamma: f32,
    },
    /// Logarithmic compression `x ← ln(1 + k·x) / ln(1 + k)` — a global
    /// Drago-style curve ([`log_curve_sample`]).
    LogCurve {
        /// The compression strength `k` (positive and finite).
        scale: f32,
    },
    /// The global Reinhard operator
    /// `x ← L·(1 + L/white²) / (1 + L)` with `L = key·x`: `key` exposes the
    /// (mostly dark) normalized radiance, `white` is the luminance that maps
    /// to pure white. `white = key` maps the input maximum exactly to 1
    /// ([`reinhard_sample`]).
    Reinhard {
        /// Exposure applied before the curve (positive and finite).
        key: f32,
        /// Burn-out luminance (positive and finite).
        white: f32,
    },
    /// The Hable (Uncharted 2) filmic curve
    /// ([`crate::color::hable_sample`]).
    Hable {
        /// Linear exposure applied before the shoulder polynomial
        /// (positive and finite; `= 11.2` maps the normalized maximum
        /// exactly to white).
        exposure: f32,
    },
    /// The ACES filmic approximation ([`crate::color::aces_sample`]).
    Aces {
        /// Linear exposure applied before the rational fit (positive and
        /// finite).
        exposure: f32,
    },
    /// The Drago (2003) adaptive logarithmic curve
    /// ([`crate::color::drago_sample`]).
    Drago {
        /// Base-interpolation bias in `(0, 1]`; smaller compresses
        /// highlights harder.
        bias: f32,
    },
    /// The SMPTE ST-2084 (PQ) OETF — encodes the display-referred output
    /// for an HDR10-style sink.
    PqOetf {
        /// The mastering peak (cd/m²) mapped to code value 1.0 (positive,
        /// at most 10 000).
        peak_nits: f32,
    },
    /// The SMPTE ST-2084 (PQ) EOTF — decodes a PQ-encoded input back to
    /// display-referred linear light.
    PqEotf {
        /// The mastering peak (cd/m²) mapped to code value 1.0 (positive,
        /// at most 10 000).
        peak_nits: f32,
    },
    /// The BT.2100 HLG OETF.
    HlgOetf,
    /// The BT.2100 HLG inverse OETF.
    HlgEotf,
}

impl Curve {
    /// The colour layout this curve runs on besides `Scalar`: the transfer
    /// curves (PQ, HLG) run per channel of an `Rgb` register, the tone
    /// curves on the value channel of an `Hsv` register.
    pub const fn colour_layout(&self) -> ChannelLayout {
        match self {
            Curve::PqOetf { .. } | Curve::PqEotf { .. } | Curve::HlgOetf | Curve::HlgEotf => {
                ChannelLayout::Rgb
            }
            _ => ChannelLayout::Hsv,
        }
    }

    /// The [`StageKind`] this curve reports its operation counts under.
    const fn stage_kind(&self) -> StageKind {
        match self {
            Curve::Invert => StageKind::Invert,
            Curve::Adjust(_) => StageKind::Adjustment,
            Curve::Gamma { .. } => StageKind::GammaCurve,
            Curve::LogCurve { .. } => StageKind::LogCurve,
            Curve::Reinhard { .. } => StageKind::Reinhard,
            Curve::Hable { .. } | Curve::Aces { .. } | Curve::Drago { .. } => {
                StageKind::FilmicCurve
            }
            Curve::PqOetf { .. } | Curve::PqEotf { .. } | Curve::HlgOetf | Curve::HlgEotf => {
                StageKind::TransferFunction
            }
        }
    }

    /// Validates this curve's parameters.
    fn validate(&self) -> Result<(), PlanError> {
        let positive_finite = |v: f32| v > 0.0 && v.is_finite();
        match *self {
            Curve::Invert | Curve::HlgOetf | Curve::HlgEotf => Ok(()),
            Curve::Adjust(AdjustParams {
                brightness,
                contrast,
            }) => check(
                positive_finite(contrast),
                PlanError::InvalidStage(ParamError::NonPositiveContrast(contrast)),
            )
            .and(check(
                brightness.is_finite(),
                PlanError::InvalidStage(ParamError::NonFiniteBrightness(brightness)),
            )),
            Curve::Gamma { gamma } => check(positive_finite(gamma), PlanError::InvalidGamma(gamma)),
            Curve::LogCurve { scale } => {
                check(positive_finite(scale), PlanError::InvalidLogScale(scale))
            }
            Curve::Reinhard { key, white } => {
                check(positive_finite(key), PlanError::InvalidReinhardKey(key)).and(check(
                    positive_finite(white),
                    PlanError::InvalidReinhardWhite(white),
                ))
            }
            Curve::Hable { exposure } | Curve::Aces { exposure } => check(
                positive_finite(exposure),
                PlanError::InvalidExposure(exposure),
            ),
            Curve::Drago { bias } => check(
                positive_finite(bias) && bias <= 1.0,
                PlanError::InvalidDragoBias(bias),
            ),
            Curve::PqOetf { peak_nits } | Curve::PqEotf { peak_nits } => check(
                positive_finite(peak_nits) && peak_nits <= color::PQ_FULL_SCALE_NITS,
                PlanError::InvalidPeakNits(peak_nits),
            ),
        }
    }

    /// Analytic operation counts per transformed sample; a register's
    /// count is this times its samples ([`PipelineOp::op_counts`]).
    fn sample_counts(&self) -> OpCounts {
        // Every curve loads and stores each sample once; the rest is
        // `[adds, muls, divs, pows, compares]` per sample.
        let [adds, muls, divs, pows, compares] = match self {
            Curve::Invert => [1, 0, 0, 0, 0],
            Curve::Adjust(_) => return crate::adjust::op_counts(1, 1, 1),
            Curve::Gamma { .. } => [0, 0, 0, 1, 2],
            // The scale multiply, the reciprocal-log multiply and the ln.
            Curve::LogCurve { .. } => [1, 2, 0, 1, 2],
            Curve::Reinhard { .. } => [2, 3, 1, 0, 2],
            // Two evaluations of the rational shoulder polynomial.
            Curve::Hable { .. } => [6, 8, 2, 0, 2],
            Curve::Aces { .. } => [3, 4, 1, 0, 2],
            // The bias power plus the two logarithms.
            Curve::Drago { .. } => [2, 2, 2, 3, 2],
            // Two powf calls around the rational core.
            Curve::PqOetf { .. } | Curve::PqEotf { .. } => [2, 3, 1, 2, 2],
            // One transcendental (sqrt/ln/exp) plus the knee select.
            Curve::HlgOetf | Curve::HlgEotf => [2, 2, 0, 1, 2],
        };
        OpCounts {
            adds,
            muls,
            divs,
            pows,
            compares,
            loads: 1,
            stores: 1,
        }
    }

    /// Applies the curve in place to every sample of a row — a luminance
    /// row, a whole register, or one channel row of a colour register.
    ///
    /// The curve is matched once per row, then its per-sample helper runs
    /// in a tight loop, so the `f32` rows vectorize. Invert, adjust and
    /// gamma compute in `S` (for `Fix16`: Q4.12 arithmetic and
    /// [`apfixed::Fix::powf_approx`]); the other curves compute in `f32`
    /// and quantize back into the display range.
    #[inline]
    pub fn apply<S: Sample>(&self, row: &mut [S]) {
        fn each<S: Sample>(row: &mut [S], f: impl Fn(f32) -> f32) {
            for v in row {
                *v = S::from_f32(f(v.to_f32())).clamp01();
            }
        }
        match *self {
            Curve::Invert => row.iter_mut().for_each(|v| *v = S::one().sub(*v)),
            Curve::Adjust(adjust) => {
                let half = S::from_f32(0.5);
                let contrast = S::from_f32(adjust.contrast);
                let offset = S::from_f32(0.5 + adjust.brightness);
                for v in row {
                    *v = adjusted_sample(*v, half, contrast, offset);
                }
            }
            Curve::Gamma { gamma } => row.iter_mut().for_each(|v| *v = v.powf(gamma).clamp01()),
            Curve::LogCurve { scale } => each(row, |v| log_curve_sample(v, scale)),
            Curve::Reinhard { key, white } => each(row, |v| reinhard_sample(v, key, white)),
            Curve::Hable { exposure } => each(row, |v| color::hable_sample(v, exposure)),
            Curve::Aces { exposure } => each(row, |v| color::aces_sample(v, exposure)),
            Curve::Drago { bias } => each(row, |v| color::drago_sample(v, bias)),
            Curve::PqOetf { peak_nits } => each(row, |v| color::pq_oetf(v, peak_nits)),
            Curve::PqEotf { peak_nits } => each(row, |v| color::pq_eotf(v, peak_nits)),
            Curve::HlgOetf => each(row, color::hlg_oetf),
            Curve::HlgEotf => each(row, color::hlg_eotf),
        }
    }
}

impl fmt::Display for Curve {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Curve::Invert => f.write_str("invert"),
            Curve::Adjust(a) => write!(f, "adjust(b={}, c={})", a.brightness, a.contrast),
            Curve::Gamma { gamma } => write!(f, "gamma({gamma})"),
            Curve::LogCurve { scale } => write!(f, "log-curve(k={scale})"),
            Curve::Reinhard { key, white } => write!(f, "reinhard(key={key}, white={white})"),
            Curve::Hable { exposure } => write!(f, "hable(exposure={exposure})"),
            Curve::Aces { exposure } => write!(f, "aces(exposure={exposure})"),
            Curve::Drago { bias } => write!(f, "drago(bias={bias})"),
            Curve::PqOetf { peak_nits } => write!(f, "pq-oetf(peak={peak_nits})"),
            Curve::PqEotf { peak_nits } => write!(f, "pq-eotf(peak={peak_nits})"),
            Curve::HlgOetf => f.write_str("hlg-oetf"),
            Curve::HlgEotf => f.write_str("hlg-eotf"),
        }
    }
}

/// A typed description of why a stage sequence is not a valid plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanError {
    /// The plan has no stages.
    EmptyPlan,
    /// [`PipelineOp::Normalize`] appears after the first stage; its
    /// max-reduction is only defined over the raw input.
    NormalizeNotFirst {
        /// Index of the offending stage.
        index: usize,
    },
    /// A [`PipelineOp::Mask`] stage has no preceding un-consumed
    /// [`PipelineOp::BlurMask`] to read its mask from.
    MaskWithoutBlur {
        /// Index of the offending stage.
        index: usize,
    },
    /// A [`PipelineOp::BlurMask`] produced a mask that no later
    /// [`PipelineOp::Mask`] consumes (either overwritten by another blur or
    /// dangling at the end of the plan).
    UnconsumedMask {
        /// Index of the producing stage.
        index: usize,
    },
    /// A stage re-uses the classic parameter structs and fails their
    /// validation.
    InvalidStage(ParamError),
    /// A gamma exponent that is not positive and finite.
    InvalidGamma(f32),
    /// A log-curve scale that is not positive and finite.
    InvalidLogScale(f32),
    /// A Reinhard key that is not positive and finite.
    InvalidReinhardKey(f32),
    /// A Reinhard white point that is not positive and finite.
    InvalidReinhardWhite(f32),
    /// A histogram bin count outside `2..=65536`.
    InvalidBins(usize),
    /// An op's layout signature does not accept the register layout that
    /// reaches it ([`PipelineOp::output_layout`]).
    LayoutMismatch {
        /// Index of the offending stage.
        index: usize,
        /// The op whose signature was violated.
        op: PipelineOp,
        /// The register layout that reached it.
        found: ChannelLayout,
    },
    /// A [`PipelineOp::ReapplyRatio`] with no saved chroma to recombine —
    /// no preceding un-consumed [`PipelineOp::ExtractLuminance`].
    ReapplyWithoutExtract {
        /// Index of the offending stage.
        index: usize,
    },
    /// A colour-input plan must end back in the `Rgb` layout (the register
    /// the response carries); this plan ends elsewhere.
    OutputNotRgb {
        /// The layout the plan actually ends in.
        found: ChannelLayout,
    },
    /// Plans cannot *start* in the `Hsv` layout — HSV registers only exist
    /// between a conversion pair inside a plan.
    HsvInput,
    /// A luminance request reached a plan whose input register is not
    /// `Scalar` (colour-managed plans need a colour input).
    ScalarInputRequired {
        /// The plan's input layout.
        found: ChannelLayout,
    },
    /// A filmic-curve exposure that is not positive and finite.
    InvalidExposure(f32),
    /// A PQ mastering peak outside `(0, 10000]` cd/m².
    InvalidPeakNits(f32),
    /// A Drago bias outside `(0, 1]`.
    InvalidDragoBias(f32),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::EmptyPlan => write!(f, "a pipeline plan needs at least one stage"),
            PlanError::NormalizeNotFirst { index } => write!(
                f,
                "normalize at stage {index}: the max-reduction is only defined over the raw \
                 input, so normalize must be the first stage"
            ),
            PlanError::MaskWithoutBlur { index } => write!(
                f,
                "mask at stage {index} has no preceding blur-mask stage to consume"
            ),
            PlanError::UnconsumedMask { index } => write!(
                f,
                "blur-mask at stage {index} produces a mask no later mask stage consumes"
            ),
            PlanError::InvalidStage(e) => write!(f, "invalid stage parameters: {e}"),
            PlanError::InvalidGamma(g) => {
                write!(f, "gamma exponent must be positive and finite, got {g}")
            }
            PlanError::InvalidLogScale(s) => {
                write!(f, "log-curve scale must be positive and finite, got {s}")
            }
            PlanError::InvalidReinhardKey(k) => {
                write!(f, "Reinhard key must be positive and finite, got {k}")
            }
            PlanError::InvalidReinhardWhite(w) => {
                write!(
                    f,
                    "Reinhard white point must be positive and finite, got {w}"
                )
            }
            PlanError::InvalidBins(b) => {
                write!(f, "histogram bin count must be in 2..=65536, got {b}")
            }
            PlanError::LayoutMismatch { index, op, found } => write!(
                f,
                "{op} at stage {index} does not accept a {found} register"
            ),
            PlanError::ReapplyWithoutExtract { index } => write!(
                f,
                "reapply-ratio at stage {index} has no preceding extract-luminance to recombine"
            ),
            PlanError::OutputNotRgb { found } => write!(
                f,
                "a colour-input plan must end in the rgb layout, but ends in {found}"
            ),
            PlanError::HsvInput => write!(
                f,
                "plans cannot start in the hsv layout; convert from rgb inside the plan"
            ),
            PlanError::ScalarInputRequired { found } => write!(
                f,
                "a luminance request needs a scalar-input plan, but the plan's input register \
                 is {found}"
            ),
            PlanError::InvalidExposure(e) => {
                write!(f, "filmic exposure must be positive and finite, got {e}")
            }
            PlanError::InvalidPeakNits(p) => {
                write!(f, "PQ mastering peak must be in (0, 10000] cd/m², got {p}")
            }
            PlanError::InvalidDragoBias(b) => {
                write!(f, "Drago bias must be in (0, 1], got {b}")
            }
        }
    }
}

impl std::error::Error for PlanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlanError::InvalidStage(e) => Some(e),
            _ => None,
        }
    }
}

/// Optional knobs the named presets accept (the `pipeline=` spec keys of
/// the engine layer map straight onto these). Unset fields keep the preset
/// defaults.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlanTuning {
    /// Reinhard exposure key ([`Curve::Reinhard::key`]).
    pub reinhard_key: Option<f32>,
    /// Reinhard white point ([`Curve::Reinhard::white`]).
    pub reinhard_white: Option<f32>,
    /// Histogram level count ([`PipelineOp::HistogramEq::bins`]).
    pub bins: Option<usize>,
    /// Gamma exponent ([`Curve::Gamma::gamma`]).
    pub gamma: Option<f32>,
    /// Log-curve compression strength ([`Curve::LogCurve::scale`]).
    pub log_scale: Option<f32>,
    /// Filmic exposure ([`Curve::Hable::exposure`] /
    /// [`Curve::Aces::exposure`]).
    pub exposure: Option<f32>,
    /// PQ mastering peak in cd/m² ([`Curve::PqOetf::peak_nits`]).
    pub peak_nits: Option<f32>,
    /// Drago bias ([`Curve::Drago::bias`]).
    pub drago_bias: Option<f32>,
}

/// One fused run of a segmented plan: the contiguous stage range between
/// materialization barriers, with the stencil stages the streaming planner
/// turns into one cascaded line-buffer region each.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSegment {
    /// First op index of the run (inclusive).
    pub start: usize,
    /// One past the last op index of the run. `start == end` marks an empty
    /// run (a plan beginning or ending with a reduction).
    pub end: usize,
    /// The stencil stages inside the run (`(index, blur, invert_input)`),
    /// in plan order.
    pub stencils: Vec<(usize, BlurParams, bool)>,
}

impl PlanSegment {
    /// Number of ops in the run.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` when the run holds no ops.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Row latency of the run's cascade: output row `y` needs input rows up
    /// to `y + Σ radiusᵢ`, because each region's vertical window must fill
    /// before the next region sees its first row. This is the software
    /// analogue of the pipeline fill latency of back-to-back line-buffered
    /// HLS stages.
    pub fn latency_rows(&self) -> usize {
        self.stencils.iter().map(|(_, blur, _)| blur.radius).sum()
    }
}

/// The streaming planner's split of a plan at materialization barriers
/// ([`PipelinePlan::segmentation`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSegmentation {
    /// The fused runs, in plan order; always `barriers.len() + 1` of them.
    pub segments: Vec<PlanSegment>,
    /// The indices of the barrier stages (histogram equalizations)
    /// separating the runs.
    pub barriers: Vec<usize>,
}

impl PlanSegmentation {
    /// `true` when the whole plan is one fused run (no barriers).
    pub fn is_single_pass(&self) -> bool {
        self.barriers.is_empty()
    }

    /// Total number of stencil regions across all runs — the number of row
    /// rings the cascade executor allocates.
    pub fn region_count(&self) -> usize {
        self.segments.iter().map(|s| s.stencils.len()).sum()
    }
}

/// A validated, ordered sequence of pipeline operators — the unit both
/// planners compile.
///
/// # Example
///
/// ```
/// use tonemap_core::plan::{Curve, PipelineOp, PipelinePlan};
/// use tonemap_core::ToneMapParams;
///
/// // Fig. 1, as data.
/// let paper = PipelinePlan::paper_default();
/// assert_eq!(paper.ops().len(), 4);
///
/// // A genuinely different operator: global Reinhard.
/// let reinhard = PipelinePlan::new(vec![
///     PipelineOp::Normalize,
///     PipelineOp::Curve(Curve::Reinhard { key: 8.0, white: 8.0 }),
/// ])?;
/// assert!(reinhard.stencil_stages().next().is_none());
///
/// // Invalid sequences are typed errors, not panics.
/// let params = ToneMapParams::paper_default();
/// assert!(PipelinePlan::new(vec![PipelineOp::Mask(params.masking)]).is_err());
/// # Ok::<(), tonemap_core::plan::PlanError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PipelinePlan {
    input_layout: ChannelLayout,
    ops: Vec<PipelineOp>,
}

impl PipelinePlan {
    /// The named presets [`PipelinePlan::preset`] resolves, in catalogue
    /// order.
    pub const PRESETS: [&'static str; 12] = {
        let mut names = [""; 12];
        let mut row = 0;
        while row < names.len() {
            names[row] = PRESET_TABLE[row].0;
            row += 1;
        }
        names
    };

    /// Validates `ops` into a `Scalar`-input plan (the luminance register
    /// machine every pre-colour plan ran on).
    ///
    /// # Errors
    ///
    /// Any [`PlanError`]: empty plans, a mid-plan normalize, mask/blur
    /// pairing violations, layout-signature violations, or per-stage
    /// parameter violations.
    pub fn new(ops: Vec<PipelineOp>) -> Result<Self, PlanError> {
        PipelinePlan::with_input(ChannelLayout::Scalar, ops)
    }

    /// Validates `ops` into a plan whose input register has the given
    /// layout — the register-file front door: layouts are threaded through
    /// every op's signature ([`PipelineOp::output_layout`]) so a violation
    /// is a typed [`PlanError::LayoutMismatch`] here instead of a runtime
    /// surprise.
    ///
    /// A colour-input (`Rgb`) plan must end back in `Rgb` (the register the
    /// response carries); `Hsv` inputs are rejected outright — HSV
    /// registers only exist between a conversion pair inside a plan.
    ///
    /// # Errors
    ///
    /// Any [`PlanError`].
    pub fn with_input(input: ChannelLayout, ops: Vec<PipelineOp>) -> Result<Self, PlanError> {
        if input == ChannelLayout::Hsv {
            return Err(PlanError::HsvInput);
        }
        if ops.is_empty() {
            return Err(PlanError::EmptyPlan);
        }
        let mut layout = input;
        let mut pending_mask: Option<usize> = None;
        let mut pending_chroma = false;
        for (index, op) in ops.iter().enumerate() {
            op.validate()?;
            match op {
                PipelineOp::Normalize => {
                    // The max-reduction is only defined over the raw input:
                    // stage 0, or stage 1 right behind the chroma split of a
                    // composed colour plan (the luminance plane *is* the raw
                    // input of the scalar sub-machine there).
                    let behind_extract =
                        index == 1 && matches!(ops[0], PipelineOp::ExtractLuminance);
                    if index > 0 && !behind_extract {
                        return Err(PlanError::NormalizeNotFirst { index });
                    }
                }
                PipelineOp::BlurMask { .. } => {
                    if let Some(producer) = pending_mask {
                        return Err(PlanError::UnconsumedMask { index: producer });
                    }
                    pending_mask = Some(index);
                }
                PipelineOp::Mask(_) if pending_mask.take().is_none() => {
                    return Err(PlanError::MaskWithoutBlur { index });
                }
                PipelineOp::ExtractLuminance => {
                    pending_chroma = true;
                }
                PipelineOp::ReapplyRatio => {
                    if !pending_chroma {
                        return Err(PlanError::ReapplyWithoutExtract { index });
                    }
                    // The scalar sub-run between the split pair must be
                    // self-contained: a mask produced inside it cannot be
                    // consumed after the recombine.
                    if let Some(producer) = pending_mask {
                        return Err(PlanError::UnconsumedMask { index: producer });
                    }
                    pending_chroma = false;
                }
                _ => {}
            }
            layout = op.output_layout(layout).ok_or(PlanError::LayoutMismatch {
                index,
                op: *op,
                found: layout,
            })?;
        }
        if let Some(producer) = pending_mask {
            return Err(PlanError::UnconsumedMask { index: producer });
        }
        if input == ChannelLayout::Rgb && layout != ChannelLayout::Rgb {
            return Err(PlanError::OutputNotRgb { found: layout });
        }
        Ok(PipelinePlan {
            input_layout: input,
            ops,
        })
    }

    /// Fig. 1 of the paper as a plan: normalize, blur the inverted image
    /// into the mask, apply the non-linear masking, adjust. Compiled by
    /// either planner this is bit-identical to the pre-redesign engines.
    pub fn paper_default() -> Self {
        PipelinePlan::from_params(&ToneMapParams::paper_default())
    }

    /// The Fig. 1 chain with the given stage parameters — what
    /// [`crate::ToneMapper::try_new`] compiles.
    ///
    /// Invalid parameters still produce a plan; they surface as
    /// [`PlanError::InvalidStage`] when the plan is re-validated (the
    /// classic constructors validate [`ToneMapParams`] first, so the two
    /// error surfaces agree).
    pub fn from_params(params: &ToneMapParams) -> Self {
        PipelinePlan {
            input_layout: ChannelLayout::Scalar,
            ops: vec![
                PipelineOp::Normalize,
                PipelineOp::BlurMask {
                    blur: params.blur,
                    invert_input: params.masking.invert_mask,
                },
                PipelineOp::Mask(params.masking),
                PipelineOp::Curve(Curve::Adjust(params.adjust)),
            ],
        }
    }

    /// Resolves a named preset with optional tuning. `params` seeds the
    /// classic stages (blur/masking/adjust) of parameterised presets.
    ///
    /// | name | plan |
    /// |---|---|
    /// | `paper` | the Fig. 1 chain ([`PipelinePlan::from_params`]) |
    /// | `basedetail` | two-stencil Durand-style base–detail split: the Fig. 1 inverted blur compresses the base layer, a second (quarter-width) blur recombines detail |
    /// | `reinhard` | normalize → global Reinhard (key 8, white 8) |
    /// | `histeq` | normalize → histogram equalization (256 bins) |
    /// | `gamma` | normalize → gamma curve (γ = 1/2.2) |
    /// | `log` | normalize → log curve (k = 100) |
    /// | `hsv-reinhard` | **Rgb input**: normalize → rgb-to-hsv → Reinhard on V → hsv-to-rgb (the SNIPPETS #1–2 colour convention) |
    /// | `filmic` | normalize → Hable filmic curve (exposure 11.2) |
    /// | `aces` | normalize → ACES filmic approximation (exposure 8) |
    /// | `drago` | normalize → Drago adaptive log curve (bias 0.85) |
    /// | `pq-out` | the Fig. 1 chain re-encoded through the PQ OETF (peak 1000 cd/m²) |
    /// | `hlg-out` | the Fig. 1 chain re-encoded through the HLG OETF |
    ///
    /// # Errors
    ///
    /// `Ok(None)` when the name is unknown; [`PlanError`] when the tuning
    /// values are invalid.
    pub fn preset(
        name: &str,
        params: &ToneMapParams,
        tuning: &PlanTuning,
    ) -> Result<Option<Self>, PlanError> {
        preset_row(name)
            .map(|(_, _, build)| {
                let (input, ops) = build(params, tuning);
                PipelinePlan::with_input(input, ops)
            })
            .transpose()
    }

    /// The tuning keys preset `name` reads, as the engine layer's spec keys
    /// spell them (`reinhard_key`, `peak`, …); `None` when the name is
    /// unknown. A preset reads no other tuning.
    pub fn preset_keys(name: &str) -> Option<&'static [&'static str]> {
        preset_row(name).map(|(_, keys, _)| *keys)
    }

    /// The ordered stages.
    pub fn ops(&self) -> &[PipelineOp] {
        &self.ops
    }

    /// The layout of the input register this plan reads (`Scalar` for every
    /// luminance plan, `Rgb` for colour-managed plans).
    pub const fn input_layout(&self) -> ChannelLayout {
        self.input_layout
    }

    /// The layout of the register the plan ends in (validation guarantees
    /// `Rgb` for `Rgb`-input plans and `Scalar` for `Scalar`-input plans).
    pub fn output_layout(&self) -> ChannelLayout {
        self.ops.iter().fold(self.input_layout, |layout, op| {
            op.output_layout(layout)
                .expect("validated plans thread layouts")
        })
    }

    /// The input layout each op reads, in plan order (what the profiler
    /// prices each stage under).
    pub fn op_input_layouts(&self) -> Vec<ChannelLayout> {
        let mut layout = self.input_layout;
        self.ops
            .iter()
            .map(|op| {
                let input = layout;
                layout = op
                    .output_layout(layout)
                    .expect("validated plans thread layouts");
                input
            })
            .collect()
    }

    /// The widest register (samples per pixel) any stage of the plan reads
    /// or writes — the memory-traffic multiplier of the widened register
    /// file (scalar plans stay at 1, so classic costings are unchanged).
    pub fn max_register_width(&self) -> usize {
        let mut layout = self.input_layout;
        let mut widest = layout.width();
        for op in &self.ops {
            layout = op
                .output_layout(layout)
                .expect("validated plans thread layouts");
            widest = widest.max(layout.width());
        }
        widest
    }

    /// Wraps a `Scalar`-input plan into the equivalent `Rgb`-input plan by
    /// making the old hard-coded backend RGB path explicit:
    /// `extract-luminance → <the plan> → reapply-ratio`. An `Rgb`-input
    /// plan is returned unchanged — it already describes its own colour
    /// handling.
    pub fn compose_for_rgb(&self) -> Self {
        if self.input_layout == ChannelLayout::Rgb {
            return self.clone();
        }
        let mut ops = Vec::with_capacity(self.ops.len() + 2);
        ops.push(PipelineOp::ExtractLuminance);
        ops.extend(self.ops.iter().copied());
        ops.push(PipelineOp::ReapplyRatio);
        PipelinePlan::with_input(ChannelLayout::Rgb, ops)
            .expect("composing a valid scalar plan yields a valid rgb plan")
    }

    /// Splits an `Rgb`-input plan into the colour-stage walk the executors
    /// share ([`run_color_plan`]): per-pixel colour point runs, the chroma
    /// split/merge pair, and the embedded `Scalar` sub-plans that the
    /// luminance machinery (fusion, segmentation, scheduling) runs
    /// unchanged.
    ///
    /// A leading [`PipelineOp::Normalize`] is *not* part of any stage — the
    /// executor resolves the colour max-reduction itself before the walk.
    pub fn color_stages(&self) -> Vec<ColorStage> {
        debug_assert_eq!(self.input_layout, ChannelLayout::Rgb);
        let mut stages = Vec::new();
        let mut points: Vec<PipelineOp> = Vec::new();
        let mut scalar_run: Vec<PipelineOp> = Vec::new();
        let mut scalar_start = 0usize;
        let mut in_scalar = false;
        for (index, op) in self.ops.iter().enumerate() {
            if index == 0 && matches!(op, PipelineOp::Normalize) {
                continue;
            }
            if in_scalar {
                match op {
                    PipelineOp::ReapplyRatio => {
                        if !scalar_run.is_empty() {
                            let sub = PipelinePlan::new(std::mem::take(&mut scalar_run))
                                .expect("a validated scalar sub-run is a valid plan");
                            stages.push(ColorStage::Scalar {
                                plan: sub,
                                start: scalar_start,
                            });
                        }
                        stages.push(ColorStage::Reapply);
                        in_scalar = false;
                    }
                    _ => scalar_run.push(*op),
                }
                continue;
            }
            match op {
                PipelineOp::ExtractLuminance => {
                    if !points.is_empty() {
                        stages.push(ColorStage::Points(std::mem::take(&mut points)));
                    }
                    stages.push(ColorStage::Extract);
                    in_scalar = true;
                    scalar_start = index + 1;
                }
                _ => points.push(*op),
            }
        }
        if !points.is_empty() {
            stages.push(ColorStage::Points(points));
        }
        stages
    }

    /// `true` when this plan is exactly the Fig. 1 shape
    /// (normalize → blur-mask → mask → adjust over the scalar register).
    pub fn is_paper_shaped(&self) -> bool {
        self.input_layout == ChannelLayout::Scalar
            && matches!(
                self.ops.as_slice(),
                [
                    PipelineOp::Normalize,
                    PipelineOp::BlurMask { .. },
                    PipelineOp::Mask(_),
                    PipelineOp::Curve(Curve::Adjust(_)),
                ]
            )
    }

    /// `true` when the first stage normalizes the raw input.
    pub fn starts_with_normalize(&self) -> bool {
        matches!(self.ops.first(), Some(PipelineOp::Normalize))
    }

    /// The stencil stages of the plan (`(index, blur, invert_input)` per
    /// [`PipelineOp::BlurMask`]), in order.
    pub fn stencil_stages(&self) -> impl Iterator<Item = (usize, BlurParams, bool)> + '_ {
        self.ops.iter().enumerate().filter_map(|(i, op)| match op {
            PipelineOp::BlurMask { blur, invert_input } => Some((i, *blur, *invert_input)),
            _ => None,
        })
    }

    /// Splits the plan at its materialization barriers — the reduction
    /// stages that must see the whole intermediate image before the first
    /// output pixel can stream — into the fused segments the streaming
    /// planner compiles one line-buffer cascade each.
    ///
    /// `segments.len() == barriers.len() + 1` always holds (end segments may
    /// be empty), so a barrier-free plan is exactly one segment.
    pub fn segmentation(&self) -> PlanSegmentation {
        let mut segments = Vec::new();
        let mut barriers = Vec::new();
        let mut start = 0usize;
        let mut stencils = Vec::new();
        for (index, op) in self.ops.iter().enumerate() {
            match op {
                PipelineOp::HistogramEq { .. } => {
                    segments.push(PlanSegment {
                        start,
                        end: index,
                        stencils: std::mem::take(&mut stencils),
                    });
                    barriers.push(index);
                    start = index + 1;
                }
                PipelineOp::BlurMask { blur, invert_input } => {
                    stencils.push((index, *blur, *invert_input));
                }
                _ => {}
            }
        }
        segments.push(PlanSegment {
            start,
            end: self.ops.len(),
            stencils,
        });
        PlanSegmentation { segments, barriers }
    }

    /// The per-stage analytic operation profile of this plan — the
    /// plan-aware generalisation of [`PipelineProfile::analytic`] the
    /// profiler and the platform models consume.
    pub fn profile(&self, width: usize, height: usize, channels: usize) -> PipelineProfile {
        PipelineProfile {
            width,
            height,
            channels,
            stages: self
                .ops
                .iter()
                .zip(self.op_input_layouts())
                .map(|(op, layout)| StageProfile {
                    stage: op.stage_kind(),
                    ops: op.op_counts(width, height, channels, layout),
                })
                .collect(),
        }
    }
}

/// One preset: its name, the tuning keys its builder reads, and the builder,
/// which lists the plan's input layout and stages from the classic stage
/// parameters and the tuning. [`PipelinePlan::preset`] validates them.
type PresetRow = (
    &'static str,
    &'static [&'static str],
    fn(&ToneMapParams, &PlanTuning) -> (ChannelLayout, Vec<PipelineOp>),
);

/// The preset catalogue, in catalogue order. [`PipelinePlan::PRESETS`],
/// [`PipelinePlan::preset`] and [`PipelinePlan::preset_keys`] read it.
const PRESET_TABLE: [PresetRow; 12] = [
    ("paper", &[], |p, _| {
        scalar(PipelinePlan::from_params(p).ops)
    }),
    ("basedetail", &[], |p, _| base_detail(p)),
    ("reinhard", &["reinhard_key", "reinhard_white"], |_, t| {
        normalized(reinhard(t))
    }),
    ("histeq", &["bins"], |_, t| {
        let bins = t.bins.unwrap_or(256);
        scalar(vec![
            PipelineOp::Normalize,
            PipelineOp::HistogramEq { bins },
        ])
    }),
    ("gamma", &["gamma"], |_, t| {
        normalized(Curve::Gamma {
            gamma: t.gamma.unwrap_or(1.0 / 2.2),
        })
    }),
    ("log", &["log_scale"], |_, t| {
        normalized(Curve::LogCurve {
            scale: t.log_scale.unwrap_or(100.0),
        })
    }),
    (
        "hsv-reinhard",
        &["reinhard_key", "reinhard_white"],
        |_, t| {
            // Tone-map the value channel in HSV space, the convention of the
            // related HDR viewers: hue and saturation ride along untouched, so
            // no ratio recombine is needed.
            let ops = vec![
                PipelineOp::Normalize,
                PipelineOp::RgbToHsv,
                PipelineOp::Curve(reinhard(t)),
                PipelineOp::HsvToRgb,
            ];
            (ChannelLayout::Rgb, ops)
        },
    ),
    ("filmic", &["exposure"], |_, t| {
        normalized(Curve::Hable {
            // 11.2 is the Hable linear white: the normalized maximum maps
            // exactly to 1.
            exposure: t.exposure.unwrap_or(color::HABLE_WHITE),
        })
    }),
    ("aces", &["exposure"], |_, t| {
        normalized(Curve::Aces {
            exposure: t.exposure.unwrap_or(8.0),
        })
    }),
    ("drago", &["bias"], |_, t| {
        normalized(Curve::Drago {
            bias: t.drago_bias.unwrap_or(0.85),
        })
    }),
    ("pq-out", &["peak"], |p, t| {
        let peak_nits = t.peak_nits.unwrap_or(1000.0);
        fig1_then(p, Curve::PqOetf { peak_nits })
    }),
    ("hlg-out", &[], |p, _| fig1_then(p, Curve::HlgOetf)),
];

/// The [`PRESET_TABLE`] row named `name`.
fn preset_row(name: &str) -> Option<&'static PresetRow> {
    PRESET_TABLE.iter().find(|(row, ..)| *row == name)
}

/// A luminance preset's stages.
fn scalar(ops: Vec<PipelineOp>) -> (ChannelLayout, Vec<PipelineOp>) {
    (ChannelLayout::Scalar, ops)
}

/// `normalize → curve`, the shape of every global-curve preset.
fn normalized(curve: Curve) -> (ChannelLayout, Vec<PipelineOp>) {
    scalar(vec![PipelineOp::Normalize, PipelineOp::Curve(curve)])
}

/// The Fig. 1 chain re-encoded through one more curve.
fn fig1_then(params: &ToneMapParams, curve: Curve) -> (ChannelLayout, Vec<PipelineOp>) {
    let mut ops = PipelinePlan::from_params(params).ops;
    ops.push(PipelineOp::Curve(curve));
    scalar(ops)
}

/// Global Reinhard at the tuned key. The default `white = key` maps the
/// normalized maximum exactly to 1.
fn reinhard(tuning: &PlanTuning) -> Curve {
    let key = tuning.reinhard_key.unwrap_or(8.0);
    Curve::Reinhard {
        key,
        white: tuning.reinhard_white.unwrap_or(key),
    }
}

/// Durand-style base–detail decomposition (the direction the real-time TMO
/// survey points local operators toward): the Fig. 1 inverted wide blur
/// compresses the base layer, then a narrower blur of the compressed image
/// recombines local detail with a milder, non-inverted masking. Two stencil
/// stages — the cascade the streaming planner fuses back-to-back.
fn base_detail(params: &ToneMapParams) -> (ChannelLayout, Vec<PipelineOp>) {
    let detail_blur = BlurParams {
        sigma: (params.blur.sigma * 0.25).max(0.5),
        radius: (params.blur.radius / 4).max(1),
    };
    let detail_masking = MaskingParams {
        strength: params.masking.strength * 0.5,
        invert_mask: false,
    };
    scalar(vec![
        PipelineOp::Normalize,
        PipelineOp::BlurMask {
            blur: params.blur,
            invert_input: params.masking.invert_mask,
        },
        PipelineOp::Mask(params.masking),
        PipelineOp::BlurMask {
            blur: detail_blur,
            invert_input: false,
        },
        PipelineOp::Mask(detail_masking),
        PipelineOp::Curve(Curve::Adjust(params.adjust)),
    ])
}

impl fmt::Display for PipelinePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                f.write_str(" → ")?;
            }
            write!(f, "{op}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The colour-register walk shared by every planner.
// ---------------------------------------------------------------------------

/// One stage of the colour walk ([`PipelinePlan::color_stages`]) an
/// `Rgb`-input plan decomposes into: fused per-pixel colour point runs, the
/// chroma split/merge pair, and embedded `Scalar` sub-plans that the
/// existing luminance machinery executes unchanged.
#[derive(Debug, Clone, PartialEq)]
pub enum ColorStage {
    /// A fused run of per-pixel colour point ops: the RGB ↔ HSV conversions
    /// and curves. Each curve reads its [`Curve::colour_layout`]
    /// ([`PipelinePlan::op_input_layouts`] reports it too).
    Points(Vec<PipelineOp>),
    /// [`PipelineOp::ExtractLuminance`]: split the colour register into the
    /// luminance plane and the saved chroma.
    Extract,
    /// [`PipelineOp::ReapplyRatio`]: recombine the saved chroma with the
    /// tone-mapped luminance by clamped per-pixel ratio.
    Reapply,
    /// A contiguous `Scalar` sub-plan between the split pair — the part a
    /// scalar executor (two-pass or streaming) runs as its own plan.
    Scalar {
        /// The embedded sub-plan.
        plan: PipelinePlan,
        /// Index of the sub-plan's first op in the outer plan (for
        /// compiled-program lookups and diagnostics).
        start: usize,
    },
}

/// The colour max-reduction of a leading [`PipelineOp::Normalize`] on an
/// `Rgb` register: the reciprocal of the largest finite channel sample, or
/// `None` for an all-black (or all-poisoned) image, where normalization
/// keeps values unchanged — the colour analogue of
/// [`crate::normalize::normalization_scale`], folded in the same
/// vectorized lanes.
pub fn rgb_normalization_scale(image: &RgbImage) -> Option<f32> {
    let max = finite_max(image.pixels(), |p| [p.r, p.g, p.b]);
    (max > 0.0).then(|| 1.0 / max)
}

/// Applies one colour point op in place to a colour row held as three
/// channel rows: conversions read and write all three, a transfer curve
/// runs on each channel row of its `Rgb` register, and a tone curve on the
/// value row of its `Hsv` register — through [`Curve::apply`], the one
/// definition the scalar executors call too, so a curve applied to V agrees
/// bit-exactly with the same curve applied to a luminance plane.
fn apply_color_op_planes(op: &PipelineOp, [x, y, z]: [&mut [f32]; 3]) {
    match op {
        PipelineOp::RgbToHsv => convert_planes([x, y, z], color::rgb_to_hsv),
        PipelineOp::HsvToRgb => convert_planes([x, y, z], color::hsv_to_rgb),
        PipelineOp::Curve(curve) => match curve.colour_layout() {
            ChannelLayout::Rgb => [x, y, z].into_iter().for_each(|plane| curve.apply(plane)),
            _ => curve.apply(z),
        },
        _ => unreachable!("colour point runs hold only conversions and curves"),
    }
}

/// Applies a per-pixel colour conversion in place across three channel
/// rows.
#[inline]
fn convert_planes([x, y, z]: [&mut [f32]; 3], convert: impl Fn(Rgb<f32>) -> Rgb<f32>) {
    for ((x, y), z) in x.iter_mut().zip(y.iter_mut()).zip(z.iter_mut()) {
        let p = convert(Rgb::new(*x, *y, *z));
        (*x, *y, *z) = (p.r, p.g, p.b);
    }
}

/// Splits one colour row into its three channel rows, ingesting every
/// sample on the way (the leading colour normalize, when one is pending).
fn split_row(src: &[Rgb<f32>], [x, y, z]: [&mut [f32]; 3], ingest: Ingest) {
    fn split(src: &[Rgb<f32>], [x, y, z]: [&mut [f32]; 3], f: impl Fn(f32) -> f32) {
        for (((p, x), y), z) in src.iter().zip(x).zip(y).zip(z) {
            (*x, *y, *z) = (f(p.r), f(p.g), f(p.b));
        }
    }
    match ingest {
        Ingest::Source(Some(scale)) => split(src, [x, y, z], |c| normalize_sample(c, Some(scale))),
        Ingest::Source(None) => split(src, [x, y, z], |c| normalize_sample(c, None)),
        Ingest::Passthrough => split(src, [x, y, z], |c| c),
    }
}

/// One row pass over a run of colour point ops, plane-major: each row is
/// split once into three contiguous channel rows (ingesting it on the
/// way), every op runs over whole channel rows, and the row is interleaved
/// once — through a trailing `HsvToRgb`, when the run ends in one.
fn apply_color_points(ingest: Ingest, ops: &[PipelineOp], image: &RgbImage) -> RgbImage {
    let (width, height) = image.dimensions();
    let (ops, to_rgb) = match ops.split_last() {
        Some((PipelineOp::HsvToRgb, rest)) => (rest, true),
        _ => (ops, false),
    };
    let mut planes = [
        vec![0.0f32; width],
        vec![0.0f32; width],
        vec![0.0f32; width],
    ];
    let mut out: Vec<Rgb<f32>> = Vec::with_capacity(width * height);
    for src in image.pixels().chunks_exact(width) {
        let [x, y, z] = &mut planes;
        split_row(src, [x, y, z], ingest);
        for op in ops {
            apply_color_op_planes(op, [x, y, z]);
        }
        let pixels = x.iter().zip(y.iter()).zip(z.iter());
        let pixels = pixels.map(|((&x, &y), &z)| Rgb::new(x, y, z));
        if to_rgb {
            out.extend(pixels.map(color::hsv_to_rgb));
        } else {
            out.extend(pixels);
        }
    }
    RgbImage::from_vec(width, height, out).expect("output dimensions equal input dimensions")
}

/// Executes a colour-managed plan over an RGB image, delegating every
/// embedded `Scalar` sub-plan to `scalar` — the walk both planners share,
/// so they differ only in how they schedule the scalar sub-plans (two-pass
/// materialization vs the streaming cascade).
///
/// A `Scalar`-input plan is auto-composed through
/// [`PipelinePlan::compose_for_rgb`] first, which makes this the explicit
/// form of the old hard-coded backend RGB path: extract the luminance
/// plane, run the scalar plan on it, reapply the colour by clamped ratio.
///
/// A leading normalize is resolved as the colour max-reduction before the
/// walk, and its per-sample step becomes the first step of the first row
/// pass (a colour point run, or an extract reading the raw input), so the
/// normalized image is never materialized on its own.
///
/// The `scalar` callback receives the global index of the sub-plan's first
/// op, the sub-plan itself, and the luminance register; it returns the
/// transformed register.
///
/// # Errors
///
/// Whatever `scalar` returns, plus [`hdr_image::ImageError`] from the ratio
/// recombine (converted through `E`).
pub fn run_color_plan<E, F>(
    plan: &PipelinePlan,
    hdr: &RgbImage,
    mut scalar: F,
) -> Result<RgbImage, E>
where
    E: From<hdr_image::ImageError>,
    F: FnMut(usize, &PipelinePlan, &LuminanceImage) -> Result<LuminanceImage, E>,
{
    let composed;
    let plan = if plan.input_layout() == ChannelLayout::Rgb {
        plan
    } else {
        composed = plan.compose_for_rgb();
        &composed
    };
    // The colour register starts as the raw input, borrowed; the first
    // stage that reads it applies the pending ingest.
    let mut ingest = if plan.starts_with_normalize() {
        Ingest::Source(rgb_normalization_scale(hdr))
    } else {
        Ingest::Passthrough
    };
    let mut color: Option<Cow<'_, RgbImage>> = Some(Cow::Borrowed(hdr));
    let mut plane: Option<LuminanceImage> = None;
    let mut chroma: Option<Cow<'_, RgbImage>> = None;
    for stage in plan.color_stages() {
        match stage {
            ColorStage::Points(ops) => {
                let img = color
                    .take()
                    .expect("points stage reads the colour register");
                let ingest = std::mem::replace(&mut ingest, Ingest::Passthrough);
                color = Some(Cow::Owned(apply_color_points(ingest, &ops, &img)));
            }
            ColorStage::Extract => {
                let img = color.take().expect("extract reads the colour register");
                let img = settle_ingest(img, &mut ingest);
                plane = Some(luminance_plane(&img));
                chroma = Some(img);
            }
            ColorStage::Scalar { plan: sub, start } => {
                let lum = plane
                    .take()
                    .expect("scalar stage reads the luminance register");
                plane = Some(scalar(start, &sub, &lum)?);
            }
            ColorStage::Reapply => {
                let saved = chroma
                    .take()
                    .expect("validation pairs reapply with extract");
                let lum = plane.take().expect("reapply reads the luminance register");
                color = Some(Cow::Owned(reapply_color(&saved, &lum)?));
            }
        }
    }
    let color = color.expect("validated rgb plans end in the colour register");
    Ok(settle_ingest(color, &mut ingest).into_owned())
}

/// Applies a still-pending ingest (the leading colour normalize) to the
/// colour register as a pass of its own — needed only where no colour
/// point run follows the normalize to fold it into: an extract reading the
/// raw input, or a normalize-only plan. With no op to run per channel, the
/// pass stays one flat sweep over the interleaved samples.
fn settle_ingest<'a>(image: Cow<'a, RgbImage>, ingest: &mut Ingest) -> Cow<'a, RgbImage> {
    match std::mem::replace(ingest, Ingest::Passthrough) {
        Ingest::Passthrough => image,
        Ingest::Source(scale) => Cow::Owned(image.map(|p| p.map(|c| normalize_sample(c, scale)))),
    }
}

// ---------------------------------------------------------------------------
// Per-sample math of the Reinhard and log curves and of the histogram
// operator.
//
// The curve helpers are the `f32` cores [`Curve::apply`] runs for every
// schedule (two-pass all-sample, two-pass hardware-split, the fused rows
// and the colour walk), so the planners stay bit-identical on them.
// ---------------------------------------------------------------------------

/// One global-Reinhard sample: `L·(1 + L/white²)/(1 + L)` with `L = key·x`.
///
/// Where the formula degenerates it returns its limit: 0 for `L = 0` once
/// `white²` underflows to 0 (0/0), and 1 once `L` overflows to ∞ (∞/∞).
/// Every other sample keeps the formula's bits.
#[inline]
pub fn reinhard_sample(value: f32, key: f32, white: f32) -> f32 {
    let l = key * value.max(0.0);
    let mapped = (l * (1.0 + l / (white * white)) / (1.0 + l)).clamp(0.0, 1.0);
    if mapped.is_nan() {
        if l > 0.0 {
            1.0
        } else {
            0.0
        }
    } else {
        mapped
    }
}

/// One log-curve sample: `ln(1 + scale·x) / ln(1 + scale)`.
///
/// Below `scale` = 2⁻²⁴, `1 + scale` rounds to 1 and small samples give
/// 0/0; there the curve returns its limit as `scale → 0`, the identity
/// (clamped). Every other sample keeps the formula's bits.
#[inline]
pub fn log_curve_sample(value: f32, scale: f32) -> f32 {
    let x = value.max(0.0);
    let mapped = ((1.0 + scale * x).ln() / (1.0 + scale).ln()).clamp(0.0, 1.0);
    if mapped.is_nan() {
        x.min(1.0)
    } else {
        mapped
    }
}

/// The histogram level of a sample in `[0, 1]` for a `bins`-level histogram.
#[inline]
pub fn histogram_level(value: f32, bins: usize) -> usize {
    // NaN casts to 0, so poisoned samples land deterministically in bin 0.
    ((value.clamp(0.0, 1.0) * (bins - 1) as f32) as usize).min(bins - 1)
}

/// Histogram-equalizes an image in the working sample type: `bins`-level
/// histogram, CDF, remap — the barrier of a still. A constant image
/// (nothing to equalize) is returned unchanged rather than collapsed to
/// black.
pub fn histogram_equalize<S: Sample>(image: &ImageBuffer<S>, bins: usize) -> ImageBuffer<S> {
    histogram_barrier(image, bins, 0, &mut FrameReductions, Vec::new())
}

/// The histogram barrier both executors run at plan stage `stage`: bins
/// the register, asks `reductions` for the CDF to remap through (`f64`, so
/// a blended histogram remaps too), and remaps every sample into `frame`
/// ([`ImageBuffer::map_into`]). A degenerate CDF (every sample in one bin)
/// leaves the register unchanged.
pub(crate) fn histogram_barrier<S: Sample>(
    image: &ImageBuffer<S>,
    bins: usize,
    stage: usize,
    reductions: &mut dyn Reductions,
    frame: Vec<S>,
) -> ImageBuffer<S> {
    let mut counts = vec![0u64; bins];
    for v in image.pixels() {
        counts[histogram_level(v.to_f32(), bins)] += 1;
    }
    let cdf = reductions.histogram_cdf(stage, &counts);
    assert_eq!(cdf.len(), bins, "a barrier's CDF has one entry per bin");
    let total = cdf.last().copied().unwrap_or(0.0);
    let cdf_min = cdf.iter().copied().find(|&c| c > 0.0).unwrap_or(0.0);
    if total <= cdf_min {
        return image.map_into(|&v| v, frame);
    }
    let denom = total - cdf_min;
    image.map_into(
        |&v| {
            let level = histogram_level(v.to_f32(), bins);
            // A blended CDF can put a pixel below its own first occupied
            // bin; the difference goes negative there and `clamp01` floors
            // it.
            S::from_f32(((cdf[level] - cdf_min) / denom) as f32).clamp01()
        },
        frame,
    )
}

// ---------------------------------------------------------------------------
// The two-pass (materialized) compilation of a plan.
// ---------------------------------------------------------------------------

/// Two-pass execution: the register is a full-size image in `R` between
/// stages, each stencil runs through `stencil`, and masks and curves update
/// the register in place. `R = S` with `blur_separable` runs every stage in
/// `S`; `R = f32` with [`accelerated_blur`] is the paper's hardware/software
/// split. For the paper plan either computes exactly the arithmetic of the
/// pre-redesign chains, in the same order. `reductions` binds the
/// normalize scale, the Reinhard key factor and each barrier's CDF.
pub(crate) fn execute_plan<R: Sample>(
    plan: &PipelinePlan,
    hdr: &LuminanceImage,
    stencil: impl Fn(&ImageBuffer<R>, &BlurParams) -> ImageBuffer<R>,
    reductions: &mut dyn Reductions,
) -> ImageBuffer<R> {
    execute_plan_into(plan, hdr, stencil, reductions, Vec::new())
}

/// [`execute_plan`], with the register returned in `frame`: the last step
/// that materializes the register — the last barrier, or the ingest of a
/// plan without one — writes it there, and every later stage updates it
/// in place.
pub(crate) fn execute_plan_into<R: Sample>(
    plan: &PipelinePlan,
    hdr: &LuminanceImage,
    stencil: impl Fn(&ImageBuffer<R>, &BlurParams) -> ImageBuffer<R>,
    reductions: &mut dyn Reductions,
    mut frame: Vec<R>,
) -> ImageBuffer<R> {
    let last_barrier = plan
        .ops()
        .iter()
        .rposition(|op| matches!(op, PipelineOp::HistogramEq { .. }));
    let normalize = plan.starts_with_normalize();
    let scale = normalize.then(|| reductions.normalize_scale(hdr)).flatten();
    let ingest_frame = if last_barrier.is_none() {
        std::mem::take(&mut frame)
    } else {
        Vec::new()
    };
    let mut img: ImageBuffer<R> = crate::normalize::normalize_with(hdr, scale, ingest_frame);
    let key_scale = reductions.key_scale();
    let mut mask: Option<ImageBuffer<R>> = None;
    for (stage, op) in plan.ops().iter().enumerate().skip(usize::from(normalize)) {
        match op.with_key_scale(key_scale) {
            PipelineOp::BlurMask { blur, invert_input } => {
                let mask_input = if invert_input {
                    crate::masking::invert(&img)
                } else {
                    img.clone()
                };
                mask = Some(stencil(&mask_input, &blur));
            }
            PipelineOp::Mask(masking) => {
                let mask = mask.take().expect("plan validation pairs mask with blur");
                crate::masking::mask_in_place(img.pixels_mut(), mask.pixels(), &masking);
            }
            PipelineOp::HistogramEq { bins } => {
                let out = if last_barrier == Some(stage) {
                    std::mem::take(&mut frame)
                } else {
                    Vec::new()
                };
                img = histogram_barrier(&img, bins, stage, reductions, out);
            }
            // In place over the register, so the row kernels vectorize.
            PipelineOp::Curve(curve) => curve.apply(img.pixels_mut()),
            PipelineOp::Normalize
            | PipelineOp::RgbToHsv
            | PipelineOp::HsvToRgb
            | PipelineOp::ExtractLuminance
            | PipelineOp::ReapplyRatio => {
                unreachable!("normalize leads the plan and colour ops stay in the colour walk")
            }
        }
    }
    img
}

/// The stencil step of the hardware/software split: quantise the `f32`
/// register into `S`, blur in `S`, dequantise — the DDR → BRAM → DDR round
/// trip of Fig. 4 with a W-bit data bus.
pub(crate) fn accelerated_blur<S: Sample>(
    input: &LuminanceImage,
    blur: &BlurParams,
) -> LuminanceImage {
    let accel_in: ImageBuffer<S> = input.map(|&v| S::from_f32(v));
    crate::blur::blur_separable(&accel_in, blur).map(|&v| v.to_f32())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blur::blur_separable;
    use apfixed::Fix16;
    use hdr_image::synth::SceneKind;

    #[test]
    fn paper_default_is_the_fig1_chain() {
        let plan = PipelinePlan::paper_default();
        assert!(plan.is_paper_shaped());
        assert!(plan.starts_with_normalize());
        assert_eq!(plan.ops().len(), 4);
        assert_eq!(plan.stencil_stages().count(), 1);
        assert!(plan.segmentation().barriers.is_empty());
        let (index, blur, inverted) = plan.stencil_stages().next().unwrap();
        assert_eq!(index, 1);
        assert_eq!(blur, BlurParams::paper_default());
        assert!(inverted);
    }

    #[test]
    fn validation_rejects_malformed_sequences() {
        let masking = MaskingParams::paper_default();
        let blur = BlurParams::paper_default();
        assert_eq!(PipelinePlan::new(vec![]), Err(PlanError::EmptyPlan));
        assert_eq!(
            PipelinePlan::new(vec![
                PipelineOp::Curve(Curve::Invert),
                PipelineOp::Normalize
            ]),
            Err(PlanError::NormalizeNotFirst { index: 1 })
        );
        assert_eq!(
            PipelinePlan::new(vec![PipelineOp::Normalize, PipelineOp::Mask(masking)]),
            Err(PlanError::MaskWithoutBlur { index: 1 })
        );
        assert_eq!(
            PipelinePlan::new(vec![PipelineOp::BlurMask {
                blur,
                invert_input: true
            }]),
            Err(PlanError::UnconsumedMask { index: 0 })
        );
        assert_eq!(
            PipelinePlan::new(vec![
                PipelineOp::BlurMask {
                    blur,
                    invert_input: true
                },
                PipelineOp::BlurMask {
                    blur,
                    invert_input: false
                },
                PipelineOp::Mask(masking),
            ]),
            Err(PlanError::UnconsumedMask { index: 0 })
        );
        assert_eq!(
            PipelinePlan::new(vec![PipelineOp::Curve(Curve::Gamma { gamma: 0.0 })]),
            Err(PlanError::InvalidGamma(0.0))
        );
        assert_eq!(
            PipelinePlan::new(vec![PipelineOp::HistogramEq { bins: 1 }]),
            Err(PlanError::InvalidBins(1))
        );
        assert!(matches!(
            PipelinePlan::new(vec![PipelineOp::Curve(Curve::Reinhard {
                key: f32::NAN,
                white: 1.0
            })]),
            Err(PlanError::InvalidReinhardKey(_))
        ));
        let mut bad_blur = blur;
        bad_blur.radius = 0;
        assert_eq!(
            PipelinePlan::new(vec![
                PipelineOp::BlurMask {
                    blur: bad_blur,
                    invert_input: true
                },
                PipelineOp::Mask(masking)
            ]),
            Err(PlanError::InvalidStage(ParamError::ZeroBlurRadius))
        );
    }

    #[test]
    fn two_blur_mask_pairs_are_a_valid_plan() {
        let blur = BlurParams {
            sigma: 2.0,
            radius: 4,
        };
        let masking = MaskingParams::paper_default();
        let plan = PipelinePlan::new(vec![
            PipelineOp::Normalize,
            PipelineOp::BlurMask {
                blur,
                invert_input: true,
            },
            PipelineOp::Mask(masking),
            PipelineOp::BlurMask {
                blur,
                invert_input: false,
            },
            PipelineOp::Mask(masking),
        ])
        .expect("paired blur/mask sequences validate");
        assert_eq!(plan.stencil_stages().count(), 2);
    }

    #[test]
    fn every_preset_validates_its_plan_in_one_place() {
        let tuning = PlanTuning::default();
        for name in PipelinePlan::PRESETS {
            let plan = PipelinePlan::preset(name, &ToneMapParams::paper_default(), &tuning);
            assert!(matches!(plan, Ok(Some(_))), "`{name}`: {plan:?}");
        }
        // The four presets over the Fig. 1 stages reject a zero radius alike.
        let mut params = ToneMapParams::paper_default();
        params.blur.radius = 0;
        for name in ["paper", "basedetail", "pq-out", "hlg-out"] {
            let plan = PipelinePlan::preset(name, &params, &tuning);
            assert!(
                matches!(plan, Err(PlanError::InvalidStage(_))),
                "`{name}`: {plan:?}"
            );
        }
    }

    #[test]
    fn presets_resolve_and_apply_tuning() {
        let params = ToneMapParams::paper_default();
        let tuning = PlanTuning::default();
        for name in PipelinePlan::PRESETS {
            let plan = PipelinePlan::preset(name, &params, &tuning)
                .expect("default tuning is valid")
                .unwrap_or_else(|| panic!("preset `{name}` must resolve"));
            assert!(!plan.ops().is_empty());
            assert!(plan.starts_with_normalize());
        }
        assert_eq!(
            PipelinePlan::preset("vaporwave", &params, &tuning).unwrap(),
            None
        );
        let tuned = PipelinePlan::preset(
            "reinhard",
            &params,
            &PlanTuning {
                reinhard_key: Some(4.0),
                ..PlanTuning::default()
            },
        )
        .unwrap()
        .unwrap();
        assert_eq!(
            tuned.ops()[1],
            PipelineOp::Curve(Curve::Reinhard {
                key: 4.0,
                white: 4.0
            })
        );
        assert!(matches!(
            PipelinePlan::preset(
                "histeq",
                &params,
                &PlanTuning {
                    bins: Some(1),
                    ..PlanTuning::default()
                }
            ),
            Err(PlanError::InvalidBins(1))
        ));
    }

    #[test]
    fn segmentation_splits_at_reduction_barriers() {
        // Barrier-free plans are exactly one segment.
        let paper = PipelinePlan::paper_default().segmentation();
        assert!(paper.is_single_pass());
        assert_eq!(paper.segments.len(), 1);
        assert_eq!(paper.region_count(), 1);
        assert_eq!(paper.segments[0].len(), 4);
        assert_eq!(
            paper.segments[0].latency_rows(),
            BlurParams::paper_default().radius
        );

        // A mid-plan reduction splits the plan into two fused runs.
        let blur = BlurParams {
            sigma: 2.0,
            radius: 4,
        };
        let masking = MaskingParams::paper_default();
        let plan = PipelinePlan::new(vec![
            PipelineOp::Normalize,
            PipelineOp::BlurMask {
                blur,
                invert_input: true,
            },
            PipelineOp::Mask(masking),
            PipelineOp::HistogramEq { bins: 64 },
            PipelineOp::BlurMask {
                blur,
                invert_input: false,
            },
            PipelineOp::Mask(masking),
        ])
        .unwrap();
        let seg = plan.segmentation();
        assert!(!seg.is_single_pass());
        assert_eq!(seg.barriers, vec![3]);
        assert_eq!(seg.segments.len(), 2);
        assert_eq!((seg.segments[0].start, seg.segments[0].end), (0, 3));
        assert_eq!((seg.segments[1].start, seg.segments[1].end), (4, 6));
        assert_eq!(seg.region_count(), 2);
        assert_eq!(seg.segments[1].stencils, vec![(4, blur, false)]);

        // A trailing reduction leaves an empty end segment; the invariant
        // `segments == barriers + 1` holds.
        let trailing = PipelinePlan::new(vec![
            PipelineOp::Normalize,
            PipelineOp::HistogramEq { bins: 32 },
        ])
        .unwrap()
        .segmentation();
        assert_eq!(trailing.segments.len(), 2);
        assert!(trailing.segments[1].is_empty());
        assert_eq!(trailing.segments[1].latency_rows(), 0);
    }

    #[test]
    fn basedetail_preset_is_a_two_stencil_cascade() {
        let params = ToneMapParams::paper_default();
        let plan = PipelinePlan::preset("basedetail", &params, &PlanTuning::default())
            .unwrap()
            .unwrap();
        assert_eq!(plan.ops().len(), 6);
        assert_eq!(plan.stencil_stages().count(), 2);
        assert!(plan.segmentation().barriers.is_empty());
        let stencils: Vec<_> = plan.stencil_stages().collect();
        // Base layer: the paper's wide inverted blur.
        assert_eq!(stencils[0], (1, params.blur, params.masking.invert_mask));
        // Detail layer: a narrower, non-inverted blur.
        let (_, detail, inverted) = stencils[1];
        assert!(!inverted);
        assert!(detail.radius < params.blur.radius);
        assert!(detail.sigma < params.blur.sigma);
        // One fused segment, cascade latency = sum of both radii.
        let seg = plan.segmentation();
        assert!(seg.is_single_pass());
        assert_eq!(
            seg.segments[0].latency_rows(),
            params.blur.radius + detail.radius
        );
    }

    #[test]
    fn plan_profile_of_the_paper_plan_matches_the_classic_analytic_profile() {
        let params = ToneMapParams::paper_default();
        let plan = PipelinePlan::from_params(&params);
        let a = plan.profile(640, 480, params.channels);
        let b = PipelineProfile::analytic(&params, 640, 480);
        assert_eq!(a, b);
    }

    #[test]
    fn new_operators_profile_nonzero_work() {
        let plan = PipelinePlan::new(vec![
            PipelineOp::Normalize,
            PipelineOp::Curve(Curve::Reinhard {
                key: 8.0,
                white: 8.0,
            }),
            PipelineOp::HistogramEq { bins: 64 },
        ])
        .unwrap();
        let profile = plan.profile(32, 32, 3);
        assert_eq!(profile.stages.len(), 3);
        for stage in &profile.stages {
            assert!(
                stage.ops.total() > 0,
                "{:?} profiled zero work",
                stage.stage
            );
        }
    }

    #[test]
    fn reinhard_curve_is_monotone_and_maps_key_to_white() {
        let mut last = -1.0f32;
        for i in 0..=100 {
            let x = i as f32 / 100.0;
            let y = reinhard_sample(x, 8.0, 8.0);
            assert!((0.0..=1.0).contains(&y));
            assert!(y >= last, "not monotone at {x}");
            last = y;
        }
        assert!((reinhard_sample(1.0, 8.0, 8.0) - 1.0).abs() < 1e-6);
        assert_eq!(reinhard_sample(0.0, 8.0, 8.0), 0.0);
        // Brightens dark content, like a tone mapper should.
        assert!(reinhard_sample(0.05, 8.0, 8.0) > 0.25);
    }

    #[test]
    fn log_curve_is_monotone_and_normalized() {
        assert_eq!(log_curve_sample(0.0, 100.0), 0.0);
        assert!((log_curve_sample(1.0, 100.0) - 1.0).abs() < 1e-6);
        assert!(log_curve_sample(0.01, 100.0) > 0.1);
    }

    #[test]
    fn curves_stay_finite_for_every_accepted_parameter_and_keep_every_finite_output() {
        // The formulas without their limits, as the bit reference.
        let raw_reinhard = |value: f32, key: f32, white: f32| {
            let l = key * value.max(0.0);
            (l * (1.0 + l / (white * white)) / (1.0 + l)).clamp(0.0, 1.0)
        };
        let raw_log = |value: f32, scale: f32| {
            ((1.0 + scale * value.max(0.0)).ln() / (1.0 + scale).ln()).clamp(0.0, 1.0)
        };
        // Parameters in octaves from the smallest subnormal up to f32::MAX,
        // over zero, subnormal, ordinary and non-finite samples.
        let parameters: Vec<f32> = (-149..=127)
            .map(|k| 2.0f32.powi(k))
            .chain([1e-45, 1e-30, 1e-8, 3.4e38, f32::MAX])
            .collect();
        let values: Vec<f32> = (0..2.0f32.to_bits())
            .step_by(1_048_573)
            .map(f32::from_bits)
            .chain([0.0, -0.0, 1e-45, 1.0, 2.0, -1.0, f32::INFINITY, f32::NAN])
            .collect();
        let in_range = |v: f32| (0.0..=1.0).contains(&v);
        let mut degenerate = [0usize; 2];
        for &a in &parameters {
            for &value in &values {
                let (got, old) = (log_curve_sample(value, a), raw_log(value, a));
                assert!(in_range(got), "log({value}, {a}) = {got}");
                if old.is_nan() {
                    degenerate[0] += 1;
                } else {
                    assert_eq!(got.to_bits(), old.to_bits(), "log({value}, {a})");
                }
                for white in [a, 1e-30, 1.0, f32::MAX] {
                    let (got, old) = (
                        reinhard_sample(value, a, white),
                        raw_reinhard(value, a, white),
                    );
                    assert!(in_range(got), "reinhard({value}, {a}, {white}) = {got}");
                    if old.is_nan() {
                        degenerate[1] += 1;
                    } else {
                        assert_eq!(
                            got.to_bits(),
                            old.to_bits(),
                            "reinhard({value}, {a}, {white})"
                        );
                    }
                }
            }
        }
        assert!(
            degenerate.iter().all(|&n| n > 0),
            "the sweep must reach both 0/0 cases"
        );
        // The limits themselves: identity below 2⁻²⁴, black stays black.
        assert_eq!(log_curve_sample(0.5, 1e-8), 0.5);
        assert_eq!(log_curve_sample(3.0, 1e-45), 1.0);
        assert_eq!(reinhard_sample(0.0, 1e-45, 1e-45), 0.0);
        assert_eq!(reinhard_sample(0.0, 8.0, 1e-30), 0.0);
        assert_eq!(reinhard_sample(0.9, 1e-45, 1e-45), 1.0);
    }

    #[test]
    fn histogram_equalize_flattens_and_keeps_constants() {
        // A dark-skewed ramp equalizes towards uniform.
        let img = LuminanceImage::from_fn(64, 64, |x, y| {
            ((x + 64 * y) as f32 / 4095.0).powi(3).clamp(0.0, 1.0)
        });
        let eq = histogram_equalize::<f32>(&img, 256);
        // A uniform-ish equalized histogram has mean ≈ 0.5; the cubed ramp
        // sits at 0.25.
        assert!(eq.mean() > 1.7 * img.mean());
        for &v in eq.pixels() {
            assert!((0.0..=1.0).contains(&v));
        }
        // Monotonicity: equalization never reorders pixels.
        let mut pairs: Vec<(f32, f32)> = img
            .pixels()
            .iter()
            .copied()
            .zip(eq.pixels().iter().copied())
            .collect();
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in pairs.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
        // Constant images are returned unchanged, not collapsed to black.
        let flat = LuminanceImage::filled(8, 8, 0.42);
        assert_eq!(histogram_equalize::<f32>(&flat, 256), flat);
    }

    #[test]
    fn histogram_level_is_total_and_in_range() {
        for bins in [2usize, 7, 256] {
            assert_eq!(histogram_level(0.0, bins), 0);
            assert_eq!(histogram_level(1.0, bins), bins - 1);
            assert_eq!(histogram_level(-3.0, bins), 0);
            assert_eq!(histogram_level(7.5, bins), bins - 1);
            assert_eq!(histogram_level(f32::NAN, bins), 0);
        }
    }

    #[test]
    fn hw_split_executor_with_f32_matches_the_all_sample_executor() {
        let hdr = SceneKind::WindowInDarkRoom.generate(40, 33, 5);
        let plan = PipelinePlan::paper_default();
        let all = execute_plan(&plan, &hdr, blur_separable::<f32>, &mut FrameReductions)
            .map(|&v| v.to_f32());
        let split = execute_plan(&plan, &hdr, accelerated_blur::<f32>, &mut FrameReductions);
        assert_eq!(all, split);
    }

    #[test]
    fn the_f32_stream_stays_within_its_bound_of_the_f64_reference() {
        // `f64` keeps libm's `powf` and blurs in `f64`: the two-pass walk in
        // it is the reference the `f32` point kernel and blur are held to.
        let params = ToneMapParams::paper_default();
        let bounds = [("paper", -20.0f32), ("basedetail", -20.0), ("gamma", -23.0)];
        for (name, log2_bound) in bounds {
            let plan = PipelinePlan::preset(name, &params, &PlanTuning::default())
                .unwrap()
                .unwrap();
            let stream = crate::StreamingToneMapper::<f32>::compile(plan.clone(), params).unwrap();
            for scene in SceneKind::ALL {
                let hdr = scene.generate(96, 64, 7);
                let reference =
                    execute_plan(&plan, &hdr, blur_separable::<f64>, &mut FrameReductions);
                let distance = stream
                    .map_luminance(&hdr)
                    .pixels()
                    .iter()
                    .zip(reference.pixels())
                    .map(|(&a, &b)| (f64::from(a) - b).abs())
                    .fold(0.0, f64::max);
                assert!(
                    distance <= f64::from(log2_bound.exp2()),
                    "{name} on {scene}: 2^{:.2} from the f64 reference",
                    distance.log2()
                );
            }
        }
    }

    #[test]
    fn executors_run_new_operator_plans_in_both_sample_types() {
        let hdr = SceneKind::SunAndShadow.generate(24, 24, 9);
        for name in ["reinhard", "histeq", "gamma", "log"] {
            let plan = PipelinePlan::preset(
                name,
                &ToneMapParams::paper_default(),
                &PlanTuning::default(),
            )
            .unwrap()
            .unwrap();
            let f = execute_plan(&plan, &hdr, accelerated_blur::<f32>, &mut FrameReductions);
            assert!(f.pixels().iter().all(|v| (0.0..=1.0).contains(v)), "{name}");
            let fx = execute_plan(&plan, &hdr, blur_separable::<Fix16>, &mut FrameReductions);
            for (a, b) in f.pixels().iter().zip(fx.pixels()) {
                assert!(
                    (a - b.to_f32()).abs() < 0.05,
                    "{name}: f32 {a} vs fix {}",
                    b.to_f32()
                );
            }
        }
    }

    #[test]
    fn display_summarises_the_plan() {
        let text = PipelinePlan::paper_default().to_string();
        assert!(text.contains("normalize"));
        assert!(text.contains("blur-mask"));
        assert!(text.contains("→"));
    }

    #[test]
    fn plan_errors_display_their_cause() {
        assert!(PlanError::EmptyPlan.to_string().contains("at least one"));
        assert!(PlanError::NormalizeNotFirst { index: 2 }
            .to_string()
            .contains("first"));
        assert!(PlanError::InvalidBins(0).to_string().contains("65536"));
        let wrapped = PlanError::InvalidStage(ParamError::ZeroBlurRadius);
        assert!(wrapped.to_string().contains("radius"));
        use std::error::Error;
        assert!(wrapped.source().is_some());
        let mismatch = PlanError::LayoutMismatch {
            index: 2,
            op: PipelineOp::BlurMask {
                blur: BlurParams::paper_default(),
                invert_input: true,
            },
            found: ChannelLayout::Rgb,
        };
        assert!(mismatch.to_string().contains("stage 2"));
        assert!(mismatch.to_string().contains("rgb"));
        assert!(PlanError::HsvInput.to_string().contains("hsv"));
        assert!(PlanError::OutputNotRgb {
            found: ChannelLayout::Scalar
        }
        .to_string()
        .contains("scalar"));
        assert!(PlanError::ScalarInputRequired {
            found: ChannelLayout::Rgb
        }
        .to_string()
        .contains("scalar-input"));
        assert!(PlanError::InvalidExposure(0.0)
            .to_string()
            .contains("positive"));
        assert!(PlanError::InvalidPeakNits(-1.0)
            .to_string()
            .contains("10000"));
        assert!(PlanError::InvalidDragoBias(2.0)
            .to_string()
            .contains("(0, 1]"));
    }

    #[test]
    fn layout_validation_types_register_mismatches() {
        // A scalar register cannot feed colour ops.
        assert_eq!(
            PipelinePlan::new(vec![PipelineOp::RgbToHsv]),
            Err(PlanError::LayoutMismatch {
                index: 0,
                op: PipelineOp::RgbToHsv,
                found: ChannelLayout::Scalar,
            })
        );
        // Stencils only run on the scalar register.
        assert_eq!(
            PipelinePlan::with_input(
                ChannelLayout::Rgb,
                vec![
                    PipelineOp::BlurMask {
                        blur: BlurParams::paper_default(),
                        invert_input: true,
                    },
                    PipelineOp::Mask(MaskingParams::paper_default()),
                ],
            ),
            Err(PlanError::LayoutMismatch {
                index: 0,
                op: PipelineOp::BlurMask {
                    blur: BlurParams::paper_default(),
                    invert_input: true,
                },
                found: ChannelLayout::Rgb,
            })
        );
        // HSV registers exist only between a conversion pair inside a plan.
        assert_eq!(
            PipelinePlan::with_input(ChannelLayout::Hsv, vec![PipelineOp::Curve(Curve::Invert)]),
            Err(PlanError::HsvInput)
        );
        // A colour plan must end back in the colour register.
        assert_eq!(
            PipelinePlan::with_input(ChannelLayout::Rgb, vec![PipelineOp::ExtractLuminance]),
            Err(PlanError::OutputNotRgb {
                found: ChannelLayout::Scalar
            })
        );
        // Recombination needs a preceding split.
        assert_eq!(
            PipelinePlan::with_input(
                ChannelLayout::Rgb,
                vec![
                    PipelineOp::RgbToHsv,
                    PipelineOp::HsvToRgb,
                    PipelineOp::ReapplyRatio,
                ],
            ),
            Err(PlanError::ReapplyWithoutExtract { index: 2 })
        );
        // New op parameters are validated with typed errors.
        assert!(matches!(
            PipelinePlan::new(vec![
                PipelineOp::Normalize,
                PipelineOp::Curve(Curve::Hable { exposure: 0.0 })
            ]),
            Err(PlanError::InvalidExposure(_))
        ));
        assert!(matches!(
            PipelinePlan::new(vec![
                PipelineOp::Normalize,
                PipelineOp::Curve(Curve::PqOetf {
                    peak_nits: 20_000.0
                })
            ]),
            Err(PlanError::InvalidPeakNits(_))
        ));
        assert!(matches!(
            PipelinePlan::new(vec![
                PipelineOp::Normalize,
                PipelineOp::Curve(Curve::Drago { bias: 0.0 })
            ]),
            Err(PlanError::InvalidDragoBias(_))
        ));
        // The split pair with a self-contained scalar run validates.
        assert!(PipelinePlan::with_input(
            ChannelLayout::Rgb,
            vec![
                PipelineOp::ExtractLuminance,
                PipelineOp::Curve(Curve::Invert),
                PipelineOp::ReapplyRatio,
            ],
        )
        .is_ok());
    }

    #[test]
    fn compose_for_rgb_makes_the_old_wrapper_explicit() {
        let plan = PipelinePlan::paper_default();
        let composed = plan.compose_for_rgb();
        assert_eq!(composed.input_layout(), ChannelLayout::Rgb);
        assert_eq!(composed.output_layout(), ChannelLayout::Rgb);
        assert_eq!(composed.ops().len(), plan.ops().len() + 2);
        assert_eq!(composed.ops()[0], PipelineOp::ExtractLuminance);
        assert_eq!(*composed.ops().last().unwrap(), PipelineOp::ReapplyRatio);
        assert_eq!(composed.max_register_width(), 3);
        assert_eq!(plan.max_register_width(), 1);
        assert!(!composed.is_paper_shaped());
        // Colour plans compose to themselves.
        assert_eq!(composed.compose_for_rgb(), composed);

        // The walk: split → the embedded scalar sub-plan → recombine.
        let stages = composed.color_stages();
        assert_eq!(stages.len(), 3);
        assert_eq!(stages[0], ColorStage::Extract);
        match &stages[1] {
            ColorStage::Scalar { plan: sub, start } => {
                assert_eq!(*start, 1);
                assert_eq!(sub.ops(), plan.ops());
            }
            other => panic!("expected the embedded scalar sub-plan, got {other:?}"),
        }
        assert_eq!(stages[2], ColorStage::Reapply);
    }

    #[test]
    fn hsv_preset_walks_as_one_fused_point_run() {
        let plan = PipelinePlan::preset(
            "hsv-reinhard",
            &ToneMapParams::paper_default(),
            &PlanTuning::default(),
        )
        .unwrap()
        .unwrap();
        assert_eq!(plan.input_layout(), ChannelLayout::Rgb);
        assert_eq!(plan.max_register_width(), 3);
        let stages = plan.color_stages();
        assert_eq!(stages.len(), 1);
        match &stages[0] {
            ColorStage::Points(ops) => {
                // Every op behind the leading normalize, the conversion
                // reading `Rgb` and the curve and inverse conversion `Hsv`.
                assert_eq!(ops.as_slice(), &plan.ops()[1..]);
                assert_eq!(
                    plan.op_input_layouts()[1..],
                    [ChannelLayout::Rgb, ChannelLayout::Hsv, ChannelLayout::Hsv]
                );
            }
            other => panic!("expected one fused point run, got {other:?}"),
        }
    }

    #[test]
    fn colour_presets_resolve_and_apply_tuning() {
        let params = ToneMapParams::paper_default();
        let t = PlanTuning {
            exposure: Some(4.0),
            peak_nits: Some(600.0),
            drago_bias: Some(0.5),
            ..PlanTuning::default()
        };
        let filmic = PipelinePlan::preset("filmic", &params, &t)
            .unwrap()
            .unwrap();
        assert_eq!(
            filmic.ops()[1],
            PipelineOp::Curve(Curve::Hable { exposure: 4.0 })
        );
        let drago = PipelinePlan::preset("drago", &params, &t).unwrap().unwrap();
        assert_eq!(
            drago.ops()[1],
            PipelineOp::Curve(Curve::Drago { bias: 0.5 })
        );
        let pq = PipelinePlan::preset("pq-out", &params, &t)
            .unwrap()
            .unwrap();
        assert_eq!(
            *pq.ops().last().unwrap(),
            PipelineOp::Curve(Curve::PqOetf { peak_nits: 600.0 })
        );
        let hlg = PipelinePlan::preset("hlg-out", &params, &t)
            .unwrap()
            .unwrap();
        assert_eq!(
            *hlg.ops().last().unwrap(),
            PipelineOp::Curve(Curve::HlgOetf)
        );
        assert!(matches!(
            PipelinePlan::preset(
                "filmic",
                &params,
                &PlanTuning {
                    exposure: Some(f32::NAN),
                    ..PlanTuning::default()
                }
            ),
            Err(PlanError::InvalidExposure(_))
        ));
    }

    /// The AoS, op-major colour row pass the plane-major one replaced, kept
    /// as its bit reference: every op runs over the interleaved row, and a
    /// tone curve on V reads it with stride 3.
    fn reference_color_points(ingest: Ingest, ops: &[PipelineOp], image: &RgbImage) -> RgbImage {
        let (width, height) = image.dimensions();
        let mut out: Vec<Rgb<f32>> = Vec::with_capacity(width * height);
        for src in image.pixels().chunks_exact(width) {
            let start = out.len();
            out.extend_from_slice(src);
            let row = &mut out[start..];
            ingest.apply_row(row, |p: Rgb<f32>, scale| {
                p.map(|c| normalize_sample(c, scale))
            });
            for op in ops {
                match op {
                    PipelineOp::RgbToHsv => row.iter_mut().for_each(|p| *p = color::rgb_to_hsv(*p)),
                    PipelineOp::HsvToRgb => row.iter_mut().for_each(|p| *p = color::hsv_to_rgb(*p)),
                    PipelineOp::Curve(
                        curve @ (Curve::PqOetf { .. }
                        | Curve::PqEotf { .. }
                        | Curve::HlgOetf
                        | Curve::HlgEotf),
                    ) => row
                        .iter_mut()
                        .flat_map(|p| [&mut p.r, &mut p.g, &mut p.b])
                        .for_each(|v| curve.apply(std::slice::from_mut(v))),
                    PipelineOp::Curve(curve) => row
                        .iter_mut()
                        .for_each(|p| curve.apply(std::slice::from_mut(&mut p.b))),
                    other => panic!("{other} is not a colour point op"),
                }
            }
        }
        RgbImage::from_vec(width, height, out).unwrap()
    }

    fn channel_bits(image: &RgbImage) -> Vec<u32> {
        let pixels = image.pixels().iter();
        pixels
            .flat_map(|p| [p.r, p.g, p.b].map(f32::to_bits))
            .collect()
    }

    #[test]
    fn plane_major_colour_rows_match_the_aos_reference_bit_for_bit() {
        let params = ToneMapParams::paper_default();
        let tuning = PlanTuning::default();
        let mut plans: Vec<PipelinePlan> = [
            "hsv-reinhard",
            "filmic",
            "aces",
            "drago",
            "pq-out",
            "hlg-out",
        ]
        .iter()
        .map(|name| {
            PipelinePlan::preset(name, &params, &tuning)
                .unwrap()
                .unwrap()
        })
        .collect();
        // The ratio wrapper, and every colour point op on one register: the
        // transfer curves per channel, every tone curve on V, one run ending
        // in `HsvToRgb` (fused into the interleave) and one that does not.
        plans.push(PipelinePlan::from_params(&params));
        let curves = [
            PipelineOp::Curve(Curve::Invert),
            PipelineOp::Curve(Curve::Adjust(params.adjust)),
            PipelineOp::Curve(Curve::Gamma { gamma: 0.7 }),
            PipelineOp::Curve(Curve::LogCurve { scale: 50.0 }),
            PipelineOp::Curve(Curve::Reinhard {
                key: 4.0,
                white: 2.0,
            }),
            PipelineOp::Curve(Curve::Hable { exposure: 3.0 }),
            PipelineOp::Curve(Curve::Aces { exposure: 2.0 }),
            PipelineOp::Curve(Curve::Drago { bias: 0.85 }),
        ];
        let transfers = [
            PipelineOp::Curve(Curve::PqOetf { peak_nits: 1000.0 }),
            PipelineOp::Curve(Curve::PqEotf { peak_nits: 1000.0 }),
            PipelineOp::Curve(Curve::HlgOetf),
            PipelineOp::Curve(Curve::HlgEotf),
        ];
        for normalize in [true, false] {
            let mut ops = Vec::new();
            if normalize {
                ops.push(PipelineOp::Normalize);
            }
            ops.extend(transfers);
            ops.push(PipelineOp::RgbToHsv);
            ops.extend(curves);
            ops.push(PipelineOp::HsvToRgb);
            if !normalize {
                ops.push(PipelineOp::Curve(Curve::PqOetf { peak_nits: 400.0 }));
            }
            plans.push(PipelinePlan::with_input(ChannelLayout::Rgb, ops).unwrap());
        }

        // NaN, ±∞, negative, signed-zero and subnormal channels among
        // ordinary ones, at widths below, on and past the stencil block.
        let specials = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.5,
            -0.0,
            1e-45,
            1e-40,
            f32::MIN_POSITIVE,
        ];
        for width in [1, 63, 64, 65, 2 * 64 + 2 * 20 + 1] {
            let scene = SceneKind::SunAndShadow.generate_rgb(width, 3, 11);
            let hdr = RgbImage::from_fn(width, 3, |x, y| {
                let mut p = scene.pixels()[x + y * width];
                let i = x + y * width;
                if i % 4 == 1 {
                    let special = specials[(i / 4) % specials.len()];
                    match (i / 4) % 4 {
                        0 => p.r = special,
                        1 => p.g = special,
                        2 => p.b = special,
                        _ => p = Rgb::splat(special),
                    }
                }
                p
            });
            let ingests = [
                Ingest::Source(rgb_normalization_scale(&hdr)),
                Ingest::Source(None),
                Ingest::Passthrough,
            ];
            for plan in &plans {
                let plan = if plan.input_layout() == ChannelLayout::Rgb {
                    plan.clone()
                } else {
                    plan.compose_for_rgb()
                };
                for ingest in ingests {
                    let expected = reference_color_points(ingest, &[], &hdr);
                    let mut pending = ingest;
                    let settled = settle_ingest(Cow::Borrowed(&hdr), &mut pending);
                    assert_eq!(
                        channel_bits(&settled),
                        channel_bits(&expected),
                        "settled ingest {ingest:?} diverged at width {width}"
                    );
                    for stage in plan.color_stages() {
                        if let ColorStage::Points(ops) = stage {
                            let expected = reference_color_points(ingest, &ops, &hdr);
                            let got = apply_color_points(ingest, &ops, &hdr);
                            assert_eq!(
                                channel_bits(&got),
                                channel_bits(&expected),
                                "{plan} with {ingest:?} diverged at width {width}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn run_color_plan_matches_the_old_rgb_wrapper_bit_exactly() {
        let hdr = SceneKind::SunAndShadow.generate_rgb(40, 31, 3);
        let plan = PipelinePlan::paper_default();
        // The old hard-coded backend path: extract, tone-map, reapply.
        let lum = luminance_plane(&hdr);
        let mapped = execute_plan(&plan, &lum, accelerated_blur::<Fix16>, &mut FrameReductions);
        let old = reapply_color(&hdr, &mapped).unwrap();
        // The same wrapper expressed as plan composition.
        let new = run_color_plan::<hdr_image::ImageError, _>(&plan, &hdr, |start, sub, l| {
            assert_eq!(start, 1);
            assert_eq!(sub.ops(), plan.ops());
            Ok(execute_plan(
                sub,
                l,
                accelerated_blur::<Fix16>,
                &mut FrameReductions,
            ))
        })
        .unwrap();
        assert_eq!(old, new);
    }

    #[test]
    fn zero_luminance_and_all_black_scenes_stay_finite() {
        // All-black colour input: the ratio recombine must clamp instead of
        // dividing by the zero old luminance, and the HSV path must keep the
        // degenerate hue/saturation convention exact.
        let black = RgbImage::from_vec(8, 6, vec![Rgb::splat(0.0); 48]).unwrap();
        let params = ToneMapParams::paper_default();
        for name in ["paper", "hsv-reinhard", "filmic", "pq-out", "hlg-out"] {
            let plan = PipelinePlan::preset(name, &params, &PlanTuning::default())
                .unwrap()
                .unwrap();
            let out = run_color_plan::<hdr_image::ImageError, _>(&plan, &black, |_, sub, l| {
                Ok(execute_plan(
                    sub,
                    l,
                    accelerated_blur::<f32>,
                    &mut FrameReductions,
                ))
            })
            .unwrap();
            for p in out.pixels() {
                for c in [p.r, p.g, p.b] {
                    assert!(c.is_finite(), "{name}: non-finite channel {c}");
                    assert!((0.0..=1.0).contains(&c), "{name}: channel {c} out of range");
                }
            }
        }
        // A scene with isolated zero-luminance pixels: those pixels must come
        // out as the (finite) splatted tone-mapped luminance.
        let mut pixels = SceneKind::SunAndShadow
            .generate_rgb(16, 16, 5)
            .pixels()
            .to_vec();
        pixels[0] = Rgb::splat(0.0);
        pixels[17] = Rgb::splat(0.0);
        let scene = RgbImage::from_vec(16, 16, pixels).unwrap();
        let plan = PipelinePlan::paper_default();
        let out = run_color_plan::<hdr_image::ImageError, _>(&plan, &scene, |_, sub, l| {
            Ok(execute_plan(
                sub,
                l,
                accelerated_blur::<f32>,
                &mut FrameReductions,
            ))
        })
        .unwrap();
        for p in out.pixels() {
            assert!(p.r.is_finite() && p.g.is_finite() && p.b.is_finite());
        }
        // The black pixel is achromatic in, achromatic out.
        assert_eq!(out.pixels()[0].r, out.pixels()[0].g);
        assert_eq!(out.pixels()[0].g, out.pixels()[0].b);
    }

    #[test]
    fn leading_colour_normalize_folds_into_the_stage_that_reads_it_first() {
        // The normalize runs as the first step of whichever pass reads the
        // raw input: a colour point run, an extract, or (normalize-only) a
        // pass of its own. Each shape must equal the per-pixel definition,
        // poisoned samples included.
        let mut pixels = SceneKind::MemorialComposite
            .generate_rgb(13, 7, 2)
            .pixels()
            .to_vec();
        pixels[3] = Rgb::new(f32::NAN, 2.0, f32::NEG_INFINITY);
        pixels[40] = Rgb::new(f32::INFINITY, -1.0, -0.0);
        let hdr = RgbImage::from_vec(13, 7, pixels).unwrap();
        let scale = rgb_normalization_scale(&hdr);
        let normalized = hdr.map(|p| p.map(|c| normalize_sample(c, scale)));
        let run = |ops: Vec<PipelineOp>| {
            let plan = PipelinePlan::with_input(ChannelLayout::Rgb, ops).unwrap();
            run_color_plan::<hdr_image::ImageError, _>(&plan, &hdr, |_, sub, l| {
                Ok(execute_plan(
                    sub,
                    l,
                    accelerated_blur::<f32>,
                    &mut FrameReductions,
                ))
            })
            .unwrap()
        };

        assert_eq!(run(vec![PipelineOp::Normalize]), normalized);

        let (key, white) = (6.0, 5.0);
        let hsv = run(vec![
            PipelineOp::Normalize,
            PipelineOp::RgbToHsv,
            PipelineOp::Curve(Curve::Reinhard { key, white }),
            PipelineOp::HsvToRgb,
        ]);
        let expected = normalized.map(|&p| {
            let v = color::rgb_to_hsv(p);
            color::hsv_to_rgb(Rgb::new(v.r, v.g, reinhard_sample(v.b, key, white)))
        });
        assert_eq!(hsv, expected);

        let hlg = run(vec![
            PipelineOp::Normalize,
            PipelineOp::Curve(Curve::HlgOetf),
        ]);
        assert_eq!(hlg, normalized.map(|p| p.map(color::hlg_oetf)));

        let gamma = 0.7;
        let wrapped = run(vec![
            PipelineOp::Normalize,
            PipelineOp::ExtractLuminance,
            PipelineOp::Curve(Curve::Gamma { gamma }),
            PipelineOp::ReapplyRatio,
        ]);
        let lum = luminance_plane(&normalized).map(|&v| Sample::powf(v, gamma).clamp01());
        assert_eq!(wrapped, reapply_color(&normalized, &lum).unwrap());
    }
}

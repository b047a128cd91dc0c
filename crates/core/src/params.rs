//! Parameters of the tone-mapping pipeline.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A typed description of why a parameter set is invalid.
///
/// Every constructor that consumes [`ToneMapParams`] validates through
/// [`ToneMapParams::validate`] and surfaces this error instead of panicking,
/// so a serving layer can reject a bad request with a precise message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamError {
    /// The Gaussian σ is zero, negative, NaN or infinite.
    NonPositiveSigma(f32),
    /// The blur radius is zero (the kernel would be a single tap).
    ZeroBlurRadius,
    /// The blur radius exceeds [`BlurParams::MAX_RADIUS`].
    BlurRadiusTooLarge(usize),
    /// The masking strength is negative or not finite.
    InvalidMaskingStrength(f32),
    /// The contrast factor is zero, negative or not finite.
    NonPositiveContrast(f32),
    /// The brightness offset is not finite.
    NonFiniteBrightness(f32),
    /// The channel count is zero.
    ZeroChannels,
    /// The channel count exceeds [`ToneMapParams::MAX_CHANNELS`].
    TooManyChannels(usize),
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::NonPositiveSigma(sigma) => {
                write!(f, "blur sigma must be positive and finite, got {sigma}")
            }
            ParamError::ZeroBlurRadius => write!(f, "blur radius must be at least 1"),
            ParamError::BlurRadiusTooLarge(radius) => write!(
                f,
                "blur radius must be at most {}, got {radius}",
                BlurParams::MAX_RADIUS
            ),
            ParamError::InvalidMaskingStrength(strength) => write!(
                f,
                "masking strength must be non-negative and finite, got {strength}"
            ),
            ParamError::NonPositiveContrast(contrast) => write!(
                f,
                "contrast factor must be positive and finite, got {contrast}"
            ),
            ParamError::NonFiniteBrightness(brightness) => {
                write!(f, "brightness offset must be finite, got {brightness}")
            }
            ParamError::ZeroChannels => write!(f, "channel count must be at least 1"),
            ParamError::TooManyChannels(channels) => write!(
                f,
                "channel count must be at most {}, got {channels}",
                ToneMapParams::MAX_CHANNELS
            ),
        }
    }
}

impl std::error::Error for ParamError {}

/// Parameters of the Gaussian-blur mask generation (Fig. 1, second block).
///
/// The paper describes the blur as a bi-dimensional filter realised as
/// horizontal and vertical passes whose tap count and weights come from the
/// width and magnitude of a Gaussian distribution; it does not give the exact
/// σ. The default below produces the strong low-pass mask a local operator
/// needs on a 1024×1024 image while keeping the line-buffer footprint
/// realistic for a Zynq-7000 BRAM budget.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlurParams {
    /// Standard deviation of the Gaussian, in pixels.
    pub sigma: f32,
    /// Half-width of the kernel; the kernel has `2 * radius + 1` taps.
    pub radius: usize,
}

impl BlurParams {
    /// The largest accepted radius: a 511-tap kernel, 12× the paper's 41
    /// taps. Every executor's work and every streaming row ring grow with
    /// the radius, so an unbounded client value could stall a worker for
    /// seconds per job, or overflow the tap count `2·radius + 1` and panic.
    pub const MAX_RADIUS: usize = 255;

    /// The configuration used by every experiment in this repository: a
    /// 41-tap kernel (σ = 7), the scale of low-pass mask a 1024×1024 local
    /// operator needs, and a line-buffer footprint (41 image rows) that fits
    /// comfortably in Zynq-7000 BRAM.
    pub fn paper_default() -> Self {
        BlurParams {
            sigma: 7.0,
            radius: 20,
        }
    }

    /// Number of taps of the one-dimensional kernel.
    pub const fn taps(&self) -> usize {
        2 * self.radius + 1
    }

    /// Validates the parameters (positive σ, radius in
    /// `1..=`[`BlurParams::MAX_RADIUS`]), returning a typed error describing
    /// the first violation.
    pub fn validate(&self) -> Result<(), ParamError> {
        if !(self.sigma > 0.0 && self.sigma.is_finite()) {
            return Err(ParamError::NonPositiveSigma(self.sigma));
        }
        if self.radius == 0 {
            return Err(ParamError::ZeroBlurRadius);
        }
        if self.radius > BlurParams::MAX_RADIUS {
            return Err(ParamError::BlurRadiusTooLarge(self.radius));
        }
        Ok(())
    }

    /// `true` when [`BlurParams::validate`] succeeds.
    pub fn is_valid(&self) -> bool {
        self.validate().is_ok()
    }
}

impl Default for BlurParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Parameters of the non-linear masking stage (Fig. 1, third block).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MaskingParams {
    /// Strength of the local correction. 1.0 reproduces Moroney's original
    /// exponent range `[0.5, 2]` (appropriate for display-encoded inputs);
    /// 0.0 disables the correction entirely (output equals input). Linear
    /// radiance inputs spanning several decades need a stronger range — the
    /// paper-default configuration uses 3.0, giving exponents in `[1/8, 8]`.
    pub strength: f32,
    /// Whether the mask is computed from the *inverted* normalized image, as
    /// in Moroney's formulation (dark neighbourhoods then raise the mask and
    /// brighten the pixel). The paper's block diagram blurs the normalized
    /// image directly, which is equivalent up to a sign in the exponent; both
    /// conventions are supported.
    pub invert_mask: bool,
}

impl MaskingParams {
    /// The configuration used by every experiment in this repository.
    pub fn paper_default() -> Self {
        MaskingParams {
            strength: 3.0,
            invert_mask: true,
        }
    }
}

impl Default for MaskingParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Parameters of the final brightness/contrast adjustment (Fig. 1, fourth
/// block).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdjustParams {
    /// Additive brightness offset applied after the contrast stretch.
    pub brightness: f32,
    /// Multiplicative contrast factor applied around mid-grey (0.5).
    pub contrast: f32,
}

impl AdjustParams {
    /// The configuration used by every experiment in this repository: a mild
    /// contrast boost, as the paper applies the adjustment "to improve
    /// quality".
    pub fn paper_default() -> Self {
        AdjustParams {
            brightness: 0.02,
            contrast: 1.1,
        }
    }
}

impl Default for AdjustParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Complete parameter set of the tone-mapping pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ToneMapParams {
    /// Gaussian-blur mask parameters.
    pub blur: BlurParams,
    /// Non-linear masking parameters.
    pub masking: MaskingParams,
    /// Brightness/contrast adjustment parameters.
    pub adjust: AdjustParams,
    /// Number of colour channels the reference software processes in the
    /// normalization, masking and adjustment stages (the blur operates on the
    /// single-channel mask). The paper's C++ reference processes RGB images,
    /// so the default is 3; the functional pipeline in this crate operates on
    /// the luminance plane and re-attaches colour afterwards, which is
    /// numerically equivalent but cheaper — the profile keeps the paper's
    /// cost structure.
    pub channels: usize,
}

impl ToneMapParams {
    /// The largest accepted channel count: room for RGBA, where the in-tree
    /// values are 1 (a luminance plane) and 3 (the paper's RGB reference).
    /// The profiler emits one function entry per channel, so an unbounded
    /// client value could exhaust memory.
    pub const MAX_CHANNELS: usize = 4;

    /// The configuration used by every experiment in this repository.
    pub fn paper_default() -> Self {
        ToneMapParams {
            blur: BlurParams::paper_default(),
            masking: MaskingParams::paper_default(),
            adjust: AdjustParams::paper_default(),
            channels: 3,
        }
    }

    /// Validates the parameter combination, returning a typed error
    /// describing the first violation.
    pub fn validate(&self) -> Result<(), ParamError> {
        self.blur.validate()?;
        if !(self.masking.strength >= 0.0 && self.masking.strength.is_finite()) {
            return Err(ParamError::InvalidMaskingStrength(self.masking.strength));
        }
        if !(self.adjust.contrast > 0.0 && self.adjust.contrast.is_finite()) {
            return Err(ParamError::NonPositiveContrast(self.adjust.contrast));
        }
        if !self.adjust.brightness.is_finite() {
            return Err(ParamError::NonFiniteBrightness(self.adjust.brightness));
        }
        if self.channels == 0 {
            return Err(ParamError::ZeroChannels);
        }
        if self.channels > ToneMapParams::MAX_CHANNELS {
            return Err(ParamError::TooManyChannels(self.channels));
        }
        Ok(())
    }

    /// `true` when [`ToneMapParams::validate`] succeeds.
    pub fn is_valid(&self) -> bool {
        self.validate().is_ok()
    }
}

impl Default for ToneMapParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_are_valid() {
        assert!(ToneMapParams::paper_default().is_valid());
        assert!(BlurParams::paper_default().is_valid());
        assert_eq!(BlurParams::paper_default().taps(), 41);
    }

    #[test]
    fn invalid_parameters_are_detected() {
        let mut p = ToneMapParams::paper_default();
        p.blur.sigma = -1.0;
        assert_eq!(p.validate(), Err(ParamError::NonPositiveSigma(-1.0)));
        assert!(!p.is_valid());
        let mut p = ToneMapParams::paper_default();
        p.blur.radius = 0;
        assert_eq!(p.validate(), Err(ParamError::ZeroBlurRadius));
        let mut p = ToneMapParams::paper_default();
        p.masking.strength = f32::NAN;
        assert!(matches!(
            p.validate(),
            Err(ParamError::InvalidMaskingStrength(_))
        ));
        let mut p = ToneMapParams::paper_default();
        p.adjust.contrast = 0.0;
        assert_eq!(p.validate(), Err(ParamError::NonPositiveContrast(0.0)));
        let mut p = ToneMapParams::paper_default();
        p.adjust.brightness = f32::INFINITY;
        assert!(matches!(
            p.validate(),
            Err(ParamError::NonFiniteBrightness(_))
        ));
        let mut p = ToneMapParams::paper_default();
        p.channels = 0;
        assert_eq!(p.validate(), Err(ParamError::ZeroChannels));
    }

    #[test]
    fn radius_and_channel_bounds_are_inclusive() {
        let mut p = ToneMapParams::paper_default();
        p.blur.radius = BlurParams::MAX_RADIUS;
        p.channels = ToneMapParams::MAX_CHANNELS;
        assert_eq!(p.validate(), Ok(()));
        p.blur.radius = BlurParams::MAX_RADIUS + 1;
        assert_eq!(
            p.validate(),
            Err(ParamError::BlurRadiusTooLarge(BlurParams::MAX_RADIUS + 1))
        );
        p.blur.radius = usize::MAX;
        assert_eq!(
            p.validate(),
            Err(ParamError::BlurRadiusTooLarge(usize::MAX))
        );
        p.blur.radius = BlurParams::MAX_RADIUS;
        p.channels = ToneMapParams::MAX_CHANNELS + 1;
        assert_eq!(
            p.validate(),
            Err(ParamError::TooManyChannels(ToneMapParams::MAX_CHANNELS + 1))
        );
        // The spec-property generator draws radii up to 29.
        const { assert!(BlurParams::MAX_RADIUS >= 29) };
    }

    #[test]
    fn param_errors_display_the_offending_value() {
        assert!(ParamError::NonPositiveSigma(-2.0)
            .to_string()
            .contains("-2"));
        assert!(ParamError::ZeroBlurRadius.to_string().contains("radius"));
        assert!(ParamError::NonPositiveContrast(0.0)
            .to_string()
            .contains("contrast"));
        assert!(ParamError::ZeroChannels.to_string().contains("channel"));
        assert!(ParamError::BlurRadiusTooLarge(256)
            .to_string()
            .contains("256"));
        assert!(ParamError::TooManyChannels(5).to_string().contains('5'));
    }

    #[test]
    fn defaults_equal_paper_defaults() {
        assert_eq!(ToneMapParams::default(), ToneMapParams::paper_default());
        assert_eq!(BlurParams::default(), BlurParams::paper_default());
        assert_eq!(MaskingParams::default(), MaskingParams::paper_default());
        assert_eq!(AdjustParams::default(), AdjustParams::paper_default());
    }
}

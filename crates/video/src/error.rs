//! Typed construction errors for video sessions.

use std::error::Error;
use std::fmt;

use tonemap_backend::{BackendRegistry, TonemapError};
use tonemap_core::ParamError;

/// Why a [`VideoSession`](crate::VideoSession) could not be built.
#[derive(Debug)]
pub enum VideoError {
    /// The plan consumes or produces colour registers. Video sessions
    /// adapt *luminance* reduction statistics (normalize max, Reinhard
    /// log-average, histogram CDF), so only scalar plans are temporal.
    ColourPlan(String),
    /// The tone-mapping parameters fail validation.
    InvalidParams(ParamError),
    /// The spec names an engine outside the standard engine table.
    UnknownEngine(String),
    /// The spec string itself does not parse (or its overrides/plan fail
    /// validation).
    Spec(TonemapError),
}

impl fmt::Display for VideoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VideoError::ColourPlan(layout) => write!(
                f,
                "video sessions adapt luminance statistics and only run scalar \
                 plans; this plan carries a `{layout}` register"
            ),
            VideoError::InvalidParams(err) => write!(f, "invalid tone-mapping parameters: {err}"),
            VideoError::UnknownEngine(name) => {
                let known: Vec<&str> = BackendRegistry::STANDARD_ENGINES
                    .iter()
                    .map(|row| row.name)
                    .collect();
                write!(
                    f,
                    "no standard engine `{name}`; known engines: {}",
                    known.join(", ")
                )
            }
            VideoError::Spec(err) => write!(f, "invalid video spec: {err}"),
        }
    }
}

impl Error for VideoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            VideoError::InvalidParams(err) => Some(err),
            VideoError::Spec(err) => Some(err),
            VideoError::ColourPlan(_) | VideoError::UnknownEngine(_) => None,
        }
    }
}

impl From<ParamError> for VideoError {
    fn from(err: ParamError) -> Self {
        VideoError::InvalidParams(err)
    }
}

impl From<TonemapError> for VideoError {
    fn from(err: TonemapError) -> Self {
        VideoError::Spec(err)
    }
}

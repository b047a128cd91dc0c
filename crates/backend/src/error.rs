//! The one exhaustive error type of the engine layer.

use crate::registry::UnknownBackendError;
use codesign::flow::DesignImplementation;
use hdr_image::ImageError;
use std::error::Error;
use std::fmt;
use std::time::Duration;
use tonemap_core::{ParamError, PlanError};

/// Everything that can go wrong between building a [`crate::TonemapRequest`]
/// and receiving a [`crate::TonemapResponse`].
///
/// This is the single error surface of `tonemap-backend`: registry
/// construction, spec resolution and request execution all fail through it —
/// none of them panic on user input. The enum is exhaustive on purpose; a
/// serving layer can match on it to map each failure to a response code.
#[derive(Debug)]
pub enum TonemapError {
    /// A backend name (or the name part of a spec string) did not resolve.
    UnknownBackend(UnknownBackendError),
    /// A spec string (`"name?key=value&…"`) could not be parsed.
    InvalidSpec {
        /// The spec string that failed to parse.
        spec: String,
        /// What was wrong with it.
        reason: String,
    },
    /// Tone-mapping parameters (per-request override, spec override, or
    /// registry construction input) failed validation.
    InvalidParams(ParamError),
    /// A pipeline plan (named preset tuning or a request-level plan) failed
    /// validation.
    InvalidPlan(PlanError),
    /// The input image was rejected (zero dimensions, size mismatch) or the
    /// colour re-application failed.
    Image(ImageError),
    /// No registered backend covers the requested Table II design.
    MissingDesign(DesignImplementation),
    /// The job's deadline had already passed when an executor picked it up,
    /// so the pipeline was never run. Produced by latency-governed serving
    /// layers (`tonemap-service` cancels expired jobs at dequeue); the
    /// engines themselves never emit it.
    DeadlineExceeded {
        /// How far past the deadline the job was when it was cancelled.
        missed_by: Duration,
    },
}

impl fmt::Display for TonemapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TonemapError::UnknownBackend(e) => e.fmt(f),
            TonemapError::InvalidSpec { spec, reason } => {
                write!(f, "invalid backend spec `{spec}`: {reason}")
            }
            TonemapError::InvalidParams(e) => write!(f, "invalid tone-mapping parameters: {e}"),
            TonemapError::InvalidPlan(e) => write!(f, "invalid pipeline plan: {e}"),
            TonemapError::Image(e) => write!(f, "invalid image input: {e}"),
            TonemapError::MissingDesign(design) => {
                write!(f, "no registered backend covers design `{design}`")
            }
            TonemapError::DeadlineExceeded { missed_by } => write!(
                f,
                "deadline exceeded: job had expired {:.3} ms before execution started",
                missed_by.as_secs_f64() * 1e3
            ),
        }
    }
}

impl TonemapError {
    /// The rejection of a `schedule=` spec naming an engine that has no
    /// schedule space.
    pub(crate) fn no_schedule_space(engine: &str, spec: &str) -> Self {
        TonemapError::InvalidSpec {
            spec: spec.to_string(),
            reason: format!(
                "engine `{engine}` has no schedule space — its execution strategy is not \
                 schedulable; `schedule=` applies to engines that advertise a schedule class"
            ),
        }
    }
}

impl Error for TonemapError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TonemapError::UnknownBackend(e) => Some(e),
            TonemapError::InvalidParams(e) => Some(e),
            TonemapError::InvalidPlan(e) => Some(e),
            TonemapError::Image(e) => Some(e),
            _ => None,
        }
    }
}

impl From<UnknownBackendError> for TonemapError {
    fn from(value: UnknownBackendError) -> Self {
        TonemapError::UnknownBackend(value)
    }
}

impl From<ParamError> for TonemapError {
    fn from(value: ParamError) -> Self {
        TonemapError::InvalidParams(value)
    }
}

impl From<ImageError> for TonemapError {
    fn from(value: ImageError) -> Self {
        TonemapError::Image(value)
    }
}

impl From<PlanError> for TonemapError {
    fn from(value: PlanError) -> Self {
        TonemapError::InvalidPlan(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_name_the_failure() {
        let e = TonemapError::from(ParamError::ZeroBlurRadius);
        assert!(e.to_string().contains("parameters"));
        assert!(e.source().is_some());

        let e = TonemapError::InvalidSpec {
            spec: "hw-fix16?bogus=1".into(),
            reason: "unknown key `bogus`".into(),
        };
        assert!(e.to_string().contains("hw-fix16?bogus=1"));
        assert!(e.to_string().contains("bogus"));

        let e = TonemapError::MissingDesign(DesignImplementation::HlsPragmas);
        assert!(e.to_string().contains("HLS pragmas"));

        let e = TonemapError::from(ImageError::InvalidDimensions {
            width: 0,
            height: 3,
        });
        assert!(e.to_string().contains("0x3"));
        assert!(e.source().is_some());

        let e = TonemapError::DeadlineExceeded {
            missed_by: Duration::from_millis(5),
        };
        assert!(e.to_string().contains("deadline exceeded"));
        assert!(e.to_string().contains("5.000 ms"));
        assert!(e.source().is_none());
    }
}

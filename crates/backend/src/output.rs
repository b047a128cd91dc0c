//! The uniform functional result the execution primitive produces.
//!
//! [`BackendOutput`] is what [`crate::TonemapBackend::run_luminance`]
//! returns; the request API wraps it into a [`crate::TonemapResponse`]
//! (payload shaping, telemetry opt-in) before it reaches callers.

use codesign::flow::{DesignImplementation, DesignReport};
use hdr_image::{LuminanceImage, RgbImage};
use std::time::Duration;
use tonemap_core::ops::OpCounts;
use tonemap_scheduler::{PricedPoint, SchedulePoint};
use zynq_sim::power::EnergyReport;

/// The platform model's prediction of what one run costs on the modelled
/// Zynq platform, extracted from a [`DesignReport`].
///
/// Only backends that correspond to a Table II design carry this; the
/// all-fixed-point software ablation, for example, has no Table II row.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeledCost {
    /// The Table II design this prediction is for.
    pub design: DesignImplementation,
    /// Predicted total application time per image, in seconds.
    pub total_seconds: f64,
    /// Predicted time on the processing system, in seconds.
    pub ps_seconds: f64,
    /// Predicted time in the programmable logic, in seconds (zero for the
    /// software design).
    pub pl_seconds: f64,
    /// Predicted per-image energy across all rails, in joules.
    pub energy_j: f64,
    /// Predicted per-rail energy breakdown.
    pub energy: EnergyReport,
    /// Predicted PL resource utilization (max across LUT/FF/DSP/BRAM).
    pub pl_utilization: f64,
}

impl From<&DesignReport> for ModeledCost {
    fn from(report: &DesignReport) -> Self {
        ModeledCost {
            design: report.design,
            total_seconds: report.total_seconds,
            ps_seconds: report.ps_seconds,
            pl_seconds: report.pl_seconds,
            energy_j: report.energy.total_j(),
            energy: report.energy,
            pl_utilization: report.pl_utilization,
        }
    }
}

/// How the auto-scheduler chose one run's [`BackendTelemetry::point`]: the
/// prediction it was chosen on, so the model's error is observable against
/// [`BackendTelemetry::wall`].
///
/// Only runs through a `schedule=`-resolved engine carry this; the named
/// engines' rows fix their point without consulting the scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleTelemetry {
    /// Predicted cost of the chosen point, in modeled platform seconds
    /// (a Zynq, not this host — compare *rankings* with the wall clock,
    /// not absolute values).
    pub predicted_seconds: f64,
    /// The prediction normalized per pixel, in nanoseconds.
    pub predicted_ns_per_pixel: f64,
    /// Why the scheduler ran this point (or that the caller forced it).
    pub verdict: String,
    /// How many legal points were enumerated and priced (1 for forced
    /// points).
    pub considered: usize,
}

impl ScheduleTelemetry {
    /// Builds the telemetry from a priced point plus the size of the space
    /// it was chosen from.
    pub fn from_priced(priced: &PricedPoint, considered: usize) -> Self {
        ScheduleTelemetry {
            predicted_seconds: priced.predicted_seconds,
            predicted_ns_per_pixel: priced.predicted_ns_per_pixel,
            verdict: priced.verdict.clone(),
            considered,
        }
    }
}

/// Telemetry attached to a run when the request opts in with
/// [`crate::TonemapRequest::with_telemetry`].
#[derive(Debug, Clone, PartialEq)]
pub struct BackendTelemetry {
    /// Name of the backend that produced this output.
    pub backend: &'static str,
    /// Measured host wall-clock time of the functional execution.
    pub wall: Duration,
    /// Analytic operation counts of the pipeline for this image size.
    pub ops: OpCounts,
    /// The platform model's cost prediction, when the backend maps to a
    /// Table II design.
    pub modeled: Option<ModeledCost>,
    /// The schedule point the run executed at, whichever row served it.
    pub point: SchedulePoint,
    /// The auto-scheduler's prediction for the point, when the run went
    /// through a `schedule=`-resolved engine.
    pub schedule: Option<ScheduleTelemetry>,
}

/// The functional result of one pipeline execution: the tone-mapped image
/// plus telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendOutput {
    /// The display-referred tone-mapped image, every pixel in `[0, 1]`.
    pub image: LuminanceImage,
    /// Timing / energy / operation-count telemetry for the run.
    pub telemetry: BackendTelemetry,
}

impl BackendOutput {
    /// Splits the output into its image and telemetry, consuming neither
    /// by copy.
    pub fn into_parts(self) -> (LuminanceImage, BackendTelemetry) {
        (self.image, self.telemetry)
    }

    /// The buffer-pool handoff: consumes the output and returns the
    /// image's backing row-major `f32` storage, so a serving layer can
    /// return the frame to an allocation pool instead of freeing it.
    /// `tonemap-service`'s `FramePool` recycles frames through this (and
    /// through [`crate::TonemapResponse::into_frame`] at the payload
    /// layer) to keep steady-state serving free of large per-job
    /// allocations.
    pub fn into_frame(self) -> Vec<f32> {
        self.image.into_vec()
    }
}

/// The functional result of one colour execution: what
/// [`crate::TonemapBackend::run_rgb`] returns.
///
/// Shaped like [`BackendOutput`] but carrying the colour register the plan
/// ended in — the response of every RGB request, whether it went through
/// the classic luminance-ratio wrapper or a colour-managed plan.
#[derive(Debug, Clone, PartialEq)]
pub struct RgbBackendOutput {
    /// The display-referred tone-mapped colour image.
    pub image: RgbImage,
    /// Timing / energy / operation-count telemetry for the run.
    pub telemetry: BackendTelemetry,
}

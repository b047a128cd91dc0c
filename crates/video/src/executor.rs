//! Mapping engine rows and `schedule=` requests onto video frame executors.

use std::fmt;

use hdr_image::LuminanceImage;
use tonemap_backend::{BackendRegistry, BackendSpec, CompiledPlan, Executor, Numerics};
use tonemap_core::{PipelinePlan, ToneMapParams};
use tonemap_scheduler::{ScheduleClass, ScheduleExecutor, ScheduleMode, SchedulePoint};

use crate::error::VideoError;

/// Which executor a [`VideoSession`](crate::VideoSession) drives for each
/// fused plan segment.
///
/// Video sessions split plans at materialization barriers and run the
/// segments themselves (the adaptation state lives *between* the
/// reductions), so the executor names an engine-layer [`CompiledPlan`]
/// shape, not a registry engine. Its numerics, executor and schedule class
/// come from the spec's row of [`BackendRegistry::STANDARD_ENGINES`], the
/// rows the registry's engines are built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VideoExecutor {
    /// The two-pass planner.
    TwoPass(Numerics),
    /// The streaming line-buffer cascade with a pinned worker count.
    Stream(Numerics, usize),
    /// Defer to the auto-scheduler once per resolution, priced at the
    /// engine row's schedule class; the winning point is cached so a steady
    /// stream prices its schedule exactly once.
    Auto(Numerics, ScheduleClass),
}

impl VideoExecutor {
    /// The executor a spec maps to: its engine row's executor, reshaped by
    /// its `schedule=` request (`auto` defers to the cost model, `stream`
    /// pins the cascade with `threads=`, one worker by default, `two-pass`
    /// forces the two-pass planner).
    ///
    /// # Errors
    ///
    /// [`VideoError::UnknownEngine`] for a name outside the standard engine
    /// table, and [`VideoError::Spec`] for a `schedule=` naming an engine
    /// with no schedule space.
    pub fn from_spec(spec: &BackendSpec) -> Result<Self, VideoError> {
        let row = BackendRegistry::STANDARD_ENGINES
            .into_iter()
            .find(|row| row.name == spec.name())
            .ok_or_else(|| VideoError::UnknownEngine(spec.name().to_string()))?;
        let numerics = row.numerics;
        Ok(match (spec.schedule(), row.executor) {
            (None, Executor::Stream { threads }) => VideoExecutor::Stream(numerics, threads),
            (None, _) => VideoExecutor::TwoPass(numerics),
            (Some(mode), _) => {
                let class = row.schedule_class_for(&spec.to_string())?;
                match mode {
                    ScheduleMode::Auto => VideoExecutor::Auto(numerics, class),
                    ScheduleMode::Stream => {
                        VideoExecutor::Stream(numerics, spec.threads().unwrap_or(1))
                    }
                    ScheduleMode::TwoPass => VideoExecutor::TwoPass(numerics),
                }
            }
        })
    }

    /// `true` when the executor defers to the per-resolution
    /// auto-scheduler.
    pub const fn is_auto(&self) -> bool {
        matches!(self, VideoExecutor::Auto(..))
    }

    /// Maps an auto-scheduler winner onto the concrete executor that runs
    /// it.
    pub(crate) fn from_schedule_point(point: &SchedulePoint, numerics: Numerics) -> Self {
        match point.executor {
            ScheduleExecutor::TwoPass => VideoExecutor::TwoPass(numerics),
            ScheduleExecutor::Streaming { .. } => VideoExecutor::Stream(numerics, point.threads),
        }
    }

    /// Runs `plan` once on this concrete executor.
    pub(crate) fn map_luminance(
        self,
        plan: &PipelinePlan,
        params: &ToneMapParams,
        register: &LuminanceImage,
    ) -> LuminanceImage {
        let (numerics, stream_threads) = match self {
            VideoExecutor::TwoPass(numerics) => (numerics, None),
            VideoExecutor::Stream(numerics, threads) => (numerics, Some(threads)),
            VideoExecutor::Auto(..) => unreachable!("auto resolves to a concrete executor"),
        };
        CompiledPlan::new(numerics, plan.clone(), *params, stream_threads)
            .expect("params validated at session construction")
            .map_luminance(register)
    }
}

impl fmt::Display for VideoExecutor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VideoExecutor::TwoPass(numerics) => write!(f, "two-pass({numerics:?})"),
            VideoExecutor::Stream(numerics, threads) => write!(f, "stream({numerics:?}×{threads})"),
            VideoExecutor::Auto(numerics, _) => write!(f, "auto({numerics:?})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn executor(spec: &str) -> Result<VideoExecutor, VideoError> {
        VideoExecutor::from_spec(&BackendSpec::parse(spec).unwrap())
    }

    #[test]
    fn every_standard_engine_maps() {
        for (name, expected) in [
            ("sw-f32", VideoExecutor::TwoPass(Numerics::F32)),
            ("sw-fix16", VideoExecutor::TwoPass(Numerics::Fix16All)),
            ("sw-f32-stream", VideoExecutor::Stream(Numerics::F32, 1)),
            ("hw-marked", VideoExecutor::TwoPass(Numerics::F32)),
            ("hw-sequential", VideoExecutor::TwoPass(Numerics::F32)),
            ("hw-pragmas", VideoExecutor::TwoPass(Numerics::F32)),
            ("hw-fix16", VideoExecutor::TwoPass(Numerics::Fix16Blur)),
            (
                "hw-fix16-stream",
                VideoExecutor::Stream(Numerics::Fix16Blur, 1),
            ),
        ] {
            assert_eq!(executor(name).unwrap(), expected, "{name}");
        }
        assert!(matches!(
            executor("gpu-cuda"),
            Err(VideoError::UnknownEngine(name)) if name == "gpu-cuda"
        ));
    }

    #[test]
    fn schedule_requests_reshape_the_executor() {
        let class = |name: &str| {
            let row = BackendRegistry::STANDARD_ENGINES
                .into_iter()
                .find(|row| row.name == name)
                .unwrap();
            row.schedule_class().unwrap()
        };
        assert_eq!(
            executor("sw-f32?schedule=auto").unwrap(),
            VideoExecutor::Auto(Numerics::F32, class("sw-f32"))
        );
        assert_eq!(
            executor("hw-fix16?schedule=stream&threads=4").unwrap(),
            VideoExecutor::Stream(Numerics::Fix16Blur, 4)
        );
        assert_eq!(
            executor("sw-f32-stream?schedule=two-pass").unwrap(),
            VideoExecutor::TwoPass(Numerics::F32)
        );
        // `schedule=auto` prices an accelerator at its own Table II design,
        // as single-frame resolution does.
        assert_eq!(
            executor("hw-marked?schedule=auto").unwrap(),
            VideoExecutor::Auto(Numerics::F32, class("hw-marked"))
        );
        assert_ne!(class("hw-marked"), class("sw-f32"));
        // The all-fixed ablation has no schedule space here either.
        assert!(matches!(
            executor("sw-fix16?schedule=auto"),
            Err(VideoError::Spec(_))
        ));
    }
}

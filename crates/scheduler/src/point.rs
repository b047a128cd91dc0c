//! The vocabulary of the schedule space: execution strategy as data.
//!
//! A [`SchedulePoint`] names one concrete way to execute a compiled
//! [`tonemap_core::PipelinePlan`] — which executor runs it, at how many row
//! slices, in which sample format. [`ScheduleMode`] is the caller-facing
//! request parsed from a backend spec's `schedule=` key; [`ScheduleClass`]
//! is what an engine advertises about itself so the scheduler knows the
//! plan's quality floor and which design point to price.

use std::fmt;

use codesign::flow::DesignImplementation;
use tonemap_core::StreamingDecision;

/// The numeric format a schedule executes in — the plan's *quality floor*.
///
/// The format is fixed per engine (an `hw-fix16` caller asked for 16-bit
/// fixed-point quantisation; an `sw-f32` caller asked for float), so the
/// schedule space never trades precision for speed: every enumerated point
/// of one engine produces bit-identical pixels, and only the executor and
/// slicing vary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SampleFormat {
    /// 32-bit IEEE float throughout (quantisation is the identity).
    F32,
    /// Q8.8 fixed-point blur arithmetic, as in the paper's step-3 design.
    Fix16,
}

impl SampleFormat {
    /// Bits per sample, as charged by the cascade/BRAM cost model.
    pub const fn bits(&self) -> u64 {
        match self {
            SampleFormat::F32 => 32,
            SampleFormat::Fix16 => 16,
        }
    }

    /// Bytes per sample of a materialized intermediate plane.
    pub const fn bytes(&self) -> u64 {
        self.bits() / 8
    }

    /// The spec-surface spelling.
    pub const fn label(&self) -> &'static str {
        match self {
            SampleFormat::F32 => "f32",
            SampleFormat::Fix16 => "fix16",
        }
    }
}

impl fmt::Display for SampleFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Which executor a schedule point runs the plan through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScheduleExecutor {
    /// The stream with a boundary after every stencil
    /// ([`tonemap_core::StreamingToneMapper::with_materialized_stencils`]),
    /// on one slice: each stencil writes its value and mask planes, and
    /// the next segment reads them. The executor the paper's two-pass
    /// software reference corresponds to.
    TwoPass,
    /// The streaming cascade ([`tonemap_core::StreamingToneMapper`]):
    /// line-buffer row rings, materializing only at reduction barriers.
    Streaming {
        /// `true` when the whole plan is one fused raster-order pass.
        fused: bool,
        /// Materialization barriers the stream pays (zero when fused).
        barriers: usize,
    },
}

impl ScheduleExecutor {
    /// `true` for either streaming variant.
    pub const fn is_streaming(&self) -> bool {
        matches!(self, ScheduleExecutor::Streaming { .. })
    }
}

impl fmt::Display for ScheduleExecutor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleExecutor::TwoPass => f.write_str("two-pass"),
            ScheduleExecutor::Streaming {
                fused: true,
                barriers: _,
            } => f.write_str("fused-stream"),
            ScheduleExecutor::Streaming {
                fused: false,
                barriers,
            } => write!(f, "segmented-stream({barriers} barriers)"),
        }
    }
}

/// One concrete execution strategy for a plan at one resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SchedulePoint {
    /// The executor that runs the plan.
    pub executor: ScheduleExecutor,
    /// The most row slices a run of this point takes (always 1 for the
    /// two-pass executor, whose planner is single-threaded). It is a cap:
    /// each slice past the first runs only on a host core that nobody holds
    /// ([`tonemap_core::cores`]), so inside a busy worker pool a run may
    /// take fewer.
    pub threads: usize,
    /// The engine's sample format — recorded so telemetry names the full
    /// strategy, never varied by the scheduler (see [`SampleFormat`]).
    pub format: SampleFormat,
    /// Rows of the largest row slice when a run takes all `threads` slices
    /// (`height` when `threads == 1`).
    pub slice_rows: usize,
}

impl SchedulePoint {
    /// The canonical two-pass point: one pass over the whole image per
    /// stage, single-threaded, at the engine's format.
    pub const fn two_pass(format: SampleFormat, height: usize) -> Self {
        SchedulePoint {
            executor: ScheduleExecutor::TwoPass,
            threads: 1,
            format,
            slice_rows: height,
        }
    }

    /// The streaming point of a plan the streaming planner judged
    /// `decision`, row-sliced over `threads` workers of
    /// `height.div_ceil(threads)` rows each.
    pub fn streaming(
        decision: &StreamingDecision,
        threads: usize,
        format: SampleFormat,
        height: usize,
    ) -> Self {
        SchedulePoint {
            executor: ScheduleExecutor::Streaming {
                fused: decision.is_fused(),
                barriers: decision.barriers().len(),
            },
            threads,
            format,
            slice_rows: height.div_ceil(threads.max(1)),
        }
    }
}

impl fmt::Display for SchedulePoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} x{} thread{}, {}-row slices, {}",
            self.executor,
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            self.slice_rows,
            self.format,
        )
    }
}

/// The caller's `schedule=` request, parsed from a backend spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScheduleMode {
    /// Enumerate every legal point and run the predicted-best.
    Auto,
    /// Force the materialized two-pass executor.
    TwoPass,
    /// Force the streaming executor (predicted-best slicing unless the spec
    /// also pins `threads=N`).
    Stream,
}

impl ScheduleMode {
    /// Every accepted `schedule=` value, for error messages.
    pub const KEYWORDS: [&'static str; 3] = ["auto", "two-pass", "stream"];

    /// Parses a `schedule=` value; `None` for anything not in
    /// [`ScheduleMode::KEYWORDS`].
    pub fn parse(value: &str) -> Option<Self> {
        match value {
            "auto" => Some(ScheduleMode::Auto),
            "two-pass" => Some(ScheduleMode::TwoPass),
            "stream" => Some(ScheduleMode::Stream),
            _ => None,
        }
    }

    /// The canonical spelling, round-tripping through
    /// [`ScheduleMode::parse`].
    pub const fn as_str(&self) -> &'static str {
        match self {
            ScheduleMode::Auto => "auto",
            ScheduleMode::TwoPass => "two-pass",
            ScheduleMode::Stream => "stream",
        }
    }
}

impl fmt::Display for ScheduleMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What an engine tells the scheduler about itself: the quality floor its
/// callers signed up for and the design point the platform model prices.
///
/// The all-fixed `sw-fix16` ablation, whose point stages also run in
/// `Fix16`, has no priced design and advertises no class at all: it
/// rejects `schedule=` in the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleClass {
    /// Sample format every enumerated point keeps (the quality floor).
    pub format: SampleFormat,
    /// The co-design implementation whose cost model prices the points.
    pub design: DesignImplementation,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_round_trips_through_parse() {
        for keyword in ScheduleMode::KEYWORDS {
            let mode = ScheduleMode::parse(keyword).expect("keyword parses");
            assert_eq!(mode.as_str(), keyword);
            assert_eq!(mode.to_string(), keyword);
        }
        assert_eq!(ScheduleMode::parse("fastest"), None);
        assert_eq!(ScheduleMode::parse("AUTO"), None);
        assert_eq!(ScheduleMode::parse(""), None);
    }

    #[test]
    fn point_display_names_the_strategy() {
        let point = SchedulePoint {
            executor: ScheduleExecutor::Streaming {
                fused: true,
                barriers: 0,
            },
            threads: 4,
            format: SampleFormat::F32,
            slice_rows: 192,
        };
        assert_eq!(
            point.to_string(),
            "fused-stream x4 threads, 192-row slices, f32"
        );
        let two_pass = SchedulePoint::two_pass(SampleFormat::Fix16, 768);
        assert_eq!(
            two_pass.to_string(),
            "two-pass x1 thread, 768-row slices, fix16"
        );
    }

    #[test]
    fn format_bit_widths_match_the_cascade_model() {
        assert_eq!(SampleFormat::F32.bits(), 32);
        assert_eq!(SampleFormat::Fix16.bits(), 16);
        assert_eq!(SampleFormat::F32.bytes(), 4);
        assert_eq!(SampleFormat::Fix16.bytes(), 2);
    }
}

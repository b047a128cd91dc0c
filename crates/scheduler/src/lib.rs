//! Cost-model-driven auto-scheduling of tone-mapping pipeline plans.
//!
//! PR 5 made the *pipeline* data ([`tonemap_core::PipelinePlan`]) and PR 6
//! made fused execution general (the cascade and its segmentation); this
//! crate makes the *schedule* data. Which schedule point of the stream runs
//! a plan — every stencil materialized (two-pass) or the fused line-buffer
//! cascade — at
//! how many row slices, in which sample format, used to be hand-picked by
//! engine name. Here it is:
//!
//! * a typed point — [`SchedulePoint`]: executor, worker count, quality
//!   floor, slice shape;
//! * an enumerable space — [`ScheduleSpace`]: the two-pass point and the
//!   plan's streaming points, whose shape is the streaming planner's
//!   [`tonemap_core::StreamingDecision`] read off the plan's segmentation
//!   (every plan streams);
//! * a priced choice — [`Scheduler`] costs every point through the
//!   existing co-design machinery ([`codesign::flow::CoDesignFlow`]'s plan
//!   evaluation, the ZC702 data-mover model for materialized planes, the
//!   service's LPT host model for row slices) and returns a ranked
//!   [`ScheduleReport`] whose winner names why it won and every loser why
//!   it lost.
//!
//! This is the AnyHLS / Intel-OpenCL-autotuning move from PAPERS.md
//! applied to the software engines with the Zynq platform model as the
//! oracle: enumerate implementation variants, price them on a model,
//! run the predicted-best. Because the sample format is part of the
//! engine's contract (its callers chose a quality floor), every point of
//! one engine is bit-identical to every other — the scheduler can never
//! change pixels, only how fast they arrive.
//!
//! # Example
//!
//! ```
//! use codesign::flow::DesignImplementation;
//! use tonemap_core::plan::{PipelinePlan, PlanTuning};
//! use tonemap_core::ToneMapParams;
//! use tonemap_scheduler::{HostModel, SampleFormat, ScheduleClass, Scheduler};
//!
//! let params = ToneMapParams::paper_default();
//! let plan = PipelinePlan::preset("basedetail", &params, &PlanTuning::default())
//!     .unwrap()
//!     .unwrap();
//! let scheduler = Scheduler::new(
//!     params,
//!     ScheduleClass {
//!         format: SampleFormat::F32,
//!         design: DesignImplementation::SwSourceCode,
//!     },
//! )?
//! .with_host(HostModel::with_cores(8));
//! let report = scheduler.schedule(&plan, 1024, 768);
//! // The two-stencil plan fuses, so streaming wins over two-pass.
//! assert!(report.winner().point.executor.is_streaming());
//! assert!(report.winner().predicted_seconds <= report.two_pass().predicted_seconds);
//! # Ok::<(), tonemap_core::ParamError>(())
//! ```

pub mod point;
pub mod scheduler;
pub mod space;

pub use point::{SampleFormat, ScheduleClass, ScheduleExecutor, ScheduleMode, SchedulePoint};
pub use scheduler::{PricedPoint, ScheduleReport, Scheduler};
pub use space::{HostModel, ScheduleSpace};

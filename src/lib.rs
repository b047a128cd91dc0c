//! Workspace facade crate for the SOCC 2018 HDR tone-mapping / Zynq HLS
//! acceleration reproduction.
//!
//! This crate re-exports the public surface of every member crate so that the
//! examples under `examples/` and the integration tests under `tests/` can use
//! one coherent namespace. Library users normally depend on the individual
//! crates (`tonemap-core`, `codesign`, …) directly. `ARCHITECTURE.md` at the
//! repository root maps every crate to the part of the paper it reproduces.
//!
//! # Quickstart
//!
//! ```
//! use tonemap_zynq_repro::prelude::*;
//!
//! // Generate a small synthetic HDR scene and tone-map it through the
//! // engine layer: one request describes the job, execution is fallible.
//! let hdr = SceneKind::WindowInDarkRoom.generate(64, 64, 42);
//! let registry = BackendRegistry::standard();
//! let response = registry
//!     .execute(&TonemapRequest::luminance(&hdr).with_telemetry())
//!     .expect("the default engine executes a valid scene");
//! assert_eq!(response.dimensions(), (64, 64));
//! assert!(response.telemetry().unwrap().ops.total() > 0);
//! ```

pub use apfixed;
pub use codesign;
pub use hdr_image;
pub use hls_model;
pub use tonemap_backend;
pub use tonemap_core;
pub use tonemap_service;
pub use tonemap_video;
pub use zynq_sim;

/// Convenience prelude used by the examples and integration tests.
pub mod prelude {
    pub use apfixed::{DynFix, Fix, QFormat, RoundingMode, SaturationMode};
    pub use codesign::flow::{CoDesignFlow, DesignImplementation, FlowReport};
    pub use codesign::profile::Profiler;
    pub use codesign::reports::{EnergyBreakdown, ExecutionBreakdown, QualityReport};
    pub use hdr_image::metrics::{mse, psnr, ssim};
    pub use hdr_image::sequence::{FrameSequence, SequenceKind};
    pub use hdr_image::synth::SceneKind;
    pub use hdr_image::{ImageBuffer, LdrImage, LuminanceImage, RgbImage};
    pub use hls_model::kernel::{Kernel, KernelBuilder};
    pub use hls_model::pragma::{ArrayPartition, DataMover, Pragma};
    pub use hls_model::schedule::Scheduler;
    pub use hls_model::tech::TechLibrary;
    pub use tonemap_backend::{
        BackendInfo, BackendOutput, BackendRegistry, BackendSpec, BackendTelemetry, Engine,
        ModeledCost, Numerics, OutputKind, ResolvedBackend, TonemapBackend, TonemapError,
        TonemapPayload, TonemapRequest, TonemapResponse, UnknownBackendError,
    };
    pub use tonemap_core::{
        BlurParams, Curve, ParamError, PipelineOp, PipelinePlan, PlanError, PlanSegment,
        PlanSegmentation, PlanTuning, StreamBarrier, StreamingDecision, StreamingToneMapper,
        ToneMapParams, ToneMapper,
    };
    pub use tonemap_service::{
        EngineUtilisation, FrameHandle, FramePool, FramePoolStats, FrameSequenceRequest, JobHandle,
        JobInput, JobRequest, LatencyHistogram, Priority, ServiceConfig, ServiceError,
        ServiceStats, TaskOptions, TonemapService, VideoFrameOutcome, VideoStreamHandle,
        WorkerPool, LATENCY_BUCKETS,
    };
    pub use tonemap_video::{
        FrameMetrics, StreamSummary, TemporalConfig, VideoError, VideoSession,
    };
    pub use zynq_sim::config::ZynqConfig;
    pub use zynq_sim::power::{EnergyReport, PowerRails};
    pub use zynq_sim::system::SystemSimulator;
}

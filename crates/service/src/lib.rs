//! A concurrent tone-mapping job server over the engine layer.
//!
//! The paper's FPGA–CPU co-design exists to push tone-mapping throughput
//! beyond what a lone ARM core delivers; this crate models the matching
//! *host-side* layer — the scheduling across parallel execution units that
//! real-time tone-mapping systems (Ou et al., *Real-time Tone Mapping: A
//! State of the Art Report*) and heterogeneous image-pipeline DSLs (Pu et
//! al., *Programming Heterogeneous Systems from an Image Processing DSL*)
//! treat as a first-class part of the system. It turns the
//! [`tonemap_backend::BackendRegistry`] into a job server built from std
//! primitives only (the workspace vendors its dependencies offline):
//!
//! * [`pool`] — a hand-rolled worker pool over one queue: one lock over
//!   two FIFO deques (one per [`Priority`] class, interactive always
//!   first) and the per-stream mailboxes, a bounded total as the
//!   backpressure point, and deadline enforcement at dequeue.
//! * [`JobRequest`] — the owned analogue of
//!   [`tonemap_backend::TonemapRequest`]: pixel data behind an
//!   [`std::sync::Arc`] so jobs cross the thread boundary without copying,
//!   plus the serving policies — [`JobRequest::with_priority`] and
//!   [`JobRequest::with_deadline`].
//! * [`JobHandle`] — completion as a future-by-channel: the worker sends
//!   exactly one result, [`JobHandle::wait`] receives it.
//! * [`TonemapService`] — submission (blocking [`TonemapService::submit`]
//!   and non-blocking [`TonemapService::try_submit`]), deadline admission
//!   control (the host model sheds work predicted to miss its budget),
//!   frame pooling ([`FramePool`]: raw jobs stage through recycled
//!   buffers, [`TonemapService::recycle`] closes the loop), batch execution
//!   ([`TonemapService::execute_batch`] splits a workload across the pool
//!   at job granularity while every worker shares each engine's
//!   per-resolution platform-model cache), and graceful shutdown (queued
//!   and in-flight jobs always complete).
//! * [`VideoStreamHandle`] — video as a first-class workload: a
//!   [`FrameSequenceRequest`] opens a `tonemap-video` temporal session on
//!   the service ([`TonemapService::open_stream`]); its frames ride the
//!   same pool through the stream's mailbox, one at a time in submission
//!   order, while distinct streams overlap across workers, staging
//!   through the [`FramePool`] and counted separately
//!   ([`ServiceStats::frames_completed`], [`ServiceStats::streams_active`]).
//! * [`ServiceStats`] — aggregate telemetry: throughput, queue depth,
//!   per-class streaming latency histograms
//!   ([`LatencyHistogram`]: p50/p95/p99 from fixed log₂ buckets),
//!   per-engine utilisation, and the analytic multi-core host model
//!   ([`ServiceStats::modeled_speedup`], per class via
//!   [`ServiceStats::modeled_class_makespan_seconds`]) that extends the
//!   paper's Table I/II cost-model methodology from the Zynq to the
//!   serving host.
//!
//! The job lifecycle (documented end-to-end in `ARCHITECTURE.md`):
//!
//! ```text
//!   JobRequest ──submit──► admission ──► [interactive | batch] ──pop──► worker
//!       │  QueueFull / DeadlineUnmeetable ◄─┘  (one lock; interactive   │
//!       ▼                                       first, FIFO per class)  ▼
//!   JobHandle ◄──── one JobOutcomeResult ◄──── expire-at-dequeue / engine.execute(...)
//! ```
//!
//! Execution is deterministic: the pipeline has no data races by
//! construction (workers share immutable engines), so the same requests
//! produce bit-identical images at any worker count —
//! `tests/service_concurrency.rs` enforces this at 1, 2 and 8 workers.
//!
//! # Example
//!
//! ```
//! use hdr_image::synth::SceneKind;
//! use tonemap_service::{JobRequest, ServiceConfig, TonemapService};
//!
//! let service = TonemapService::standard(ServiceConfig::with_workers(2));
//! let scene = SceneKind::WindowInDarkRoom.generate(16, 16, 42);
//!
//! // Submit asynchronously: handles resolve in any order.
//! let reference = service.submit(JobRequest::luminance(scene.clone()))?;
//! let accelerated = service.submit(
//!     JobRequest::luminance(scene).on_backend("hw-fix16").with_telemetry(),
//! )?;
//!
//! let reference = reference.wait()?;
//! let accelerated = accelerated.wait()?;
//! assert_eq!(reference.dimensions(), accelerated.dimensions());
//! assert!(accelerated.telemetry().unwrap().modeled.is_some());
//!
//! let stats = service.stats();
//! assert_eq!(stats.completed, 2);
//! assert_eq!(stats.per_engine.len(), 2); // sw-f32 and hw-fix16
//! # Ok::<(), tonemap_service::ServiceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod frames;
mod hist;
mod job;
pub mod pool;
mod service;
mod stats;
mod video;

pub use error::ServiceError;
pub use frames::{FramePool, FramePoolStats, PoisonGuard};
pub use hist::{LatencyHistogram, LATENCY_BUCKETS};
pub use job::{JobHandle, JobInput, JobOutcomeResult, JobRequest};
pub use pool::{PoolError, Priority, TaskFate, TaskOptions, WorkerPool};
pub use service::{ServiceConfig, TonemapService};
pub use stats::{EngineUtilisation, ServiceStats, JOB_SAMPLE_CAP};
pub use video::{FrameHandle, FrameSequenceRequest, VideoFrameOutcome, VideoStreamHandle};

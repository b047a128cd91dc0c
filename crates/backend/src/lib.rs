//! The engine layer: every way of executing the paper's tone-mapping
//! pipeline behind one fallible request/response job contract.
//!
//! The seed reproduction exposed three parallel entry points to the Fig. 1
//! pipeline; PR 1 funnelled them through a `TonemapBackend` trait, but the
//! contract was still shaped like a figure-reproduction script — infallible
//! `run(&LuminanceImage)`, panicking constructors, RGB through a side-door
//! helper. This revision reshapes the API around *jobs*, following the
//! single-description / many-targets idea of AnyHLS (Özkan et al., 2020)
//! and Halide-to-heterogeneous-systems (Pu et al., 2016) at the API
//! boundary: one [`TonemapRequest`] describes what to tone-map, with which
//! parameters, into which output form, on which engine — and execution is
//! always fallible:
//!
//! ```text
//!   TonemapRequest ──► TonemapBackend::execute ──► Result<TonemapResponse,
//!        │                      ▲                            TonemapError>
//!        │ "hw-fix16?sigma=3"   │
//!        │ "sw-f32?pipeline=…"  │
//!        ▼                      │
//!   BackendRegistry::execute ───┘   (spec string → engine + param override
//!                                    + compiled PipelinePlan)
//!
//!   Engine = one row of BackendRegistry::STANDARD_ENGINES:
//!
//!    name            numerics    Table II design              executor
//!    sw-f32          F32         SW source code               TwoPass
//!    sw-fix16        Fix16All    —  (all-fixed ablation)      TwoPass
//!    hw-marked       F32         Marked HW function           TwoPass
//!    hw-sequential   F32         Sequential memory accesses   TwoPass
//!    hw-pragmas      F32         HLS pragmas                  TwoPass
//!    hw-fix16        Fix16Blur   FlP to FxP conversion        TwoPass
//!    sw-f32-stream   F32         —                            Stream { threads: 1 }
//!    hw-fix16-stream Fix16Blur   —                            Stream { threads: 1 }
//!
//!   "name?schedule=…" → the same row with Scheduled { mode, threads }
//! ```
//!
//! Every row runs the core stream ([`tonemap_core::StreamingToneMapper`]):
//! `TwoPass` is its schedule point with a plane materialized after every
//! stencil, and the numerics pick its datapath — `f32` registers with the
//! blur in `f32` or `Fix16` (`F32`, `Fix16Blur`), or every register in
//! `Fix16` (`Fix16All`).
//!
//! The modules: [`TonemapBackend`] is the execution contract (`backend`);
//! [`Engine`] its one implementation, a row of data (`engine`), which picks
//! each size's point: two-pass, the plan's streaming point, or the
//! scheduler's pick (`scheduled`). [`CompiledPlan::new`] is the one compile
//! entry, onto one stream mapper per numerics (`streaming`), and
//! [`BackendTelemetry`] names every run's point. `memo` bounds the caches
//! a client's input keys. `registry` holds the row table and resolves spec
//! strings ([`BackendSpec`], `spec`); `request` and `output` are the job
//! contract's data; `error` is its one error type.
//!
//! Every input is validated into a typed [`TonemapError`] — unknown specs,
//! invalid parameters, zero-dimension images — never a panic. A
//! [`TonemapResponse`] carries the tone-mapped payload (luminance or RGB,
//! display-referred `f32` or quantised 8-bit) and, when the request opted
//! in, telemetry: host wall-clock time, analytic operation counts, and —
//! for engines that correspond to a Table II design — the platform model's
//! execution-time/energy prediction ([`ModeledCost`]).
//!
//! Engines are resolved by spec string through the [`BackendRegistry`]
//! (`"hw-fix16"`, `"sw-f32?sigma=3.5&radius=10"` to override parameters
//! from configuration, or `"sw-f32-stream?pipeline=reinhard"` to compile a
//! whole different operator chain — see [`tonemap_core::plan`]),
//! introspected through [`BackendInfo`], and batches
//! of heterogeneous requests execute through
//! [`BackendRegistry::execute_batch`], which amortises both spec
//! resolution and each engine's per-resolution platform-model cache — the
//! seam the `tonemap-service` worker pool builds on to serve jobs
//! concurrently (see `ARCHITECTURE.md` for the full stack).
//!
//! # Example
//!
//! ```
//! use hdr_image::synth::SceneKind;
//! use tonemap_backend::{BackendRegistry, TonemapRequest};
//!
//! let registry = BackendRegistry::standard();
//! let hdr = SceneKind::WindowInDarkRoom.generate(64, 64, 42);
//!
//! // Select engines by spec string, not by hard-coded method calls.
//! let reference = registry.execute(&TonemapRequest::luminance(&hdr))?;
//! let accelerated = registry.execute(
//!     &TonemapRequest::luminance(&hdr)
//!         .on_backend("hw-fix16")
//!         .with_telemetry(),
//! )?;
//!
//! assert_eq!(reference.dimensions(), accelerated.dimensions());
//! // The fixed-point accelerator engine carries the platform model's
//! // prediction of the paper's final design.
//! let modeled = accelerated.telemetry().unwrap().modeled.as_ref().unwrap();
//! assert!(modeled.total_seconds > 0.0);
//! assert!(modeled.energy_j > 0.0);
//!
//! // Bad input is a typed error, not a panic.
//! assert!(registry
//!     .execute(&TonemapRequest::luminance(&hdr).on_backend("gpu-cuda"))
//!     .is_err());
//! # Ok::<(), tonemap_backend::TonemapError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod engine;
mod error;
mod memo;
mod output;
mod registry;
mod request;
mod scheduled;
mod spec;
mod streaming;

pub use backend::{BackendInfo, TonemapBackend};
pub use engine::{Engine, EngineRow, Executor, Numerics};
pub use error::TonemapError;
pub use output::{
    BackendOutput, BackendTelemetry, ModeledCost, RgbBackendOutput, ScheduleTelemetry,
};
pub use registry::{BackendRegistry, ResolvedBackend, UnknownBackendError};
pub use request::{OutputKind, TonemapPayload, TonemapRequest, TonemapResponse};
pub use spec::{BackendSpec, TemporalMode};
pub use streaming::CompiledPlan;

//! Video as a first-class workload: temporal tone-mapping sessions.
//!
//! The paper's pipeline tone-maps single HDR stills, but its target
//! platform — FPGA–CPU streaming at line rate — only pays off on video,
//! where the defining problem is *temporal stability*: a tone curve
//! recomputed from scratch every frame flickers as the per-frame
//! statistics jitter. This crate runs any existing
//! [`PipelinePlan`](tonemap_core::PipelinePlan) over a frame sequence
//! with:
//!
//! * **Leaky adaptation** — the per-frame reduction statistics
//!   (normalize maximum, Reinhard log-average key, histogram CDF) feed a
//!   first-order leaky integrator (`temporal=leaky&tau=…`, τ in frames)
//!   instead of driving the curve directly, so the curve evolves
//!   smoothly. `tau=0` and `temporal=independent` are bit-identical to
//!   per-frame single-frame execution.
//! * **Scene-cut reset** — a frame-signature distance detector
//!   (`cutthresh=…`) drops the integrator on hard cuts, so cuts snap
//!   instead of cross-fading through a stale adaptation.
//! * **Inline stability metrics** — frame-to-frame mean-brightness delta
//!   (flicker) and per-pixel temporal PSNR, per frame and aggregated.
//!
//! The session walks no plan of its own. Every frame runs on the executor
//! its [`Engine`](tonemap_backend::Engine) compiled and memoized for the
//! frame's size — the one a still of the same spec runs on — and the
//! session binds the plan's reductions to its integrator through a
//! [`Reductions`](tonemap_core::Reductions) hook
//! ([`Engine::map_luminance_into`](tonemap_backend::Engine::map_luminance_into)).
//!
//! # Example
//!
//! ```
//! use hdr_image::sequence::{FrameSequence, SequenceKind};
//! use hdr_image::synth::SceneKind;
//! use tonemap_video::VideoSession;
//!
//! let mut session = VideoSession::from_spec("sw-f32?temporal=leaky&tau=2")?;
//! let frames = FrameSequence::new(
//!     SequenceKind::ExposureRamp { decades: 1.0 },
//!     SceneKind::WindowInDarkRoom,
//!     32,
//!     24,
//!     4,
//!     7,
//! );
//! for frame in frames.frames() {
//!     let (output, metrics) = session.process(&frame);
//!     assert_eq!(output.dimensions(), (32, 24));
//!     assert!(metrics.mean_brightness.is_finite());
//! }
//! assert_eq!(session.summary().frames, 4);
//! # Ok::<(), tonemap_video::VideoError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod metrics;
mod session;

pub use config::{TemporalConfig, DEFAULT_CUT_THRESHOLD, DEFAULT_TAU};
pub use error::VideoError;
pub use metrics::{FrameMetrics, Signature, StreamSummary};
pub use session::VideoSession;

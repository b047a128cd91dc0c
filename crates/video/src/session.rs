//! The temporal session: leaky adaptation over a plan's reduction
//! statistics, scene-cut reset, and inline stability metrics.

use std::collections::HashMap;

use hdr_image::LuminanceImage;
use tonemap_backend::{BackendSpec, TemporalMode};
use tonemap_core::normalize::{max_pixel, normalize_sample};
use tonemap_core::plan::{
    histogram_counts, histogram_remap_cdf, ChannelLayout, Curve, PipelineOp, PipelinePlan,
};
use tonemap_core::ToneMapParams;
use tonemap_scheduler::Scheduler;

use crate::config::TemporalConfig;
use crate::error::VideoError;
use crate::executor::VideoExecutor;
use crate::metrics::{
    map_with_log_average, output_metrics, FrameMetrics, Signature, StreamSummary,
};

/// First-order leaky update: `s += α·(o − s)`. At `α ≥ 1` the state is
/// *assigned* — the IEEE sum `s + 1·(o − s)` is not `o`, and `tau=0`
/// must be bit-identical to per-frame independence.
fn leak(state: &mut f64, obs: f64, alpha: f64) {
    if alpha >= 1.0 {
        *state = obs;
    } else {
        *state += alpha * (obs - *state);
    }
}

/// Leaks `obs` into an optional state slot, seeding it (direct
/// assignment) on first observation. Returns the adapted value.
fn leak_into(slot: &mut Option<f64>, obs: f64, alpha: f64) -> f64 {
    match slot {
        Some(state) => {
            leak(state, obs, alpha);
            *state
        }
        None => {
            *slot = Some(obs);
            obs
        }
    }
}

/// One fused run of the plan between materialization barriers.
#[derive(Debug, Clone)]
struct SegmentOps {
    /// The run's operators; empty for a plan that begins or ends with a
    /// barrier (an identity run).
    ops: Vec<PipelineOp>,
    /// Whether the run carries a Reinhard stage whose key the session
    /// rescales to the adapted log-average.
    has_reinhard: bool,
}

impl SegmentOps {
    /// The run as an executable plan, with Reinhard keys rescaled by the
    /// adaptation ratio. A ratio of exactly `1.0` (independent mode,
    /// `tau=0`, steady state) leaves the ops untouched so the compiled
    /// plan is bitwise the single-frame one.
    ///
    /// The rescaled key saturates into the accepted range: a product that
    /// overflows to ∞ becomes `f32::MAX`, one that rounds to 0 becomes the
    /// smallest positive subnormal. Every other key keeps its bits.
    fn plan(&self, key_ratio: f64) -> PipelinePlan {
        let ops = if self.has_reinhard && key_ratio != 1.0 {
            let scale = key_ratio.clamp(1e-4, 1e4) as f32;
            self.ops
                .iter()
                .map(|op| match *op {
                    PipelineOp::Curve(Curve::Reinhard { key, white }) => {
                        PipelineOp::Curve(Curve::Reinhard {
                            key: (key * scale).clamp(f32::from_bits(1), f32::MAX),
                            white,
                        })
                    }
                    other => other,
                })
                .collect()
        } else {
            self.ops.clone()
        };
        PipelinePlan::new(ops).expect("segment runs are validated at session construction")
    }
}

/// The leaky integrator's state between frames.
#[derive(Debug, Clone)]
struct AdaptState {
    /// Fingerprint of the last raw frame (scene-cut reference).
    signature: Signature,
    /// Adapted normalization maximum.
    max: f64,
    /// Adapted Reinhard log-average (`mean ln(1e-4 + v)` domain); `None`
    /// until the first frame of a plan that carries a Reinhard stage.
    log_avg_ln: Option<f64>,
    /// Adapted per-bin histogram counts, one slot per barrier; `None`
    /// until that barrier first executes.
    hist: Vec<Option<Vec<f64>>>,
}

/// A temporal tone-mapping session: runs one [`PipelinePlan`] over a
/// frame sequence, leaking the per-frame reduction statistics (normalize
/// max, Reinhard log-average, histogram CDF) through a first-order
/// integrator so the tone curve evolves smoothly, resetting on detected
/// scene cuts, and measuring flicker/stability inline.
///
/// Frames must be processed **in order** — the adaptation state is the
/// whole point. The service layer enforces this by pinning each stream to
/// one queue shard.
#[derive(Debug)]
pub struct VideoSession {
    plan: PipelinePlan,
    params: ToneMapParams,
    config: TemporalConfig,
    executor: VideoExecutor,
    /// Present exactly when `executor` is `Auto`.
    scheduler: Option<Scheduler>,
    /// Auto-scheduler winners, cached per resolution so a steady stream
    /// prices its schedule once.
    resolved: HashMap<(usize, usize), VideoExecutor>,
    /// Whether the plan opens with `Normalize` (the session owns that
    /// reduction: it leaks the frame maximum).
    normalize: bool,
    /// Whether any segment carries a Reinhard stage (gates the log-average
    /// the register pass accumulates).
    track_key: bool,
    segments: Vec<SegmentOps>,
    /// Bin count of each materialization barrier, in plan order.
    barrier_bins: Vec<usize>,
    state: Option<AdaptState>,
    frames: usize,
    cuts: Vec<usize>,
    /// The last output frame; the output pass copies each frame into it.
    prev_output: Option<LuminanceImage>,
    prev_mean: Option<f64>,
    flicker_sum: f64,
    flicker_peak: f64,
    flicker_count: usize,
    min_psnr_db: f64,
}

impl VideoSession {
    /// Builds a session over `plan` with the given parameters, temporal
    /// configuration and executor.
    ///
    /// # Errors
    ///
    /// [`VideoError::ColourPlan`] for plans with colour registers,
    /// [`VideoError::InvalidParams`] when `params` fail validation, and
    /// [`VideoError::Plan`] when a fused run cannot execute standalone
    /// (e.g. a `Mask` split from its `BlurMask` by a barrier).
    pub fn new(
        plan: &PipelinePlan,
        params: &ToneMapParams,
        config: TemporalConfig,
        executor: VideoExecutor,
    ) -> Result<Self, VideoError> {
        params.validate()?;
        if let Some(layout) = plan
            .op_input_layouts()
            .iter()
            .chain(std::iter::once(&plan.output_layout()))
            .find(|layout| **layout != ChannelLayout::Scalar)
        {
            return Err(VideoError::ColourPlan(layout.to_string()));
        }
        let segmentation = plan.segmentation();
        let normalize = plan.starts_with_normalize();
        let ops = plan.ops();
        let mut segments = Vec::new();
        for (index, segment) in segmentation.segments.iter().enumerate() {
            let mut start = segment.start;
            if index == 0 && normalize {
                // The session owns normalization: it pre-scales each frame
                // by the *adapted* maximum before the run executes.
                start += 1;
            }
            let run = ops[start..segment.end].to_vec();
            if !run.is_empty() {
                // A run must stand alone as a plan; a `Mask` whose
                // `BlurMask` sits across a barrier cannot.
                PipelinePlan::new(run.clone())?;
            }
            let has_reinhard = run
                .iter()
                .any(|op| matches!(op, PipelineOp::Curve(Curve::Reinhard { .. })));
            segments.push(SegmentOps {
                ops: run,
                has_reinhard,
            });
        }
        let barrier_bins = segmentation
            .barriers
            .iter()
            .map(|&index| match ops[index] {
                PipelineOp::HistogramEq { bins } => bins,
                other => unreachable!("{other:?} is not a materialization barrier"),
            })
            .collect();
        let track_key = segments.iter().any(|segment| segment.has_reinhard);
        let scheduler = match executor {
            VideoExecutor::Auto(_, class) => Some(Scheduler::new(*params, class)?),
            _ => None,
        };
        Ok(VideoSession {
            plan: plan.clone(),
            params: *params,
            config,
            executor,
            scheduler,
            resolved: HashMap::new(),
            normalize,
            track_key,
            segments,
            barrier_bins,
            state: None,
            frames: 0,
            cuts: Vec::new(),
            prev_output: None,
            prev_mean: None,
            flicker_sum: 0.0,
            flicker_peak: 0.0,
            flicker_count: 0,
            min_psnr_db: f64::INFINITY,
        })
    }

    /// Builds a session from a full spec string — engine name, overrides,
    /// `pipeline=`, `schedule=`, and the video keys
    /// `temporal=`/`tau=`/`cutthresh=`. The temporal keys configure the
    /// session itself; everything else resolves exactly as the
    /// single-frame layers would.
    ///
    /// # Errors
    ///
    /// [`VideoError::Spec`] for a malformed spec,
    /// [`VideoError::UnknownEngine`] for an unmapped engine name, plus
    /// everything [`VideoSession::new`] returns.
    pub fn from_spec(spec: &str) -> Result<Self, VideoError> {
        let parsed = BackendSpec::parse(spec)?;
        let config = TemporalConfig::from_spec(&parsed);
        let executor = VideoExecutor::from_spec(&parsed)?;
        let base = ToneMapParams::paper_default();
        let effective = parsed.merged_params(base)?.unwrap_or(base);
        let plan = parsed
            .resolved_plan(&effective)?
            .unwrap_or_else(|| PipelinePlan::from_params(&effective));
        VideoSession::new(&plan, &effective, config, executor)
    }

    /// Tone-maps the next frame of the stream, advancing the adaptation
    /// state, and returns the display-referred output with the frame's
    /// stability metrics.
    pub fn process(&mut self, frame: &LuminanceImage) -> (LuminanceImage, FrameMetrics) {
        let index = self.frames;
        let signature = Signature::of(frame);
        let mut scene_cut = false;
        if let Some(state) = &self.state {
            if self.config.mode == TemporalMode::Leaky
                && signature.distance(&state.signature) > f64::from(self.config.cut_threshold)
            {
                // A cut must snap, not cross-fade: drop the whole
                // integrator so this frame reseeds it.
                scene_cut = true;
                self.state = None;
                self.cuts.push(index);
            }
        }
        let alpha = self.config.alpha();
        let obs_max = f64::from(max_pixel(frame));
        let mut state = match self.state.take() {
            Some(mut state) => {
                leak(&mut state.max, obs_max, alpha);
                state.signature = signature;
                state
            }
            None => AdaptState {
                signature,
                max: obs_max,
                log_avg_ln: None,
                hist: vec![None; self.barrier_bins.len()],
            },
        };
        let scale = if self.normalize {
            let max = state.max as f32;
            (max > 0.0).then(|| 1.0 / max)
        } else {
            None
        };
        // For normalize plans this composes to exactly `normalize_to` when
        // the adapted max equals the frame max; for the rest it matches
        // the executors' own non-normalize entry (identity for finite
        // samples), so segment-wise execution stays bit-identical.
        let (mut register, key_ratio) = if self.track_key {
            // The same pass observes the register's log-average.
            let (register, obs_ln) = map_with_log_average(frame, |v| normalize_sample(v, scale));
            let adapted = leak_into(&mut state.log_avg_ln, obs_ln, alpha);
            // Render relative to the adapted level: a brightness step
            // looks bright until the integrator catches up. Exactly 1.0
            // at steady state, so the plan is not rewritten there.
            (register, (obs_ln - adapted).exp())
        } else {
            (frame.map(|&v| normalize_sample(v, scale)), 1.0)
        };
        let barrier_count = self.barrier_bins.len();
        for seg_index in 0..self.segments.len() {
            if !self.segments[seg_index].ops.is_empty() {
                let plan = self.segments[seg_index].plan(key_ratio);
                register = self.run_segment(&plan, &register);
            }
            if seg_index < barrier_count {
                let counts = histogram_counts(&register, self.barrier_bins[seg_index]);
                let cdf = barrier_cdf(&mut state.hist[seg_index], &counts, alpha);
                register = histogram_remap_cdf(&register, &cdf);
            }
        }
        self.state = Some(state);
        let (mean, temporal_psnr_db) = output_metrics(&register, &mut self.prev_output);
        let flicker_delta = self.prev_mean.map(|prev| (mean - prev).abs());
        if let Some(delta) = flicker_delta {
            self.flicker_sum += delta;
            self.flicker_count += 1;
            if delta > self.flicker_peak {
                self.flicker_peak = delta;
            }
        }
        if let Some(db) = temporal_psnr_db {
            if db < self.min_psnr_db {
                self.min_psnr_db = db;
            }
        }
        self.prev_mean = Some(mean);
        self.frames += 1;
        (
            register,
            FrameMetrics {
                index,
                scene_cut,
                mean_brightness: mean,
                flicker_delta,
                temporal_psnr_db,
            },
        )
    }

    /// Runs one fused segment through the session's executor.
    fn run_segment(&mut self, plan: &PipelinePlan, register: &LuminanceImage) -> LuminanceImage {
        self.resolve_executor(register.width(), register.height())
            .map_luminance(plan, &self.params, register)
    }

    /// The concrete executor for a resolution: the session's own unless
    /// it is `Auto`, which prices the schedule once per resolution and
    /// caches the winner for the rest of the stream.
    fn resolve_executor(&mut self, width: usize, height: usize) -> VideoExecutor {
        let VideoExecutor::Auto(numerics, _) = self.executor else {
            return self.executor;
        };
        if let Some(&resolved) = self.resolved.get(&(width, height)) {
            return resolved;
        }
        let scheduler = self
            .scheduler
            .as_ref()
            .expect("auto sessions construct a scheduler");
        let report = scheduler.schedule(&self.plan, width, height);
        let resolved = VideoExecutor::from_schedule_point(&report.winner().point, numerics);
        self.resolved.insert((width, height), resolved);
        resolved
    }

    /// Aggregate stability metrics for the stream so far.
    pub fn summary(&self) -> StreamSummary {
        StreamSummary {
            frames: self.frames,
            cuts: self.cuts.clone(),
            mean_flicker: if self.flicker_count == 0 {
                0.0
            } else {
                self.flicker_sum / self.flicker_count as f64
            },
            peak_flicker: self.flicker_peak,
            min_temporal_psnr_db: self.min_psnr_db,
        }
    }

    /// Drops all adaptation state and stream metrics, returning the
    /// session to its just-constructed state (cached auto schedules are
    /// kept — they depend only on resolution).
    pub fn reset(&mut self) {
        self.state = None;
        self.frames = 0;
        self.cuts.clear();
        self.prev_output = None;
        self.prev_mean = None;
        self.flicker_sum = 0.0;
        self.flicker_peak = 0.0;
        self.flicker_count = 0;
        self.min_psnr_db = f64::INFINITY;
    }

    /// The temporal configuration the session runs under.
    pub fn config(&self) -> &TemporalConfig {
        &self.config
    }

    /// The executor the session was built with (`Auto` stays `Auto`; see
    /// [`VideoSession::resolved_schedules`] for the concrete picks).
    pub fn executor(&self) -> VideoExecutor {
        self.executor
    }

    /// The plan the session executes.
    pub fn plan(&self) -> &PipelinePlan {
        &self.plan
    }

    /// The tone-mapping parameters the session executes with.
    pub fn params(&self) -> &ToneMapParams {
        &self.params
    }

    /// Frames processed since construction (or the last reset).
    pub fn frames_processed(&self) -> usize {
        self.frames
    }

    /// Frame indices where the scene-cut detector fired.
    pub fn cuts(&self) -> &[usize] {
        &self.cuts
    }

    /// The auto-scheduler's concrete picks so far, keyed by resolution
    /// (empty unless the executor is `Auto`).
    pub fn resolved_schedules(&self) -> impl Iterator<Item = ((usize, usize), VideoExecutor)> + '_ {
        self.resolved
            .iter()
            .map(|(&dims, &executor)| (dims, executor))
    }
}

/// Leaks this frame's barrier histogram into the adapted per-bin counts
/// (seeding on first execution) and returns the cumulative CDF the remap
/// consumes. Integer counts survive the f64 round trip exactly (they are
/// far below 2⁵³), so a steady state is bit-identical to the single-frame
/// `histogram_equalize`.
fn barrier_cdf(slot: &mut Option<Vec<f64>>, counts: &[u64], alpha: f64) -> Vec<f64> {
    let adapted = match slot {
        Some(adapted) => {
            for (state, &count) in adapted.iter_mut().zip(counts) {
                leak(state, count as f64, alpha);
            }
            adapted
        }
        None => {
            *slot = Some(counts.iter().map(|&count| count as f64).collect());
            slot.as_mut().expect("just seeded")
        }
    };
    let mut cdf = Vec::with_capacity(adapted.len());
    let mut sum = 0.0f64;
    for &count in adapted.iter() {
        sum += count;
        cdf.push(sum);
    }
    cdf
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdr_image::sequence::{FrameSequence, SequenceKind};
    use hdr_image::synth::SceneKind;
    use tonemap_backend::{BackendRegistry, Numerics, TonemapRequest};

    /// A plan exercising all three adapted reduction statistics: the
    /// normalize maximum, a Reinhard key, and a histogram CDF, with a
    /// post-barrier run so segment-wise execution is non-trivial.
    fn all_reductions_plan() -> PipelinePlan {
        PipelinePlan::new(vec![
            PipelineOp::Normalize,
            PipelineOp::Curve(Curve::Reinhard {
                key: 4.0,
                white: 4.0,
            }),
            PipelineOp::HistogramEq { bins: 64 },
            PipelineOp::Curve(Curve::Gamma { gamma: 1.0 / 2.2 }),
        ])
        .expect("plan is valid")
    }

    /// Single-frame reference execution of a full plan on the executor a
    /// [`VideoExecutor`] names.
    fn single_frame(
        plan: &PipelinePlan,
        params: &ToneMapParams,
        executor: VideoExecutor,
        frame: &LuminanceImage,
    ) -> LuminanceImage {
        executor.map_luminance(plan, params, frame)
    }

    const EXECUTORS: [VideoExecutor; 5] = [
        VideoExecutor::TwoPass(Numerics::F32),
        VideoExecutor::TwoPass(Numerics::Fix16All),
        VideoExecutor::TwoPass(Numerics::Fix16Blur),
        VideoExecutor::Stream(Numerics::F32, 1),
        VideoExecutor::Stream(Numerics::Fix16Blur, 2),
    ];

    #[test]
    fn static_scenes_are_bit_identical_to_single_frame_on_every_executor() {
        let params = ToneMapParams::paper_default();
        let plan = all_reductions_plan();
        let frame = SceneKind::WindowInDarkRoom.generate(40, 32, 9);
        for executor in EXECUTORS {
            let reference = single_frame(&plan, &params, executor, &frame);
            let mut session =
                VideoSession::new(&plan, &params, TemporalConfig::leaky(4.0), executor)
                    .expect("session builds");
            for round in 0..3 {
                let (output, metrics) = session.process(&frame);
                assert_eq!(
                    output.pixels(),
                    reference.pixels(),
                    "{executor} diverged from single-frame execution at frame {round}"
                );
                assert!(!metrics.scene_cut);
                if round > 0 {
                    assert_eq!(metrics.flicker_delta, Some(0.0), "{executor}");
                    assert_eq!(metrics.temporal_psnr_db, Some(f64::INFINITY), "{executor}");
                }
            }
        }
    }

    #[test]
    fn paper_plan_static_steady_state_is_bit_identical_too() {
        // The Fig. 1 chain (normalize → blur → mask → adjust) has no
        // barrier and no Reinhard: only the normalize max adapts.
        let params = ToneMapParams::paper_default();
        let plan = PipelinePlan::from_params(&params);
        let frame = SceneKind::MemorialComposite.generate(32, 32, 5);
        let reference = single_frame(
            &plan,
            &params,
            VideoExecutor::TwoPass(Numerics::F32),
            &frame,
        );
        let mut session = VideoSession::new(
            &plan,
            &params,
            TemporalConfig::leaky(8.0),
            VideoExecutor::TwoPass(Numerics::F32),
        )
        .expect("session builds");
        for _ in 0..2 {
            let (output, _) = session.process(&frame);
            assert_eq!(output.pixels(), reference.pixels());
        }
    }

    #[test]
    fn tau_zero_is_bit_identical_to_independent_execution() {
        let params = ToneMapParams::paper_default();
        let plan = all_reductions_plan();
        let frames = FrameSequence::new(
            SequenceKind::ExposureRamp { decades: 1.0 },
            SceneKind::SunAndShadow,
            32,
            24,
            5,
            13,
        );
        let mut frozen = VideoSession::new(
            &plan,
            &params,
            TemporalConfig::leaky(0.0),
            VideoExecutor::TwoPass(Numerics::F32),
        )
        .expect("session builds");
        let mut independent = VideoSession::new(
            &plan,
            &params,
            TemporalConfig::independent(),
            VideoExecutor::TwoPass(Numerics::F32),
        )
        .expect("session builds");
        for frame in frames.frames() {
            let (a, _) = frozen.process(&frame);
            let (b, _) = independent.process(&frame);
            assert_eq!(a.pixels(), b.pixels());
        }
    }

    #[test]
    fn leaky_adaptation_reduces_flicker_on_exposure_ramps() {
        let params = ToneMapParams::paper_default();
        let plan = PipelinePlan::from_params(&params);
        let frames = FrameSequence::new(
            SequenceKind::ExposureRamp { decades: 1.0 },
            SceneKind::WindowInDarkRoom,
            48,
            40,
            12,
            11,
        );
        let mut adapted = VideoSession::new(
            &plan,
            &params,
            TemporalConfig::leaky(4.0),
            VideoExecutor::TwoPass(Numerics::F32),
        )
        .expect("session builds");
        let mut independent = VideoSession::new(
            &plan,
            &params,
            TemporalConfig::independent(),
            VideoExecutor::TwoPass(Numerics::F32),
        )
        .expect("session builds");
        for frame in frames.frames() {
            adapted.process(&frame);
            independent.process(&frame);
        }
        let adapted_flicker = adapted.summary().mean_flicker;
        let independent_flicker = independent.summary().mean_flicker;
        assert!(
            adapted_flicker < independent_flicker,
            "adapted {adapted_flicker} must flicker less than independent {independent_flicker}"
        );
        assert!(adapted.summary().cuts.is_empty(), "a ramp is not a cut");
    }

    #[test]
    fn scene_cuts_reset_the_integrator_and_snap() {
        let params = ToneMapParams::paper_default();
        let plan = PipelinePlan::from_params(&params);
        let frames = FrameSequence::new(
            SequenceKind::RampWithCut {
                decades: 1.0,
                cut_at: 6,
            },
            SceneKind::WindowInDarkRoom,
            48,
            40,
            12,
            5,
        );
        let config = TemporalConfig::leaky(4.0);
        let executor = VideoExecutor::TwoPass(Numerics::F32);
        let mut session =
            VideoSession::new(&plan, &params, config, executor).expect("session builds");
        for index in 0..frames.len() {
            let (output, metrics) = session.process(&frames.frame(index));
            assert_eq!(metrics.scene_cut, index == 6, "detector fired at {index}");
            if index == 6 {
                // The reset must snap: the cut frame reseeds the
                // integrator, so it tone-maps exactly like the first
                // frame of a fresh session.
                let mut fresh =
                    VideoSession::new(&plan, &params, config, executor).expect("session builds");
                let (expected, _) = fresh.process(&frames.frame(6));
                assert_eq!(output.pixels(), expected.pixels());
            }
        }
        assert_eq!(session.cuts(), &[6]);
        assert_eq!(session.summary().cuts, vec![6]);
    }

    #[test]
    fn auto_executor_prices_the_schedule_once_per_resolution() {
        let params = ToneMapParams::paper_default();
        let plan = PipelinePlan::from_params(&params);
        let auto = VideoExecutor::from_spec(&BackendSpec::parse("sw-f32?schedule=auto").unwrap())
            .expect("sw-f32 schedules");
        let mut session = VideoSession::new(&plan, &params, TemporalConfig::leaky(2.0), auto)
            .expect("session builds");
        assert!(session.executor().is_auto());
        let frame = SceneKind::GradientRamp.generate(32, 24, 3);
        session.process(&frame);
        session.process(&frame);
        let picks: Vec<_> = session.resolved_schedules().collect();
        assert_eq!(picks.len(), 1, "one schedule per resolution");
        assert_eq!(picks[0].0, (32, 24));
        assert!(!picks[0].1.is_auto());
        // A second resolution prices its own point.
        session.process(&SceneKind::GradientRamp.generate(16, 12, 3));
        assert_eq!(session.resolved_schedules().count(), 2);
    }

    #[test]
    fn from_spec_wires_config_executor_and_plan() {
        let session = VideoSession::from_spec(
            "hw-fix16?pipeline=reinhard&temporal=leaky&tau=2&cutthresh=0.5",
        )
        .expect("spec resolves");
        assert_eq!(session.config().tau, 2.0);
        assert_eq!(session.config().cut_threshold, 0.5);
        assert_eq!(
            session.executor(),
            VideoExecutor::TwoPass(Numerics::Fix16Blur)
        );
        assert!(session
            .plan()
            .ops()
            .iter()
            .any(|op| matches!(op, PipelineOp::Curve(Curve::Reinhard { .. }))));

        assert!(matches!(
            VideoSession::from_spec("gpu-cuda?temporal=leaky"),
            Err(VideoError::UnknownEngine(_))
        ));
        assert!(matches!(
            VideoSession::from_spec("sw-f32?temporal=warp"),
            Err(VideoError::Spec(_))
        ));
        assert!(matches!(
            VideoSession::from_spec("sw-f32?pipeline=hsv-reinhard"),
            Err(VideoError::ColourPlan(_))
        ));
    }

    #[test]
    fn a_non_positive_frame_keeps_reinhard_streams_alive() {
        // After two ordinary frames, a frame whose maximum is not positive
        // is left unscaled, so its register holds negative samples. The
        // log-average floors them at 0 instead of taking `ln` of a
        // negative number.
        let room = SceneKind::WindowInDarkRoom.generate(32, 24, 3);
        let negative = LuminanceImage::filled(32, 24, -0.5);
        let sequence = [&room, &room, &negative, &room];
        let independent = "sw-f32?pipeline=reinhard";
        for spec in [
            "sw-f32?pipeline=reinhard&temporal=leaky&tau=4",
            "hw-fix16?pipeline=reinhard&schedule=auto&temporal=leaky&tau=8",
            independent,
        ] {
            let mut session = VideoSession::from_spec(spec).expect("spec resolves");
            for (index, frame) in sequence.into_iter().enumerate() {
                let (output, metrics) = session.process(frame);
                assert!(
                    output.pixels().iter().all(|v| v.is_finite()),
                    "{spec}: frame {index} has a non-finite pixel"
                );
                assert!(metrics.mean_brightness.is_finite(), "{spec}: frame {index}");
            }
        }
        let mut session = VideoSession::from_spec(independent).expect("spec resolves");
        session.process(&room);
        session.process(&room);
        let (output, _) = session.process(&negative);
        let single_frame = BackendRegistry::standard()
            .execute(&TonemapRequest::luminance(&negative).on_backend(independent))
            .expect("the registry maps the frame")
            .into_frame()
            .expect("display-referred responses carry the frame");
        assert_eq!(output.pixels(), single_frame.as_slice());
    }

    #[test]
    fn a_vanishing_reinhard_key_keeps_leaky_frames_finite() {
        // With `white` defaulting to the key, `white²` underflows to 0, and
        // the adapted key (the spec's key times the adaptation ratio) can
        // underflow to 0 itself: every sample meets the curve's 0/0. At the
        // other end a key near `f32::MAX` overflows to ∞ once a darkening
        // ramp raises the ratio above 1. Either way the adapted key must
        // stay an accepted one, so the rewritten plan validates.
        let brightening = FrameSequence::new(
            SequenceKind::ExposureRamp { decades: 2.0 },
            SceneKind::WindowInDarkRoom,
            32,
            24,
            4,
            5,
        );
        let darkening = FrameSequence::new(
            SequenceKind::ExposureRamp { decades: -1.0 },
            SceneKind::WindowInDarkRoom,
            32,
            24,
            8,
            0,
        );
        // A frame held for six frames, then with every sample below its
        // maximum dimmed: the maximum, and so the normalize scale, stays
        // put while the log-average falls, and a cut threshold of 1000
        // keeps the detector from resetting the integrator.
        let room = SceneKind::WindowInDarkRoom.generate(32, 24, 3);
        let peak = room.pixels().iter().copied().fold(0.0f32, f32::max);
        let dimmed = |factor: f32| room.map(|&v| if v < peak { v * factor } else { v });
        let mut runs: Vec<(&str, Vec<LuminanceImage>)> = vec![
            (
                "sw-f32?pipeline=reinhard&reinhard_key=1e-45&temporal=leaky&tau=2",
                brightening.frames().collect(),
            ),
            (
                "hw-fix16?pipeline=reinhard&reinhard_key=1e-45&temporal=leaky&tau=2",
                brightening.frames().collect(),
            ),
            (
                "sw-f32?pipeline=reinhard&reinhard_key=3e38&temporal=leaky&tau=2",
                darkening.frames().collect(),
            ),
        ];
        for factor in [0.1, 0.01, 0.001] {
            let mut frames = vec![room.clone(); 6];
            frames.extend(std::iter::repeat_n(dimmed(factor), 3));
            runs.push((
                "sw-f32?pipeline=reinhard&reinhard_key=1e-45&temporal=leaky&tau=8&cutthresh=1000",
                frames,
            ));
        }
        for (spec, frames) in runs {
            let mut session = VideoSession::from_spec(spec).expect("spec resolves");
            for (index, frame) in frames.iter().enumerate() {
                let (output, _) = session.process(frame);
                assert!(
                    output.pixels().iter().all(|v| v.is_finite()),
                    "{spec}: frame {index} has a non-finite pixel"
                );
            }
        }
    }

    #[test]
    fn reset_restores_the_just_constructed_state() {
        let params = ToneMapParams::paper_default();
        let plan = PipelinePlan::from_params(&params);
        let config = TemporalConfig::leaky(4.0);
        let executor = VideoExecutor::TwoPass(Numerics::F32);
        let frames = FrameSequence::new(
            SequenceKind::ExposureRamp { decades: 1.0 },
            SceneKind::StarField,
            24,
            16,
            3,
            2,
        );
        let mut session =
            VideoSession::new(&plan, &params, config, executor).expect("session builds");
        let first: Vec<LuminanceImage> = frames.frames().map(|f| session.process(&f).0).collect();
        assert_eq!(session.frames_processed(), 3);
        session.reset();
        assert_eq!(session.frames_processed(), 0);
        let second: Vec<LuminanceImage> = frames.frames().map(|f| session.process(&f).0).collect();
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.pixels(), b.pixels());
        }
    }
}

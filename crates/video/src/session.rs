//! The temporal session: leaky adaptation over a plan's reduction
//! statistics, scene-cut reset, and inline stability metrics.

use hdr_image::LuminanceImage;
use tonemap_backend::{
    BackendRegistry, BackendSpec, CompiledPlan, Engine, EngineRow, Executor, TemporalMode,
    TonemapBackend,
};
use tonemap_core::normalize::{max_pixel, normalize_sample};
use tonemap_core::plan::{
    histogram_counts, histogram_remap_cdf, ChannelLayout, Curve, PipelineOp, PipelinePlan,
};
use tonemap_core::ToneMapParams;

use crate::config::TemporalConfig;
use crate::error::VideoError;
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
///
/// The session runs on an [`Engine`] built for its plan: the engine names
/// the schedule point each resolution runs at, resolved and memoized
/// exactly as for a still of the same spec, and every segment compiles at
/// that point through [`CompiledPlan::new`].
#[derive(Debug)]
pub struct VideoSession {
    engine: Engine,
    config: TemporalConfig,
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
    /// configuration and engine row: the row's numerics compute every
    /// frame, and its executor names the point each resolution runs at.
    ///
    /// # Errors
    ///
    /// [`VideoError::InvalidParams`] when `params` fail validation,
    /// [`VideoError::Spec`] for a `schedule=` row the engine cannot serve
    /// (no schedule space, or `schedule=stream` on a plan that cannot
    /// stream), [`VideoError::ColourPlan`] for plans with colour registers,
    /// and [`VideoError::Plan`] when a fused run cannot execute standalone
    /// (e.g. a `Mask` split from its `BlurMask` by a barrier).
    pub fn new(
        plan: &PipelinePlan,
        params: &ToneMapParams,
        config: TemporalConfig,
        row: EngineRow,
    ) -> Result<Self, VideoError> {
        VideoSession::build(plan, params, config, row, row.name)
    }

    /// [`VideoSession::new`], with engine errors quoting `spec`.
    fn build(
        plan: &PipelinePlan,
        params: &ToneMapParams,
        config: TemporalConfig,
        row: EngineRow,
        spec: &str,
    ) -> Result<Self, VideoError> {
        params.validate()?;
        let engine = Engine::with_plan(row, *params, plan.clone(), spec)?;
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
        Ok(VideoSession {
            engine,
            config,
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
    /// single-frame layers would: the name's row of
    /// [`BackendRegistry::STANDARD_ENGINES`], with a `schedule=` request
    /// applied as [`Executor::Scheduled`].
    ///
    /// # Errors
    ///
    /// [`VideoError::Spec`] for a malformed spec,
    /// [`VideoError::UnknownEngine`] for a name outside the standard engine
    /// table, plus everything [`VideoSession::new`] returns.
    pub fn from_spec(spec: &str) -> Result<Self, VideoError> {
        let parsed = BackendSpec::parse(spec)?;
        let mut row = BackendRegistry::STANDARD_ENGINES
            .into_iter()
            .find(|row| row.name == parsed.name())
            .ok_or_else(|| VideoError::UnknownEngine(parsed.name().to_string()))?;
        if let Some(mode) = parsed.schedule() {
            row.executor = Executor::Scheduled {
                mode,
                threads: parsed.threads(),
            };
        }
        let base = ToneMapParams::paper_default();
        let effective = parsed.merged_params(base)?.unwrap_or(base);
        let plan = parsed
            .resolved_plan(&effective)?
            .unwrap_or_else(|| PipelinePlan::from_params(&effective));
        let config = TemporalConfig::from_spec(&parsed);
        VideoSession::build(&plan, &effective, config, row, spec)
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
        let point = self
            .engine
            .point(frame.width(), frame.height())
            .expect("the engine checked its schedule when the session was built");
        let (params, numerics) = (self.engine.params(), self.engine.row().numerics);
        let barrier_count = self.barrier_bins.len();
        for seg_index in 0..self.segments.len() {
            if !self.segments[seg_index].ops.is_empty() {
                let plan = self.segments[seg_index].plan(key_ratio);
                register = CompiledPlan::new(plan, params, numerics, &point)
                    .expect("params validated at session construction")
                    .map_luminance(&register);
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
    /// session to its just-constructed state (the engine's per-resolution
    /// points are kept — they depend only on resolution).
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

    /// The engine the session runs on: its [`Engine::row`], and through
    /// [`Engine::point`] the schedule point a resolution runs at.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The plan the session executes.
    pub fn plan(&self) -> &PipelinePlan {
        self.engine.plan()
    }

    /// The tone-mapping parameters the session executes with.
    pub fn params(&self) -> ToneMapParams {
        self.engine.params()
    }

    /// Frames processed since construction (or the last reset).
    pub fn frames_processed(&self) -> usize {
        self.frames
    }

    /// Frame indices where the scene-cut detector fired.
    pub fn cuts(&self) -> &[usize] {
        &self.cuts
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
    use tonemap_backend::TonemapRequest;
    use tonemap_scheduler::{ScheduleExecutor, ScheduleMode, Scheduler};

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

    /// The standard engine row named `name`.
    fn row(name: &str) -> EngineRow {
        BackendRegistry::STANDARD_ENGINES
            .into_iter()
            .find(|row| row.name == name)
            .expect("a standard engine name")
    }

    /// Every numerics on the two-pass planner, and the stream in both
    /// formats, the Fix16 one sliced over two workers.
    fn rows() -> [EngineRow; 5] {
        [
            row("sw-f32"),
            row("sw-fix16"),
            row("hw-fix16"),
            row("sw-f32-stream"),
            EngineRow {
                executor: Executor::Stream { threads: 2 },
                ..row("hw-fix16-stream")
            },
        ]
    }

    /// Single-frame reference execution of a full plan on an engine built
    /// from `row`.
    fn single_frame(
        plan: &PipelinePlan,
        params: &ToneMapParams,
        row: EngineRow,
        frame: &LuminanceImage,
    ) -> LuminanceImage {
        Engine::with_plan(row, *params, plan.clone(), row.name)
            .expect("engine builds")
            .run_luminance(frame, None, None, false)
            .expect("scalar plans run")
            .image
    }

    #[test]
    fn static_scenes_are_bit_identical_to_single_frame_on_every_executor() {
        let params = ToneMapParams::paper_default();
        let plan = all_reductions_plan();
        let frame = SceneKind::WindowInDarkRoom.generate(40, 32, 9);
        for row in rows() {
            let reference = single_frame(&plan, &params, row, &frame);
            let mut session = VideoSession::new(&plan, &params, TemporalConfig::leaky(4.0), row)
                .expect("session builds");
            for round in 0..3 {
                let (output, metrics) = session.process(&frame);
                assert_eq!(
                    output.pixels(),
                    reference.pixels(),
                    "{row:?} diverged from single-frame execution at frame {round}"
                );
                assert!(!metrics.scene_cut);
                if round > 0 {
                    assert_eq!(metrics.flicker_delta, Some(0.0), "{row:?}");
                    assert_eq!(metrics.temporal_psnr_db, Some(f64::INFINITY), "{row:?}");
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
        let reference = single_frame(&plan, &params, row("sw-f32"), &frame);
        let mut session =
            VideoSession::new(&plan, &params, TemporalConfig::leaky(8.0), row("sw-f32"))
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
        let mut frozen =
            VideoSession::new(&plan, &params, TemporalConfig::leaky(0.0), row("sw-f32"))
                .expect("session builds");
        let mut independent =
            VideoSession::new(&plan, &params, TemporalConfig::independent(), row("sw-f32"))
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
        let mut adapted =
            VideoSession::new(&plan, &params, TemporalConfig::leaky(4.0), row("sw-f32"))
                .expect("session builds");
        let mut independent =
            VideoSession::new(&plan, &params, TemporalConfig::independent(), row("sw-f32"))
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
        let executor = row("sw-f32");
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
        let auto = EngineRow {
            executor: Executor::Scheduled {
                mode: ScheduleMode::Auto,
                threads: None,
            },
            ..row("sw-f32")
        };
        let mut session = VideoSession::new(&plan, &params, TemporalConfig::leaky(2.0), auto)
            .expect("session builds");
        assert_eq!(session.engine().row(), &auto);
        let frame = SceneKind::GradientRamp.generate(32, 24, 3);
        session.process(&frame);
        session.process(&frame);
        // The frames ran at the scheduler's pick for their resolution.
        let scheduler = Scheduler::new(params, auto.schedule_class().unwrap()).unwrap();
        let point = session.engine().point(32, 24).unwrap();
        assert_eq!(point, scheduler.schedule(&plan, 32, 24).winner().point);
        assert_eq!(point.slice_rows, 24);
        // A second resolution prices its own point.
        session.process(&SceneKind::GradientRamp.generate(16, 12, 3));
        let point = session.engine().point(16, 12).unwrap();
        assert_eq!(point, scheduler.schedule(&plan, 16, 12).winner().point);
        assert_eq!(point.slice_rows, 12);
    }

    #[test]
    fn a_spec_runs_one_point_as_a_still_and_as_a_video_stream() {
        // A video spec is the still spec plus temporal keys: both resolve
        // through one engine row, so every resolution runs at one point.
        // 512×256 is the smallest frame at which the model enumerates two
        // workers, on a host with two or more cores.
        let scheduled = [
            "sw-f32?schedule=auto",
            "sw-f32?schedule=two-pass",
            "sw-f32?schedule=stream",
            "hw-fix16?pipeline=reinhard&schedule=stream",
            "hw-fix16?pipeline=reinhard&schedule=auto",
            "hw-fix16?schedule=stream&threads=3",
            "hw-marked?schedule=auto",
            "sw-f32?pipeline=basedetail&schedule=stream",
        ];
        let small = BackendRegistry::STANDARD_ENGINES
            .map(|row| row.name)
            .into_iter()
            .chain(scheduled)
            .map(|spec| (spec, 32, 24));
        let large = ["sw-f32-stream", "hw-fix16-stream"]
            .into_iter()
            .chain(scheduled)
            .map(|spec| (spec, 512, 256));
        let registry = BackendRegistry::standard();
        for (spec, width, height) in small.chain(large) {
            let separator = if spec.contains('?') { '&' } else { '?' };
            let session = VideoSession::from_spec(&format!("{spec}{separator}temporal=leaky"))
                .unwrap_or_else(|e| panic!("{spec}: {e}"));
            let frame = LuminanceImage::filled(width, height, 0.5);
            let still = registry
                .execute(
                    &TonemapRequest::luminance(&frame)
                        .on_backend(spec)
                        .with_telemetry(),
                )
                .unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(
                session.engine().point(width, height).unwrap(),
                still.telemetry().unwrap().point,
                "{spec} at {width}x{height}"
            );
        }
    }

    #[test]
    fn from_spec_wires_config_executor_and_plan() {
        let session = VideoSession::from_spec(
            "hw-fix16?pipeline=reinhard&temporal=leaky&tau=2&cutthresh=0.5",
        )
        .expect("spec resolves");
        assert_eq!(session.config().tau, 2.0);
        assert_eq!(session.config().cut_threshold, 0.5);
        assert_eq!(session.engine().row(), &row("hw-fix16"));
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

        // `schedule=` reshapes the named row's executor and keeps its
        // numerics, as it does for a still.
        for (spec, base, mode, threads) in [
            ("sw-f32?schedule=auto", "sw-f32", ScheduleMode::Auto, None),
            (
                "hw-fix16?schedule=stream&threads=4",
                "hw-fix16",
                ScheduleMode::Stream,
                Some(4),
            ),
            (
                "sw-f32-stream?schedule=two-pass",
                "sw-f32-stream",
                ScheduleMode::TwoPass,
                None,
            ),
        ] {
            let session = VideoSession::from_spec(&format!("{spec}&temporal=leaky")).unwrap();
            let expected = EngineRow {
                executor: Executor::Scheduled { mode, threads },
                ..row(base)
            };
            assert_eq!(session.engine().row(), &expected, "{spec}");
        }
        let forced = VideoSession::from_spec("sw-f32-stream?schedule=two-pass").unwrap();
        let point = forced.engine().point(32, 24).unwrap();
        assert_eq!(point.executor, ScheduleExecutor::TwoPass);
        // The all-fixed ablation has no schedule space here either.
        match VideoSession::from_spec("sw-fix16?schedule=auto&temporal=leaky") {
            Err(VideoError::Spec(err)) => {
                assert!(err.to_string().contains("no schedule space"), "{err}");
            }
            other => panic!("expected a spec error, got {other:?}"),
        }
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
        let executor = row("sw-f32");
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

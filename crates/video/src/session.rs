//! The temporal session: leaky adaptation over a plan's reduction
//! statistics, scene-cut reset, and inline stability metrics.

use hdr_image::LuminanceImage;
use tonemap_backend::{
    BackendRegistry, BackendSpec, Engine, EngineRow, Executor, TemporalMode, TonemapBackend,
};
use tonemap_core::normalize::normalize_sample;
use tonemap_core::plan::{ChannelLayout, Curve, PipelineOp, PipelinePlan};
use tonemap_core::{Reductions, ToneMapParams};

use crate::config::TemporalConfig;
use crate::error::VideoError;
use crate::metrics::{
    log_average, output_metrics, signature_and_max, FrameMetrics, Signature, StreamSummary,
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

/// The leaky integrator's state between frames.
#[derive(Debug, Clone)]
struct AdaptState {
    /// Fingerprint of the last raw frame (scene-cut reference).
    signature: Signature,
    /// Adapted normalization maximum.
    max: f64,
    /// Adapted Reinhard log-average (`mean ln(1e-4 + v)` domain); `None`
    /// until the first frame of a plan that carries a Reinhard stage, and
    /// always at `α ≥ 1`, where the key factor is 1.
    log_avg_ln: Option<f64>,
    /// Adapted per-bin histogram counts, indexed by each barrier's plan
    /// stage; empty until that barrier first executes.
    hist: Vec<Vec<f64>>,
}

/// A temporal tone-mapping session: runs one [`PipelinePlan`] over a
/// frame sequence, leaking the per-frame reduction statistics (normalize
/// max, Reinhard log-average, histogram CDF) through a first-order
/// integrator so the tone curve evolves smoothly, resetting on detected
/// scene cuts, and measuring flicker/stability inline.
///
/// Frames must be processed **in order** — the adaptation state is the
/// whole point. The service layer enforces this by running each stream's
/// frames through one mailbox on its queue.
///
/// The session runs on an [`Engine`] built for its plan: every frame runs
/// on the executor the engine compiled and memoized for its size — the one
/// a still of the same spec runs on — with the plan's reductions bound to
/// the integrator through [`Engine::map_luminance_into`].
#[derive(Debug)]
pub struct VideoSession {
    engine: Engine,
    config: TemporalConfig,
    /// Whether the plan opens with `Normalize` (the session owns that
    /// reduction: it leaks the frame maximum).
    normalize: bool,
    /// Whether the plan carries a Reinhard stage (gates the log-average
    /// of the ingested frame).
    track_key: bool,
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
    /// stream), and [`VideoError::ColourPlan`] for plans with colour
    /// registers.
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
        let track_key = plan
            .ops()
            .iter()
            .any(|op| matches!(op, PipelineOp::Curve(Curve::Reinhard { .. })));
        Ok(VideoSession {
            engine,
            config,
            normalize: plan.starts_with_normalize(),
            track_key,
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
        self.process_into(frame, Vec::new())
    }

    /// [`VideoSession::process`], with the output written into `output`
    /// ([`Engine::map_luminance_into`]): a frame of the input's length is
    /// overwritten without a fill and returned as the output's buffer, so
    /// a caller that recycles its outputs allocates none in steady state.
    pub fn process_into(
        &mut self,
        frame: &LuminanceImage,
        output: Vec<f32>,
    ) -> (LuminanceImage, FrameMetrics) {
        let index = self.frames;
        let (signature, frame_max) = signature_and_max(frame);
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
        let obs_max = f64::from(frame_max);
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
                hist: Vec::new(),
            },
        };
        // Exactly the frame's own scale when the adapted max equals the
        // frame max.
        let scale = if self.normalize {
            let max = state.max as f32;
            (max > 0.0).then(|| 1.0 / max)
        } else {
            None
        };
        // At α ≥ 1 the integrator assigns each observation, so the key
        // factor is `exp(obs − obs)` = 1 on every frame and the log-average
        // need not run.
        let key_scale = if self.track_key && alpha < 1.0 {
            // The log-average of the register the executor ingests.
            let obs_ln = log_average(frame, |v| normalize_sample(v, scale));
            let adapted = leak_into(&mut state.log_avg_ln, obs_ln, alpha);
            // Render relative to the adapted level: a brightness step
            // looks bright until the integrator catches up. Exactly 1 at
            // steady state, where every key keeps its bits.
            (obs_ln - adapted).exp().clamp(1e-4, 1e4) as f32
        } else {
            1.0
        };
        let mut bound = Adapted {
            scale,
            key_scale,
            hist: &mut state.hist,
            alpha,
        };
        let output = self
            .engine
            .map_luminance_into(frame, &mut bound, output)
            .expect("the engine checked the plan and its schedule when the session was built");
        self.state = Some(state);
        let (mean, temporal_psnr_db) = output_metrics(&output, &mut self.prev_output);
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
            output,
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
    /// session to its just-constructed state (the engine's per-size
    /// executors are kept — they depend only on resolution).
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

/// The reductions a session binds for one frame: the adapted scale and
/// key factor, computed before the frame runs, and each barrier's CDF
/// from its leaked counts, as the executor reaches it.
struct Adapted<'a> {
    scale: Option<f32>,
    key_scale: f32,
    hist: &'a mut Vec<Vec<f64>>,
    alpha: f64,
}

impl Reductions for Adapted<'_> {
    fn normalize_scale(&mut self, _frame: &LuminanceImage) -> Option<f32> {
        self.scale
    }

    fn key_scale(&self) -> f32 {
        self.key_scale
    }

    /// Leaks this frame's barrier histogram into the adapted per-bin
    /// counts (seeding on first execution) and returns their running sums.
    /// Integer counts survive the f64 round trip exactly (they are far
    /// below 2⁵³), so a steady state is bit-identical to a still.
    fn histogram_cdf(&mut self, stage: usize, counts: &[u64]) -> Vec<f64> {
        if self.hist.len() <= stage {
            self.hist.resize_with(stage + 1, Vec::new);
        }
        let adapted = &mut self.hist[stage];
        if adapted.is_empty() {
            adapted.extend(counts.iter().map(|&count| count as f64));
        } else {
            for (state, &count) in adapted.iter_mut().zip(counts) {
                leak(state, count as f64, self.alpha);
            }
        }
        let mut sum = 0.0f64;
        adapted
            .iter()
            .map(|&count| {
                sum += count;
                sum
            })
            .collect()
    }
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
    /// curve after the barrier so the barrier sits mid-plan.
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

    /// Every numerics at the two-pass point, and the fused stream in both
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

    /// A mask blurred before a histogram barrier and consumed after it: the
    /// stream cannot fuse the plan, so every row runs it two-pass.
    fn mask_across_barrier_plan() -> PipelinePlan {
        let params = ToneMapParams::paper_default();
        PipelinePlan::new(vec![
            PipelineOp::Normalize,
            PipelineOp::BlurMask {
                blur: params.blur,
                invert_input: true,
            },
            PipelineOp::HistogramEq { bins: 64 },
            PipelineOp::Mask(params.masking),
        ])
        .expect("plan validation lets a mask cross a barrier")
    }

    /// Where a session over `scenes` differs from `still`, or why it did
    /// not build.
    fn differences(
        case: &str,
        session: Result<VideoSession, VideoError>,
        scenes: &[(SceneKind, LuminanceImage)],
        mut still: impl FnMut(&LuminanceImage) -> LuminanceImage,
    ) -> Vec<String> {
        let mut session = match session {
            Ok(session) => session,
            Err(err) => return vec![format!("{case}: {err}")],
        };
        let mut differing = Vec::new();
        for (scene, frame) in scenes {
            if session.process(frame).0 != still(frame) {
                differing.push(format!("{case} on {scene:?}"));
            }
        }
        differing
    }

    #[test]
    fn sessions_equal_stills_on_every_row_and_scalar_preset() {
        // An integrator that assigns (`temporal=independent`, or `tau=0`)
        // binds every reduction to the frame, so each frame is the still of
        // its spec, on every standard row. A leaky session binds them the
        // same way on the fused stream as at the two-pass point.
        let params = ToneMapParams::paper_default();
        let scalar = |name: &&str| {
            let plan = PipelinePlan::preset(name, &params, &Default::default());
            let plan = plan.unwrap().expect("a preset name");
            plan.input_layout() == ChannelLayout::Scalar
                && plan.output_layout() == ChannelLayout::Scalar
        };
        let presets: Vec<&str> = PipelinePlan::PRESETS.into_iter().filter(scalar).collect();
        let scenes = SceneKind::ALL.map(|scene| (scene, scene.generate(37, 23, 4)));
        let registry = BackendRegistry::standard();
        let assigning = [
            ("temporal=independent", TemporalConfig::independent()),
            ("temporal=leaky&tau=0", TemporalConfig::leaky(0.0)),
        ];
        let plan = mask_across_barrier_plan();
        let mut mismatches = Vec::new();
        for row in BackendRegistry::STANDARD_ENGINES {
            for (temporal, config) in assigning {
                for name in &presets {
                    let spec = format!("{}?pipeline={name}", row.name);
                    let session = VideoSession::from_spec(&format!("{spec}&{temporal}"));
                    let still = |frame: &LuminanceImage| {
                        let request = TonemapRequest::luminance(frame).on_backend(spec.as_str());
                        let response = registry.execute(&request).expect("the still runs");
                        response.luminance().expect("a luminance still").clone()
                    };
                    let case = format!("{spec}&{temporal}");
                    mismatches.extend(differences(&case, session, &scenes, still));
                }
                let session = VideoSession::new(&plan, &params, config, row);
                let case = format!("{} {temporal} over a mask across a barrier", row.name);
                let still = |frame: &LuminanceImage| single_frame(&plan, &params, row, frame);
                mismatches.extend(differences(&case, session, &scenes, still));
            }
        }
        for name in &presets {
            for (two_pass, stream) in [("sw-f32", "sw-f32-stream"), ("hw-fix16", "hw-fix16-stream")]
            {
                let leaky = |row| format!("{row}?pipeline={name}&temporal=leaky&tau=2");
                let mut reference = VideoSession::from_spec(&leaky(two_pass)).unwrap();
                let session = VideoSession::from_spec(&leaky(stream));
                let still = |frame: &LuminanceImage| reference.process(frame).0;
                mismatches.extend(differences(&leaky(stream), session, &scenes, still));
            }
        }
        assert!(
            mismatches.is_empty(),
            "{} cases differ: {mismatches:#?}",
            mismatches.len()
        );
    }

    #[test]
    fn mask_across_barrier_plans_build_sessions() {
        // Every row serves the plan as a still, so every row builds a
        // session over it: one that equals the still at `tau=0`, and a
        // leaky one whose frames stay in the display range.
        let params = ToneMapParams::paper_default();
        let plan = mask_across_barrier_plan();
        let frames = FrameSequence::new(
            SequenceKind::RampWithCut {
                decades: 1.0,
                cut_at: 2,
            },
            SceneKind::MemorialComposite,
            37,
            23,
            4,
            4,
        );
        for row in rows() {
            let mut frozen = VideoSession::new(&plan, &params, TemporalConfig::leaky(0.0), row)
                .unwrap_or_else(|e| panic!("{row:?}: {e}"));
            let mut leaky = VideoSession::new(&plan, &params, TemporalConfig::leaky(2.0), row)
                .unwrap_or_else(|e| panic!("{row:?}: {e}"));
            for (index, frame) in frames.frames().enumerate() {
                let (output, _) = frozen.process(&frame);
                assert_eq!(
                    output,
                    single_frame(&plan, &params, row, &frame),
                    "{row:?} frame {index}"
                );
                let (output, _) = leaky.process(&frame);
                assert!(
                    output.pixels().iter().all(|v| (0.0..=1.0).contains(v)),
                    "{row:?} frame {index} left the display range"
                );
            }
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

//! The one engine type: every execution path of the reproduction as data.
//!
//! The paper's Table II is one tone-mapping datapath measured at several
//! design points, and the engine layer spells it the same way: an
//! [`Engine`] is one [`EngineRow`] — its [`Numerics`], an optional Table II
//! design and an [`Executor`] — compiled with the parameters and plan it
//! serves. This is the single-description idea of AnyHLS (Özkan et al.,
//! 2020) at engine granularity: one datapath, specialised by data instead
//! of by a type per variant.
//!
//! An engine resolves each image size once, on one path, to a
//! [`SchedulePoint`] and the [`CompiledPlan`] that runs it, and evaluates
//! its Table II design once per image size. A client picks the size, so
//! both memos are bounded. They sit behind mutexes held only around the
//! lookup/insert, never across the computation, so a `tonemap-service`
//! worker pool sharing one engine behind an `Arc` pays for each image size
//! once across all workers.

use crate::backend::TonemapBackend;
use crate::error::TonemapError;
use crate::memo::BoundedMemo;
use crate::output::{
    BackendOutput, BackendTelemetry, ModeledCost, RgbBackendOutput, ScheduleTelemetry,
};
use crate::streaming::CompiledPlan;
use codesign::flow::{CoDesignFlow, DesignImplementation, DesignReport};
use hdr_image::{ImageBuffer, LuminanceImage, Rgb, RgbImage};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tonemap_core::{
    ChannelLayout, FrameReductions, PipelinePlan, PlanError, Reductions, ToneMapParams,
};
use tonemap_scheduler::{SampleFormat, ScheduleClass, ScheduleMode, SchedulePoint};

/// The arithmetic an engine computes in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Numerics {
    /// Every stage in 32-bit floating point. The software reference and the
    /// three floating-point accelerators share it: their pixels are
    /// identical, and only their Table II design differs.
    F32,
    /// The paper's final datapath: the point stages in `f32` on the
    /// processing system, the blur in 16-bit fixed point behind the
    /// accelerator boundary (quantise in, blur, dequantise out — the
    /// DDR → BRAM → DDR round trip of Fig. 4).
    Fix16Blur,
    /// Every stage in 16-bit fixed point: the all-fixed ablation. It is not
    /// a Table II design, but it bounds the precision an all-`ap_fixed`
    /// datapath would lose. Neither the streaming executor nor the
    /// scheduler reproduces it, so it runs two-pass only.
    Fix16All,
}

impl Numerics {
    /// The sample format of the blur datapath: the format a schedule point
    /// records and the scheduler prices.
    pub const fn format(&self) -> SampleFormat {
        match self {
            Numerics::F32 => SampleFormat::F32,
            Numerics::Fix16Blur | Numerics::Fix16All => SampleFormat::Fix16,
        }
    }
}

/// How an engine executes its plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// The materialized two-pass planner.
    TwoPass,
    /// The fused line-buffer pass (the Fig. 4 BRAM line buffer in
    /// software), bit-identical to two-pass.
    Stream {
        /// Row slices processed concurrently.
        threads: usize,
    },
    /// Chosen per image size by the scheduler, as a `schedule=` spec asks.
    Scheduled {
        /// The `schedule=` request.
        mode: ScheduleMode,
        /// The worker count a `schedule=stream&threads=N` spec pins.
        threads: Option<usize>,
    },
}

/// One row of the engine table: everything that tells one engine from
/// another. [`crate::BackendRegistry::STANDARD_ENGINES`] holds the eight
/// standard rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineRow {
    /// Stable registry name (the spec string's name part).
    pub name: &'static str,
    /// One-line human description of the execution path.
    pub description: &'static str,
    /// The arithmetic the engine computes in.
    pub numerics: Numerics,
    /// The Table II design the engine reproduces, if any. It prices the
    /// modeled cost in the engine's telemetry.
    pub design: Option<DesignImplementation>,
    /// How the engine executes its plan.
    pub executor: Executor,
}

impl EngineRow {
    /// The class the scheduler prices this engine at: the sample format of
    /// its blur datapath — a schedule may change *how* the pixels are
    /// computed, never the arithmetic they are computed in — and its
    /// Table II design, or for a row without one (the streaming rows) the
    /// design of its two-pass counterpart. `None` for the all-fixed
    /// ablation, which has no schedule space.
    pub fn schedule_class(&self) -> Option<ScheduleClass> {
        let counterpart = match self.numerics {
            Numerics::F32 => DesignImplementation::SwSourceCode,
            Numerics::Fix16Blur => DesignImplementation::FixedPointConversion,
            Numerics::Fix16All => return None,
        };
        Some(ScheduleClass {
            format: self.numerics.format(),
            design: self.design.unwrap_or(counterpart),
        })
    }

    /// The class a `schedule=` spec naming this row is priced at.
    ///
    /// # Errors
    ///
    /// [`TonemapError::InvalidSpec`], quoting `spec`, when the row has no
    /// schedule space.
    pub fn schedule_class_for(&self, spec: &str) -> Result<ScheduleClass, TonemapError> {
        self.schedule_class()
            .ok_or_else(|| TonemapError::no_schedule_space(self.name, spec))
    }
}

/// An engine: one [`EngineRow`] compiled with the parameters and plan it
/// serves. The float reference, the all-fixed ablation, the simulated
/// accelerators of Table II, the streaming shapes and the `schedule=`
/// engines differ only in their row.
#[derive(Debug)]
pub struct Engine {
    pub(crate) row: EngineRow,
    pub(crate) params: ToneMapParams,
    /// The plan the engine executes: the compiled `pipeline=` plan, or the
    /// Fig. 1 chain of `params` when the spec selects none.
    pub(crate) plan: PipelinePlan,
    /// The spec string the engine was resolved from, quoted in errors.
    pub(crate) spec: String,
    /// The point and executor each image size runs on.
    resolved: PerSize<Arc<Resolved>>,
    /// The platform model's evaluation of the row's Table II design.
    reports: PerSize<DesignReport>,
}

/// Image sizes one engine keeps a resolution and a platform-model
/// evaluation for.
const MAX_SIZES: usize = 64;

/// A memo keyed by image size.
type PerSize<V> = Mutex<BoundedMemo<(usize, usize), V, MAX_SIZES>>;

/// What one image size runs on: its schedule point, the executor compiled
/// for it and, for `schedule=` rows, the scheduler's prediction with the
/// platform-model evaluation it was priced on.
#[derive(Debug)]
struct Resolved {
    point: SchedulePoint,
    compiled: CompiledPlan,
    schedule: Option<(ScheduleTelemetry, DesignReport)>,
}

impl Engine {
    /// Builds the engine for `row`, serving the Fig. 1 chain of `params`.
    ///
    /// # Errors
    ///
    /// As [`Engine::with_plan`].
    pub fn new(row: EngineRow, params: ToneMapParams) -> Result<Self, TonemapError> {
        Engine::with_plan(row, params, PipelinePlan::from_params(&params), row.name)
    }

    /// Builds the engine for `row`, serving `plan` with `params`. `spec` is
    /// the spec string the engine serves, quoted in its errors.
    ///
    /// # Errors
    ///
    /// [`TonemapError::InvalidParams`] if `params` fail validation, and
    /// [`TonemapError::InvalidSpec`] for a `schedule=` row the engine cannot
    /// serve: one without a schedule space, or `schedule=stream` on a plan
    /// that cannot stream.
    pub fn with_plan(
        row: EngineRow,
        params: ToneMapParams,
        plan: PipelinePlan,
        spec: &str,
    ) -> Result<Self, TonemapError> {
        let engine = Engine::for_job(row, params, plan, spec)?;
        engine.check_schedule()?;
        Ok(engine)
    }

    /// The row the engine was built from.
    pub fn row(&self) -> &EngineRow {
        &self.row
    }

    /// The plan the engine executes.
    pub fn plan(&self) -> &PipelinePlan {
        &self.plan
    }

    /// The schedule point an image size runs at, read from the memo that
    /// execution reads.
    ///
    /// # Errors
    ///
    /// None for an engine that [`Engine::with_plan`] accepted.
    pub fn point(&self, width: usize, height: usize) -> Result<SchedulePoint, TonemapError> {
        Ok(self.resolved(width, height)?.point)
    }

    /// Tone-maps one luminance frame on the executor a still of its size
    /// runs on, with the plan's reductions bound by `reductions`.
    ///
    /// # Errors
    ///
    /// [`PlanError::ScalarInputRequired`] for a colour-input plan.
    pub fn map_luminance_with(
        &self,
        frame: &LuminanceImage,
        reductions: &mut dyn Reductions,
    ) -> Result<LuminanceImage, TonemapError> {
        self.map_luminance_into(frame, reductions, Vec::new())
    }

    /// [`Engine::map_luminance_with`], with the output written into
    /// `output` ([`CompiledPlan::map_luminance_into`]).
    ///
    /// # Errors
    ///
    /// As [`Engine::map_luminance_with`].
    pub fn map_luminance_into(
        &self,
        input: &LuminanceImage,
        reductions: &mut dyn Reductions,
        output: Vec<f32>,
    ) -> Result<LuminanceImage, TonemapError> {
        <LuminanceImage as Frame>::check(&self.plan)?;
        let resolved = self.resolved(input.width(), input.height())?;
        Ok(resolved
            .compiled
            .map_luminance_into(input, reductions, output))
    }

    /// An engine with validated parameters and empty memos.
    fn for_job(
        row: EngineRow,
        params: ToneMapParams,
        plan: PipelinePlan,
        spec: &str,
    ) -> Result<Self, TonemapError> {
        params.validate()?;
        Ok(Engine {
            row,
            params,
            plan,
            spec: spec.to_string(),
            resolved: Mutex::default(),
            reports: Mutex::default(),
        })
    }

    /// The one override rule, shared by request-level overrides and
    /// [`TonemapBackend::reconfigured`]: a plan given for the job wins;
    /// otherwise a custom compiled plan is kept — a `pipeline=reinhard`
    /// engine given new parameters still serves Reinhard — and only a
    /// Fig. 1 chain is re-derived from the new `params`.
    fn effective_plan(&self, params: &ToneMapParams, plan: Option<&PipelinePlan>) -> PipelinePlan {
        match plan {
            Some(plan) => plan.clone(),
            None if self.plan.is_paper_shaped() => PipelinePlan::from_params(params),
            None => self.plan.clone(),
        }
    }

    /// One image size's resolution, memoized.
    fn resolved(&self, width: usize, height: usize) -> Result<Arc<Resolved>, TonemapError> {
        memoized(&self.resolved, (width, height), || {
            self.resolve(width, height).map(Arc::new)
        })
    }

    /// Resolves one image size: the point the row names — the two-pass
    /// point, the plan's streaming point (two-pass for the all-fixed
    /// ablation, which has no streaming form), or the scheduler's pick —
    /// and the plan compiled for it.
    fn resolve(&self, width: usize, height: usize) -> Result<Resolved, TonemapError> {
        let format = self.row.numerics.format();
        let (point, schedule) = match self.row.executor {
            Executor::Stream { threads } if self.row.numerics != Numerics::Fix16All => (
                SchedulePoint::streaming(&self.decision()?, threads, format, height),
                None,
            ),
            Executor::TwoPass | Executor::Stream { .. } => {
                (SchedulePoint::two_pass(format, height), None)
            }
            Executor::Scheduled { mode, threads } => {
                let (priced, considered, base) = self.schedule(mode, threads, width, height)?;
                let telemetry = ScheduleTelemetry::from_priced(&priced, considered);
                (priced.point, Some((telemetry, base)))
            }
        };
        let plan = self.plan.clone();
        Ok(Resolved {
            compiled: CompiledPlan::new(plan, self.params, self.row.numerics, &point)?,
            point,
            schedule,
        })
    }

    /// The platform model's evaluation of `design` for this engine's
    /// parameters and plan at one image size.
    fn report(&self, design: DesignImplementation, width: usize, height: usize) -> DesignReport {
        let Ok(report) = memoized(&self.reports, (width, height), || {
            let flow = CoDesignFlow::paper_setup_with_params(self.params, width, height);
            Ok::<_, std::convert::Infallible>(flow.evaluate_plan(&self.plan, design))
        });
        report
    }

    /// Runs one job and fills its telemetry: the one execution path behind
    /// both primitives.
    ///
    /// A job that overrides the parameters or the plan runs on a fresh
    /// engine built for it, so its executor, schedule and platform-model
    /// evaluation are the job's own and are dropped with it. The output is
    /// written into `frame` where the input kind supports it.
    fn run<T>(
        &self,
        input: &ImageBuffer<T>,
        params: Option<&ToneMapParams>,
        plan: Option<&PipelinePlan>,
        with_model: bool,
        frame: Vec<T>,
    ) -> Result<(ImageBuffer<T>, BackendTelemetry), TonemapError>
    where
        ImageBuffer<T>: Frame<Sample = T>,
    {
        if params.is_some() || plan.is_some() {
            let params = params.copied().unwrap_or(self.params);
            let plan = self.effective_plan(&params, plan);
            return Engine::for_job(self.row, params, plan, &self.spec)?
                .run(input, None, None, with_model, frame);
        }
        <ImageBuffer<T> as Frame>::check(&self.plan)?;
        let (width, height) = input.dimensions();
        let resolved = self.resolved(width, height)?;
        let start = Instant::now();
        let output = input.map_on(&resolved.compiled, frame)?;
        let wall = start.elapsed();
        let modeled = match &resolved.schedule {
            Some((_, base)) => with_model.then(|| ModeledCost::from(base)),
            None => self
                .row
                .design
                .filter(|_| with_model)
                .map(|design| ModeledCost::from(&self.report(design, width, height))),
        };
        let telemetry = BackendTelemetry {
            backend: self.row.name,
            wall,
            ops: self
                .plan
                .profile(width, height, self.params.channels)
                .total(),
            modeled,
            point: resolved.point,
            schedule: resolved
                .schedule
                .as_ref()
                .map(|(schedule, _)| schedule.clone()),
        };
        Ok((output, telemetry))
    }
}

impl TonemapBackend for Engine {
    fn name(&self) -> &'static str {
        self.row.name
    }

    fn description(&self) -> &'static str {
        self.row.description
    }

    fn design(&self) -> Option<DesignImplementation> {
        self.row.design
    }

    fn params(&self) -> ToneMapParams {
        self.params
    }

    fn schedule_class(&self) -> Option<ScheduleClass> {
        self.row.schedule_class()
    }

    fn schedule_description(&self) -> Option<String> {
        match self.row.executor {
            Executor::Scheduled {
                mode,
                threads: Some(threads),
            } => Some(format!("schedule={mode}, threads={threads}")),
            Executor::Scheduled {
                mode,
                threads: None,
            } => Some(format!("schedule={mode}")),
            Executor::TwoPass | Executor::Stream { .. } => None,
        }
    }

    fn scheduled(
        &self,
        mode: ScheduleMode,
        threads: Option<usize>,
        spec: &str,
    ) -> Result<Arc<dyn TonemapBackend>, TonemapError> {
        let row = EngineRow {
            executor: Executor::Scheduled { mode, threads },
            ..self.row
        };
        let engine = Engine::with_plan(row, self.params, self.plan.clone(), spec)?;
        Ok(Arc::new(engine))
    }

    fn reconfigured(
        &self,
        params: ToneMapParams,
        plan: Option<PipelinePlan>,
    ) -> Result<Arc<dyn TonemapBackend>, TonemapError> {
        let plan = self.effective_plan(&params, plan.as_ref());
        Ok(Arc::new(Engine::with_plan(
            self.row, params, plan, &self.spec,
        )?))
    }

    fn run_luminance(
        &self,
        input: &LuminanceImage,
        params: Option<&ToneMapParams>,
        plan: Option<&PipelinePlan>,
        with_model: bool,
    ) -> Result<BackendOutput, TonemapError> {
        self.run_luminance_into(input, params, plan, with_model, Vec::new())
    }

    fn run_luminance_into(
        &self,
        input: &LuminanceImage,
        params: Option<&ToneMapParams>,
        plan: Option<&PipelinePlan>,
        with_model: bool,
        frame: Vec<f32>,
    ) -> Result<BackendOutput, TonemapError> {
        let (image, telemetry) = self.run(input, params, plan, with_model, frame)?;
        Ok(BackendOutput { image, telemetry })
    }

    fn run_rgb(
        &self,
        input: &RgbImage,
        params: Option<&ToneMapParams>,
        plan: Option<&PipelinePlan>,
        with_model: bool,
    ) -> Result<RgbBackendOutput, TonemapError> {
        let (image, telemetry) = self.run(input, params, plan, with_model, Vec::new())?;
        Ok(RgbBackendOutput { image, telemetry })
    }

    fn design_report(&self, width: usize, height: usize) -> Option<DesignReport> {
        self.row
            .design
            .map(|design| self.report(design, width, height))
    }
}

/// The pixels of a request — a luminance plane or an RGB image — and the
/// one thing the two execution primitives do differently with them.
trait Frame: Sized {
    /// The pixel type of the frame the output is written into.
    type Sample;

    /// Rejects a plan this input cannot feed, before anything executes.
    fn check(_plan: &PipelinePlan) -> Result<(), TonemapError> {
        Ok(())
    }

    /// Tone-maps the input on a compiled executor, into `frame`.
    fn map_on(
        &self,
        compiled: &CompiledPlan,
        frame: Vec<Self::Sample>,
    ) -> Result<Self, TonemapError>;
}

impl Frame for LuminanceImage {
    type Sample = f32;

    /// A colour-input plan has no scalar register to feed: a typed error
    /// here, instead of an executor asserting on it.
    fn check(plan: &PipelinePlan) -> Result<(), TonemapError> {
        match plan.input_layout() {
            ChannelLayout::Scalar => Ok(()),
            found => Err(PlanError::ScalarInputRequired { found }.into()),
        }
    }

    fn map_on(&self, compiled: &CompiledPlan, frame: Vec<f32>) -> Result<Self, TonemapError> {
        Ok(compiled.map_luminance_into(self, &mut FrameReductions, frame))
    }
}

impl Frame for RgbImage {
    type Sample = Rgb<f32>;

    /// Colour outputs allocate their own planes; `frame` goes unused.
    fn map_on(&self, compiled: &CompiledPlan, _frame: Vec<Rgb<f32>>) -> Result<Self, TonemapError> {
        Ok(compiled.map_rgb(self)?)
    }
}

/// Looks `key` up in a per-size memo, computing a miss outside the lock:
/// holding the mutex across the computation would serialize concurrent
/// callers (and poison the memo if it panicked). Two threads may race to
/// compute the same key; the computation is deterministic, so whichever
/// insert wins is equivalent.
fn memoized<V: Clone, E>(
    memo: &PerSize<V>,
    key: (usize, usize),
    compute: impl FnOnce() -> Result<V, E>,
) -> Result<V, E> {
    if let Some(hit) = memo.lock().expect("per-size memo poisoned").get(&key) {
        return Ok(hit);
    }
    let computed = compute()?;
    Ok(memo
        .lock()
        .expect("per-size memo poisoned")
        .insert(key, computed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::BackendRegistry;
    use hdr_image::synth::SceneKind;
    use tonemap_core::plan::PlanTuning;

    fn row(name: &str) -> EngineRow {
        BackendRegistry::STANDARD_ENGINES
            .into_iter()
            .find(|row| row.name == name)
            .expect("a standard engine name")
    }

    fn serve(engine: &Engine, width: usize, height: usize) -> LuminanceImage {
        let frame = SceneKind::SunAndShadow.generate(width, height, 4);
        engine
            .run_luminance(&frame, None, None, true)
            .expect("the engine serves every size")
            .image
    }

    #[test]
    fn per_size_memos_stay_within_their_cap() {
        // A client picks the dimensions: 100 distinct sizes, each run with
        // the platform model's telemetry, so both memos see every size.
        let engine = Engine::new(row("sw-f32"), ToneMapParams::paper_default()).unwrap();
        for index in 0..100 {
            serve(&engine, 8 + index % 10, 8 + index / 10);
        }
        assert_eq!(engine.resolved.lock().unwrap().len(), MAX_SIZES);
        assert_eq!(engine.reports.lock().unwrap().len(), MAX_SIZES);
    }

    #[test]
    fn a_size_served_again_after_eviction_matches_a_fresh_engine() {
        let params = ToneMapParams::paper_default();
        let plan = PipelinePlan::preset("basedetail", &params, &PlanTuning::default())
            .unwrap()
            .unwrap();
        let row = EngineRow {
            executor: Executor::Scheduled {
                mode: ScheduleMode::Auto,
                threads: None,
            },
            ..row("hw-fix16")
        };
        let spec = "hw-fix16?pipeline=basedetail&schedule=auto";
        let engine = Engine::with_plan(row, params, plan.clone(), spec).unwrap();
        let first = serve(&engine, 40, 30);
        // Every later size is used more recently, so 40×30 is evicted.
        for index in 0..MAX_SIZES {
            serve(&engine, 8 + index % 8, 8 + index / 8);
        }
        assert!(!engine.resolved.lock().unwrap().contains_key(&(40, 30)));
        let again = serve(&engine, 40, 30);
        let fresh = serve(&Engine::with_plan(row, params, plan, spec).unwrap(), 40, 30);
        assert_eq!(again, fresh);
        assert_eq!(again, first);
    }
}

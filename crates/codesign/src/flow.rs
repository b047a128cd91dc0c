//! The co-design flow: evaluate each design implementation of Table II.

use crate::extension::{masking_kernel, ExtendedDesignReport, MaskingKernelSpec};
use crate::kernels::{marked_hw_kernel, streaming_blur_kernel, BlurKernelSpec, StreamingOptions};
use crate::profile::{ProfileReport, Profiler};
use hls_model::report::PerformanceReport;
use hls_model::schedule::{Schedule, Scheduler};
use hls_model::tech::TechLibrary;
use serde::{Deserialize, Serialize};
use std::fmt;
use tonemap_core::ops::StageKind;
use tonemap_core::{ParamError, PipelinePlan, ToneMapParams};
use zynq_sim::pl::PlModel;
use zynq_sim::power::EnergyReport;
use zynq_sim::system::{ExecutionPlan, Phase, SystemReport, SystemSimulator};

/// The five design implementations of Table II, in the paper's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DesignImplementation {
    /// Everything on the ARM core: the reference.
    SwSourceCode,
    /// The blur naively marked for hardware, random DDR accesses from the PL.
    MarkedHwFunction,
    /// Algorithm restructured for sequential accesses and BRAM line buffers
    /// (Table I, step 1).
    SequentialMemoryAccesses,
    /// `PIPELINE` and `ARRAY_PARTITION` pragmas added (Table I, step 2).
    HlsPragmas,
    /// Floating-point to 16-bit fixed-point conversion (Table I, step 3).
    FixedPointConversion,
}

impl DesignImplementation {
    /// All implementations in Table II order.
    pub const ALL: [DesignImplementation; 5] = [
        DesignImplementation::SwSourceCode,
        DesignImplementation::MarkedHwFunction,
        DesignImplementation::SequentialMemoryAccesses,
        DesignImplementation::HlsPragmas,
        DesignImplementation::FixedPointConversion,
    ];

    /// The optimization steps of Table I (the accelerated implementations
    /// after the naive marking).
    pub const OPTIMIZATION_STEPS: [DesignImplementation; 3] = [
        DesignImplementation::SequentialMemoryAccesses,
        DesignImplementation::HlsPragmas,
        DesignImplementation::FixedPointConversion,
    ];

    /// `true` if the Gaussian blur runs in the programmable logic.
    pub const fn is_accelerated(&self) -> bool {
        !matches!(self, DesignImplementation::SwSourceCode)
    }

    /// The row label used in Table II.
    pub const fn label(&self) -> &'static str {
        match self {
            DesignImplementation::SwSourceCode => "SW source code",
            DesignImplementation::MarkedHwFunction => "Marked HW function",
            DesignImplementation::SequentialMemoryAccesses => "Sequential memory accesses",
            DesignImplementation::HlsPragmas => "HLS pragmas",
            DesignImplementation::FixedPointConversion => "FlP to FxP conversion",
        }
    }
}

impl fmt::Display for DesignImplementation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The evaluation of one design implementation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignReport {
    /// Which implementation this is.
    pub design: DesignImplementation,
    /// Execution time of the Gaussian blur (the accelerated function), in
    /// seconds — the first column of Table II.
    pub accelerated_seconds: f64,
    /// Total execution time of the application, in seconds — the second
    /// column of Table II.
    pub total_seconds: f64,
    /// Time spent on the processing system.
    pub ps_seconds: f64,
    /// Time spent in the programmable logic (zero for the software design).
    pub pl_seconds: f64,
    /// Per-rail energy (Figs. 7 and 8).
    pub energy: EnergyReport,
    /// PL resource utilization (maximum across LUT/FF/DSP/BRAM), zero for the
    /// software design.
    pub pl_utilization: f64,
    /// The HLS schedule of the accelerator, when one exists.
    pub schedule: Option<Schedule>,
    /// The full system report (phases, average power).
    pub system: SystemReport,
}

impl DesignReport {
    /// Speed-up of the accelerated function relative to a software reference
    /// report.
    pub fn function_speedup_vs(&self, reference: &DesignReport) -> f64 {
        reference.accelerated_seconds / self.accelerated_seconds
    }

    /// Total-application speed-up relative to a software reference report.
    pub fn total_speedup_vs(&self, reference: &DesignReport) -> f64 {
        reference.total_seconds / self.total_seconds
    }

    /// Energy reduction (fraction) relative to a software reference report.
    pub fn energy_reduction_vs(&self, reference: &DesignReport) -> f64 {
        1.0 - self.energy.total_j() / reference.energy.total_j()
    }
}

/// The evaluation of every design implementation — the data behind Table II
/// and Figs. 6–8.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowReport {
    /// Reports in Table II order.
    pub designs: Vec<DesignReport>,
    /// Image width used.
    pub width: usize,
    /// Image height used.
    pub height: usize,
}

impl FlowReport {
    /// The report of one design.
    pub fn design(&self, design: DesignImplementation) -> Option<&DesignReport> {
        self.designs.iter().find(|d| d.design == design)
    }

    /// The software reference report.
    ///
    /// # Panics
    ///
    /// Panics if the flow was run without the software design, which cannot
    /// happen for reports produced by [`CoDesignFlow::run_all`].
    pub fn software_reference(&self) -> &DesignReport {
        self.design(DesignImplementation::SwSourceCode)
            .expect("run_all always evaluates the software reference")
    }
}

/// The streaming-cascade cost of one fused line-buffer region — one stencil
/// stage of a fused segment, with its own row ring in the BRAM analogue.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeRegionCost {
    /// Index of the stencil stage in the plan.
    pub stage_index: usize,
    /// Rows held by this region's ring: `2·radius + 1`.
    pub ring_rows: usize,
    /// BRAM-18K-analogue blocks the row ring occupies
    /// (`ring_rows × width × sample_bits`, rounded up to 18 kbit blocks) —
    /// 16-bit samples for the fixed-point design, 32-bit otherwise.
    pub ring_bram_18k: u64,
    /// Initiation interval of the region's pipelined kernel schedule
    /// (`None` for the software design, whose blur never leaves the PS).
    pub initiation_interval: Option<u64>,
    /// PL execution time of this region's kernel (zero for the software
    /// design).
    pub pl_seconds: f64,
    /// Output-row latency of this region measured from the segment input:
    /// the sum of every upstream radius plus this region's own — the
    /// staggered fill depth of the cascade.
    pub latency_rows: usize,
}

/// The streaming-cascade cost of one fused segment: its regions plus the
/// segment-level roll-ups.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeSegmentCost {
    /// First op index of the segment in the plan (inclusive).
    pub start: usize,
    /// One-past-last op index of the segment.
    pub end: usize,
    /// Per-region costs, in cascade order.
    pub regions: Vec<CascadeRegionCost>,
}

impl CascadeSegmentCost {
    /// Total row latency of the segment's cascade (sum of all radii).
    pub fn latency_rows(&self) -> usize {
        self.regions.last().map_or(0, |r| r.latency_rows)
    }
}

/// The codesign view of a streaming cascade
/// ([`tonemap_core::PipelinePlan::segmentation`]): one kernel schedule per
/// fused region, with the additive BRAM-analogue footprint of the row rings
/// and the per-region initiation intervals — what the cascade costs the
/// fabric, segment by segment.
///
/// This costs the plan's *segmentation shape*; whether the streaming
/// planner actually runs it (or falls back for a mask straddling a barrier)
/// is [`tonemap_core::StreamingToneMapper::decision`]'s call.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeCostReport {
    /// The design point the regions were scheduled for.
    pub design: DesignImplementation,
    /// Per-segment costs, in plan order (`segments.len() == barriers + 1`).
    pub segments: Vec<CascadeSegmentCost>,
    /// Plan indices of the materialization barriers between the segments.
    pub barriers: Vec<usize>,
    /// Total BRAM-analogue blocks across every region's row ring — the
    /// rings coexist in the fabric, so their footprints add.
    pub total_ring_bram_18k: u64,
    /// Total PL time across every region's kernel.
    pub total_pl_seconds: f64,
}

impl CascadeCostReport {
    /// Total fused line-buffer regions across all segments.
    pub fn region_count(&self) -> usize {
        self.segments.iter().map(|s| s.regions.len()).sum()
    }
}

/// The co-design flow driver: profiling, kernel construction, scheduling and
/// platform simulation for the paper's experiment setup.
#[derive(Debug, Clone)]
pub struct CoDesignFlow {
    params: ToneMapParams,
    width: usize,
    height: usize,
    profiler: Profiler,
    scheduler: Scheduler,
    tech: TechLibrary,
    simulator: SystemSimulator,
}

impl CoDesignFlow {
    /// Creates the flow with the paper's setup (ZC702 platform, calibrated
    /// ARM cost model, Artix-7 technology library, paper tone-mapping
    /// parameters) for an image of the given dimensions.
    pub fn paper_setup(width: usize, height: usize) -> Self {
        CoDesignFlow::paper_setup_with_params(ToneMapParams::paper_default(), width, height)
    }

    /// Fallible variant of [`CoDesignFlow::paper_setup_with_params`]: the
    /// entry point for callers holding unvalidated user parameters (the
    /// request/response engine layer). Returns a typed [`ParamError`]
    /// instead of letting invalid parameters reach the profiler.
    pub fn try_paper_setup_with_params(
        params: ToneMapParams,
        width: usize,
        height: usize,
    ) -> Result<Self, ParamError> {
        params.validate()?;
        Ok(CoDesignFlow::paper_setup_with_params(params, width, height))
    }

    /// Creates the flow with the paper's platform setup but custom
    /// tone-mapping parameters (used by the backend engine layer).
    pub fn paper_setup_with_params(params: ToneMapParams, width: usize, height: usize) -> Self {
        CoDesignFlow::new(
            params,
            width,
            height,
            Profiler::paper_platform(params),
            TechLibrary::artix7_default(),
            SystemSimulator::zc702_default(),
        )
    }

    /// Creates a flow with explicit components (used by the ablation benches
    /// to swap the cost model, the technology library or the parameters).
    pub fn new(
        params: ToneMapParams,
        width: usize,
        height: usize,
        profiler: Profiler,
        tech: TechLibrary,
        simulator: SystemSimulator,
    ) -> Self {
        CoDesignFlow {
            params,
            width,
            height,
            profiler,
            scheduler: Scheduler::new(tech.clone()),
            tech,
            simulator,
        }
    }

    /// Image dimensions the flow evaluates on.
    pub const fn dimensions(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// The tone-mapping parameters in use.
    pub const fn params(&self) -> &ToneMapParams {
        &self.params
    }

    /// The software profile of the application (step 1 of the flow).
    pub fn profile(&self) -> ProfileReport {
        self.profiler.profile(self.width, self.height)
    }

    /// Builds and schedules the accelerator kernel of a design
    /// implementation; `None` for the software-only design.
    pub fn schedule_for(&self, design: DesignImplementation) -> Option<Schedule> {
        self.schedule_for_blur(design, self.params.blur)
    }

    /// Builds and schedules the accelerator kernel of a design
    /// implementation for an explicit blur-stage shape — the per-stage hook
    /// [`CoDesignFlow::evaluate_plan`] uses to cost each stencil stage of an
    /// arbitrary plan with its own kernel geometry.
    pub fn schedule_for_blur(
        &self,
        design: DesignImplementation,
        blur: tonemap_core::BlurParams,
    ) -> Option<Schedule> {
        let spec = BlurKernelSpec::new(self.width, self.height, blur);
        let kernel = match design {
            DesignImplementation::SwSourceCode => return None,
            DesignImplementation::MarkedHwFunction => marked_hw_kernel(&spec),
            DesignImplementation::SequentialMemoryAccesses => streaming_blur_kernel(
                &spec,
                StreamingOptions {
                    pipelined: false,
                    fixed_point: false,
                },
            ),
            DesignImplementation::HlsPragmas => streaming_blur_kernel(
                &spec,
                StreamingOptions {
                    pipelined: true,
                    fixed_point: false,
                },
            ),
            DesignImplementation::FixedPointConversion => streaming_blur_kernel(
                &spec,
                StreamingOptions {
                    pipelined: true,
                    fixed_point: true,
                },
            ),
        };
        Some(self.scheduler.schedule(&kernel))
    }

    /// The Vivado-HLS-style report of a design's accelerator, if it has one.
    pub fn hls_report(&self, design: DesignImplementation) -> Option<PerformanceReport> {
        self.schedule_for(design)
            .map(|s| PerformanceReport::new(s, &self.tech))
    }

    /// Evaluates one design implementation end to end on the paper's Fig. 1
    /// chain of the configured parameters: execution time split, energy and
    /// resources — [`CoDesignFlow::evaluate_plan`] on
    /// [`PipelinePlan::from_params`].
    pub fn evaluate(&self, design: DesignImplementation) -> DesignReport {
        self.evaluate_plan(&PipelinePlan::from_params(&self.params), design)
    }

    /// Evaluates one design implementation for an *arbitrary*
    /// [`tonemap_core::PipelinePlan`] — the Table-II-style view of plans the
    /// paper never ran.
    ///
    /// Per-stage costing: every non-stencil stage is costed on the
    /// processing system through [`crate::Profiler::profile_plan`]; each
    /// stencil stage is scheduled as its own accelerator kernel (with its
    /// own kernel geometry) when the design accelerates the blur, or costed
    /// on the PS otherwise. Plans without a stencil stage have nothing to
    /// accelerate — every design then degenerates to the pure-software
    /// phases (zero `accelerated_seconds`, no schedule).
    ///
    /// For multi-stencil plans, [`DesignReport::accelerated_seconds`] and
    /// [`DesignReport::pl_utilization`] aggregate *all* stencil stages and
    /// each stage appears as its own PL phase in
    /// [`DesignReport::system`]; [`DesignReport::schedule`] carries only
    /// the **first** stencil stage's kernel schedule (the field models one
    /// accelerator) — read the per-stage phases for the others.
    ///
    /// On the paper's Fig. 1 plan this is the Table II evaluation,
    /// [`CoDesignFlow::evaluate`]: its one stencil stage is the one
    /// accelerator, so every number is that accelerator's (utilization
    /// capped at the full device).
    pub fn evaluate_plan(&self, plan: &PipelinePlan, design: DesignImplementation) -> DesignReport {
        let profile = self.profiler.profile_plan(plan, self.width, self.height);
        let sw_blur: f64 = profile
            .stages
            .iter()
            .filter(|s| s.stage == StageKind::GaussianBlur)
            .map(|s| s.seconds)
            .sum();
        let ps_rest = profile.total_seconds - sw_blur;
        let pl_model = PlModel::new(self.simulator.config.pl_clock_hz);

        let stencils: Vec<_> = plan.stencil_stages().collect();
        let mut phases = vec![Phase::ps("point/reduction stages (PS)", ps_rest)];
        let mut schedule = None;
        let mut pl_utilization = 0.0f64;
        let mut accelerated_seconds = 0.0f64;
        if stencils.is_empty() || !design.is_accelerated() {
            if sw_blur > 0.0 {
                phases.push(Phase::ps("Gaussian blur (PS)", sw_blur));
                accelerated_seconds = sw_blur;
            }
        } else {
            for (index, blur, _) in stencils {
                let stage_schedule = self
                    .schedule_for_blur(design, blur)
                    .expect("accelerated designs schedule a blur kernel");
                let run = pl_model.run(&stage_schedule, &self.tech);
                phases.push(Phase::pl(
                    format!("stage {index}: Gaussian blur (PL accelerator)"),
                    run.seconds,
                ));
                accelerated_seconds += run.seconds;
                // Coexisting accelerators add utilization, capped at the
                // full device (as in the extended design).
                pl_utilization = (pl_utilization + run.utilization).min(1.0);
                if schedule.is_none() {
                    schedule = Some(stage_schedule);
                }
            }
        }

        let plan_exec = ExecutionPlan {
            phases,
            pl_utilization,
        };
        let system = self.simulator.run(&plan_exec);
        DesignReport {
            design,
            accelerated_seconds,
            total_seconds: system.total_seconds,
            ps_seconds: system.ps_seconds,
            pl_seconds: system.pl_seconds,
            energy: system.energy,
            pl_utilization,
            schedule,
            system,
        }
    }

    /// Costs the streaming cascade of an arbitrary plan: one kernel
    /// schedule per fused line-buffer region, grouped by the plan's
    /// materialization-barrier segmentation.
    ///
    /// Each region's row ring (`2·radius + 1` rows of `width` samples) is
    /// charged as a BRAM-18K-analogue footprint — 16-bit samples for the
    /// fixed-point design, 32-bit for every other — and the footprints
    /// *add* across regions because the cascaded rings coexist in the
    /// fabric. `latency_rows` accumulates the upstream radii, the staggered
    /// fill depth of the cascade.
    ///
    /// The ring width scales with the register layout the stencil reads
    /// (`samples/pixel × width`): plan validation pins stencils to the
    /// `Scalar` register (width 1), so today the multiplier is the
    /// documented identity — but the costing follows the typed register
    /// file, not a hard-coded channel count.
    pub fn cascade_cost(
        &self,
        plan: &PipelinePlan,
        design: DesignImplementation,
    ) -> CascadeCostReport {
        let sample_bits: u64 = if design == DesignImplementation::FixedPointConversion {
            16
        } else {
            32
        };
        let pl_model = PlModel::new(self.simulator.config.pl_clock_hz);
        let segmentation = plan.segmentation();
        let layouts = plan.op_input_layouts();
        let mut total_ring_bram_18k = 0u64;
        let mut total_pl_seconds = 0.0f64;
        let segments = segmentation
            .segments
            .iter()
            .map(|segment| {
                let mut latency_rows = 0usize;
                let regions = segment
                    .stencils
                    .iter()
                    .map(|&(stage_index, blur, _)| {
                        let ring_rows = blur.taps();
                        let ring_width =
                            layouts.get(stage_index).map_or(1, |layout| layout.width());
                        let ring_bits = (ring_rows * self.width * ring_width) as u64 * sample_bits;
                        let ring_bram_18k = ring_bits.div_ceil(18 * 1024);
                        let schedule = self.schedule_for_blur(design, blur);
                        let (initiation_interval, pl_seconds) = match &schedule {
                            None => (None, 0.0),
                            Some(schedule) => (
                                schedule.top_initiation_interval(),
                                pl_model.run(schedule, &self.tech).seconds,
                            ),
                        };
                        latency_rows += blur.radius;
                        total_ring_bram_18k += ring_bram_18k;
                        total_pl_seconds += pl_seconds;
                        CascadeRegionCost {
                            stage_index,
                            ring_rows,
                            ring_bram_18k,
                            initiation_interval,
                            pl_seconds,
                            latency_rows,
                        }
                    })
                    .collect();
                CascadeSegmentCost {
                    start: segment.start,
                    end: segment.end,
                    regions,
                }
            })
            .collect();
        CascadeCostReport {
            design,
            segments,
            barriers: segmentation.barriers,
            total_ring_bram_18k,
            total_pl_seconds,
        }
    }

    /// Evaluates the extension beyond the paper: the Gaussian blur *and* the
    /// non-linear masking both accelerated (both in 16-bit fixed point, the
    /// masking streams on burst DMA movers), leaving only normalization and
    /// the brightness/contrast adjustment on the processing system.
    pub fn evaluate_extended(&self) -> ExtendedDesignReport {
        let profile = self.profile();
        let ps_rest = profile.seconds_excluding(StageKind::GaussianBlur)
            - profile
                .stage(StageKind::NonlinearMasking)
                .map(|s| s.seconds)
                .unwrap_or(0.0);

        let pl_model = PlModel::new(self.simulator.config.pl_clock_hz);

        let blur_schedule = self
            .schedule_for(DesignImplementation::FixedPointConversion)
            .expect("the fixed-point blur design always has a schedule");
        let blur_run = pl_model.run(&blur_schedule, &self.tech);

        let masking_schedule = self.scheduler.schedule(&masking_kernel(&MaskingKernelSpec {
            pixels: (self.width * self.height) as u64,
            channels: self.params.channels.max(1) as u64,
            fixed_point: true,
            burst_dma: true,
        }));
        let masking_run = pl_model.run(&masking_schedule, &self.tech);

        // The two accelerators coexist in the fabric; their utilizations add
        // (capped at the full device).
        let pl_utilization = (blur_run.utilization + masking_run.utilization).min(1.0);

        let plan = ExecutionPlan {
            phases: vec![
                Phase::ps("normalization + adjustment (PS)", ps_rest),
                Phase::pl("Gaussian blur (PL accelerator)", blur_run.seconds),
                Phase::pl("non-linear masking (PL accelerator)", masking_run.seconds),
            ],
            pl_utilization,
        };
        let system = self.simulator.run(&plan);

        let paper_final = self.evaluate(DesignImplementation::FixedPointConversion);
        ExtendedDesignReport {
            blur_seconds: blur_run.seconds,
            masking_seconds: masking_run.seconds,
            ps_seconds: system.ps_seconds,
            total_seconds: system.total_seconds,
            energy: system.energy,
            pl_utilization,
            total_speedup_vs_paper_final: paper_final.total_seconds / system.total_seconds,
            energy_reduction_vs_paper_final: 1.0
                - system.energy.total_j() / paper_final.energy.total_j(),
        }
    }

    /// Evaluates every design implementation of Table II.
    pub fn run_all(&self) -> FlowReport {
        FlowReport {
            designs: DesignImplementation::ALL
                .iter()
                .map(|&d| self.evaluate(d))
                .collect(),
            width: self.width,
            height: self.height,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_flow() -> FlowReport {
        CoDesignFlow::paper_setup(1024, 1024).run_all()
    }

    #[test]
    fn table2_ordering_is_reproduced() {
        let report = full_flow();
        let t = |d: DesignImplementation| report.design(d).unwrap().total_seconds;
        let b = |d: DesignImplementation| report.design(d).unwrap().accelerated_seconds;

        // Blur times: marked >> sw > sequential-vs-sw ordering per the paper:
        // marked is catastrophically worse, sequential is worse than sw,
        // pragmas and fixed point are much better.
        assert!(
            b(DesignImplementation::MarkedHwFunction)
                > 10.0 * b(DesignImplementation::SwSourceCode)
        );
        assert!(
            b(DesignImplementation::SequentialMemoryAccesses)
                > b(DesignImplementation::SwSourceCode)
        );
        assert!(b(DesignImplementation::HlsPragmas) < b(DesignImplementation::SwSourceCode) / 4.0);
        assert!(
            b(DesignImplementation::FixedPointConversion) < b(DesignImplementation::HlsPragmas)
        );

        // Total times: marked worst, sequential worse than software, the
        // pipelined designs best.
        assert!(
            t(DesignImplementation::MarkedHwFunction)
                > t(DesignImplementation::SequentialMemoryAccesses)
        );
        assert!(
            t(DesignImplementation::SequentialMemoryAccesses)
                > t(DesignImplementation::SwSourceCode)
        );
        assert!(t(DesignImplementation::HlsPragmas) < t(DesignImplementation::SwSourceCode));
        assert!(
            t(DesignImplementation::FixedPointConversion) < t(DesignImplementation::SwSourceCode)
        );
    }

    #[test]
    fn table2_magnitudes_are_in_band() {
        // The paper's Table II values, allowing generous bands since our
        // substrate is a calibrated model rather than the authors' board.
        let report = full_flow();
        let sw = report.software_reference();
        assert!(sw.accelerated_seconds > 5.5 && sw.accelerated_seconds < 9.0);
        assert!(sw.total_seconds > 22.0 && sw.total_seconds < 31.0);

        let marked = report
            .design(DesignImplementation::MarkedHwFunction)
            .unwrap();
        assert!(
            marked.accelerated_seconds > 100.0 && marked.accelerated_seconds < 260.0,
            "marked blur {:.1} s",
            marked.accelerated_seconds
        );

        let seq = report
            .design(DesignImplementation::SequentialMemoryAccesses)
            .unwrap();
        assert!(
            seq.accelerated_seconds > 10.0 && seq.accelerated_seconds < 25.0,
            "sequential blur {:.1} s",
            seq.accelerated_seconds
        );

        let fxp = report
            .design(DesignImplementation::FixedPointConversion)
            .unwrap();
        let speedup = fxp.function_speedup_vs(sw);
        assert!(
            speedup > 10.0,
            "final accelerated-function speed-up {speedup:.1}x should exceed 10x"
        );
    }

    #[test]
    fn energy_reduction_matches_paper_shape() {
        let report = full_flow();
        let sw = report.software_reference();
        let fxp = report
            .design(DesignImplementation::FixedPointConversion)
            .unwrap();

        // Fig. 7: ~30 J software, reduced by roughly a quarter.
        assert!(
            sw.energy.total_j() > 24.0 && sw.energy.total_j() < 36.0,
            "software energy {:.1} J",
            sw.energy.total_j()
        );
        let reduction = fxp.energy_reduction_vs(sw);
        assert!(
            reduction > 0.10 && reduction < 0.40,
            "energy reduction {:.1}%",
            100.0 * reduction
        );
        // Average power increases with acceleration (the paper's observation
        // that power goes up but energy goes down).
        assert!(fxp.system.average_power_w() > sw.system.average_power_w());
    }

    #[test]
    fn ps_residual_is_stable_across_accelerated_designs() {
        // Table II: the non-blur part stays ~19 s in every row.
        let report = full_flow();
        let ps_times: Vec<f64> = DesignImplementation::ALL
            .iter()
            .map(|&d| report.design(d).unwrap().ps_seconds)
            .collect();
        let sw_rest = report.software_reference().ps_seconds
            - report.software_reference().accelerated_seconds;
        for (&d, &t) in DesignImplementation::ALL.iter().zip(&ps_times) {
            if d.is_accelerated() {
                assert!(
                    (t - sw_rest).abs() < 0.5,
                    "{d}: PS residual {t:.2} s vs software rest {sw_rest:.2} s"
                );
            }
        }
    }

    #[test]
    fn accelerated_designs_report_schedules_and_utilization() {
        let report = full_flow();
        for design in DesignImplementation::ALL {
            let r = report.design(design).unwrap();
            if design.is_accelerated() {
                assert!(r.schedule.is_some());
                assert!(r.pl_utilization > 0.0);
                assert!(r.pl_seconds > 0.0);
            } else {
                assert!(r.schedule.is_none());
                assert_eq!(r.pl_utilization, 0.0);
                assert_eq!(r.pl_seconds, 0.0);
            }
        }
    }

    #[test]
    fn hls_report_is_available_for_accelerated_designs() {
        let flow = CoDesignFlow::paper_setup(256, 256);
        assert!(flow
            .hls_report(DesignImplementation::SwSourceCode)
            .is_none());
        let report = flow
            .hls_report(DesignImplementation::FixedPointConversion)
            .unwrap();
        assert!(report.to_string().contains("gaussian_blur_fixed"));
    }

    #[test]
    fn extended_design_beats_the_paper_final_design() {
        let flow = CoDesignFlow::paper_setup(1024, 1024);
        let extended = flow.evaluate_extended();
        let paper_final = flow.evaluate(DesignImplementation::FixedPointConversion);
        assert!(extended.total_seconds < paper_final.total_seconds / 2.0);
        assert!(extended.energy.total_j() < paper_final.energy.total_j());
        assert!(extended.total_speedup_vs_paper_final > 2.0);
        assert!(extended.pl_utilization <= 1.0);
        assert!(extended.masking_seconds > 0.0 && extended.blur_seconds > 0.0);
        let text = extended.to_string();
        assert!(text.contains("blur + masking"));
    }

    #[test]
    fn evaluate_plan_costs_arbitrary_plans_per_stage() {
        use tonemap_core::plan::{PipelineOp, PipelinePlan, PlanTuning};
        use tonemap_core::{MaskingParams, ToneMapParams};
        let flow = CoDesignFlow::paper_setup(512, 512);

        // A stencil-free plan has nothing to accelerate: every design
        // degenerates to pure PS work.
        let reinhard = PipelinePlan::preset(
            "reinhard",
            &ToneMapParams::paper_default(),
            &PlanTuning::default(),
        )
        .unwrap()
        .unwrap();
        let report = flow.evaluate_plan(&reinhard, DesignImplementation::FixedPointConversion);
        assert_eq!(report.accelerated_seconds, 0.0);
        assert_eq!(report.pl_seconds, 0.0);
        assert!(report.schedule.is_none());
        assert!(report.total_seconds > 0.0);

        // A two-stencil plan gets one PL phase (and one schedule run) per
        // blur stage; utilizations add.
        let blur = tonemap_core::BlurParams {
            sigma: 2.0,
            radius: 4,
        };
        let double = PipelinePlan::new(vec![
            PipelineOp::Normalize,
            PipelineOp::BlurMask {
                blur,
                invert_input: true,
            },
            PipelineOp::Mask(MaskingParams::paper_default()),
            PipelineOp::BlurMask {
                blur,
                invert_input: false,
            },
            PipelineOp::Mask(MaskingParams::paper_default()),
        ])
        .unwrap();
        let single = PipelinePlan::new(double.ops()[..3].to_vec()).unwrap();
        let one = flow.evaluate_plan(&single, DesignImplementation::FixedPointConversion);
        let two = flow.evaluate_plan(&double, DesignImplementation::FixedPointConversion);
        assert!(two.accelerated_seconds > 1.9 * one.accelerated_seconds);
        assert!(two.pl_utilization > one.pl_utilization);
        assert!(two.schedule.is_some());
        let pl_phases = two
            .system
            .phases
            .iter()
            .filter(|p| p.name.contains("PL accelerator"))
            .count();
        assert_eq!(pl_phases, 2);
    }

    #[test]
    fn cascade_cost_charges_one_ring_per_region_additively() {
        use tonemap_core::plan::{PipelinePlan, PlanTuning};
        let flow = CoDesignFlow::paper_setup(1024, 768);
        let params = *flow.params();

        // Paper plan: one segment, one region, the paper's 41-row ring.
        let paper = flow.cascade_cost(
            &PipelinePlan::paper_default(),
            DesignImplementation::FixedPointConversion,
        );
        assert_eq!(paper.segments.len(), 1);
        assert_eq!(paper.region_count(), 1);
        assert!(paper.barriers.is_empty());
        let region = &paper.segments[0].regions[0];
        assert_eq!(region.ring_rows, params.blur.taps());
        assert_eq!(region.latency_rows, params.blur.radius);
        assert_eq!(
            region.ring_bram_18k,
            ((params.blur.taps() * 1024) as u64 * 16).div_ceil(18 * 1024)
        );
        assert!(region.initiation_interval.is_some());
        assert!(region.pl_seconds > 0.0);
        assert_eq!(paper.total_ring_bram_18k, region.ring_bram_18k);
        assert_eq!(paper.total_pl_seconds, region.pl_seconds);

        // The fixed-point design halves the ring footprint vs 32-bit.
        let f32_cost = flow.cascade_cost(
            &PipelinePlan::paper_default(),
            DesignImplementation::HlsPragmas,
        );
        assert!(f32_cost.total_ring_bram_18k > paper.total_ring_bram_18k);

        // basedetail: two cascaded regions in one segment; rings and PL
        // time add, latency accumulates across the cascade.
        let basedetail = PipelinePlan::preset("basedetail", &params, &PlanTuning::default())
            .unwrap()
            .unwrap();
        let cost = flow.cascade_cost(&basedetail, DesignImplementation::FixedPointConversion);
        assert_eq!(cost.segments.len(), 1);
        assert_eq!(cost.region_count(), 2);
        let regions = &cost.segments[0].regions;
        assert_eq!(regions[0].latency_rows, params.blur.radius);
        assert!(regions[1].latency_rows > regions[0].latency_rows);
        assert_eq!(cost.segments[0].latency_rows(), regions[1].latency_rows);
        assert_eq!(
            cost.total_ring_bram_18k,
            regions[0].ring_bram_18k + regions[1].ring_bram_18k
        );
        assert!(
            (cost.total_pl_seconds - regions[0].pl_seconds - regions[1].pl_seconds).abs() < 1e-12
        );

        // The software design schedules nothing: the rings still exist as
        // cache-resident rows, but there is no PL time and no II.
        let sw = flow.cascade_cost(&basedetail, DesignImplementation::SwSourceCode);
        assert_eq!(sw.total_pl_seconds, 0.0);
        assert!(sw
            .segments
            .iter()
            .flat_map(|s| &s.regions)
            .all(|r| r.initiation_interval.is_none() && r.pl_seconds == 0.0));

        // A mid-plan reduction splits the report into two segments.
        let histeq = PipelinePlan::preset("histeq", &params, &PlanTuning::default())
            .unwrap()
            .unwrap();
        let segmented = flow.cascade_cost(&histeq, DesignImplementation::FixedPointConversion);
        assert_eq!(segmented.segments.len(), 2);
        assert_eq!(segmented.barriers, vec![1]);
        assert_eq!(segmented.region_count(), 0);
        assert_eq!(segmented.total_ring_bram_18k, 0);
    }

    #[test]
    fn try_paper_setup_rejects_invalid_parameters() {
        let mut p = ToneMapParams::paper_default();
        p.blur.radius = 0;
        assert_eq!(
            CoDesignFlow::try_paper_setup_with_params(p, 64, 64).err(),
            Some(ParamError::ZeroBlurRadius)
        );
        let flow =
            CoDesignFlow::try_paper_setup_with_params(ToneMapParams::paper_default(), 64, 64)
                .expect("paper defaults are valid");
        assert_eq!(flow.dimensions(), (64, 64));
    }

    #[test]
    fn labels_match_table_two() {
        assert_eq!(DesignImplementation::SwSourceCode.label(), "SW source code");
        assert_eq!(
            DesignImplementation::FixedPointConversion.label(),
            "FlP to FxP conversion"
        );
        assert_eq!(DesignImplementation::ALL.len(), 5);
        assert_eq!(DesignImplementation::OPTIMIZATION_STEPS.len(), 3);
        assert!(!DesignImplementation::SwSourceCode.is_accelerated());
        assert!(DesignImplementation::HlsPragmas.is_accelerated());
    }
}

//! Pricing and selection: every legal point costed on the platform model,
//! ranked, and explained.
//!
//! The oracle is the existing co-design machinery, not a new timing model:
//!
//! * **Compute** — [`CoDesignFlow::evaluate_plan`] prices the plan's
//!   arithmetic for the engine's design point (PS phases for point and
//!   reduction stages, one PL kernel schedule per stencil when the design
//!   is accelerated).
//! * **Traffic** — every materialized intermediate plane is charged a
//!   write + read through [`DataMoverModel::zc702_default`] on the simple
//!   DMA mover, the same mover the paper's copy-in/copy-out arguments use.
//!   The two-pass executor pays one plane per stage boundary; a stream
//!   pays one only per reduction barrier.
//! * **Host** — row slices are scheduled onto the
//!   [`HostModel`] by the same LPT greedy the
//!   service telemetry uses, with every slice after the first paying the
//!   cascade's refill halo
//!   ([`tonemap_core::plan::PlanSegment::latency_rows`]).
//!
//! Predicted costs are *modeled platform seconds* (a Zynq, not the host
//! running this process): absolute values do not match wall time, but the
//! *ranking* is what the scheduler acts on, and the `schedule` bench gate
//! holds that ranking against wall-clock measurements.

use std::fmt;

use codesign::flow::{CoDesignFlow, DesignReport};
use hls_model::pragma::DataMover;
use tonemap_core::{ParamError, PipelinePlan, StreamingDecision, ToneMapParams};
use zynq_sim::axi::{DataMoverModel, Transfer};

use crate::point::{ScheduleClass, ScheduleExecutor, SchedulePoint};
use crate::space::{HostModel, ScheduleSpace};

/// One schedule point with its predicted cost and the scheduler's verdict
/// on it.
#[derive(Debug, Clone, PartialEq)]
pub struct PricedPoint {
    /// The strategy priced.
    pub point: SchedulePoint,
    /// Predicted cost in modeled platform seconds.
    pub predicted_seconds: f64,
    /// The same cost normalized per pixel, in nanoseconds.
    pub predicted_ns_per_pixel: f64,
    /// Why this point won — or why it lost to the winner.
    pub verdict: String,
}

/// The scheduler's full answer for one (plan, resolution): every point
/// priced, ranked ascending by predicted cost, the winner first.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleReport {
    /// Image width the points were priced at.
    pub width: usize,
    /// Image height the points were priced at.
    pub height: usize,
    /// The engine class (quality floor + design point) that was scheduled.
    pub class: ScheduleClass,
    /// The streaming planner's verdict the space was derived from.
    pub decision: StreamingDecision,
    /// The compute-cost evaluation the pricing is built on.
    pub base: DesignReport,
    /// Every enumerated point, cheapest predicted first. Ties keep
    /// enumeration order (two-pass first, then ascending worker count), so
    /// a tie prefers the two-pass reference executor.
    pub ranked: Vec<PricedPoint>,
}

impl ScheduleReport {
    /// The chosen point: cheapest predicted cost.
    pub fn winner(&self) -> &PricedPoint {
        &self.ranked[0]
    }

    /// The cheapest streaming point (always present: the one-worker
    /// streaming point is never pruned).
    pub fn best_streaming(&self) -> &PricedPoint {
        self.ranked
            .iter()
            .find(|priced| priced.point.executor.is_streaming())
            .expect("the one-worker streaming point is always enumerated")
    }

    /// The priced two-pass point (always present).
    pub fn two_pass(&self) -> &PricedPoint {
        self.ranked
            .iter()
            .find(|priced| priced.point.executor == ScheduleExecutor::TwoPass)
            .expect("the two-pass point is always enumerated")
    }
}

impl fmt::Display for ScheduleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "schedule space at {}x{} ({} points, plan {}):",
            self.width,
            self.height,
            self.ranked.len(),
            self.decision,
        )?;
        for priced in &self.ranked {
            writeln!(
                f,
                "  {:>9.3} ms  {} — {}",
                priced.predicted_seconds * 1e3,
                priced.point,
                priced.verdict,
            )?;
        }
        Ok(())
    }
}

/// The auto-scheduler: enumerates the legal space of a plan and prices
/// every point on the platform model.
#[derive(Debug, Clone)]
pub struct Scheduler {
    params: ToneMapParams,
    class: ScheduleClass,
    host: HostModel,
}

impl Scheduler {
    /// Creates a scheduler for an engine of the given class, validating the
    /// parameters the pricing flow will profile.
    pub fn new(params: ToneMapParams, class: ScheduleClass) -> Result<Self, ParamError> {
        params.validate()?;
        Ok(Scheduler {
            params,
            class,
            host: HostModel::detected(),
        })
    }

    /// Overrides the detected host (deterministic tests, what-if pricing).
    pub fn with_host(mut self, host: HostModel) -> Self {
        self.host = host;
        self
    }

    /// The host model the scheduler plans for.
    pub const fn host(&self) -> &HostModel {
        &self.host
    }

    /// The engine class being scheduled.
    pub const fn class(&self) -> &ScheduleClass {
        &self.class
    }

    /// The tone-mapping parameters the pricing flow profiles.
    pub const fn params(&self) -> &ToneMapParams {
        &self.params
    }

    /// Enumerates and prices every legal point of `plan` at
    /// `width`×`height`, returning the ranked report.
    pub fn schedule(&self, plan: &PipelinePlan, width: usize, height: usize) -> ScheduleReport {
        let space = ScheduleSpace::enumerate(plan, self.class.format, width, height, &self.host);
        let pricer = self.pricer(plan, width, height);
        let mut ranked: Vec<PricedPoint> = space
            .points()
            .iter()
            .map(|&point| pricer.price(&point))
            .collect();
        // Stable: ties keep enumeration order (two-pass, then ascending
        // worker count), so equal-cost points resolve deterministically.
        ranked.sort_by(|a, b| {
            a.predicted_seconds
                .partial_cmp(&b.predicted_seconds)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let winner_cost = ranked[0].predicted_seconds;
        let winner_point = ranked[0].point;
        for (rank, priced) in ranked.iter_mut().enumerate() {
            priced.verdict = if rank == 0 {
                "chosen: lowest predicted platform cost".to_string()
            } else {
                lost_because(
                    &priced.point,
                    &winner_point,
                    priced.predicted_seconds,
                    winner_cost,
                )
            };
        }
        ScheduleReport {
            width,
            height,
            class: self.class,
            decision: space.decision().clone(),
            base: pricer.base,
            ranked,
        }
    }

    /// Prices one point directly — used for `threads=N`-forced points that
    /// profitability pruning would have kept out of the enumerated space.
    pub fn price_point(
        &self,
        plan: &PipelinePlan,
        width: usize,
        height: usize,
        point: &SchedulePoint,
    ) -> PricedPoint {
        let mut priced = self.pricer(plan, width, height).price(point);
        priced.verdict = "forced by the caller".to_string();
        priced
    }

    fn pricer(&self, plan: &PipelinePlan, width: usize, height: usize) -> PointPricer {
        let flow = CoDesignFlow::paper_setup_with_params(self.params, width, height);
        let base = flow.evaluate_plan(plan, self.class.design);
        let movers = DataMoverModel::zc702_default();
        // Colour-managed plans move multi-channel registers between stages:
        // the widened register file multiplies the materialized-plane
        // traffic by its widest layout (1 for scalar plans, 3 for rgb/hsv).
        let plane_bytes =
            (width * height) as u64 * self.class.format.bytes() * plan.max_register_width() as u64;
        // A materialized plane is written once and read once by the next
        // stage; both sides ride the simple DMA mover.
        let plane_traffic_seconds = 2.0
            * movers.total_seconds(&Transfer {
                bytes: plane_bytes,
                mover: DataMover::AxiDmaSimple,
            });
        let halo_rows: usize = plan
            .segmentation()
            .segments
            .iter()
            .map(|segment| segment.latency_rows())
            .sum();
        PointPricer {
            base,
            height,
            pixels: (width * height).max(1) as f64,
            stage_boundaries: plan.ops().len().saturating_sub(1),
            halo_rows,
            plane_traffic_seconds,
        }
    }
}

/// Precomputed quantities for pricing every point of one (plan,
/// resolution) pair.
struct PointPricer {
    base: DesignReport,
    height: usize,
    pixels: f64,
    stage_boundaries: usize,
    halo_rows: usize,
    plane_traffic_seconds: f64,
}

impl PointPricer {
    fn price(&self, point: &SchedulePoint) -> PricedPoint {
        let compute = self.base.total_seconds;
        let height = self.height.max(1);
        let row_seconds = compute / height as f64;
        let predicted_seconds = match point.executor {
            ScheduleExecutor::TwoPass => {
                compute + self.stage_boundaries as f64 * self.plane_traffic_seconds
            }
            ScheduleExecutor::Streaming { barriers, .. } => {
                let threads = point.threads.max(1);
                let base_rows = height / threads;
                let extra = height % threads;
                let jobs: Vec<f64> = (0..threads.min(height))
                    .map(|i| {
                        let rows = base_rows + usize::from(i < extra);
                        // Every slice after the first refills the cascade's
                        // row rings before its first output row.
                        let halo = if i == 0 { 0 } else { self.halo_rows };
                        (rows + halo) as f64 * row_seconds
                    })
                    .collect();
                HostModel::makespan_seconds(&jobs, threads)
                    + barriers as f64 * self.plane_traffic_seconds
            }
        };
        PricedPoint {
            point: *point,
            predicted_seconds,
            predicted_ns_per_pixel: predicted_seconds * 1e9 / self.pixels,
            verdict: String::new(),
        }
    }
}

fn lost_because(
    loser: &SchedulePoint,
    winner: &SchedulePoint,
    loser_cost: f64,
    winner_cost: f64,
) -> String {
    let penalty = if winner_cost > 0.0 {
        (loser_cost / winner_cost - 1.0) * 100.0
    } else {
        0.0
    };
    let reason = match (loser.executor, winner.executor) {
        (ScheduleExecutor::TwoPass, ScheduleExecutor::Streaming { .. }) => {
            "materializes an intermediate plane per stage boundary the stream never writes"
        }
        (ScheduleExecutor::Streaming { .. }, ScheduleExecutor::TwoPass) => {
            "streaming buys nothing here and the two-pass reference is the tie-break"
        }
        (ScheduleExecutor::Streaming { .. }, ScheduleExecutor::Streaming { .. }) => {
            if loser.threads < winner.threads {
                "fewer workers leave rows serialized"
            } else {
                "extra workers only add cascade-refill halo at this height"
            }
        }
        (ScheduleExecutor::TwoPass, ScheduleExecutor::TwoPass) => "duplicate two-pass point",
    };
    format!("+{penalty:.1}% predicted vs winner: {reason}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::SampleFormat;
    use codesign::flow::DesignImplementation;
    use tonemap_core::plan::{PipelineOp, PlanTuning};

    fn scheduler(format: SampleFormat, design: DesignImplementation) -> Scheduler {
        Scheduler::new(
            ToneMapParams::paper_default(),
            ScheduleClass { format, design },
        )
        .expect("paper params valid")
        .with_host(HostModel::with_cores(8))
    }

    fn preset(name: &str) -> PipelinePlan {
        let params = ToneMapParams::paper_default();
        PipelinePlan::preset(name, &params, &PlanTuning::default())
            .expect("default tuning valid")
            .expect("preset resolves")
    }

    #[test]
    fn fused_plan_streams_wide_at_full_resolution() {
        let report = scheduler(SampleFormat::F32, DesignImplementation::SwSourceCode).schedule(
            &preset("basedetail"),
            1024,
            768,
        );
        let winner = report.winner();
        assert!(winner.point.executor.is_streaming(), "{report}");
        assert_eq!(
            winner.point.threads, 8,
            "wide slices amortize at 768 rows: {report}"
        );
        // Ranked ascending, strictly ordered by predicted cost.
        for pair in report.ranked.windows(2) {
            assert!(pair[0].predicted_seconds <= pair[1].predicted_seconds);
        }
        // Every loser carries an explanation naming its penalty.
        for loser in &report.ranked[1..] {
            assert!(loser.verdict.starts_with('+'), "{}", loser.verdict);
        }
        assert!(report
            .winner()
            .verdict
            .contains("lowest predicted platform cost"));
    }

    #[test]
    fn mask_across_a_barrier_plan_gets_streaming_points() {
        let params = ToneMapParams::paper_default();
        let plan = PipelinePlan::new(vec![
            PipelineOp::Normalize,
            PipelineOp::BlurMask {
                blur: params.blur,
                invert_input: false,
            },
            PipelineOp::HistogramEq { bins: 64 },
            PipelineOp::Mask(params.masking),
        ])
        .expect("plan validates");
        let report = scheduler(SampleFormat::F32, DesignImplementation::SwSourceCode)
            .with_host(HostModel::with_cores(8))
            .schedule(&plan, 512, 384);
        assert_eq!(report.decision.barriers().len(), 1);
        assert!(report.ranked.len() > 1, "{report}");
        let stream = report.best_streaming();
        assert_eq!(
            stream.point.executor,
            ScheduleExecutor::Streaming {
                fused: false,
                barriers: 1
            }
        );
        assert!(report.two_pass().predicted_seconds.is_finite());
    }

    #[test]
    fn colour_managed_plans_enumerate_and_price_wider_registers() {
        let sched = scheduler(SampleFormat::F32, DesignImplementation::SwSourceCode);
        // A pure-point colour plan fuses and is schedulable.
        let hsv = preset("hsv-reinhard");
        assert_eq!(hsv.max_register_width(), 3);
        let report = sched.schedule(&hsv, 640, 480);
        assert!(report.decision.is_fused());
        assert!(report.ranked.len() > 1);
        assert!(report
            .ranked
            .iter()
            .all(|p| p.predicted_seconds.is_finite() && p.predicted_seconds > 0.0));
        // The composed wrapper widens the register file: the same scalar
        // plan priced as a colour plan pays 3× the materialized-plane
        // traffic, so two-pass gets strictly more expensive.
        let paper = preset("paper");
        let composed = paper.compose_for_rgb();
        let narrow = sched.schedule(&paper, 640, 480);
        let wide = sched.schedule(&composed, 640, 480);
        let two_pass_cost = |r: &ScheduleReport| {
            r.ranked
                .iter()
                .find(|p| p.point.executor == ScheduleExecutor::TwoPass)
                .expect("two-pass is always enumerated")
                .predicted_seconds
        };
        assert!(
            two_pass_cost(&wide) > two_pass_cost(&narrow),
            "widened registers must price higher plane traffic"
        );
    }

    #[test]
    fn scheduling_is_deterministic() {
        let sched = scheduler(
            SampleFormat::Fix16,
            DesignImplementation::FixedPointConversion,
        );
        let plan = preset("paper");
        let first = sched.schedule(&plan, 1024, 768);
        for _ in 0..3 {
            assert_eq!(sched.schedule(&plan, 1024, 768), first);
        }
    }

    #[test]
    fn ties_prefer_the_two_pass_reference() {
        // Normalize -> HistogramEq: one stage boundary that is also the one
        // stream barrier, so on a single-worker host both executors pay
        // identical compute and traffic and the predicted costs tie
        // exactly (wider hosts break the tie by slicing the stream).
        let plan = PipelinePlan::new(vec![
            PipelineOp::Normalize,
            PipelineOp::HistogramEq { bins: 64 },
        ])
        .expect("plan validates");
        let report = scheduler(SampleFormat::F32, DesignImplementation::SwSourceCode)
            .with_host(HostModel::with_cores(1))
            .schedule(&plan, 1024, 768);
        let winner = report.winner();
        let stream = report.best_streaming();
        assert_eq!(winner.point.executor, ScheduleExecutor::TwoPass);
        assert!((stream.predicted_seconds - winner.predicted_seconds).abs() < 1e-12);
    }

    #[test]
    fn forced_points_price_outside_the_enumerated_space() {
        let sched = scheduler(SampleFormat::F32, DesignImplementation::SwSourceCode);
        let plan = preset("basedetail");
        // 16 workers: beyond the host cap, never enumerated — but a
        // threads=16 spec still gets an honest price.
        let point = SchedulePoint {
            executor: ScheduleExecutor::Streaming {
                fused: true,
                barriers: 0,
            },
            threads: 16,
            format: SampleFormat::F32,
            slice_rows: 48,
        };
        let priced = sched.price_point(&plan, 1024, 768, &point);
        assert!(priced.predicted_seconds.is_finite());
        assert!(priced.predicted_seconds > 0.0);
        assert_eq!(priced.verdict, "forced by the caller");
    }

    #[test]
    fn small_images_keep_a_single_worker() {
        let report = scheduler(SampleFormat::F32, DesignImplementation::SwSourceCode).schedule(
            &preset("basedetail"),
            96,
            72,
        );
        let winner = report.winner();
        assert!(winner.point.executor.is_streaming());
        assert_eq!(
            winner.point.threads, 1,
            "sub-64k-pixel slices are pruned: {report}"
        );
    }

    #[test]
    fn report_displays_every_point() {
        let report = scheduler(SampleFormat::F32, DesignImplementation::SwSourceCode).schedule(
            &preset("basedetail"),
            1024,
            768,
        );
        let rendered = report.to_string();
        assert!(rendered.contains("two-pass"));
        assert!(rendered.contains("fused-stream"));
        assert!(rendered.contains("chosen"));
    }
}

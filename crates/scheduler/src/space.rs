//! Legal-point enumeration: which [`SchedulePoint`]s a plan can run at all.
//!
//! The space is derived from the streaming planner's own verdict
//! ([`StreamingDecision`]), so a point the executor would reject is never
//! enumerated — when a `MaskAcrossBarrier` blocker forces the two-pass
//! fallback, no streaming point exists, rather than existing and being
//! priced badly. Profitability pruning (slices too small to amortize their
//! cascade refill or their dispatch) is applied on top, and is the only
//! part of enumeration that is a heuristic rather than a legality fact.

use tonemap_core::{PipelinePlan, StreamingDecision, StreamingToneMapper, ToneMapParams};

use crate::point::{SampleFormat, SchedulePoint};

/// The host the row slices actually run on: how many workers are worth
/// scheduling, and how a set of slice costs maps to a makespan.
///
/// Its LPT (longest-processing-time-first) greedy model,
/// [`HostModel::makespan_seconds`], is also the one
/// `tonemap_service::ServiceStats::modeled_makespan_seconds` runs, so the
/// scheduler and the service telemetry agree on what "n workers" means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostModel {
    cores: usize,
}

impl HostModel {
    /// Worker counts are capped here even on wider hosts, matching the
    /// streaming engines' own cap in `tonemap-backend`.
    pub const MAX_WORKERS: usize = 8;

    /// Detects the running host: its cores as read once per process
    /// ([`tonemap_core::cores::host_cores`]), capped at
    /// [`HostModel::MAX_WORKERS`].
    pub fn detected() -> Self {
        HostModel {
            cores: tonemap_core::cores::host_cores().min(Self::MAX_WORKERS),
        }
    }

    /// A fixed-width host, for deterministic tests and what-if pricing.
    pub fn with_cores(cores: usize) -> Self {
        HostModel {
            cores: cores.max(1),
        }
    }

    /// Workers the scheduler may plan for.
    pub const fn cores(&self) -> usize {
        self.cores
    }

    /// The completion bound a deadline-admission controller prices a new
    /// job against: with `backlog_jobs` jobs of mean cost
    /// `mean_service_seconds` already runnable ahead of the newcomer,
    /// `workers` workers drain them in FIFO rounds, so the newcomer
    /// finishes after `ceil((backlog_jobs + 1) / workers)` rounds — the
    /// LPT makespan specialised to equal-cost jobs, which is all the
    /// admission path knows before the job has run.
    ///
    /// `tonemap-service` uses this to refuse jobs whose deadline the host
    /// model predicts cannot be met ("shed at admission, not at dequeue").
    pub fn admission_completion_seconds(
        &self,
        mean_service_seconds: f64,
        backlog_jobs: usize,
        workers: usize,
    ) -> f64 {
        let workers = workers.max(1);
        // ceil((backlog + 1) / workers) without floats.
        let rounds = (backlog_jobs + workers) / workers;
        rounds as f64 * mean_service_seconds
    }

    /// LPT greedy makespan of the given job costs on `workers` workers —
    /// sort descending, always assign to the least-loaded worker. Returns
    /// `0.0` for no jobs.
    pub fn makespan_seconds(jobs: &[f64], workers: usize) -> f64 {
        let workers = workers.max(1);
        let mut jobs = jobs.to_vec();
        jobs.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
        let mut loads = vec![0.0f64; workers];
        for job in jobs {
            let least = loads
                .iter_mut()
                .min_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
                .expect("workers >= 1");
            *least += job;
        }
        loads.iter().fold(0.0f64, |acc, &l| acc.max(l))
    }
}

impl Default for HostModel {
    fn default() -> Self {
        HostModel::detected()
    }
}

/// The legal (and profitable) schedule points of one plan at one
/// resolution.
#[derive(Debug, Clone)]
pub struct ScheduleSpace {
    points: Vec<SchedulePoint>,
    decision: StreamingDecision,
}

impl ScheduleSpace {
    /// Worker counts tried for the streaming executor, before the host cap
    /// and the slice-profitability prunes.
    pub const THREAD_CANDIDATES: [usize; 4] = [1, 2, 4, 8];

    /// A worker slice below this many pixels cannot amortize its dispatch
    /// (thread spawn plus cascade refill), so multi-worker points are
    /// pruned rather than priced. 64k pixels ≈ a 256×256 tile.
    pub const MIN_SLICE_PIXELS: usize = 64 * 1024;

    /// Enumerates every legal point of `plan` at `width`×`height` for an
    /// engine whose quality floor is `format`.
    ///
    /// Legality comes from the streaming planner itself: the plan is probed
    /// through [`StreamingToneMapper::compile`] (fusion legality is
    /// sample-type-independent, so the `f32` probe speaks for both
    /// formats). The two-pass point always exists; streaming points exist
    /// only when the planner does not fall back, one per candidate worker
    /// count that survives the host cap and the slice prunes:
    ///
    /// * a slice must hold at least [`ScheduleSpace::MIN_SLICE_PIXELS`]
    ///   pixels, and
    /// * a slice must be taller than the cascade's total refill depth
    ///   (every slice after the first re-fills each segment's row rings —
    ///   [`tonemap_core::plan::PlanSegment::latency_rows`] rows of halo).
    ///
    /// `threads == 1` is never pruned, so a streamable plan always has at
    /// least one streaming point.
    pub fn enumerate(
        plan: &PipelinePlan,
        params: &ToneMapParams,
        format: SampleFormat,
        width: usize,
        height: usize,
        host: &HostModel,
    ) -> Self {
        let decision = match StreamingToneMapper::<f32>::compile(plan.clone(), *params) {
            Ok(probe) => probe.decision(),
            // Invalid params cannot execute through either planner; report
            // the smallest truthful space (the two-pass point) rather than
            // panicking — resolution layers validate params long before
            // scheduling.
            Err(_) => {
                return ScheduleSpace {
                    points: vec![SchedulePoint::two_pass(format, height)],
                    decision: StreamingDecision::Fallback { reasons: vec![] },
                };
            }
        };

        let mut points = vec![SchedulePoint::two_pass(format, height)];
        if decision.is_streamed() {
            let halo_rows: usize = plan
                .segmentation()
                .segments
                .iter()
                .map(|segment| segment.latency_rows())
                .sum();
            for threads in Self::THREAD_CANDIDATES {
                if threads > host.cores() {
                    continue;
                }
                let point = SchedulePoint::streaming(&decision, threads, format, height);
                if threads > 1
                    && (point.slice_rows * width < Self::MIN_SLICE_PIXELS
                        || point.slice_rows <= halo_rows)
                {
                    continue;
                }
                points.push(point);
            }
        }
        ScheduleSpace { points, decision }
    }

    /// The enumerated points, two-pass first, then streaming by ascending
    /// worker count.
    pub fn points(&self) -> &[SchedulePoint] {
        &self.points
    }

    /// The streaming planner's verdict the space was derived from.
    pub fn decision(&self) -> &StreamingDecision {
        &self.decision
    }

    /// Number of enumerated points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Never true: the two-pass point always exists.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::ScheduleExecutor;
    use tonemap_core::plan::{PipelineOp, PlanTuning};

    fn params() -> ToneMapParams {
        ToneMapParams::paper_default()
    }

    fn preset(name: &str) -> PipelinePlan {
        PipelinePlan::preset(name, &params(), &PlanTuning::default())
            .expect("default tuning valid")
            .expect("preset resolves")
    }

    #[test]
    fn fused_plan_enumerates_two_pass_plus_streaming_ladder() {
        let plan = preset("basedetail");
        let space = ScheduleSpace::enumerate(
            &plan,
            &params(),
            SampleFormat::F32,
            1024,
            768,
            &HostModel::with_cores(8),
        );
        assert!(space.decision().is_fused());
        let points = space.points();
        assert_eq!(points[0].executor, ScheduleExecutor::TwoPass);
        let streaming: Vec<usize> = points
            .iter()
            .filter(|p| p.executor.is_streaming())
            .map(|p| p.threads)
            .collect();
        assert_eq!(streaming, vec![1, 2, 4, 8], "full ladder at 1024x768");
        for pair in points.windows(2) {
            assert_ne!(pair[0], pair[1]);
        }
    }

    #[test]
    fn host_cap_trims_the_thread_ladder() {
        let plan = preset("basedetail");
        let space = ScheduleSpace::enumerate(
            &plan,
            &params(),
            SampleFormat::F32,
            1024,
            768,
            &HostModel::with_cores(2),
        );
        let max_threads = space
            .points()
            .iter()
            .map(|p| p.threads)
            .max()
            .expect("non-empty");
        assert_eq!(max_threads, 2);
    }

    #[test]
    fn tiny_images_keep_only_single_worker_streaming() {
        let plan = preset("basedetail");
        let space = ScheduleSpace::enumerate(
            &plan,
            &params(),
            SampleFormat::F32,
            96,
            72,
            &HostModel::with_cores(8),
        );
        let streaming: Vec<usize> = space
            .points()
            .iter()
            .filter(|p| p.executor.is_streaming())
            .map(|p| p.threads)
            .collect();
        assert_eq!(
            streaming,
            vec![1],
            "multi-worker slices cannot amortize at 96x72"
        );
    }

    #[test]
    fn fallback_plan_enumerates_no_streaming_point() {
        // A blurred mask consumed after a histogram-eq barrier: the one
        // remaining fusion blocker.
        let p = params();
        let plan = PipelinePlan::new(vec![
            PipelineOp::Normalize,
            PipelineOp::BlurMask {
                blur: p.blur,
                invert_input: false,
            },
            PipelineOp::HistogramEq { bins: 64 },
            PipelineOp::Mask(p.masking),
        ])
        .expect("plan validates");
        let space = ScheduleSpace::enumerate(
            &plan,
            &p,
            SampleFormat::F32,
            1024,
            768,
            &HostModel::with_cores(8),
        );
        assert!(!space.decision().is_streamed());
        assert!(!space.decision().reasons().is_empty());
        assert_eq!(space.len(), 1);
        assert_eq!(space.points()[0].executor, ScheduleExecutor::TwoPass);
    }

    #[test]
    fn segmented_plan_reports_its_barriers() {
        let plan = preset("histeq");
        let space = ScheduleSpace::enumerate(
            &plan,
            &params(),
            SampleFormat::F32,
            1024,
            768,
            &HostModel::with_cores(8),
        );
        assert!(space.decision().is_streamed());
        let streaming = space
            .points()
            .iter()
            .find(|p| p.executor.is_streaming())
            .expect("streamable plan has a streaming point");
        match streaming.executor {
            ScheduleExecutor::Streaming { fused, barriers } => {
                assert_eq!(fused, space.decision().is_fused());
                assert_eq!(barriers, space.decision().barriers().len());
            }
            ScheduleExecutor::TwoPass => unreachable!(),
        }
    }

    #[test]
    fn lpt_makespan_matches_hand_schedule() {
        // LPT on 2 workers: 5 | 4+3 -> makespan 7.
        let makespan = HostModel::makespan_seconds(&[3.0, 5.0, 4.0], 2);
        assert!((makespan - 7.0).abs() < 1e-12);
        assert_eq!(HostModel::makespan_seconds(&[], 4), 0.0);
    }

    #[test]
    fn admission_completion_is_the_equal_cost_lpt_bound() {
        let host = HostModel::with_cores(8);
        // Empty queue: one round regardless of worker count.
        assert!((host.admission_completion_seconds(0.5, 0, 4) - 0.5).abs() < 1e-12);
        // 7 ahead + the newcomer on 4 workers: 2 rounds.
        assert!((host.admission_completion_seconds(0.5, 7, 4) - 1.0).abs() < 1e-12);
        // 8 ahead + the newcomer on 4 workers: 3 rounds.
        assert!((host.admission_completion_seconds(0.5, 8, 4) - 1.5).abs() < 1e-12);
        // Single worker: strictly FIFO — every backlog job runs first.
        assert!((host.admission_completion_seconds(2.0, 3, 1) - 8.0).abs() < 1e-12);
        // Zero workers clamp to one rather than dividing by zero.
        assert!((host.admission_completion_seconds(1.0, 2, 0) - 3.0).abs() < 1e-12);
    }
}

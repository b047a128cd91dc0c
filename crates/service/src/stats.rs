//! Aggregate service telemetry, including the multi-core host model.
//!
//! The reproduction's whole method is to model hardware it does not have:
//! the Zynq PS/PL costs behind Tables I and II are analytic predictions
//! calibrated against measured operation counts. [`ServiceStats`] extends
//! that idea to the *host* side of the co-design: every job's measured
//! service time is recorded, and [`ServiceStats::modeled_makespan_seconds`]
//! schedules those measured times onto `n` model workers (greedy
//! longest-processing-time assignment) to predict what a multi-core host
//! would achieve — so batch throughput can be evaluated at worker counts
//! the machine running the bench may not physically have, exactly as the
//! PL speed-ups are evaluated without an FPGA.

use crate::hist::LatencyHistogram;
use crate::pool::Priority;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;
use tonemap_scheduler::HostModel;

/// How many recent per-job service times are retained for the host model.
/// Bounded so a long-lived service does not grow without limit (aggregate
/// counters cover the full lifetime); 4096 samples is plenty for a stable
/// LPT schedule and keeps every snapshot clone small.
pub const JOB_SAMPLE_CAP: usize = 4096;

/// How one engine was used by the service, for the per-engine utilisation
/// split of [`ServiceStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct EngineUtilisation {
    /// Registry name of the engine.
    pub engine: &'static str,
    /// Jobs this engine completed.
    pub jobs: u64,
    /// Total busy time this engine accounted for, in seconds.
    pub busy_seconds: f64,
    /// This engine's share of the service's total busy time, in `[0, 1]`
    /// (zero when the service has done no work yet).
    pub share: f64,
    /// Jobs that ran through a `schedule=`-resolved engine.
    pub scheduled_jobs: u64,
    /// The most recently resolved schedule point (human description), when
    /// this engine's jobs were scheduler-resolved.
    pub schedule: Option<String>,
    /// Sum of the scheduler's predicted costs (modeled platform seconds)
    /// over the scheduled jobs that carried a prediction.
    pub predicted_seconds: f64,
    /// How many scheduled jobs carried a prediction (jobs submitted without
    /// telemetry record the schedule, not the price).
    pub predicted_jobs: u64,
    /// Measured busy seconds of exactly those predicted jobs, so the cost
    /// model's prediction and the measurement cover the same job set.
    pub predicted_busy_seconds: f64,
}

impl EngineUtilisation {
    /// Mean predicted vs mean measured seconds of this engine's scheduled
    /// jobs — `(predicted, measured)` — or `None` when no scheduled job
    /// carried a prediction. Predictions are *modeled platform seconds* (a
    /// Zynq, not this host): compare trends and rankings, not absolutes.
    pub fn predicted_vs_measured(&self) -> Option<(f64, f64)> {
        (self.predicted_jobs > 0).then(|| {
            let n = self.predicted_jobs as f64;
            (self.predicted_seconds / n, self.predicted_busy_seconds / n)
        })
    }
}

/// One completed job's schedule resolution, as reported to the stats by the
/// service worker.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ScheduleSample {
    /// Human description of the resolved point.
    pub description: String,
    /// The scheduler's predicted cost in modeled platform seconds, when the
    /// job's response carried schedule telemetry.
    pub predicted_seconds: Option<f64>,
}

/// A point-in-time snapshot of a [`crate::TonemapService`]'s counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStats {
    /// Worker threads serving the queue.
    pub workers: usize,
    /// Shards the queue is split across (== workers unless configured
    /// otherwise).
    pub shards: usize,
    /// Capacity of the bounded submission queue.
    pub queue_capacity: usize,
    /// Jobs admitted into the queue.
    pub submitted: u64,
    /// Jobs refused at admission because the queue was full.
    pub rejected: u64,
    /// Jobs refused by deadline admission control: the host model
    /// predicted they could not finish inside their budget, so they were
    /// shed at the door instead of queued. Not counted in `submitted`.
    pub shed: u64,
    /// Jobs that completed successfully.
    pub completed: u64,
    /// Jobs that executed and failed with a typed error.
    pub failed: u64,
    /// Jobs cancelled at dequeue because their deadline had already
    /// passed; the submitter saw
    /// [`tonemap_backend::TonemapError::DeadlineExceeded`].
    pub expired: u64,
    /// Jobs whose task unwound before reporting an outcome (the waiter saw
    /// [`crate::ServiceError::Lost`]); kept so
    /// `completed + failed + expired + lost` reconciles with `started`
    /// forever.
    pub lost: u64,
    /// Video frames completed through open streams
    /// ([`crate::TonemapService::open_stream`]). Deliberately *not*
    /// counted in [`ServiceStats::completed`]: a 100-frame stream is one
    /// workload, not 100 jobs, so frames/sec and jobs/sec stay separately
    /// meaningful.
    pub frames_completed: u64,
    /// Video streams currently open (handles not yet dropped).
    pub streams_active: u64,
    /// Jobs submitted but not yet picked up by a worker. Submissions are
    /// counted optimistically (before enqueueing, so a snapshot never
    /// shows `completed > submitted`), which means submitters currently
    /// *blocked* in [`crate::TonemapService::submit`] are included — under
    /// heavy backpressure this can transiently exceed
    /// [`ServiceStats::queue_capacity`].
    pub queue_depth: u64,
    /// Jobs currently executing on a worker.
    pub in_flight: u64,
    /// Seconds since the first submission was admitted into the queue
    /// (zero while the service has never held a job). Anchoring the clock
    /// at first admission rather than construction keeps idle warm-up
    /// time — a service brought up ahead of traffic — from deflating
    /// [`ServiceStats::throughput_jobs_per_sec`] and
    /// [`ServiceStats::utilisation`].
    pub elapsed_seconds: f64,
    /// Total worker busy time across all jobs, in seconds.
    pub busy_seconds: f64,
    /// Measured service times of recently completed jobs, in seconds —
    /// the input to the multi-core host model. Bounded to the most recent
    /// [`JOB_SAMPLE_CAP`] jobs so a long-lived service's snapshot stays
    /// cheap; the aggregate counters above cover the full lifetime.
    pub job_seconds: Vec<f64>,
    /// Measured service times of recently completed *interactive* jobs,
    /// bounded like [`ServiceStats::job_seconds`] — the per-class input to
    /// [`ServiceStats::modeled_class_makespan_seconds`].
    pub interactive_seconds: Vec<f64>,
    /// Measured service times of recently completed *batch* jobs, bounded
    /// like [`ServiceStats::job_seconds`].
    pub batch_seconds: Vec<f64>,
    /// End-to-end latency (admission to completion) histogram of
    /// interactive jobs.
    pub latency_interactive: LatencyHistogram,
    /// End-to-end latency (admission to completion) histogram of batch
    /// jobs.
    pub latency_batch: LatencyHistogram,
    /// Dequeues served from a shard other than the popping worker's own.
    pub steals: u64,
    /// Busy time and job count split per engine, in registry-name order.
    pub per_engine: Vec<EngineUtilisation>,
}

impl ServiceStats {
    /// Measured throughput: completed jobs per elapsed wall-clock second.
    pub fn throughput_jobs_per_sec(&self) -> f64 {
        if self.elapsed_seconds > 0.0 {
            self.completed as f64 / self.elapsed_seconds
        } else {
            0.0
        }
    }

    /// Fraction of the pool's capacity that was busy: total busy time over
    /// `elapsed * workers`, in `[0, 1]` under normal operation.
    pub fn utilisation(&self) -> f64 {
        let available = self.elapsed_seconds * self.workers as f64;
        if available > 0.0 {
            self.busy_seconds / available
        } else {
            0.0
        }
    }

    /// The modeled makespan of the recorded jobs on `workers` model
    /// workers: measured per-job service times, scheduled greedily
    /// longest-first onto the least-loaded worker (the classic LPT bound).
    ///
    /// This is the host-side analogue of the platform model's Table II
    /// predictions — it answers "what would this job set take on an
    /// `n`-core host?" from measurements taken on whatever machine ran the
    /// jobs. Returns `0.0` when no job has completed.
    pub fn modeled_makespan_seconds(&self, workers: usize) -> f64 {
        HostModel::makespan_seconds(&self.job_seconds, workers)
    }

    /// The latency histogram of one priority class.
    pub fn latency(&self, priority: Priority) -> &LatencyHistogram {
        match priority {
            Priority::Interactive => &self.latency_interactive,
            Priority::Batch => &self.latency_batch,
        }
    }

    /// The retained service-time samples of one priority class.
    pub fn class_seconds(&self, priority: Priority) -> &[f64] {
        match priority {
            Priority::Interactive => &self.interactive_seconds,
            Priority::Batch => &self.batch_seconds,
        }
    }

    /// [`ServiceStats::modeled_makespan_seconds`], restricted to one
    /// priority class's recorded jobs — what the class's job set alone
    /// would take on `workers` model workers.
    pub fn modeled_class_makespan_seconds(&self, priority: Priority, workers: usize) -> f64 {
        HostModel::makespan_seconds(self.class_seconds(priority), workers)
    }

    /// Modeled throughput (jobs per second) of one class's recorded job
    /// set on `workers` model workers. Returns `0.0` when the class has no
    /// completed job.
    pub fn modeled_class_throughput(&self, priority: Priority, workers: usize) -> f64 {
        let samples = self.class_seconds(priority);
        let makespan = HostModel::makespan_seconds(samples, workers);
        if makespan > 0.0 {
            samples.len() as f64 / makespan
        } else {
            0.0
        }
    }

    /// Modeled throughput (jobs per second) of the recorded job set on
    /// `workers` model workers. Returns `0.0` when no job has completed.
    pub fn modeled_throughput(&self, workers: usize) -> f64 {
        let makespan = self.modeled_makespan_seconds(workers);
        if makespan > 0.0 {
            self.job_seconds.len() as f64 / makespan
        } else {
            0.0
        }
    }

    /// Modeled batch speed-up of `workers` model workers over a single
    /// worker — the service-layer counterpart of the paper's accelerated-
    /// function speed-ups. Returns `1.0` when no job has completed.
    pub fn modeled_speedup(&self, workers: usize) -> f64 {
        let single = self.modeled_makespan_seconds(1);
        let many = self.modeled_makespan_seconds(workers);
        if single > 0.0 && many > 0.0 {
            single / many
        } else {
            1.0
        }
    }
}

/// Live counters shared between the service handle and its workers.
#[derive(Debug)]
pub(crate) struct StatsInner {
    /// Set once, by the first submission the pool actually admitted — the
    /// anchor of [`ServiceStats::elapsed_seconds`]. Refused submissions
    /// (queue full, shut down) do not start the clock.
    first_admission: OnceLock<Instant>,
    submitted: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    started: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    expired: AtomicU64,
    lost: AtomicU64,
    frames_completed: AtomicU64,
    streams_active: AtomicU64,
    engines: Mutex<BTreeMap<&'static str, EngineAccumulator>>,
    job_seconds: Mutex<VecDeque<f64>>,
    classes: Mutex<ClassAccumulators>,
    admission: Mutex<AdmissionState>,
}

/// Per-priority-class rolling state: the latency histogram and the bounded
/// service-time window feeding the per-class host model.
#[derive(Debug, Default)]
struct ClassAccumulator {
    latency: LatencyHistogram,
    service_seconds: VecDeque<f64>,
}

impl ClassAccumulator {
    fn record(&mut self, service_seconds: f64, latency_seconds: f64) {
        self.latency.record(latency_seconds);
        if self.service_seconds.len() == JOB_SAMPLE_CAP {
            self.service_seconds.pop_front();
        }
        self.service_seconds.push_back(service_seconds);
    }
}

#[derive(Debug, Default)]
struct ClassAccumulators {
    interactive: ClassAccumulator,
    batch: ClassAccumulator,
}

impl ClassAccumulators {
    fn class(&mut self, priority: Priority) -> &mut ClassAccumulator {
        match priority {
            Priority::Interactive => &mut self.interactive,
            Priority::Batch => &mut self.batch,
        }
    }
}

/// The mean-service-time estimate behind deadline admission control:
/// either an explicit calibration (deterministic tests, deployments with a
/// known workload) or the measured lifetime mean.
#[derive(Debug, Default)]
struct AdmissionState {
    calibrated_mean_seconds: Option<f64>,
    measured_sum_seconds: f64,
    measured_jobs: u64,
}

/// Per-engine rolling counters behind [`StatsInner::engines`].
#[derive(Debug, Clone, Default)]
struct EngineAccumulator {
    jobs: u64,
    busy_seconds: f64,
    scheduled_jobs: u64,
    schedule: Option<String>,
    predicted_seconds: f64,
    predicted_jobs: u64,
    predicted_busy_seconds: f64,
}

impl StatsInner {
    pub(crate) fn new() -> Self {
        StatsInner {
            first_admission: OnceLock::new(),
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            started: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            lost: AtomicU64::new(0),
            frames_completed: AtomicU64::new(0),
            streams_active: AtomicU64::new(0),
            engines: Mutex::new(BTreeMap::new()),
            job_seconds: Mutex::new(VecDeque::new()),
            classes: Mutex::new(ClassAccumulators::default()),
            admission: Mutex::new(AdmissionState::default()),
        }
    }

    pub(crate) fn record_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::SeqCst);
    }

    /// Starts the service clock on the first submission the pool admitted
    /// (idempotent). Called after a successful enqueue, so a refused
    /// submission — which [`StatsInner::record_not_admitted`] also revokes
    /// from the counters — cannot leave the clock running on a service
    /// that has never held a job.
    pub(crate) fn record_admitted(&self) {
        self.first_admission.get_or_init(Instant::now);
    }

    pub(crate) fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::SeqCst);
    }

    pub(crate) fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::SeqCst);
    }

    /// A worker dequeued a job whose deadline had already passed and
    /// cancelled it. Counted against `started` like an execution, so the
    /// queue-depth and in-flight arithmetic stays exact.
    pub(crate) fn record_expired(&self) {
        self.expired.fetch_add(1, Ordering::SeqCst);
    }

    /// Pins the admission model's mean service time, overriding the
    /// measured mean.
    pub(crate) fn calibrate_admission(&self, mean_seconds: f64) {
        self.admission
            .lock()
            .expect("admission state poisoned")
            .calibrated_mean_seconds = Some(mean_seconds.max(0.0));
    }

    /// The admission model's mean service time: the calibrated value if
    /// one was pinned, else the measured lifetime mean, else `None` (no
    /// evidence yet — admit everything).
    pub(crate) fn admission_mean_seconds(&self) -> Option<f64> {
        let admission = self.admission.lock().expect("admission state poisoned");
        admission.calibrated_mean_seconds.or_else(|| {
            (admission.measured_jobs > 0)
                .then(|| admission.measured_sum_seconds / admission.measured_jobs as f64)
        })
    }

    /// Revokes a [`StatsInner::record_submitted`] for a job the pool
    /// refused: submissions are counted optimistically *before* the
    /// enqueue, so a worker finishing the job early can never make a
    /// snapshot show `completed > submitted`.
    pub(crate) fn record_not_admitted(&self) {
        self.submitted.fetch_sub(1, Ordering::SeqCst);
    }

    pub(crate) fn record_lost(&self) {
        self.lost.fetch_add(1, Ordering::SeqCst);
    }

    /// A video frame finished processing through an open stream. Frames
    /// ride the same pool as jobs but are accounted separately, so
    /// frames/sec never masquerades as jobs/sec. Also anchors the service
    /// clock: a service serving only streams still reports elapsed time.
    pub(crate) fn record_frame_completed(&self) {
        self.first_admission.get_or_init(Instant::now);
        self.frames_completed.fetch_add(1, Ordering::SeqCst);
    }

    /// A video stream was opened ([`crate::TonemapService::open_stream`]).
    pub(crate) fn record_stream_opened(&self) {
        self.streams_active.fetch_add(1, Ordering::SeqCst);
    }

    /// A video stream's handle was dropped.
    pub(crate) fn record_stream_closed(&self) {
        self.streams_active.fetch_sub(1, Ordering::SeqCst);
    }

    pub(crate) fn record_started(&self) {
        // A worker can dequeue and even finish a job before the submitter
        // resumes and calls `record_admitted`; anchoring here too closes
        // that window, so a snapshot can never observe completed work with
        // a stopped clock.
        self.first_admission.get_or_init(Instant::now);
        self.started.fetch_add(1, Ordering::SeqCst);
    }

    pub(crate) fn record_completed(
        &self,
        engine: &'static str,
        busy_seconds: f64,
        schedule: Option<ScheduleSample>,
        priority: Priority,
        latency_seconds: f64,
    ) {
        self.completed.fetch_add(1, Ordering::SeqCst);
        self.classes
            .lock()
            .expect("class stats poisoned")
            .class(priority)
            .record(busy_seconds, latency_seconds);
        {
            let mut admission = self.admission.lock().expect("admission state poisoned");
            admission.measured_sum_seconds += busy_seconds;
            admission.measured_jobs += 1;
        }
        let mut engines = self.engines.lock().expect("engine stats poisoned");
        let entry = engines.entry(engine).or_default();
        entry.jobs += 1;
        entry.busy_seconds += busy_seconds;
        if let Some(sample) = schedule {
            entry.scheduled_jobs += 1;
            if let Some(predicted) = sample.predicted_seconds {
                entry.predicted_jobs += 1;
                entry.predicted_seconds += predicted;
                entry.predicted_busy_seconds += busy_seconds;
            }
            entry.schedule = Some(sample.description);
        }
        drop(engines);
        let mut job_seconds = self.job_seconds.lock().expect("job timings poisoned");
        if job_seconds.len() == JOB_SAMPLE_CAP {
            job_seconds.pop_front();
        }
        job_seconds.push_back(busy_seconds);
    }

    pub(crate) fn record_failed(&self) {
        self.failed.fetch_add(1, Ordering::SeqCst);
    }

    pub(crate) fn snapshot(&self, shape: SnapshotShape) -> ServiceStats {
        let submitted = self.submitted.load(Ordering::SeqCst);
        let rejected = self.rejected.load(Ordering::SeqCst);
        let shed = self.shed.load(Ordering::SeqCst);
        let started = self.started.load(Ordering::SeqCst);
        let completed = self.completed.load(Ordering::SeqCst);
        let failed = self.failed.load(Ordering::SeqCst);
        let expired = self.expired.load(Ordering::SeqCst);
        let lost = self.lost.load(Ordering::SeqCst);
        let frames_completed = self.frames_completed.load(Ordering::SeqCst);
        let streams_active = self.streams_active.load(Ordering::SeqCst);
        let (latency_interactive, latency_batch, interactive_seconds, batch_seconds) = {
            let classes = self.classes.lock().expect("class stats poisoned");
            (
                classes.interactive.latency,
                classes.batch.latency,
                classes
                    .interactive
                    .service_seconds
                    .iter()
                    .copied()
                    .collect(),
                classes.batch.service_seconds.iter().copied().collect(),
            )
        };
        let engines = self.engines.lock().expect("engine stats poisoned").clone();
        let job_seconds = self
            .job_seconds
            .lock()
            .expect("job timings poisoned")
            .iter()
            .copied()
            .collect();
        let busy_seconds: f64 = engines.values().map(|e| e.busy_seconds).sum();
        let per_engine = engines
            .into_iter()
            .map(|(engine, acc)| EngineUtilisation {
                engine,
                jobs: acc.jobs,
                busy_seconds: acc.busy_seconds,
                share: if busy_seconds > 0.0 {
                    acc.busy_seconds / busy_seconds
                } else {
                    0.0
                },
                scheduled_jobs: acc.scheduled_jobs,
                schedule: acc.schedule,
                predicted_seconds: acc.predicted_seconds,
                predicted_jobs: acc.predicted_jobs,
                predicted_busy_seconds: acc.predicted_busy_seconds,
            })
            .collect();
        ServiceStats {
            workers: shape.workers,
            shards: shape.shards,
            queue_capacity: shape.queue_capacity,
            submitted,
            rejected,
            shed,
            completed,
            failed,
            expired,
            lost,
            frames_completed,
            streams_active,
            queue_depth: submitted.saturating_sub(started),
            in_flight: started.saturating_sub(completed + failed + expired + lost),
            elapsed_seconds: self
                .first_admission
                .get()
                .map(|t| t.elapsed().as_secs_f64())
                .unwrap_or(0.0),
            busy_seconds,
            job_seconds,
            interactive_seconds,
            batch_seconds,
            latency_interactive,
            latency_batch,
            steals: shape.steals,
            per_engine,
        }
    }
}

/// The pool-shape inputs a snapshot cannot derive from the counters:
/// passed in by the service, which owns the pool.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SnapshotShape {
    pub workers: usize,
    pub shards: usize,
    pub queue_capacity: usize,
    pub steals: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with_jobs(job_seconds: Vec<f64>) -> ServiceStats {
        ServiceStats {
            workers: 1,
            shards: 1,
            queue_capacity: 1,
            submitted: job_seconds.len() as u64,
            rejected: 0,
            shed: 0,
            completed: job_seconds.len() as u64,
            failed: 0,
            expired: 0,
            lost: 0,
            frames_completed: 0,
            streams_active: 0,
            queue_depth: 0,
            in_flight: 0,
            elapsed_seconds: job_seconds.iter().sum(),
            busy_seconds: job_seconds.iter().sum(),
            interactive_seconds: Vec::new(),
            batch_seconds: job_seconds.clone(),
            latency_interactive: LatencyHistogram::new(),
            latency_batch: LatencyHistogram::new(),
            steals: 0,
            job_seconds,
            per_engine: Vec::new(),
        }
    }

    fn shape(workers: usize, queue_capacity: usize) -> SnapshotShape {
        SnapshotShape {
            workers,
            shards: workers,
            queue_capacity,
            steals: 0,
        }
    }

    #[test]
    fn lpt_schedule_of_identical_jobs_divides_evenly() {
        let stats = stats_with_jobs(vec![1.0; 24]);
        assert!((stats.modeled_makespan_seconds(1) - 24.0).abs() < 1e-12);
        assert!((stats.modeled_makespan_seconds(8) - 3.0).abs() < 1e-12);
        assert!((stats.modeled_speedup(8) - 8.0).abs() < 1e-9);
        assert!((stats.modeled_throughput(8) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn lpt_schedule_is_bounded_by_the_longest_job() {
        let stats = stats_with_jobs(vec![10.0, 1.0, 1.0, 1.0]);
        // One job dominates: adding workers cannot beat its length.
        assert!((stats.modeled_makespan_seconds(4) - 10.0).abs() < 1e-12);
        assert!(stats.modeled_speedup(4) < 2.0);
    }

    #[test]
    fn empty_stats_are_well_defined() {
        let stats = stats_with_jobs(Vec::new());
        assert_eq!(stats.modeled_makespan_seconds(8), 0.0);
        assert_eq!(stats.modeled_throughput(8), 0.0);
        assert_eq!(stats.modeled_speedup(8), 1.0);
        assert_eq!(stats.utilisation(), 0.0);
        assert_eq!(stats.throughput_jobs_per_sec(), 0.0);
    }

    #[test]
    fn lost_jobs_and_refused_admissions_keep_counters_reconciled() {
        let inner = StatsInner::new();
        // A submission the pool refused: optimistically counted, revoked.
        inner.record_submitted();
        inner.record_not_admitted();
        inner.record_rejected();
        // A job whose task unwound before reporting.
        inner.record_submitted();
        inner.record_started();
        inner.record_lost();
        let stats = inner.snapshot(shape(1, 1));
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.lost, 1);
        assert_eq!(
            stats.in_flight, 0,
            "a lost job must not look in-flight forever"
        );
        assert_eq!(stats.queue_depth, 0);
    }

    #[test]
    fn throughput_clock_is_anchored_at_first_admission_not_construction() {
        // Regression: the clock used to start at service construction, so a
        // service idling before its first job reported deflated throughput
        // and utilisation.
        let inner = StatsInner::new();
        let idle = std::time::Duration::from_millis(200);
        std::thread::sleep(idle);
        let before_traffic = inner.snapshot(shape(1, 1));
        assert_eq!(
            before_traffic.elapsed_seconds, 0.0,
            "no submission yet: the clock must not be running"
        );
        // A submission the pool refused must not start the clock either.
        inner.record_submitted();
        inner.record_not_admitted();
        inner.record_rejected();
        assert_eq!(inner.snapshot(shape(1, 1)).elapsed_seconds, 0.0);
        inner.record_submitted();
        inner.record_admitted();
        inner.record_started();
        inner.record_completed("sw-f32", 0.001, None, Priority::Batch, 0.002);
        let stats = inner.snapshot(shape(1, 1));
        assert!(
            stats.elapsed_seconds < idle.as_secs_f64() / 2.0,
            "elapsed {}s still includes the {}s idle gap",
            stats.elapsed_seconds,
            idle.as_secs_f64()
        );
        assert!(
            stats.throughput_jobs_per_sec() > 1.0 / (idle.as_secs_f64() / 2.0),
            "throughput {} jobs/s was deflated by pre-traffic idle time",
            stats.throughput_jobs_per_sec()
        );
    }

    #[test]
    fn job_timings_are_bounded_to_the_sample_cap() {
        let inner = StatsInner::new();
        for i in 0..(JOB_SAMPLE_CAP + 10) {
            inner.record_completed("sw-f32", i as f64, None, Priority::Batch, i as f64);
        }
        let stats = inner.snapshot(shape(1, 1));
        assert_eq!(stats.completed as usize, JOB_SAMPLE_CAP + 10);
        assert_eq!(stats.job_seconds.len(), JOB_SAMPLE_CAP);
        // The retained window is the most recent samples.
        assert_eq!(stats.job_seconds[0], 10.0);
        assert_eq!(
            *stats.job_seconds.last().unwrap(),
            (JOB_SAMPLE_CAP + 9) as f64
        );
    }

    #[test]
    fn inner_counters_roll_up_per_engine() {
        let inner = StatsInner::new();
        inner.record_submitted();
        inner.record_submitted();
        inner.record_started();
        inner.record_started();
        inner.record_completed("sw-f32", 0.25, None, Priority::Batch, 0.3);
        inner.record_completed(
            "hw-fix16",
            0.75,
            Some(ScheduleSample {
                description: "fused-stream x1 thread, 32-row slices, fix16 (schedule=auto)".into(),
                predicted_seconds: Some(0.5),
            }),
            Priority::Interactive,
            0.8,
        );
        let stats = inner.snapshot(shape(2, 8));
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.in_flight, 0);
        assert!((stats.busy_seconds - 1.0).abs() < 1e-12);
        assert_eq!(stats.per_engine.len(), 2);
        let hw = stats
            .per_engine
            .iter()
            .find(|e| e.engine == "hw-fix16")
            .unwrap();
        assert_eq!(hw.jobs, 1);
        assert!((hw.share - 0.75).abs() < 1e-12);
        // The scheduled job's resolution and its predicted-vs-measured pair
        // surface on the engine row; the unscheduled engine stays clean.
        assert_eq!(hw.scheduled_jobs, 1);
        assert!(hw.schedule.as_ref().unwrap().contains("fused-stream"));
        let (predicted, measured) = hw.predicted_vs_measured().unwrap();
        assert!((predicted - 0.5).abs() < 1e-12);
        assert!((measured - 0.75).abs() < 1e-12);
        let sw = stats
            .per_engine
            .iter()
            .find(|e| e.engine == "sw-f32")
            .unwrap();
        assert_eq!(sw.scheduled_jobs, 0);
        assert!(sw.schedule.is_none());
        assert!(sw.predicted_vs_measured().is_none());
        // The priority split: each class keeps its own latency histogram
        // and service-time window.
        assert_eq!(stats.latency(Priority::Batch).count(), 1);
        assert_eq!(stats.latency(Priority::Interactive).count(), 1);
        assert_eq!(stats.class_seconds(Priority::Batch), &[0.25]);
        assert_eq!(stats.class_seconds(Priority::Interactive), &[0.75]);
        assert!(stats.modeled_class_makespan_seconds(Priority::Batch, 1) > 0.0);
    }

    #[test]
    fn expired_and_shed_jobs_keep_counters_reconciled() {
        let inner = StatsInner::new();
        // Admission control shed one job: optimistically counted, revoked.
        inner.record_submitted();
        inner.record_not_admitted();
        inner.record_shed();
        // One admitted job expired at dequeue.
        inner.record_submitted();
        inner.record_admitted();
        inner.record_started();
        inner.record_expired();
        let stats = inner.snapshot(shape(1, 1));
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.in_flight, 0, "an expired job must not look in-flight");
        assert_eq!(
            stats.completed + stats.failed + stats.expired + stats.lost,
            stats.submitted,
            "terminal outcomes reconcile to admissions"
        );
    }

    #[test]
    fn frame_and_stream_counters_stay_apart_from_the_job_counters() {
        let inner = StatsInner::new();
        inner.record_stream_opened();
        inner.record_stream_opened();
        for _ in 0..5 {
            inner.record_frame_completed();
        }
        inner.record_stream_closed();
        let stats = inner.snapshot(shape(2, 8));
        assert_eq!(stats.frames_completed, 5);
        assert_eq!(stats.streams_active, 1);
        // Frames are not jobs: the job pipeline never saw them.
        assert_eq!(stats.submitted, 0);
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.in_flight, 0);
        // But a streams-only service still has a running clock.
        assert!(stats.elapsed_seconds >= 0.0);
        assert!(inner.first_admission.get().is_some());
    }

    #[test]
    fn admission_mean_prefers_calibration_over_measurement() {
        let inner = StatsInner::new();
        assert_eq!(inner.admission_mean_seconds(), None, "no evidence yet");
        inner.record_completed("sw-f32", 0.2, None, Priority::Batch, 0.2);
        inner.record_completed("sw-f32", 0.4, None, Priority::Batch, 0.4);
        let measured = inner.admission_mean_seconds().unwrap();
        assert!((measured - 0.3).abs() < 1e-12);
        inner.calibrate_admission(0.05);
        assert_eq!(inner.admission_mean_seconds(), Some(0.05));
    }
}

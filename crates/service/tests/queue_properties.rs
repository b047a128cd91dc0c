//! Property tests for the pool's one two-class queue.
//!
//! Over randomly drawn submission scenarios — priority classes, stream
//! keys, task counts — the scheduling invariants must hold at any worker
//! count:
//!
//! 1. **Work conservation**: every submitted task runs exactly once; the
//!    pool never drops or duplicates work, and shutdown drains the queue.
//! 2. **Priority is global**: when the whole backlog is present before any
//!    dequeue (the test parks every worker to guarantee this), no batch
//!    task dequeues before any interactive task.
//! 3. **FIFO per class**: within one priority class, dequeue order is
//!    submission order.
//! 4. **Streams are mailboxes**: tasks that share a stream key never
//!    overlap and run in submission order, mixed with plain tasks.
//!
//! A fifth test pins the full drain *order* against a closed-form oracle:
//! a single gated worker drains every interactive task in FIFO order, then
//! every batch task; a sixth checks that one gated worker drains every
//! interactive stream's tasks before any batch task. All ordering evidence
//! comes from the `dequeue_seq`
//! stamps the pool assigns under its lock, so no assertion depends on
//! wall-clock timing and there is not a single sleep in this file.

mod harness;

use harness::Gate;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use tonemap_service::pool::{Priority, TaskFate, TaskOptions, WorkerPool};

/// One submission in a generated scenario.
#[derive(Debug, Clone, Copy)]
struct Submission {
    priority: Priority,
    stream: Option<u64>,
}

/// What the task observed when it ran.
#[derive(Debug, Clone, Copy)]
struct Observation {
    tag: usize,
    priority: Priority,
    stream: Option<u64>,
    dequeue_seq: u64,
}

fn priority_strategy() -> impl Strategy<Value = Priority> {
    prop_oneof![Just(Priority::Interactive), Just(Priority::Batch)]
}

/// Plain tasks of either class.
fn plain_strategy() -> impl Strategy<Value = Vec<Submission>> {
    prop::collection::vec(
        priority_strategy().prop_map(|priority| Submission {
            priority,
            stream: None,
        }),
        1..24,
    )
}

/// Plain tasks mixed with the tasks of up to three streams; each stream's
/// tasks share one class.
fn mixed_strategy() -> impl Strategy<Value = Vec<Submission>> {
    let stream = prop_oneof![Just(None), (0u64..3).prop_map(Some)];
    let classes = (
        priority_strategy(),
        priority_strategy(),
        priority_strategy(),
    );
    (
        classes,
        prop::collection::vec((priority_strategy(), stream), 1..32),
    )
        .prop_map(|((first, second, third), draws)| {
            let classes = [first, second, third];
            draws
                .into_iter()
                .map(|(priority, stream)| Submission {
                    priority: stream.map_or(priority, |key| classes[key as usize]),
                    stream,
                })
                .collect()
        })
}

/// Submits every scenario task (tagged in submission order) and returns
/// the shared observation log. A stream task also flags itself while it
/// runs, and `overlaps` counts any stream task that found its stream's
/// flag already up.
fn submit_all(
    pool: &WorkerPool,
    submissions: &[Submission],
    log: &Arc<Mutex<Vec<Observation>>>,
    overlaps: &Arc<Mutex<usize>>,
) {
    let running: Arc<[AtomicBool; 3]> = Arc::default();
    for (tag, submission) in submissions.iter().enumerate() {
        let log = Arc::clone(log);
        let overlaps = Arc::clone(overlaps);
        let running = Arc::clone(&running);
        let Submission { priority, stream } = *submission;
        pool.execute(
            Box::new(move |fate| {
                let TaskFate::Execute { dequeue_seq } = fate else {
                    unreachable!("no task carries a deadline");
                };
                let flag = stream.map(|key| &running[key as usize]);
                if flag.is_some_and(|flag| flag.swap(true, Ordering::SeqCst)) {
                    *overlaps.lock().unwrap() += 1;
                }
                log.lock().unwrap().push(Observation {
                    tag,
                    priority,
                    stream,
                    dequeue_seq,
                });
                if let Some(flag) = flag {
                    flag.store(false, Ordering::SeqCst);
                }
            }),
            TaskOptions {
                priority,
                deadline: None,
                stream,
            },
        )
        .expect("the pool accepts tasks before shutdown");
    }
}

/// Runs a scenario to completion and returns its observations in dequeue
/// order, plus the overlap count. With `park`, every worker is parked at a
/// gate until the whole scenario is queued.
fn run(workers: usize, submissions: &[Submission], park: bool) -> (Vec<Observation>, usize) {
    let pool = WorkerPool::new(workers, 64);
    let gate = Gate::new();
    if park {
        for _ in 0..workers {
            let gate = Arc::clone(&gate);
            pool.execute(
                Box::new(move |_| gate.arrive_and_wait()),
                TaskOptions::default(),
            )
            .expect("gate tasks fit in the queue");
        }
        gate.wait_for_arrivals(workers as u64);
    }
    let log = Arc::new(Mutex::new(Vec::new()));
    let overlaps = Arc::new(Mutex::new(0));
    submit_all(&pool, submissions, &log, &overlaps);
    gate.release(workers as u64);
    pool.shutdown();
    assert_eq!(pool.expired(), 0);
    let parked = if park { workers } else { 0 };
    assert_eq!(
        pool.dequeues(),
        (submissions.len() + parked) as u64,
        "dequeue stamps count exactly the submitted tasks"
    );
    let mut log = log.lock().unwrap().clone();
    log.sort_by_key(|o| o.dequeue_seq);
    let overlaps = *overlaps.lock().unwrap();
    (log, overlaps)
}

fn tags(observations: &[Observation]) -> Vec<usize> {
    observations.iter().map(|o| o.tag).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Invariant 1: every task runs exactly once, at any worker count,
    /// with submissions racing live workers.
    #[test]
    fn every_task_runs_exactly_once(
        submissions in mixed_strategy(),
        workers in 1usize..=4,
    ) {
        let (log, _) = run(workers, &submissions, false);
        let mut seen = tags(&log);
        seen.sort_unstable();
        let expected: Vec<usize> = (0..submissions.len()).collect();
        prop_assert_eq!(seen, expected, "each tag exactly once");
    }

    /// Invariants 2 and 3: with the whole backlog staged before any
    /// dequeue, every interactive task dequeues before every batch task,
    /// and each class dequeues in submission order.
    #[test]
    fn priority_is_global_and_each_class_is_fifo(
        submissions in plain_strategy(),
        workers in 1usize..=3,
    ) {
        let (log, _) = run(workers, &submissions, true);
        prop_assert_eq!(log.len(), submissions.len());
        let first_batch = log
            .iter()
            .position(|o| o.priority == Priority::Batch)
            .unwrap_or(log.len());
        for (index, observation) in log.iter().enumerate() {
            if observation.priority == Priority::Interactive {
                prop_assert!(
                    index < first_batch,
                    "interactive tag {} (seq {}) dequeued after a batch task",
                    observation.tag,
                    observation.dequeue_seq
                );
            }
        }
        for class in [Priority::Interactive, Priority::Batch] {
            let tags: Vec<usize> = log
                .iter()
                .filter(|o| o.priority == class)
                .map(|o| o.tag)
                .collect();
            prop_assert!(
                tags.windows(2).all(|w| w[0] < w[1]),
                "{class}: dequeue order {tags:?} is not submission order"
            );
        }
    }

    /// Invariant 4: a stream's tasks never overlap and run in submission
    /// order, at 1–4 workers, mixed with plain tasks of both classes.
    #[test]
    fn stream_tasks_never_overlap_and_run_in_submission_order(
        submissions in mixed_strategy(),
        workers in 1usize..=4,
    ) {
        let (log, overlaps) = run(workers, &submissions, false);
        prop_assert_eq!(overlaps, 0, "a stream ran two tasks at once");
        for key in 0..3 {
            let order: Vec<usize> = log
                .iter()
                .filter(|o| o.stream == Some(key))
                .map(|o| o.tag)
                .collect();
            prop_assert!(
                order.windows(2).all(|w| w[0] < w[1]),
                "stream {key}: run order {order:?} is not submission order"
            );
        }
    }

    /// The closed-form oracle: one gated worker drains every interactive
    /// task in FIFO order, then every batch task.
    #[test]
    fn a_single_gated_worker_drains_interactive_then_batch(
        submissions in plain_strategy(),
    ) {
        let (log, _) = run(1, &submissions, true);
        let mut oracle = Vec::new();
        for class in [Priority::Interactive, Priority::Batch] {
            for (tag, submission) in submissions.iter().enumerate() {
                if submission.priority == class {
                    oracle.push(tag);
                }
            }
        }
        prop_assert_eq!(tags(&log), oracle);
    }

    /// Streams run in their class: one gated worker drains every
    /// interactive task, stream tasks included, before any batch task.
    #[test]
    fn a_single_gated_worker_drains_interactive_streams_before_batch(
        submissions in mixed_strategy(),
    ) {
        let (log, _) = run(1, &submissions, true);
        let classes: Vec<Priority> = log.iter().map(|o| o.priority).collect();
        prop_assert!(
            classes.windows(2).all(|w| w[0] <= w[1]),
            "dequeue classes {classes:?} are not interactive, then batch"
        );
    }
}

//! A hand-rolled sharded work-stealing worker pool over `std::thread`.
//!
//! The workspace builds fully offline, so there is no rayon/crossbeam to
//! lean on; the pool is built from `Mutex`/`Condvar` primitives instead.
//! Unlike the v1 pool (one bounded `sync_channel` every worker contended
//! on), work now lands in **per-worker shards**: each shard holds two FIFO
//! deques, one per [`Priority`] class. A worker pops its own shard first —
//! interactive before batch — and when that shard is dry it *steals*,
//! scanning the other shards in rotation order starting at its right-hand
//! neighbour and taking from the **front** of the victim's deques. Stealing
//! from the front (FIFO steals, not the LIFO steals of fork-join pools)
//! keeps latency fair: the oldest queued job anywhere is always among the
//! next to run, and per-submitter FIFO order survives any interleaving of
//! local pops and steals.
//!
//! Three invariants the tests lean on:
//!
//! 1. **Work conservation** — a worker only sleeps after scanning *every*
//!    shard and finding nothing; the eventcount sequence check below makes
//!    the sleep race-free.
//! 2. **Priority never inverts within a shard** — a batch task is popped
//!    from a shard only when that shard's interactive deque is empty at
//!    pop time. (Priority is per-shard, not global: a steal may run a
//!    remote batch task while local interactive work exists elsewhere —
//!    that is the price of shard independence, and the property tests
//!    encode exactly this boundary.)
//! 3. **Dequeue order is observable** — every pop is stamped with a
//!    globally monotonic `dequeue_seq` *while the shard lock is held*, so
//!    tests can assert FIFO and priority order post-hoc at any worker
//!    count without instrumenting the scheduler.
//!
//! Backpressure is a capacity gate over the *total* queued count:
//! [`WorkerPool::try_execute`] refuses with [`PoolError::QueueFull`] at
//! capacity, [`WorkerPool::execute`] blocks the submitter until a slot
//! frees. Deadlines are enforced at dequeue: a task whose deadline has
//! passed when a worker picks it up is handed [`TaskFate::Expired`]
//! instead of [`TaskFate::Execute`], so the submitter still gets a typed
//! answer and the worker's time is not spent on a result nobody can use.
//!
//! Shutdown is graceful by construction: [`WorkerPool::shutdown`] raises
//! the flag and wakes everyone; a worker exits only once the flag is up
//! *and* every shard is empty, so already-queued tasks always complete
//! (or expire) before the join.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Priority class of a job: which deque it queues in within its shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Latency-sensitive work: always dequeued before batch work queued in
    /// the same shard.
    Interactive,
    /// Throughput work; the default class.
    #[default]
    Batch,
}

impl Priority {
    /// Stable lowercase label, used in stats and bench artefacts.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What the pool decided to do with a dequeued task — passed to the task
/// closure so the submitter always receives an answer, even for work that
/// was cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskFate {
    /// Run the job.
    Execute {
        /// `true` when a worker other than the shard's owner popped it.
        stolen: bool,
        /// Globally monotonic dequeue stamp, assigned under the shard
        /// lock: within one shard, ascending `dequeue_seq` is exactly
        /// dequeue order.
        dequeue_seq: u64,
    },
    /// The task's deadline had already passed at dequeue; the closure must
    /// report cancellation, not execute the job.
    Expired {
        /// How far past the deadline the task was when it was picked up.
        missed_by: Duration,
    },
}

/// A unit of work plus the pool's verdict on it.
pub type Task = Box<dyn FnOnce(TaskFate) + Send + 'static>;

/// Submission options: class, deadline, and shard routing.
#[derive(Debug, Clone, Copy, Default)]
pub struct TaskOptions {
    /// Priority class ([`Priority::Batch`] by default).
    pub priority: Priority,
    /// Absolute deadline; a task still queued past this instant is handed
    /// [`TaskFate::Expired`] instead of running.
    pub deadline: Option<Instant>,
    /// Pin the task to a specific shard (wrapped modulo the shard count).
    /// Tasks from one submitter pinned to one shard keep FIFO order per
    /// priority class; unpinned tasks are spread round-robin.
    pub shard: Option<usize>,
}

impl TaskOptions {
    /// Options for a priority class with no deadline and round-robin
    /// shard routing.
    pub fn with_priority(priority: Priority) -> Self {
        TaskOptions {
            priority,
            ..TaskOptions::default()
        }
    }
}

/// Why the pool refused a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// The bounded queue is at total capacity (backpressure): retry later,
    /// or use the blocking [`WorkerPool::execute`].
    QueueFull,
    /// The pool has been shut down and accepts no further tasks.
    ShutDown,
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::QueueFull => write!(f, "submission queue is full"),
            PoolError::ShutDown => write!(f, "worker pool is shut down"),
        }
    }
}

impl std::error::Error for PoolError {}

struct QueuedTask {
    run: Task,
    deadline: Option<Instant>,
}

#[derive(Default)]
struct ShardQueues {
    interactive: VecDeque<QueuedTask>,
    batch: VecDeque<QueuedTask>,
}

impl ShardQueues {
    fn pop_front(&mut self) -> Option<(QueuedTask, Priority)> {
        if let Some(task) = self.interactive.pop_front() {
            Some((task, Priority::Interactive))
        } else {
            self.batch.pop_front().map(|task| (task, Priority::Batch))
        }
    }
}

/// Capacity gate: the single source of truth for "how much is queued",
/// guarded by one mutex so blocking submitters and the shutdown drain
/// check cannot race it.
#[derive(Default)]
struct SpaceState {
    queued_interactive: usize,
    queued_batch: usize,
    shutdown: bool,
}

impl SpaceState {
    fn total(&self) -> usize {
        self.queued_interactive + self.queued_batch
    }

    fn add(&mut self, priority: Priority) {
        match priority {
            Priority::Interactive => self.queued_interactive += 1,
            Priority::Batch => self.queued_batch += 1,
        }
    }

    fn remove(&mut self, priority: Priority) {
        match priority {
            Priority::Interactive => self.queued_interactive -= 1,
            Priority::Batch => self.queued_batch -= 1,
        }
    }
}

struct PoolShared {
    shards: Vec<Mutex<ShardQueues>>,
    /// Capacity gate + shutdown flag. Never held while a shard lock is
    /// held (and vice versa): submitters reserve space here first, release,
    /// then push into a shard; workers pop from a shard, release, then
    /// return the slot here.
    space: Mutex<SpaceState>,
    /// Signalled whenever a queue slot frees up or shutdown begins.
    space_available: Condvar,
    /// Eventcount for sleeping workers: the sequence number increments on
    /// every push (after the shard lock is released) and on shutdown. A
    /// worker snapshots it *before* scanning the shards and sleeps only if
    /// it is unchanged after a dry scan — so a push that lands mid-scan can
    /// never be lost to a sleeping worker.
    wake_seq: Mutex<u64>,
    wake: Condvar,
    queue_capacity: usize,
    next_shard: AtomicUsize,
    dequeue_seq: AtomicU64,
    steals: AtomicU64,
    expired: AtomicU64,
}

impl PoolShared {
    fn bump_wake(&self, all: bool) {
        *self.wake_seq.lock().expect("pool wake seq poisoned") += 1;
        if all {
            self.wake.notify_all();
        } else {
            self.wake.notify_one();
        }
    }
}

/// A fixed-size pool of worker threads over sharded priority deques with
/// front-steal work stealing.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    worker_count: usize,
}

impl WorkerPool {
    /// Spawns `workers` threads over one shard each, with the total queue
    /// bounded at `queue_capacity` pending tasks. Both are clamped to at
    /// least 1.
    pub fn new(workers: usize, queue_capacity: usize) -> Self {
        let workers = workers.max(1);
        Self::with_shards(workers, workers, queue_capacity)
    }

    /// Spawns `workers` threads over exactly `shards` shards. Shards and
    /// workers are decoupled so tests can script a single worker draining
    /// many shards (a deterministic scan-order oracle) or many workers
    /// contending over few shards (forced steals).
    pub fn with_shards(workers: usize, shards: usize, queue_capacity: usize) -> Self {
        let worker_count = workers.max(1);
        let shard_count = shards.max(1);
        let shared = Arc::new(PoolShared {
            shards: (0..shard_count)
                .map(|_| Mutex::new(ShardQueues::default()))
                .collect(),
            space: Mutex::new(SpaceState::default()),
            space_available: Condvar::new(),
            wake_seq: Mutex::new(0),
            wake: Condvar::new(),
            queue_capacity: queue_capacity.max(1),
            next_shard: AtomicUsize::new(0),
            dequeue_seq: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            expired: AtomicU64::new(0),
        });
        let workers = (0..worker_count)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tonemap-worker-{index}"))
                    .spawn(move || worker_loop(&shared, index % shard_count))
                    .expect("spawning a worker thread cannot fail on this platform")
            })
            .collect();
        WorkerPool {
            shared,
            workers: Mutex::new(workers),
            worker_count,
        }
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.worker_count
    }

    /// Number of shards (== workers unless built via
    /// [`WorkerPool::with_shards`]).
    pub fn shard_count(&self) -> usize {
        self.shared.shards.len()
    }

    /// Capacity of the bounded queue, summed across all shards.
    pub fn queue_capacity(&self) -> usize {
        self.shared.queue_capacity
    }

    /// Tasks currently queued (not yet dequeued), across all shards.
    pub fn queued(&self) -> usize {
        self.shared
            .space
            .lock()
            .expect("pool space poisoned")
            .total()
    }

    /// Tasks currently queued in `priority`'s class, across all shards.
    pub fn queued_in_class(&self, priority: Priority) -> usize {
        let space = self.shared.space.lock().expect("pool space poisoned");
        match priority {
            Priority::Interactive => space.queued_interactive,
            Priority::Batch => space.queued_batch,
        }
    }

    /// The backlog a newly submitted task of `priority` would queue
    /// behind: jobs of its own class plus — for batch — everything
    /// interactive that outranks it. This is the queue-position input to
    /// the service's admission model.
    pub fn backlog_ahead_of(&self, priority: Priority) -> usize {
        let space = self.shared.space.lock().expect("pool space poisoned");
        match priority {
            Priority::Interactive => space.queued_interactive,
            Priority::Batch => space.total(),
        }
    }

    /// Dequeues served from a shard other than the popping worker's own.
    pub fn steals(&self) -> u64 {
        self.shared.steals.load(Ordering::Relaxed)
    }

    /// Tasks handed [`TaskFate::Expired`] at dequeue.
    pub fn expired(&self) -> u64 {
        self.shared.expired.load(Ordering::Relaxed)
    }

    /// Total dequeues so far (the next `dequeue_seq` to be assigned).
    pub fn dequeues(&self) -> u64 {
        self.shared.dequeue_seq.load(Ordering::Relaxed)
    }

    /// `true` once [`WorkerPool::shutdown`] has begun.
    pub fn is_shut_down(&self) -> bool {
        self.shared
            .space
            .lock()
            .expect("pool space poisoned")
            .shutdown
    }

    /// Enqueues a task without blocking, refusing with
    /// [`PoolError::QueueFull`] when the queue is at capacity.
    pub fn try_execute(&self, task: Task, options: TaskOptions) -> Result<(), PoolError> {
        {
            let mut space = self.shared.space.lock().expect("pool space poisoned");
            if space.shutdown {
                return Err(PoolError::ShutDown);
            }
            if space.total() >= self.shared.queue_capacity {
                return Err(PoolError::QueueFull);
            }
            space.add(options.priority);
        }
        self.push(task, options);
        Ok(())
    }

    /// Enqueues a task, blocking the caller while the queue is at capacity
    /// (backpressure on the submitter).
    pub fn execute(&self, task: Task, options: TaskOptions) -> Result<(), PoolError> {
        {
            let mut space = self.shared.space.lock().expect("pool space poisoned");
            loop {
                if space.shutdown {
                    return Err(PoolError::ShutDown);
                }
                if space.total() < self.shared.queue_capacity {
                    break;
                }
                space = self
                    .shared
                    .space_available
                    .wait(space)
                    .expect("pool space poisoned");
            }
            space.add(options.priority);
        }
        self.push(task, options);
        Ok(())
    }

    /// Space has been reserved; place the task in its shard and wake a
    /// worker. The shard lock is released before the wake sequence bumps,
    /// so no lock is ever held while another is taken.
    fn push(&self, task: Task, options: TaskOptions) {
        let shard_count = self.shared.shards.len();
        let shard = match options.shard {
            Some(pinned) => pinned % shard_count,
            None => self.shared.next_shard.fetch_add(1, Ordering::Relaxed) % shard_count,
        };
        let queued = QueuedTask {
            run: task,
            deadline: options.deadline,
        };
        {
            let mut queues = self.shared.shards[shard]
                .lock()
                .expect("pool shard poisoned");
            match options.priority {
                Priority::Interactive => queues.interactive.push_back(queued),
                Priority::Batch => queues.batch.push_back(queued),
            }
        }
        self.shared.bump_wake(false);
    }

    /// Raises the shutdown flag, wakes everyone, and joins every worker.
    /// Queued tasks complete (or expire) before this returns; further
    /// submissions fail with [`PoolError::ShutDown`]. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut space = self.shared.space.lock().expect("pool space poisoned");
            space.shutdown = true;
        }
        // Blocked submitters must observe the flag and give up their wait.
        self.shared.space_available.notify_all();
        self.shared.bump_wake(true);
        let workers = std::mem::take(&mut *self.workers.lock().expect("pool workers poisoned"));
        for worker in workers {
            let _ = worker.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.worker_count)
            .field("shards", &self.shard_count())
            .field("queue_capacity", &self.shared.queue_capacity)
            .field("queued", &self.queued())
            .field("steals", &self.steals())
            .field("shut_down", &self.is_shut_down())
            .finish()
    }
}

fn worker_loop(shared: &PoolShared, local_shard: usize) {
    let shard_count = shared.shards.len();
    loop {
        // Snapshot the eventcount BEFORE scanning: any push that lands
        // after this point bumps the sequence, so the sleep check below
        // cannot miss it.
        let wake_snapshot = *shared.wake_seq.lock().expect("pool wake seq poisoned");

        let mut found = None;
        for offset in 0..shard_count {
            let shard = (local_shard + offset) % shard_count;
            let mut queues = shared.shards[shard].lock().expect("pool shard poisoned");
            if let Some((task, priority)) = queues.pop_front() {
                // Stamp dequeue order while the shard lock is held: within
                // this shard, ascending seq IS dequeue order.
                let seq = shared.dequeue_seq.fetch_add(1, Ordering::SeqCst);
                found = Some((task, priority, offset != 0, seq));
                break;
            }
        }

        match found {
            Some((task, priority, stolen, dequeue_seq)) => {
                let drained = {
                    let mut space = shared.space.lock().expect("pool space poisoned");
                    space.remove(priority);
                    space.shutdown && space.total() == 0
                };
                shared.space_available.notify_one();
                // A worker that found the shards empty while this task was
                // still counted sleeps until the wake sequence moves, and
                // shutdown's own bump may predate its snapshot: the last
                // slot freed after shutdown must wake it to exit.
                if drained {
                    shared.bump_wake(true);
                }
                if stolen {
                    shared.steals.fetch_add(1, Ordering::Relaxed);
                }
                let now = Instant::now();
                let fate = match task.deadline {
                    Some(deadline) if now >= deadline => {
                        shared.expired.fetch_add(1, Ordering::Relaxed);
                        TaskFate::Expired {
                            missed_by: now.duration_since(deadline),
                        }
                    }
                    _ => TaskFate::Execute {
                        stolen,
                        dequeue_seq,
                    },
                };
                // A panicking task must not take the worker down with it;
                // waiters observe the failure through their responder
                // channel disconnecting.
                let _ = catch_unwind(AssertUnwindSafe(move || (task.run)(fate)));
            }
            None => {
                {
                    let space = shared.space.lock().expect("pool space poisoned");
                    if space.shutdown && space.total() == 0 {
                        return;
                    }
                }
                let mut seq = shared.wake_seq.lock().expect("pool wake seq poisoned");
                while *seq == wake_snapshot {
                    seq = shared.wake.wait(seq).expect("pool wake seq poisoned");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    fn run_opts() -> TaskOptions {
        TaskOptions::default()
    }

    /// A task that records its fate's dequeue_seq (or u64::MAX if expired)
    /// and an identifying tag.
    fn tagged(tag: usize, log: &Arc<Mutex<Vec<(usize, u64)>>>) -> Task {
        let log = Arc::clone(log);
        Box::new(move |fate| {
            let seq = match fate {
                TaskFate::Execute { dequeue_seq, .. } => dequeue_seq,
                TaskFate::Expired { .. } => u64::MAX,
            };
            log.lock().unwrap().push((tag, seq));
        })
    }

    #[test]
    fn executes_tasks_on_worker_threads() {
        let pool = WorkerPool::new(2, 8);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..16 {
            let counter = Arc::clone(&counter);
            pool.execute(
                Box::new(move |_| {
                    counter.fetch_add(1, Ordering::SeqCst);
                }),
                run_opts(),
            )
            .expect("pool accepts tasks");
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 16);
        assert!(pool.is_shut_down());
        assert!(matches!(
            pool.execute(Box::new(|_| {}), run_opts()),
            Err(PoolError::ShutDown)
        ));
    }

    #[test]
    fn interactive_tasks_overtake_batch_within_a_shard() {
        // One worker, one shard. Gate the worker on a first task, then
        // preload batch work followed by interactive work: the interactive
        // tasks must drain first even though they were queued later.
        let pool = WorkerPool::with_shards(1, 1, 16);
        let (started_tx, started_rx) = mpsc::channel();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        pool.execute(
            Box::new(move |_| {
                started_tx.send(()).unwrap();
                gate_rx.recv().unwrap();
            }),
            run_opts(),
        )
        .unwrap();
        started_rx.recv().unwrap();

        let log = Arc::new(Mutex::new(Vec::new()));
        for tag in 0..3 {
            pool.execute(
                tagged(tag, &log),
                TaskOptions::with_priority(Priority::Batch),
            )
            .unwrap();
        }
        for tag in 10..13 {
            pool.execute(
                tagged(tag, &log),
                TaskOptions::with_priority(Priority::Interactive),
            )
            .unwrap();
        }
        gate_tx.send(()).unwrap();
        pool.shutdown();

        let order: Vec<usize> = log.lock().unwrap().iter().map(|&(tag, _)| tag).collect();
        assert_eq!(order, vec![10, 11, 12, 0, 1, 2]);
        let seqs: Vec<u64> = log.lock().unwrap().iter().map(|&(_, seq)| seq).collect();
        assert!(
            seqs.windows(2).all(|w| w[0] < w[1]),
            "seqs ascend: {seqs:?}"
        );
    }

    #[test]
    fn a_blocked_shard_gets_its_work_stolen() {
        // Two workers, two shards. Gate one task on each shard so both
        // workers are pinned down (whichever worker took which gate), then
        // queue a task on shard 0 and release only shard 1's gate. Either
        // the shard-1 worker steals the new task across shards, or — if
        // the gates themselves were cross-stolen — the pool has already
        // recorded steals. In every interleaving the task completes while
        // one worker stays blocked, and at least one steal is observed.
        let pool = WorkerPool::with_shards(2, 2, 16);
        let (started_tx, started_rx) = mpsc::channel();
        let mut gates = Vec::new();
        for shard in 0..2 {
            let started_tx = started_tx.clone();
            let (gate_tx, gate_rx) = mpsc::channel::<()>();
            gates.push(gate_tx);
            pool.execute(
                Box::new(move |_| {
                    started_tx.send(shard).unwrap();
                    gate_rx.recv().unwrap();
                }),
                TaskOptions {
                    shard: Some(shard),
                    ..TaskOptions::default()
                },
            )
            .unwrap();
        }
        started_rx.recv().unwrap();
        started_rx.recv().unwrap(); // both workers are now gated

        let (done_tx, done_rx) = mpsc::channel();
        pool.execute(
            Box::new(move |fate| {
                done_tx
                    .send(matches!(fate, TaskFate::Execute { .. }))
                    .unwrap();
            }),
            TaskOptions {
                shard: Some(0),
                ..TaskOptions::default()
            },
        )
        .unwrap();
        gates[1].send(()).unwrap(); // free only the worker holding shard 1's gate
        assert!(done_rx.recv().unwrap(), "the shard-0 task must still run");
        assert!(
            pool.steals() >= 1,
            "some dequeue must have crossed shards, steals = {}",
            pool.steals()
        );
        gates[0].send(()).unwrap();
        pool.shutdown();
    }

    #[test]
    fn bounded_queue_applies_backpressure_deterministically() {
        let pool = WorkerPool::new(1, 1);
        let (started_tx, started_rx) = mpsc::channel();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        pool.execute(
            Box::new(move |_| {
                started_tx.send(()).unwrap();
                gate_rx.recv().unwrap();
            }),
            run_opts(),
        )
        .unwrap();
        started_rx.recv().unwrap(); // the worker is now busy, queue empty
        pool.try_execute(Box::new(|_| {}), run_opts()).unwrap(); // fills the 1-slot queue
        assert_eq!(
            pool.try_execute(Box::new(|_| {}), run_opts()).unwrap_err(),
            PoolError::QueueFull
        );
        assert_eq!(pool.queued(), 1);
        gate_tx.send(()).unwrap();
        pool.shutdown(); // drains the queued no-op before joining
        assert_eq!(pool.queued(), 0);
    }

    #[test]
    fn an_expired_deadline_is_reported_not_executed() {
        let pool = WorkerPool::new(1, 4);
        let (tx, rx) = mpsc::channel();
        // A deadline of "now" is already unmeetable by dequeue time.
        pool.execute(
            Box::new(move |fate| {
                tx.send(fate).unwrap();
            }),
            TaskOptions {
                deadline: Some(Instant::now()),
                ..TaskOptions::default()
            },
        )
        .unwrap();
        let fate = rx.recv().unwrap();
        assert!(matches!(fate, TaskFate::Expired { .. }), "fate: {fate:?}");
        assert_eq!(pool.expired(), 1);
        pool.shutdown();
    }

    #[test]
    fn shutdown_completes_queued_tasks() {
        let pool = WorkerPool::new(1, 32);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..20 {
            let counter = Arc::clone(&counter);
            pool.execute(
                Box::new(move |_| {
                    counter.fetch_add(1, Ordering::SeqCst);
                }),
                run_opts(),
            )
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 20);
        assert_eq!(pool.dequeues(), 20);
    }

    #[test]
    fn a_panicking_task_does_not_kill_the_pool() {
        let pool = WorkerPool::new(1, 4);
        pool.execute(Box::new(|_| panic!("task panic")), run_opts())
            .unwrap();
        let (tx, rx) = mpsc::channel();
        pool.execute(Box::new(move |_| tx.send(42).unwrap()), run_opts())
            .unwrap();
        assert_eq!(rx.recv().unwrap(), 42);
        pool.shutdown();
    }

    #[test]
    fn zero_sized_configuration_is_clamped() {
        let pool = WorkerPool::new(0, 0);
        assert_eq!(pool.worker_count(), 1);
        assert_eq!(pool.shard_count(), 1);
        assert_eq!(pool.queue_capacity(), 1);
        pool.execute(Box::new(|_| {}), run_opts()).unwrap();
        pool.shutdown();
    }

    #[test]
    fn one_worker_many_shards_drains_in_scan_order() {
        // The deterministic oracle the property tests build on: a gated
        // single worker over 3 shards drains shard 0 (interactive then
        // batch), then shard 1, then shard 2.
        let pool = WorkerPool::with_shards(1, 3, 32);
        let (started_tx, started_rx) = mpsc::channel();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        pool.execute(
            Box::new(move |_| {
                started_tx.send(()).unwrap();
                gate_rx.recv().unwrap();
            }),
            TaskOptions {
                shard: Some(0),
                ..TaskOptions::default()
            },
        )
        .unwrap();
        started_rx.recv().unwrap();

        let log = Arc::new(Mutex::new(Vec::new()));
        // Interleave submissions across shards and classes.
        let submissions: &[(usize, usize, Priority)] = &[
            (20, 2, Priority::Batch),
            (10, 1, Priority::Batch),
            (0, 0, Priority::Batch),
            (11, 1, Priority::Interactive),
            (1, 0, Priority::Batch),
            (21, 2, Priority::Interactive),
            (2, 0, Priority::Interactive),
        ];
        for &(tag, shard, priority) in submissions {
            pool.execute(
                tagged(tag, &log),
                TaskOptions {
                    priority,
                    shard: Some(shard),
                    ..TaskOptions::default()
                },
            )
            .unwrap();
        }
        gate_tx.send(()).unwrap();
        pool.shutdown();

        let order: Vec<usize> = log.lock().unwrap().iter().map(|&(tag, _)| tag).collect();
        // Shard 0: interactive (2) then batch FIFO (0, 1); shard 1:
        // interactive (11) then batch (10); shard 2: interactive (21) then
        // batch (20).
        assert_eq!(order, vec![2, 0, 1, 11, 10, 21, 20]);
    }
}

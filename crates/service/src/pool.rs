//! The service's worker pool: one queue over `std::thread` workers.
//!
//! The workspace builds fully offline, so there is no rayon/crossbeam to
//! lean on; the pool is one `Mutex` and two `Condvar`s. The mutex guards
//! everything a scheduling decision reads: two FIFO deques, one per
//! [`Priority`] class, the per-class queued counts, the dequeue counter,
//! the shutdown flag and the per-stream mailboxes. Workers wait on one
//! condvar, blocked submitters on the other.
//!
//! Four invariants the tests lean on:
//!
//! 1. **Priority is global** — a worker takes the front of the interactive
//!    deque before the batch deque, so no batch task starts while an
//!    interactive task is queued. A queued interactive task waits out at
//!    most the tasks already running.
//! 2. **FIFO per class** — each deque is served front first.
//! 3. **A stream is a mailbox** — tasks that share a
//!    [`TaskOptions::stream`] key run one at a time, in submission order,
//!    and queue and count in the class of the task that opened the mailbox.
//!    The class deque holds the stream once, not its tasks. The worker that
//!    takes it runs the mailbox's front task, then puts the stream back at
//!    the end of its class deque if the mailbox still holds tasks. So a busy
//!    stream runs one task per turn and cannot starve its class, a task
//!    that panics cannot strand the tasks behind it, and no worker ever
//!    waits on another task of the stream.
//! 4. **Dequeue order is observable** — every dequeue is stamped with a
//!    `dequeue_seq` under the lock, so ascending stamps are exactly the
//!    global dequeue order.
//!
//! Backpressure is a capacity gate over the total queued count, mailbox
//! tasks included: [`WorkerPool::try_execute`] refuses with
//! [`PoolError::QueueFull`] at capacity, [`WorkerPool::execute`] blocks
//! the submitter until a slot frees. Deadlines are enforced at dequeue: a
//! task whose deadline has passed when a worker picks it up is handed
//! [`TaskFate::Expired`] instead of [`TaskFate::Execute`], so the submitter
//! still gets a typed answer and the worker's time is not spent on a result
//! nobody can use.
//!
//! A worker holds one of the host's cores while it runs a task
//! ([`tonemap_core::cores::hold`]), so the task's row slices run only on
//! cores that no other worker holds.
//!
//! Shutdown is graceful by construction: [`WorkerPool::shutdown`] raises
//! the flag and wakes everyone; a worker exits only once the flag is up
//! *and* both deques are empty, and a worker that ran a stream's task puts
//! the stream back before it looks again, so already-queued tasks always
//! complete (or expire) before the join.

use std::collections::hash_map::{Entry as Mailbox, HashMap};
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Priority class of a job: which of the two deques it queues in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Latency-sensitive work: always dequeued before queued batch work.
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
        /// Global dequeue stamp, assigned under the queue lock: ascending
        /// `dequeue_seq` is exactly dequeue order.
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

/// Submission options: class, deadline and stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct TaskOptions {
    /// Priority class ([`Priority::Batch`] by default).
    pub priority: Priority,
    /// Absolute deadline; a task still queued past this instant is handed
    /// [`TaskFate::Expired`] instead of running.
    pub deadline: Option<Instant>,
    /// The stream the task belongs to. Tasks that share a stream key run
    /// one at a time, in submission order, in the class of the task that
    /// opened the stream's mailbox; tasks without one are independent.
    pub stream: Option<u64>,
}

impl TaskOptions {
    /// Options for a priority class with no deadline and no stream.
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
    priority: Priority,
    deadline: Option<Instant>,
}

/// What a class deque holds: a task, or a stream whose mailbox holds its
/// tasks.
enum Entry {
    Task(QueuedTask),
    Stream(u64),
}

/// Everything the one lock guards.
#[derive(Default)]
struct Queue {
    /// The class deques, indexed by `Priority as usize`: interactive first.
    deques: [VecDeque<Entry>; 2],
    /// Queued tasks per class, mailbox tasks included.
    queued: [usize; 2],
    dequeues: u64,
    expired: u64,
    shutdown: bool,
    /// A stream has a mailbox while it has a task queued or running: its
    /// class, that of the task that opened it, and its queued tasks. Its
    /// entry sits in a class deque only while none of its tasks runs.
    mailboxes: HashMap<u64, (Priority, VecDeque<QueuedTask>)>,
}

impl Queue {
    fn total(&self) -> usize {
        self.queued.iter().sum()
    }

    fn push(&mut self, mut task: QueuedTask, stream: Option<u64>) {
        let class = task.priority;
        let entry = match stream {
            None => Entry::Task(task),
            Some(key) => match self.mailboxes.entry(key) {
                Mailbox::Occupied(mut mailbox) => {
                    // The task queues, and counts, in its stream's class.
                    let (stream_class, tasks) = mailbox.get_mut();
                    task.priority = *stream_class;
                    self.queued[task.priority as usize] += 1;
                    tasks.push_back(task);
                    return;
                }
                Mailbox::Vacant(slot) => {
                    slot.insert((class, VecDeque::from([task])));
                    Entry::Stream(key)
                }
            },
        };
        self.queued[class as usize] += 1;
        self.deques[class as usize].push_back(entry);
    }

    /// Takes the next task — interactive before batch, front first — and
    /// stamps the pool's verdict on it.
    fn pop(&mut self) -> Option<(Task, TaskFate, Option<u64>)> {
        let (task, stream) = match self.deques.iter_mut().find_map(VecDeque::pop_front)? {
            Entry::Task(task) => (task, None),
            Entry::Stream(key) => {
                let mailbox = self.mailboxes.get_mut(&key);
                let task = mailbox.and_then(|(_, tasks)| tasks.pop_front());
                (task.expect("a queued stream holds a task"), Some(key))
            }
        };
        self.queued[task.priority as usize] -= 1;
        let dequeue_seq = self.dequeues;
        self.dequeues += 1;
        let now = Instant::now();
        let fate = match task.deadline {
            Some(deadline) if now >= deadline => {
                self.expired += 1;
                TaskFate::Expired {
                    missed_by: now - deadline,
                }
            }
            _ => TaskFate::Execute { dequeue_seq },
        };
        Some((task.run, fate, stream))
    }

    /// A stream's task has returned: the stream takes its next turn at the
    /// end of its class deque, or gives up its mailbox when it is empty.
    fn finish(&mut self, key: u64) {
        match self.mailboxes.get(&key) {
            Some((class, tasks)) if !tasks.is_empty() => {
                self.deques[*class as usize].push_back(Entry::Stream(key));
            }
            _ => {
                self.mailboxes.remove(&key);
            }
        }
    }
}

struct PoolShared {
    queue: Mutex<Queue>,
    /// Workers wait here for a task or for shutdown.
    work: Condvar,
    /// Blocked submitters wait here for a free slot or for shutdown.
    space: Condvar,
    capacity: usize,
}

impl PoolShared {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().expect("pool queue poisoned")
    }
}

/// A fixed-size pool of worker threads over one two-class queue.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    worker_count: usize,
}

impl WorkerPool {
    /// Spawns `workers` threads over one queue bounded at `queue_capacity`
    /// pending tasks. Both are clamped to at least 1.
    pub fn new(workers: usize, queue_capacity: usize) -> Self {
        let worker_count = workers.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::default(),
            work: Condvar::new(),
            space: Condvar::new(),
            capacity: queue_capacity.max(1),
        });
        let workers = (0..worker_count)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tonemap-worker-{index}"))
                    .spawn(move || worker_loop(&shared))
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

    /// Capacity of the bounded queue.
    pub fn queue_capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Tasks currently queued (not yet dequeued), stream tasks included.
    pub fn queued(&self) -> usize {
        self.shared.lock().total()
    }

    /// The backlog a newly submitted task of `priority` would queue
    /// behind: tasks of its own class plus — for batch — everything
    /// interactive that outranks it. This is the queue-position input to
    /// the service's admission model.
    pub fn backlog_ahead_of(&self, priority: Priority) -> usize {
        self.shared.lock().queued[..=priority as usize].iter().sum()
    }

    /// Tasks handed [`TaskFate::Expired`] at dequeue.
    pub fn expired(&self) -> u64 {
        self.shared.lock().expired
    }

    /// Total dequeues so far (the next `dequeue_seq` to be assigned).
    pub fn dequeues(&self) -> u64 {
        self.shared.lock().dequeues
    }

    /// `true` once [`WorkerPool::shutdown`] has begun.
    pub fn is_shut_down(&self) -> bool {
        self.shared.lock().shutdown
    }

    /// Enqueues a task without blocking, refusing with
    /// [`PoolError::QueueFull`] when the queue is at capacity.
    pub fn try_execute(&self, task: Task, options: TaskOptions) -> Result<(), PoolError> {
        self.enqueue(task, options, false)
    }

    /// Enqueues a task, blocking the caller while the queue is at capacity
    /// (backpressure on the submitter).
    pub fn execute(&self, task: Task, options: TaskOptions) -> Result<(), PoolError> {
        self.enqueue(task, options, true)
    }

    fn enqueue(&self, task: Task, options: TaskOptions, block: bool) -> Result<(), PoolError> {
        let mut queue = self.shared.lock();
        loop {
            if queue.shutdown {
                return Err(PoolError::ShutDown);
            }
            if queue.total() < self.shared.capacity {
                break;
            }
            if !block {
                return Err(PoolError::QueueFull);
            }
            queue = self.shared.space.wait(queue).expect("pool queue poisoned");
        }
        let task = QueuedTask {
            run: task,
            priority: options.priority,
            deadline: options.deadline,
        };
        queue.push(task, options.stream);
        drop(queue);
        self.shared.work.notify_one();
        Ok(())
    }

    /// Raises the shutdown flag, wakes everyone, and joins every worker.
    /// Queued tasks complete (or expire) before this returns; further
    /// submissions fail with [`PoolError::ShutDown`]. Idempotent.
    pub fn shutdown(&self) {
        self.shared.lock().shutdown = true;
        // Blocked submitters must observe the flag and give up their wait.
        self.shared.space.notify_all();
        self.shared.work.notify_all();
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
        let queue = self.shared.lock();
        f.debug_struct("WorkerPool")
            .field("workers", &self.worker_count)
            .field("queue_capacity", &self.shared.capacity)
            .field("queued", &queue.total())
            .field("shut_down", &queue.shutdown)
            .finish()
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut queue = shared.lock();
    loop {
        let Some((run, fate, stream)) = queue.pop() else {
            // A stream whose task runs elsewhere is not in a deque: the
            // worker running it re-queues it and takes it in turn.
            if queue.shutdown {
                return;
            }
            queue = shared.work.wait(queue).expect("pool queue poisoned");
            continue;
        };
        drop(queue);
        shared.space.notify_one();
        // A panicking task must not take the worker down with it; waiters
        // observe the failure through their responder channel disconnecting.
        // The worker's core is held inside the unwind boundary, so a
        // panicking task gives it back too.
        let _ = catch_unwind(AssertUnwindSafe(move || {
            let _core = tonemap_core::cores::hold();
            run(fate)
        }));
        queue = shared.lock();
        if let Some(key) = stream {
            // This worker takes the next entry itself, so a re-queued
            // stream needs no wake-up.
            queue.finish(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
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
                TaskFate::Execute { dequeue_seq } => dequeue_seq,
                TaskFate::Expired { .. } => u64::MAX,
            };
            log.lock().unwrap().push((tag, seq));
        })
    }

    /// Queues a task that parks its worker until the returned sender
    /// fires, and waits until a worker has picked it up.
    fn park_a_worker(pool: &WorkerPool) -> mpsc::Sender<()> {
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
        gate_tx
    }

    fn tags(log: &Arc<Mutex<Vec<(usize, u64)>>>) -> Vec<usize> {
        log.lock().unwrap().iter().map(|&(tag, _)| tag).collect()
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
    fn interactive_tasks_overtake_queued_batch_tasks() {
        // One worker, gated on a first task, then batch work followed by
        // interactive work: the interactive tasks drain first even though
        // they were queued later.
        let pool = WorkerPool::new(1, 16);
        let gate = park_a_worker(&pool);
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
        gate.send(()).unwrap();
        pool.shutdown();

        assert_eq!(tags(&log), vec![10, 11, 12, 0, 1, 2]);
        let seqs: Vec<u64> = log.lock().unwrap().iter().map(|&(_, seq)| seq).collect();
        assert!(
            seqs.windows(2).all(|w| w[0] < w[1]),
            "seqs ascend: {seqs:?}"
        );
    }

    #[test]
    fn a_freed_worker_takes_the_queued_interactive_task_first() {
        // Both workers parked; four batch tasks and then one interactive
        // task queued; one worker freed. Whichever worker it is, its first
        // dequeue is the interactive task.
        for trial in 0..20 {
            let pool = WorkerPool::new(2, 64);
            let first = park_a_worker(&pool);
            let second = park_a_worker(&pool);
            let (done_tx, done_rx) = mpsc::channel();
            for (tag, priority) in [
                (0, Priority::Batch),
                (1, Priority::Batch),
                (2, Priority::Batch),
                (3, Priority::Batch),
                (10, Priority::Interactive),
            ] {
                let done_tx = done_tx.clone();
                pool.execute(
                    Box::new(move |fate| done_tx.send((tag, fate)).unwrap()),
                    TaskOptions::with_priority(priority),
                )
                .unwrap();
            }
            second.send(()).unwrap();
            // The freed worker drains all five while the other stays parked;
            // the timeout only bounds a failure.
            let mut ran: Vec<(u64, usize)> = (0..5)
                .map(|_| {
                    let (tag, fate) = done_rx
                        .recv_timeout(Duration::from_secs(10))
                        .expect("the freed worker drains the queue");
                    let TaskFate::Execute { dequeue_seq } = fate else {
                        panic!("no task carries a deadline");
                    };
                    (dequeue_seq, tag)
                })
                .collect();
            ran.sort_unstable();
            assert_eq!(
                ran.iter().map(|&(_, tag)| tag).collect::<Vec<_>>(),
                vec![10, 0, 1, 2, 3],
                "trial {trial}: dequeue order"
            );
            first.send(()).unwrap();
            pool.shutdown();
        }
    }

    #[test]
    fn a_busy_stream_runs_one_task_per_turn() {
        // A gated single worker; stream 7 queues three tasks around two
        // plain ones. The stream holds one place in the batch deque and
        // goes to its back after each of its tasks.
        let pool = WorkerPool::new(1, 16);
        let gate = park_a_worker(&pool);
        let log = Arc::new(Mutex::new(Vec::new()));
        let stream = TaskOptions {
            stream: Some(7),
            ..run_opts()
        };
        for (tag, options) in [
            (0, stream),
            (10, run_opts()),
            (1, stream),
            (11, run_opts()),
            (2, stream),
        ] {
            pool.execute(tagged(tag, &log), options).unwrap();
        }
        assert_eq!(pool.queued(), 5, "mailbox tasks count as queued");
        gate.send(()).unwrap();
        pool.shutdown();
        assert_eq!(tags(&log), vec![0, 10, 11, 1, 2]);
    }

    #[test]
    fn a_stream_keeps_the_class_that_opened_its_mailbox() {
        // Stream 5 opens in the batch class; its later interactive task
        // queues and counts as batch, behind the plain batch task.
        let pool = WorkerPool::new(1, 16);
        let gate = park_a_worker(&pool);
        let log = Arc::new(Mutex::new(Vec::new()));
        let stream = |priority| TaskOptions {
            stream: Some(5),
            ..TaskOptions::with_priority(priority)
        };
        pool.execute(tagged(0, &log), stream(Priority::Batch))
            .unwrap();
        pool.execute(tagged(10, &log), run_opts()).unwrap();
        pool.execute(tagged(1, &log), stream(Priority::Interactive))
            .unwrap();
        assert_eq!(pool.backlog_ahead_of(Priority::Interactive), 0);
        assert_eq!(pool.backlog_ahead_of(Priority::Batch), 3);
        gate.send(()).unwrap();
        pool.shutdown();
        assert_eq!(tags(&log), vec![0, 10, 1]);
    }

    #[test]
    fn a_panicking_stream_task_does_not_strand_the_tasks_behind_it() {
        let pool = WorkerPool::new(2, 16);
        let stream = TaskOptions {
            stream: Some(3),
            ..run_opts()
        };
        let log = Arc::new(Mutex::new(Vec::new()));
        pool.execute(tagged(0, &log), stream).unwrap();
        pool.execute(Box::new(|_| panic!("stream task panic")), stream)
            .unwrap();
        pool.execute(tagged(2, &log), stream).unwrap();
        pool.shutdown();
        assert_eq!(tags(&log), vec![0, 2]);
        assert_eq!(pool.dequeues(), 3);
    }

    #[test]
    fn bounded_queue_applies_backpressure_deterministically() {
        let pool = WorkerPool::new(1, 1);
        let gate = park_a_worker(&pool); // the worker is busy, queue empty
        pool.try_execute(Box::new(|_| {}), run_opts()).unwrap(); // fills the 1-slot queue
        assert_eq!(
            pool.try_execute(Box::new(|_| {}), run_opts()).unwrap_err(),
            PoolError::QueueFull
        );
        assert_eq!(pool.queued(), 1);
        gate.send(()).unwrap();
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
        assert_eq!(pool.queue_capacity(), 1);
        pool.execute(Box::new(|_| {}), run_opts()).unwrap();
        pool.shutdown();
    }
}

//! The `Arc`-based frame pool: steady-state staging of raw inputs and
//! steady-state output frames without per-job frame allocations.
//!
//! Every raw job that arrives off the wire needs a full-frame staging
//! buffer, and every luminance frame the service hands out needs an output
//! buffer. A [`FramePool`] closes both loops:
//! - workers [`FramePool::acquire`] staging frames and
//!   [`FramePool::acquire_output`] the frame the executor writes a
//!   display-referred luminance output into, each reusing a free frame of
//!   the same size when one exists;
//! - the worker returns its staging frame through [`FramePool::recycle`]
//!   after execution, and a consumer returns each output it has finished
//!   with — `TonemapService::recycle` or `VideoStreamHandle::recycle` (the
//!   buffer-pool handoff of `TonemapResponse::into_frame` in
//!   `tonemap-backend`).
//!
//! The ownership rule: an output frame belongs to the consumer from
//! delivery on. A consumer that recycles every output gets two
//! acquisitions and two returns per frame, so after warm-up the pool
//! allocates nothing and discards nothing. A consumer that never recycles
//! hands no output back, so the pool holds only returned staging frames:
//! its outputs are allocated by the executor, as without a pool, unless a
//! staging frame happens to be free when the output is acquired, and one
//! allocation per frame remains either way. Output frames are counted
//! apart from staging frames ([`FramePoolStats::outputs`]).
//!
//! The pool retains at most [`FramePool::MAX_FREE_FRAMES`] free frames in
//! all, across every size it has seen. At the bound a returned frame is
//! let go when the pool already holds one of its size, and otherwise
//! replaces the frame returned longest ago, so a stream of distinct
//! resolutions cannot pin memory.
//!
//! Fault containment: a frame that was in use when its job panicked is
//! considered *poisoned* — it may be half-written or inconsistent — and
//! is dropped, never recycled. [`PoisonGuard`] implements that rule for
//! staging frames as RAII: armed around the execution, disarmed on the
//! normal path, and counting the poisoned drop when an unwind gets there
//! first. An output frame is moved into the execution, so an unwind drops
//! it with the execution's state; it is never delivered, so it is never
//! recycled.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Counters describing how the pool has been used — the evidence that
/// staging and outputs do not allocate: in steady state `allocated` and
/// `outputs - outputs_reused` stay flat while `reused` and
/// `outputs_reused` grow with traffic.
///
/// Staging frames ([`FramePool::acquire`]) and output frames
/// ([`FramePool::acquire_output`]) are counted apart; `recycled` and
/// `discarded_over_cap` count returns of either.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FramePoolStats {
    /// Staging frames handed out by [`FramePool::acquire`].
    pub acquired: u64,
    /// Staging acquisitions served from the free list (no allocation).
    pub reused: u64,
    /// Staging acquisitions that had to allocate a fresh frame.
    pub allocated: u64,
    /// Output frames handed out by [`FramePool::acquire_output`].
    pub outputs: u64,
    /// Output acquisitions served from the free list. The rest,
    /// `outputs - outputs_reused`, were allocated fresh by the executor.
    pub outputs_reused: u64,
    /// Frames returned through [`FramePool::recycle`] below
    /// [`FramePool::MAX_FREE_FRAMES`].
    pub recycled: u64,
    /// Frames returned at [`FramePool::MAX_FREE_FRAMES`]: each return let
    /// go of one frame, itself or the free frame returned longest ago.
    /// With `recycled`, every frame returned counts once.
    pub discarded_over_cap: u64,
    /// Staging frames that were in use when their job panicked: dropped,
    /// not recycled, so a half-written buffer can never resurface under a
    /// later job.
    pub dropped_poisoned: u64,
}

#[derive(Debug)]
struct PoolShared {
    /// The free frames, the one returned longest ago first.
    free: Mutex<VecDeque<Vec<f32>>>,
    acquired: AtomicU64,
    reused: AtomicU64,
    allocated: AtomicU64,
    outputs: AtomicU64,
    outputs_reused: AtomicU64,
    recycled: AtomicU64,
    discarded_over_cap: AtomicU64,
    dropped_poisoned: AtomicU64,
}

/// A shared pool of full-frame `Vec<f32>` buffers, cheap to clone
/// (`Arc`-based) and safe to use from every worker thread at once.
#[derive(Debug, Clone)]
pub struct FramePool {
    shared: Arc<PoolShared>,
}

impl FramePool {
    /// How many free frames the pool retains in all, across every size —
    /// enough for every worker of the largest supported pool to have one
    /// in flight and one queued.
    pub const MAX_FREE_FRAMES: usize = 16;

    /// An empty pool.
    pub fn new() -> Self {
        FramePool {
            shared: Arc::new(PoolShared {
                free: Mutex::default(),
                acquired: AtomicU64::new(0),
                reused: AtomicU64::new(0),
                allocated: AtomicU64::new(0),
                outputs: AtomicU64::new(0),
                outputs_reused: AtomicU64::new(0),
                recycled: AtomicU64::new(0),
                discarded_over_cap: AtomicU64::new(0),
                dropped_poisoned: AtomicU64::new(0),
            }),
        }
    }

    /// A frame of exactly `len` samples: recycled when the free list has
    /// one, freshly zero-allocated otherwise. The pool never blocks — it
    /// bounds *retention*, not concurrency.
    pub fn acquire(&self, len: usize) -> Vec<f32> {
        self.shared.acquired.fetch_add(1, Ordering::Relaxed);
        match self.take_free(len) {
            Some(frame) => {
                self.shared.reused.fetch_add(1, Ordering::Relaxed);
                debug_assert_eq!(frame.len(), len);
                frame
            }
            None => {
                self.shared.allocated.fetch_add(1, Ordering::Relaxed);
                vec![0.0f32; len]
            }
        }
    }

    /// A frame for an executor to write a `len`-sample output into: a free
    /// frame of exactly that length when the pool holds one, and otherwise
    /// an empty frame, which the executor allocates at the output's size.
    /// The executor overwrites every sample, so a reused frame's stale
    /// contents never show.
    pub fn acquire_output(&self, len: usize) -> Vec<f32> {
        self.shared.outputs.fetch_add(1, Ordering::Relaxed);
        let frame = self.take_free(len);
        if frame.is_some() {
            self.shared.outputs_reused.fetch_add(1, Ordering::Relaxed);
        }
        frame.unwrap_or_default()
    }

    /// The free frame of `len` samples returned most recently, if any.
    fn take_free(&self, len: usize) -> Option<Vec<f32>> {
        let mut free = self.shared.free.lock().expect("frame pool poisoned");
        let newest = free.iter().rposition(|frame| frame.len() == len);
        newest.and_then(|index| free.remove(index))
    }

    /// Returns a frame to the free list. At [`FramePool::MAX_FREE_FRAMES`]
    /// the pool lets go of the frame itself when it holds one of its size,
    /// and of the frame returned longest ago otherwise. Zero-length frames
    /// are ignored.
    pub fn recycle(&self, frame: Vec<f32>) {
        if frame.is_empty() {
            return;
        }
        // The frame let go is freed after the lock is released.
        let dropped = {
            let mut free = self.shared.free.lock().expect("frame pool poisoned");
            if free.len() < FramePool::MAX_FREE_FRAMES {
                free.push_back(frame);
                None
            } else if free.iter().any(|kept| kept.len() == frame.len()) {
                Some(frame)
            } else {
                free.push_back(frame);
                free.pop_front()
            }
        };
        let counter = match dropped {
            Some(_) => &self.shared.discarded_over_cap,
            None => &self.shared.recycled,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Arms a poison guard for a frame of `len` samples that is about to
    /// be used by fallible (potentially panicking) code. Disarm it on the
    /// normal path before recycling the frame.
    pub fn poison_guard(&self, len: usize) -> PoisonGuard {
        PoisonGuard {
            pool: Some(Arc::clone(&self.shared)),
            len,
        }
    }

    /// Total free frames currently retained, across all size classes.
    pub fn free_frames(&self) -> usize {
        self.shared.free.lock().expect("frame pool poisoned").len()
    }

    /// A snapshot of the pool's usage counters.
    pub fn stats(&self) -> FramePoolStats {
        FramePoolStats {
            acquired: self.shared.acquired.load(Ordering::Relaxed),
            reused: self.shared.reused.load(Ordering::Relaxed),
            allocated: self.shared.allocated.load(Ordering::Relaxed),
            outputs: self.shared.outputs.load(Ordering::Relaxed),
            outputs_reused: self.shared.outputs_reused.load(Ordering::Relaxed),
            recycled: self.shared.recycled.load(Ordering::Relaxed),
            discarded_over_cap: self.shared.discarded_over_cap.load(Ordering::Relaxed),
            dropped_poisoned: self.shared.dropped_poisoned.load(Ordering::Relaxed),
        }
    }
}

impl Default for FramePool {
    fn default() -> Self {
        FramePool::new()
    }
}

/// RAII witness that a pooled frame is in use by code that may panic.
///
/// Dropped *during an unwind* (i.e. without [`PoisonGuard::disarm`]), it
/// records the frame as poisoned — the frame itself is freed by the unwind
/// wherever it lives, and the pool's `dropped_poisoned` counter keeps the
/// books honest. On the normal path, call [`PoisonGuard::disarm`] and then
/// recycle the frame.
#[derive(Debug)]
pub struct PoisonGuard {
    pool: Option<Arc<PoolShared>>,
    #[allow(dead_code)] // retained for debugging: which frame size died
    len: usize,
}

impl PoisonGuard {
    /// The frame survived its job: stop tracking it.
    pub fn disarm(mut self) {
        self.pool = None;
    }
}

impl Drop for PoisonGuard {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.dropped_poisoned.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_recycle_acquire_reuses_the_frame() {
        let pool = FramePool::new();
        let frame = pool.acquire(64);
        assert_eq!(frame.len(), 64);
        pool.recycle(frame);
        assert_eq!(pool.free_frames(), 1);
        let again = pool.acquire(64);
        assert_eq!(again.len(), 64);
        let stats = pool.stats();
        assert_eq!(stats.acquired, 2);
        assert_eq!(stats.allocated, 1);
        assert_eq!(stats.reused, 1);
        assert_eq!(pool.free_frames(), 0);
    }

    #[test]
    fn size_classes_are_exact_and_bounded() {
        let pool = FramePool::new();
        // A 32-sample frame cannot serve a 64-sample request.
        pool.recycle(vec![0.0; 32]);
        let frame = pool.acquire(64);
        assert_eq!(frame.len(), 64);
        assert_eq!(pool.stats().allocated, 1);
        // One bound covers every size: a frame of a new size past it evicts
        // the frame returned longest ago, the 32-sample one.
        for len in 1..FramePool::MAX_FREE_FRAMES {
            pool.recycle(vec![0.0; 100 + len]);
        }
        assert_eq!(pool.free_frames(), FramePool::MAX_FREE_FRAMES);
        pool.recycle(frame);
        assert_eq!(pool.free_frames(), FramePool::MAX_FREE_FRAMES);
        assert_eq!(pool.stats().discarded_over_cap, 1);
        let _ = pool.acquire(32);
        let _ = pool.acquire(64);
        assert_eq!(pool.stats().allocated, 2, "32 was evicted, 64 kept");
        assert_eq!(pool.stats().reused, 1);
    }

    #[test]
    fn the_frame_returned_longest_ago_is_evicted_first() {
        let pool = FramePool::new();
        for len in 1..=FramePool::MAX_FREE_FRAMES {
            pool.recycle(vec![0.0; len]);
        }
        // Taking and returning length 1 makes it the newest free frame, so
        // the next two returns evict lengths 2 and 3.
        let frame = pool.acquire(1);
        pool.recycle(frame);
        pool.recycle(vec![0.0; 98]);
        pool.recycle(vec![0.0; 99]);
        assert_eq!(pool.free_frames(), FramePool::MAX_FREE_FRAMES);
        for len in [1, 4, 98, 99] {
            let _ = pool.acquire(len);
        }
        assert_eq!(pool.stats().allocated, 0, "1, 4, 98 and 99 were kept");
        let _ = pool.acquire(2);
        let _ = pool.acquire(3);
        assert_eq!(pool.stats().allocated, 2, "2 and 3 were evicted");
    }

    #[test]
    fn a_frame_of_a_kept_size_is_let_go_at_the_bound() {
        let pool = FramePool::new();
        for len in 1..=FramePool::MAX_FREE_FRAMES {
            pool.recycle(vec![0.0; len]);
        }
        // Length 1 already has a free frame: the returned one goes, and the
        // frame returned longest ago, also length 1, stays.
        pool.recycle(vec![0.0; 1]);
        assert_eq!(pool.stats().discarded_over_cap, 1);
        let _ = pool.acquire(1);
        assert_eq!(pool.stats().reused, 1);
        let _ = pool.acquire(1);
        assert_eq!(pool.stats().allocated, 1, "one length-1 frame was kept");
    }

    #[test]
    fn every_returned_frame_counts_once_past_the_bound() {
        let pool = FramePool::new();
        let returned = 3 * FramePool::MAX_FREE_FRAMES as u64;
        for _ in 0..returned {
            pool.recycle(vec![0.0; 64]);
        }
        let stats = pool.stats();
        assert_eq!(stats.recycled + stats.discarded_over_cap, returned);
        assert_eq!(stats.recycled, FramePool::MAX_FREE_FRAMES as u64);
        assert_eq!(pool.free_frames(), FramePool::MAX_FREE_FRAMES);
    }

    #[test]
    fn clones_share_one_pool() {
        let pool = FramePool::new();
        let clone = pool.clone();
        clone.recycle(vec![0.0; 16]);
        assert_eq!(pool.free_frames(), 1);
        let _ = pool.acquire(16);
        assert_eq!(clone.stats().reused, 1);
    }

    #[test]
    fn a_panicking_job_poisons_its_frame_instead_of_recycling_it() {
        let pool = FramePool::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let frame = pool.acquire(8);
            let _guard = pool.poison_guard(frame.len());
            // The frame is "in use" here; the panic unwinds both the frame
            // and the armed guard.
            panic!("injected fault");
        }));
        assert!(result.is_err());
        let stats = pool.stats();
        assert_eq!(stats.dropped_poisoned, 1);
        assert_eq!(stats.recycled, 0);
        assert_eq!(pool.free_frames(), 0, "poisoned frames must not resurface");
        // The normal path disarms and recycles.
        let frame = pool.acquire(8);
        let guard = pool.poison_guard(frame.len());
        guard.disarm();
        pool.recycle(frame);
        assert_eq!(pool.stats().dropped_poisoned, 1);
        assert_eq!(pool.stats().recycled, 1);
    }

    #[test]
    fn zero_length_frames_are_ignored() {
        let pool = FramePool::new();
        pool.recycle(Vec::new());
        assert_eq!(pool.free_frames(), 0);
        assert_eq!(pool.stats().recycled, 0);
    }
}

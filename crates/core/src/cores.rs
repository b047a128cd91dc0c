//! The host's cores, and how many of them are busy tone mapping.
//!
//! One process-wide count says how many cores are held. A service worker
//! holds one core while it runs a task ([`hold`]). A fused stream segment
//! runs one row slice on its caller's thread and claims a core for each
//! further slice, up to its schedule point's thread count, from the cores
//! nobody holds. So row slices never push a busy worker pool past the
//! host's cores, while an idle process still slices as wide as its point
//! asks.
//!
//! A claim never blocks and never fails: it may be granted no core at all,
//! and the segment then runs on its caller's thread alone. Every output row
//! is computed on its own, so the pixels are the same at any grant.
//!
//! Only pool workers hold cores. A run outside any worker pool holds no
//! core for its own thread, only for the extra slices it claims: on an idle
//! host it takes at most one slice more than the host has cores, so every
//! point the scheduler plans (one slice per core at most) slices as wide as
//! it asks.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Cores held in this process: one per running pool task, plus one per
/// extra row slice. The count publishes no other data, so every access is
/// `Relaxed`; each update is one atomic read-modify-write, which keeps the
/// count exact.
static HELD: AtomicUsize = AtomicUsize::new(0);

/// The host's cores as `available_parallelism` reports them (at least 1),
/// read once per process.
pub fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Holds one core for the calling thread until the returned guard drops,
/// also when a panic unwinds past it. A worker pool holds one around each
/// task it runs.
pub fn hold() -> Held {
    HELD.fetch_add(1, Ordering::Relaxed);
    Held {
        count: &HELD,
        cores: 1,
    }
}

/// Claims up to `extra` of the host's cores that nobody holds.
pub(crate) fn claim(extra: usize) -> Held {
    claim_from(&HELD, host_cores(), extra)
}

/// Grants `min(extra, cores − held)` cores of `count`, which may be none,
/// in a compare-and-swap loop that never blocks.
fn claim_from(count: &'static AtomicUsize, cores: usize, extra: usize) -> Held {
    let grant = |held: usize| extra.min(cores.saturating_sub(held));
    let claimed = count.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |held| {
        (grant(held) > 0).then(|| held + grant(held))
    });
    Held {
        count,
        cores: claimed.map_or(0, grant),
    }
}

/// Cores taken from the process-wide count, given back when dropped.
#[derive(Debug)]
#[must_use = "the cores are given back as soon as the guard drops"]
pub struct Held {
    count: &'static AtomicUsize,
    cores: usize,
}

impl Held {
    /// How many cores this guard holds.
    pub(crate) fn cores(&self) -> usize {
        self.cores
    }
}

impl Drop for Held {
    fn drop(&mut self) {
        self.count.fetch_sub(self.cores, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;

    #[test]
    fn a_claim_takes_at_most_the_free_cores_and_never_blocks() {
        static COUNT: AtomicUsize = AtomicUsize::new(0);
        for cores in [2, 4] {
            let all = claim_from(&COUNT, cores, 8);
            assert_eq!(all.cores(), cores, "an idle host grants every core");
            assert_eq!(
                claim_from(&COUNT, cores, 1).cores(),
                0,
                "a full host grants none"
            );
            drop(all);
            let first = claim_from(&COUNT, cores, 1);
            let rest = claim_from(&COUNT, cores, cores);
            assert_eq!((first.cores(), rest.cores()), (1, cores - 1));
            drop((first, rest));
            // Held cores beyond the host's leave nothing to claim, and
            // nothing to underflow.
            COUNT.fetch_add(cores + 3, Ordering::Relaxed);
            assert_eq!(claim_from(&COUNT, cores, cores).cores(), 0);
            COUNT.fetch_sub(cores + 3, Ordering::Relaxed);
            assert_eq!(claim_from(&COUNT, cores, 0).cores(), 0);
            assert_eq!(COUNT.load(Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn a_dropped_guard_gives_its_cores_back_also_when_unwinding() {
        static COUNT: AtomicUsize = AtomicUsize::new(0);
        for cores in [2, 4] {
            drop(claim_from(&COUNT, cores, cores));
            assert_eq!(COUNT.load(Ordering::Relaxed), 0);
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                let held = claim_from(&COUNT, cores, cores);
                assert_eq!(COUNT.load(Ordering::Relaxed), cores);
                panic!("a slice panicked while holding {} cores", held.cores());
            }));
            assert!(unwound.is_err());
            assert_eq!(
                COUNT.load(Ordering::Relaxed),
                0,
                "unwinding drops the guard"
            );
            assert_eq!(claim_from(&COUNT, cores, cores).cores(), cores);
        }
    }

    #[test]
    fn concurrent_claims_never_take_more_than_the_host_has() {
        const THREADS: usize = 8;
        static COUNT: AtomicUsize = AtomicUsize::new(0);
        for cores in [2, 4] {
            let start = Barrier::new(THREADS);
            let granted = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for thread in 0..THREADS {
                    let (start, granted) = (&start, &granted);
                    scope.spawn(move || {
                        start.wait();
                        for round in 0..1_000 {
                            let held = claim_from(&COUNT, cores, 1 + (thread + round) % cores);
                            let now = COUNT.load(Ordering::Relaxed);
                            assert!(now <= cores, "{now} cores held on a {cores}-core host");
                            granted.fetch_add(held.cores(), Ordering::Relaxed);
                        }
                    });
                }
            });
            assert_eq!(
                COUNT.load(Ordering::Relaxed),
                0,
                "every claim was given back"
            );
            assert!(granted.load(Ordering::Relaxed) > 0, "claims were granted");
        }
    }
}

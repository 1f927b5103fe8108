//! OpenMP-style data-parallel loops on scoped threads.
//!
//! The paper's CPU port of ECL-CC parallelizes "the outermost loop going
//! over the vertices … with a guided schedule" (`#pragma omp parallel for
//! schedule(guided)`). This crate reimplements that substrate from scratch:
//! [`parallel_for`] distributes an index range over a team of scoped
//! threads under a [`Schedule`] (static, dynamic, or guided).
//!
//! Worker threads are spawned per call with [`std::thread::scope`], which
//! keeps borrows safe without `'static` bounds and matches the paper's
//! observation that dynamic parallelization overhead (thread creation +
//! worklist maintenance) is visible on small inputs (§5.3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

pub mod counters;

/// Loop-scheduling policies, mirroring OpenMP's `schedule` clause.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// Split the range into one contiguous block per thread.
    Static,
    /// Threads repeatedly claim fixed-size chunks from a shared counter.
    Dynamic {
        /// Iterations per claim; must be ≥ 1.
        chunk: usize,
    },
    /// Chunk size starts at `remaining / nthreads` and shrinks as the loop
    /// drains, never below `min_chunk` (OpenMP `schedule(guided)`).
    Guided {
        /// Lower bound on the claimed chunk size; must be ≥ 1.
        min_chunk: usize,
    },
}

impl Schedule {
    /// The guided schedule the ECL-CC OpenMP port uses.
    pub const GUIDED: Schedule = Schedule::Guided { min_chunk: 64 };
}

/// Number of worker threads to use by default: the machine's available
/// parallelism (1 if unknown).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `body(i)` for every `i` in `0..n` across `nthreads` threads under
/// `schedule`. Blocks until every iteration has completed.
///
/// `body` observes iterations in an unspecified order and from multiple
/// threads; shared state must be synchronized (the CC algorithms use atomic
/// parent arrays precisely for this).
pub fn parallel_for<F>(nthreads: usize, n: usize, schedule: Schedule, body: F)
where
    F: Fn(usize) + Sync,
{
    let nthreads = nthreads.max(1);
    if n == 0 {
        return;
    }
    if nthreads == 1 || n == 1 {
        for i in 0..n {
            body(i);
        }
        return;
    }
    match schedule {
        Schedule::Static => {
            std::thread::scope(|s| {
                for t in 0..nthreads {
                    let body = &body;
                    // Contiguous blocks with the remainder spread over the
                    // first `n % nthreads` threads.
                    let base = n / nthreads;
                    let extra = n % nthreads;
                    let start = t * base + t.min(extra);
                    let len = base + usize::from(t < extra);
                    s.spawn(move || {
                        for i in start..start + len {
                            body(i);
                        }
                    });
                }
            });
        }
        Schedule::Dynamic { chunk } => {
            let chunk = chunk.max(1);
            let next = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..nthreads {
                    let body = &body;
                    let next = &next;
                    s.spawn(move || loop {
                        let start = next.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        for i in start..(start + chunk).min(n) {
                            body(i);
                        }
                    });
                }
            });
        }
        Schedule::Guided { min_chunk } => {
            let min_chunk = min_chunk.max(1);
            let next = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..nthreads {
                    let body = &body;
                    let next = &next;
                    s.spawn(move || loop {
                        // Claim `remaining / nthreads` iterations (at least
                        // min_chunk) with a CAS so the chunk size tracks the
                        // actual remaining work.
                        let mut start = next.load(Ordering::Relaxed);
                        let end = loop {
                            if start >= n {
                                return;
                            }
                            let remaining = n - start;
                            let chunk = (remaining / nthreads).max(min_chunk).min(remaining);
                            match next.compare_exchange_weak(
                                start,
                                start + chunk,
                                Ordering::Relaxed,
                                Ordering::Relaxed,
                            ) {
                                Ok(_) => break start + chunk,
                                Err(cur) => start = cur,
                            }
                        };
                        for i in start..end {
                            body(i);
                        }
                    });
                }
            });
        }
    }
}

/// Spawns a team of `nthreads` scoped workers, passing each its 0-based
/// thread ID, and joins them all. The low-level building block behind the
/// higher-level loops; exposed for algorithms that need long-lived
/// per-thread state (e.g. the BFS baselines' local worklists).
pub fn parallel_for_teams<F>(nthreads: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    let nthreads = nthreads.max(1);
    if nthreads == 1 {
        body(0);
        return;
    }
    std::thread::scope(|s| {
        for t in 0..nthreads {
            let body = &body;
            s.spawn(move || body(t));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn check_covers_all(nthreads: usize, n: usize, schedule: Schedule) {
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        parallel_for(nthreads, n, schedule, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i} hit count wrong");
        }
    }

    #[test]
    fn static_covers_every_index_exactly_once() {
        for n in [0, 1, 2, 7, 100, 1001] {
            check_covers_all(4, n, Schedule::Static);
        }
    }

    #[test]
    fn dynamic_covers_every_index_exactly_once() {
        for chunk in [1, 3, 64, 10_000] {
            check_covers_all(4, 1001, Schedule::Dynamic { chunk });
        }
    }

    #[test]
    fn guided_covers_every_index_exactly_once() {
        for min_chunk in [1, 7, 64] {
            check_covers_all(4, 1001, Schedule::Guided { min_chunk });
        }
    }

    #[test]
    fn more_threads_than_work() {
        check_covers_all(16, 3, Schedule::Static);
        check_covers_all(16, 3, Schedule::Dynamic { chunk: 2 });
        check_covers_all(16, 3, Schedule::Guided { min_chunk: 4 });
    }

    #[test]
    fn zero_threads_clamped_to_one() {
        check_covers_all(0, 10, Schedule::Static);
    }

    #[test]
    fn zero_chunk_clamped() {
        check_covers_all(4, 50, Schedule::Dynamic { chunk: 0 });
        check_covers_all(4, 50, Schedule::Guided { min_chunk: 0 });
    }

    #[test]
    fn teams_see_distinct_ids() {
        let seen: Vec<AtomicU64> = (0..8).map(|_| AtomicU64::new(0)).collect();
        parallel_for_teams(8, |tid| {
            seen[tid].fetch_add(1, Ordering::Relaxed);
        });
        assert!(seen.iter().all(|s| s.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn default_threads_nonzero() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn panicking_body_propagates_not_deadlocks() {
        // A panic inside one iteration must surface to the caller (via the
        // scope join) rather than hanging the team.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_for(4, 100, Schedule::Dynamic { chunk: 4 }, |i| {
                if i == 57 {
                    panic!("injected failure");
                }
            });
        }));
        assert!(result.is_err(), "panic was swallowed");
    }

    #[test]
    fn parallel_writes_disjoint_slots() {
        // Each iteration owns slot i; values must land untorn.
        let n = 5000;
        let out: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        parallel_for(8, n, Schedule::Dynamic { chunk: 13 }, |i| {
            out[i].store((i * i) as u64, Ordering::Relaxed);
        });
        for (i, slot) in out.iter().enumerate() {
            assert_eq!(slot.load(Ordering::Relaxed), (i * i) as u64);
        }
    }
}

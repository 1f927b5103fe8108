//! Cache-friendly shared counters used by the worklist-driven algorithms.

use std::sync::atomic::{AtomicUsize, Ordering};

/// A monotone work counter threads claim chunks from.
///
/// Equivalent to the shared index underlying dynamic scheduling, exposed
/// for algorithms (e.g. the BFS baselines) that manage their own frontier
/// arrays and need chunked claiming over a changing bound.
#[derive(Debug, Default)]
pub struct WorkCounter {
    next: AtomicUsize,
}

impl WorkCounter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        WorkCounter {
            next: AtomicUsize::new(0),
        }
    }

    /// Claims the next `chunk` indices below `limit`; returns the claimed
    /// half-open range, or `None` when the range is exhausted.
    #[inline]
    pub fn claim(&self, chunk: usize, limit: usize) -> Option<(usize, usize)> {
        let chunk = chunk.max(1);
        let start = self.next.fetch_add(chunk, Ordering::Relaxed);
        if start >= limit {
            None
        } else {
            Some((start, (start + chunk).min(limit)))
        }
    }

    /// Resets the counter to zero (only call between parallel phases).
    pub fn reset(&self) {
        self.next.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_covers_range_without_overlap() {
        let c = WorkCounter::new();
        let mut seen = vec![false; 1000];
        while let Some((s, e)) = c.claim(7, 1000) {
            for slot in seen.iter_mut().take(e).skip(s) {
                assert!(!*slot);
                *slot = true;
            }
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn claim_respects_limit() {
        let c = WorkCounter::new();
        let (s, e) = c.claim(100, 42).unwrap();
        assert_eq!((s, e), (0, 42));
        assert!(c.claim(100, 42).is_none());
    }

    #[test]
    fn reset_allows_reuse() {
        let c = WorkCounter::new();
        assert!(c.claim(10, 10).is_some());
        assert!(c.claim(10, 10).is_none());
        c.reset();
        assert!(c.claim(10, 10).is_some());
    }
}

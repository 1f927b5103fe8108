//! Exact order statistics over raw samples, and the residual arithmetic
//! that makes the timed layer parts add up to an end-to-end time.
//!
//! Percentiles are computed from every recorded sample, never from a
//! bucketed histogram: `ecl_obs::Histo` has a documented ±12.5% bucket
//! error, wider than the run-to-run spread this benchmark has to resolve.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value such that at least `p`% of the samples are at or below it.
/// `None` for an empty sample or a `p` outside `(0, 100]`.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Number of samples strictly above the `p` percentile's rank — the
/// support for reporting that percentile (at least ten are needed).
pub fn samples_beyond(len: usize, p: f64) -> usize {
    let rank = (p / 100.0 * len as f64).ceil() as usize;
    len.saturating_sub(rank)
}

/// The `p` percentile of each window `0..windows` over `(window, value)`
/// samples; samples in later windows are ignored and a window without
/// samples is skipped.
pub fn window_percentiles(samples: &[(usize, u64)], windows: usize, p: f64) -> Vec<u64> {
    let mut by_window: Vec<Vec<u64>> = vec![Vec::new(); windows];
    for &(w, v) in samples {
        if let Some(bucket) = by_window.get_mut(w) {
            bucket.push(v);
        }
    }
    by_window
        .into_iter()
        .filter_map(|mut b| {
            b.sort_unstable();
            percentile(&b, p)
        })
        .collect()
}

/// Median of unsorted values (mean of the two middle values for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Fewest steal-free samples [`clean_median`] needs before it ignores
/// the stolen ones.
pub const MIN_CLEAN: usize = 5;

/// Median of `(value, stolen ticks)` samples over those during which the
/// host stole no CPU tick, when there are at least [`MIN_CLEAN`] of them;
/// otherwise the median of all samples. Returns the median and the number
/// of samples it was taken over.
pub fn clean_median(samples: &[(f64, u64)]) -> (f64, usize) {
    let clean: Vec<f64> = samples.iter().filter(|s| s.1 == 0).map(|s| s.0).collect();
    let used: Vec<f64> = if clean.len() >= MIN_CLEAN {
        clean
    } else {
        samples.iter().map(|s| s.0).collect()
    };
    (median(&used).unwrap_or(0.0), used.len())
}

/// What remains of `total` after the timed `parts`: the explicitly
/// reported remainder that makes parts + residual = total. May be
/// negative when the parts were timed on another pass than the total.
pub fn residual(total: f64, parts: &[f64]) -> f64 {
    total - parts.iter().sum::<f64>()
}

/// Residual of a batch run by `workers` threads in parallel: the parts
/// are busy times summed over all workers, so their share of the wall
/// clock is their sum divided by the worker count.
pub fn parallel_residual(wall: f64, busy_parts: &[f64], workers: usize) -> f64 {
    wall - busy_parts.iter().sum::<f64>() / workers.max(1) as f64
}

/// Relative overhead in percent of `traced` over `plain` (both costs,
/// e.g. milliseconds per round). 0 when `plain` is not positive.
pub fn overhead_pct(traced: f64, plain: f64) -> f64 {
    if plain > 0.0 {
        (traced / plain - 1.0) * 100.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_match_hand_computed_cases() {
        let s: Vec<u64> = (1..=10).collect();
        // rank = ceil(p/100 * 10)
        assert_eq!(percentile(&s, 50.0), Some(5));
        assert_eq!(percentile(&s, 90.0), Some(9));
        assert_eq!(percentile(&s, 99.0), Some(10));
        assert_eq!(percentile(&s, 100.0), Some(10));
        assert_eq!(percentile(&s, 1.0), Some(1));
        // Five samples: p50 -> rank 3, p99 -> rank 5.
        let s = [10, 20, 30, 40, 50];
        assert_eq!(percentile(&s, 50.0), Some(30));
        assert_eq!(percentile(&s, 99.0), Some(50));
        assert_eq!(percentile(&s, 20.0), Some(10));
        assert_eq!(percentile(&s, 21.0), Some(20));
        // 1000 samples 0..999: p99 -> rank 990 -> value 989.
        let s: Vec<u64> = (0..1000).collect();
        assert_eq!(percentile(&s, 99.0), Some(989));
        assert_eq!(samples_beyond(s.len(), 99.0), 10);
    }

    #[test]
    fn percentile_rejects_empty_and_out_of_range() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[1, 2], 0.0), None);
        assert_eq!(percentile(&[1, 2], 100.5), None);
        assert_eq!(percentile(&[7], 99.0), Some(7));
    }

    #[test]
    fn failed_requests_sort_last_and_miss_the_tail() {
        // Failures are recorded as u64::MAX: two failures out of 100
        // samples push p99 past any finite limit.
        let mut s: Vec<u64> = (1..=98).collect();
        s.extend([u64::MAX, u64::MAX]);
        s.sort_unstable();
        assert_eq!(percentile(&s, 50.0), Some(50));
        assert_eq!(percentile(&s, 99.0), Some(u64::MAX));
    }

    #[test]
    fn window_percentiles_split_by_window() {
        // Window 0: 1..=4, window 1: 10, 20; window 2 is outside.
        let s = [(0, 3), (1, 20), (0, 1), (0, 4), (1, 10), (0, 2), (2, 99)];
        assert_eq!(window_percentiles(&s, 2, 50.0), vec![2, 10]);
        assert_eq!(window_percentiles(&s, 2, 99.0), vec![4, 20]);
        assert_eq!(window_percentiles(&s, 4, 100.0), vec![4, 20, 99]);
        assert_eq!(median(&[2.0, 10.0]), Some(6.0));
    }

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn clean_median_ignores_stolen_samples_when_enough_are_clean() {
        let mut s: Vec<(f64, u64)> = (1..=5).map(|v| (v as f64, 0)).collect();
        s.extend([(100.0, 1), (200.0, 3)]);
        assert_eq!(clean_median(&s), (3.0, 5));
        // Four clean samples are too few: every sample counts, and the
        // median of 2, 3, 4, 5, 100, 200 is 4.5.
        s.remove(0);
        assert_eq!(clean_median(&s), (4.5, 6));
        assert_eq!(clean_median(&[]), (0.0, 0));
    }

    #[test]
    fn residual_arithmetic_matches_hand_computed_cases() {
        assert_eq!(residual(100.0, &[30.0, 50.0]), 20.0);
        assert_eq!(residual(10.0, &[]), 10.0);
        assert_eq!(residual(10.0, &[12.0]), -2.0);
        // Two workers, 1.6 s of summed busy time in a 1.0 s batch:
        // 0.8 s of wall clock is covered, 0.2 s is residual.
        assert!((parallel_residual(1.0, &[1.2, 0.4], 2) - 0.2).abs() < 1e-12);
        assert_eq!(parallel_residual(5.0, &[3.0], 0), 2.0);
    }

    #[test]
    fn overhead_is_relative_to_the_plain_cost() {
        assert!((overhead_pct(102.0, 100.0) - 2.0).abs() < 1e-12);
        assert!((overhead_pct(99.0, 100.0) + 1.0).abs() < 1e-12);
        assert_eq!(overhead_pct(5.0, 0.0), 0.0);
    }
}

//! The estimators: percentiles inside one timed block, medians across
//! rounds, and quartile spreads across invocations.
//!
//! A pooled high percentile is captured by any interference phase that
//! covers more than its tail share of the run; a percentile taken inside
//! each round and then the median over the rounds is not, as long as
//! most rounds stay quiet. (What a busy host does to a whole round is
//! taken out earlier, sample by sample: see `host`.)

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Sorts a sample set in place (timings are never NaN).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
}

/// The `p`-quantile (0 ≤ p ≤ 1) of an ascending-sorted, non-empty slice:
/// the nearest-rank value, so the result is always a measured sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly beyond the nearest-rank `p`-quantile.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The highest of p50/p90/p95/p99 that keeps at least [`MIN_BEYOND`]
/// samples beyond it in a block of `n` samples.
pub fn highest_supported_percentile(n: usize) -> f64 {
    [0.99, 0.95, 0.90]
        .into_iter()
        .find(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(0.50)
}

/// The median of a non-empty set (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty set");
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// acceptance rule for this benchmark is stated in. Needs ≥ 2 values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median (0 when the median is 0).
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1).abs() / m.abs()
    }
}

/// `(max − min) / median` of the per-round values, in percent — the
/// round-to-round spread reported as a health diagnostic.
pub fn range_pct(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let max = values.iter().cloned().fold(f64::MIN, f64::max);
    let min = values.iter().cloned().fold(f64::MAX, f64::min);
    (max - min) / m * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50.0);
        assert_eq!(percentile_sorted(&v, 0.90), 90.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn ten_beyond_rule_picks_the_percentile() {
        // 100 samples: exactly 10 beyond p90, only 5 beyond p95.
        assert_eq!(beyond(100, 0.90), 10);
        assert_eq!(beyond(100, 0.95), 5);
        assert_eq!(highest_supported_percentile(100), 0.90);
        assert_eq!(highest_supported_percentile(99), 0.50);
        assert_eq!(highest_supported_percentile(200), 0.95);
        assert_eq!(highest_supported_percentile(1000), 0.99);
        assert_eq!(highest_supported_percentile(0), 0.50);
    }

    #[test]
    fn round_median_ignores_a_disturbed_minority() {
        // Three of seven rounds sit in a heavy phase (+60 %): the median
        // of the rounds does not move, a pooled mean would.
        let rounds = [53.0, 85.0, 52.5, 84.0, 53.5, 86.0, 53.2];
        assert_eq!(median(&rounds), 53.5);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2, 10, 4], n=4) == [1.5, 3.0, 7.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0, 10.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 7.0).abs() < 1e-12);
        assert!((iqr_share(&[3.0, 1.0, 2.0, 10.0, 4.0]) - 5.5 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn range_pct_is_relative_to_median() {
        assert!((range_pct(&[90.0, 100.0, 120.0]) - 30.0).abs() < 1e-12);
        assert_eq!(range_pct(&[0.0, 0.0]), 0.0);
    }
}

//! Order statistics for the benchmark's own reporting: percentiles with the
//! sample-count rule, medians, and the quartile spread the driver gates on.

/// The `q`-quantile (`0.0..=1.0`) of an ascending-sorted slice by the
/// nearest-rank rule: the smallest sample with at least `q` of the samples
/// at or below it. `0.0` on an empty slice.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the reported tail percentiles that `n` samples support: a
/// percentile is reported only when at least ten samples lie beyond it, so
/// a tail is never one or two outliers. `None` when even p90 is unsupported.
pub fn highest_supported_tail(n: usize) -> Option<f64> {
    // Per-mille and integer arithmetic: `100.0 * (1.0 - 0.9)` is not 10.
    [999usize, 990, 900]
        .into_iter()
        .find(|per_mille| n - (n * per_mille).div_ceil(1000) >= 10)
        .map(|per_mille| per_mille as f64 / 1000.0)
}

/// `numerator / denominator`, or 0 when there is nothing to divide by (a
/// smoke run may commit nothing in a phase).
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Median of an unsorted sample (mean of the two middle values when the
/// count is even). `0.0` on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First quartile of an unsorted sample ([`quartiles`]); the sample itself
/// when there is only one.
pub fn lower_quartile(values: &[f64]) -> f64 {
    match values {
        [] => 0.0,
        [only] => *only,
        _ => quartiles(values).0,
    }
}

/// First and third quartile by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns as its first and last cut
/// point, which is how the driver computes a metric's spread. Needs at
/// least two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median — the steadiness figure
/// the driver compares with a metric's bound.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let mid = median(values);
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_follow_the_nearest_rank_rule() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&sorted, 0.5), 50);
        assert_eq!(percentile_sorted(&sorted, 0.99), 99);
        assert_eq!(percentile_sorted(&sorted, 1.0), 100);
        assert_eq!(percentile_sorted(&sorted, 0.0), 1);
        assert_eq!(percentile_sorted(&[7], 0.99), 7);
        assert_eq!(percentile_sorted(&[], 0.5), 0);
    }

    #[test]
    fn the_lower_quartile_is_the_drivers_first_cut_point() {
        assert_eq!(lower_quartile(&[5.0]), 5.0);
        assert_eq!(lower_quartile(&[]), 0.0);
        let ten: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert!((lower_quartile(&ten) - 2.75).abs() < 1e-12);
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_tail(99), None);
        assert_eq!(highest_supported_tail(100), Some(0.9));
        assert_eq!(highest_supported_tail(999), Some(0.9));
        assert_eq!(highest_supported_tail(1_000), Some(0.99));
        assert_eq!(highest_supported_tail(9_999), Some(0.99));
        assert_eq!(highest_supported_tail(10_000), Some(0.999));
    }

    #[test]
    fn medians_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&ten);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((relative_spread(&ten) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }
}

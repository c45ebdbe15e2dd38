//! Order statistics for the benchmark's reports: medians over rounds,
//! quartiles for run-to-run spread, and the highest percentile a sample
//! count can support.

/// Linear-interpolated quantile `q ∈ [0, 1]` of `sorted` (ascending).
/// `None` on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

fn sorted_copy(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (0 when empty, so a metric over no samples reads as
/// "nothing happened" rather than poisoning a report with NaN).
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted_copy(values), 0.5).unwrap_or(0.0)
}

/// First quartile, median and third quartile by the exclusive method —
/// the one Python's `statistics.quantiles(values, n=4)` uses, which is what
/// the acceptance rule for this benchmark is written in. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted_copy(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        // Position k·(n+1)/4 in 1-based ranks, clamped to the sample.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some([at(1), at(2), at(3)])
}

/// Interquartile distance as a share of the median — the spread the
/// acceptance rule compares against a metric's bound.
pub fn iqr_over_median(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Candidate tail percentiles in per mille, highest last.
const TAILS: [usize; 5] = [500, 900, 950, 990, 999];

/// The highest of p50/p90/p95/p99/p99.9 that still has at least ten samples
/// beyond it, with its value: a p99 over 200 samples rests on two points and
/// does not repeat, so it is not reported. `None` below 20 samples.
pub fn highest_supported_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted_copy(values);
    // Whole-number arithmetic: 100 samples have exactly ten beyond p90.
    let p = TAILS
        .iter()
        .copied()
        .rfind(|p| v.len() * (1000 - p) >= 10_000)? as f64
        / 10.0;
    Some((p, quantile_sorted(&v, p / 100.0)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(iqr_over_median(&v), Some(1.0));
        assert_eq!(iqr_over_median(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let v = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(highest_supported_percentile(&v(19)), None);
        assert_eq!(highest_supported_percentile(&v(20)).unwrap().0, 50.0);
        assert_eq!(highest_supported_percentile(&v(100)).unwrap().0, 90.0);
        assert_eq!(highest_supported_percentile(&v(200)).unwrap().0, 95.0);
        assert_eq!(highest_supported_percentile(&v(1000)).unwrap().0, 99.0);
        assert_eq!(highest_supported_percentile(&v(10_000)).unwrap().0, 99.9);
        let (p, val) = highest_supported_percentile(&v(1001)).unwrap();
        assert_eq!((p, val), (99.0, 990.0));
    }
}

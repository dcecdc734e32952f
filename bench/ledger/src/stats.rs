//! Order statistics the ledger reports: exact percentiles over stored
//! samples, the median of a run's rounds, and the quartile spread the
//! pipeline uses to judge run-to-run noise.

/// The `q`-quantile (`0 < q <= 1`) of `samples` by nearest rank: the
/// `ceil(q * n)`-th smallest value, exactly as recorded. Sorts in place.
/// `None` when empty.
pub fn percentile(samples: &mut [u32], q: f64) -> Option<u32> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    Some(samples[rank - 1])
}

/// Median of a small set of per-round values (mean of the middle two when
/// the count is even). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` computes them (the "exclusive" method) — the pipeline's own
/// definition of spread, reproduced so `ledger compare` judges by the
/// same rule. `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// a bound must exceed before a comparison can resolve. 0 with fewer than
/// two values or a zero median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), Some(mid)) if mid != 0.0 => (q3 - q1) / mid.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_on_exact_values() {
        let mut samples: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut samples, 0.50), Some(50));
        assert_eq!(percentile(&mut samples, 0.99), Some(99));
        assert_eq!(percentile(&mut samples, 1.0), Some(100));
        assert_eq!(percentile(&mut [7], 0.5), Some(7));
        assert_eq!(percentile(&mut [], 0.5), None);
        // No bucketing: a value between powers of two comes back as is.
        let mut odd = vec![1_000_003, 5, 999_999_999];
        assert_eq!(percentile(&mut odd, 0.5), Some(1_000_003));
    }

    #[test]
    fn median_of_rounds_ignores_outlier_rounds() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0]), Some(2.5));
        // Three of seven rounds disturbed: the median still sits on a
        // quiet round.
        let rounds = [100.0, 101.0, 12.0, 99.0, 15.0, 100.5, 9.0];
        assert_eq!(median(&rounds), Some(99.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(
            quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
            Some((15.0, 45.0))
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((quartile_spread(&values) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
    }
}

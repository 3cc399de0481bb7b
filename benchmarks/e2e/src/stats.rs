//! Order statistics used by every metric: medians, nearest-rank percentiles,
//! interpolated quantiles, and the quartile spread the benchmark's
//! steadiness is judged by.

/// A sorted copy of `values` (NaNs are a bug in the caller and sort last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice; `p` in `[0, 100]`.
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The value a share `q` of the way through the ascending samples, linear
/// between neighbours (`q` = 0.5 is the median); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let at = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let below = at.floor() as usize;
    let above = (below + 1).min(v.len() - 1);
    v[below] + (v[above] - v[below]) * (at - below as f64)
}

/// Largest value; 0 when empty.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)` gives
/// them (the exclusive method) — the rule the steadiness check is stated in.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let q = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Run-to-run spread: distance between the first and third quartile as a
/// share of the median.  0 when there are too few values to say.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, _, q3)) => {
            let med = median(values);
            if med == 0.0 {
                0.0
            } else {
                (q3 - q1).abs() / med.abs()
            }
        }
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantile_interpolates_between_neighbours() {
        let v = [40.0, 10.0, 30.0, 20.0, 50.0];
        assert_eq!(quantile(&v, 0.25), 20.0);
        assert_eq!(quantile(&v, 0.5), median(&v));
        assert_eq!(quantile(&v, 0.75), 40.0);
        assert_eq!(quantile(&[1.0, 3.0], 0.25), 1.5);
        assert_eq!(quantile(&[7.0], 0.75), 7.0);
        assert_eq!(quantile(&[], 0.25), 0.0);
        // One slow outlier among the samples moves the mean, not the fast
        // quartile.
        assert_eq!(quantile(&[10.0, 10.0, 10.0, 10.0, 90.0], 0.25), 10.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}

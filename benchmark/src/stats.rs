//! Medians, quartiles and the tail-percentile rule.

/// Percentiles the tail rule chooses from, highest first.
pub const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// A tail percentile is only reported when this many samples lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for even counts); 0 if empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest rank (1-based) of percentile `p` among `n` samples, in whole
/// per-mille steps so that 99.9 % of 10 000 is exactly 9 990.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (n * per_mille).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice; 0 if empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// The highest percentile of [`LADDER`], at most `cap`, that still has
/// [`MIN_BEYOND`] of `n` samples beyond it; the median when none has.
pub fn supported_percentile(n: usize, cap: f64) -> f64 {
    LADDER
        .iter()
        .copied()
        .filter(|&p| p <= cap)
        .find(|&p| n - rank(n, p) >= MIN_BEYOND)
        .unwrap_or(50.0)
}

/// Sorts `samples` and returns `(p50, tail, tail_percentile)`, the tail being
/// p99 where [`supported_percentile`] allows it and the highest supported
/// percentile below it otherwise.
pub fn p50_and_tail(samples: &mut [f64]) -> (f64, f64, f64) {
    samples.sort_by(f64::total_cmp);
    let tail = supported_percentile(samples.len(), 99.0);
    (
        percentile_sorted(samples, 50.0),
        percentile_sorted(samples, tail),
        tail,
    )
}

/// `(q1, median, q3)` by the exclusive method, as Python's
/// `statistics.quantiles(values, n=4)` computes them. Needs two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(2), at(3))
}

/// Extremes and count of one metric's repetitions, reported beside its median.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

pub fn summarize(values: &[f64]) -> Summary {
    Summary {
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        n: values.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_picks_the_highest_percentile_with_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(10_000, 99.9), 99.9);
        assert_eq!(supported_percentile(9_999, 99.9), 99.0);
        assert_eq!(supported_percentile(1_000, 99.0), 99.0);
        assert_eq!(supported_percentile(999, 99.0), 95.0);
        assert_eq!(supported_percentile(200, 99.0), 95.0);
        assert_eq!(supported_percentile(199, 99.0), 90.0);
        assert_eq!(supported_percentile(40, 99.0), 75.0);
        assert_eq!(supported_percentile(20, 99.0), 50.0);
        assert_eq!(supported_percentile(3, 99.0), 50.0);
        // The cap wins over what the sample count would allow.
        assert_eq!(supported_percentile(1_000_000, 99.0), 99.0);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&sorted, 50.0), 50.0);
        assert_eq!(percentile_sorted(&sorted, 99.0), 99.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 100.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
        let mut few = vec![5.0, 1.0, 3.0];
        assert_eq!(p50_and_tail(&mut few), (3.0, 3.0, 50.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        assert_eq!(median(&v), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}

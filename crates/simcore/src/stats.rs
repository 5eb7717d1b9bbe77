//! Online statistics: running mean/variance, percentiles and histograms.
//!
//! These accumulators back every latency, QoS and cost series in the
//! experiments, so they avoid storing anything beyond what the reports need.

/// Welford-style running mean/variance plus min/max, with exact percentiles on
/// demand (samples are retained; the experiments keep at most a few hundred
/// thousand points, which is well within budget).
///
/// # Example
///
/// ```
/// use dejavu_simcore::OnlineStats;
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.record(x);
/// }
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.min(), Some(1.0));
/// assert_eq!(s.max(), Some(4.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    samples: Vec<f64>,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            samples: Vec::new(),
        }
    }

    /// Records one sample.
    ///
    /// Non-finite samples are ignored (and counted nowhere) so that a model
    /// glitch cannot poison an entire experiment series.
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.samples.push(x);
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &OnlineStats) {
        for &x in &other.samples {
            self.record(x);
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns true if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance, or 0.0 if fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean, or 0.0 if fewer than two samples.
    pub fn std_error(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Minimum sample, if any.
    pub fn min(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Maximum sample, if any.
    pub fn max(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }

    /// Exact percentile in `[0, 100]` using nearest-rank interpolation, or
    /// `None` if empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let rank = (p / 100.0) * (sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }

    /// Access to the raw recorded samples (in insertion order).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = OnlineStats::new();
        for x in iter {
            s.record(x);
        }
        s
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.record(x);
        }
    }
}

/// A fixed-width histogram over `[lo, hi)` with overflow/underflow buckets.
///
/// # Example
///
/// ```
/// use dejavu_simcore::Histogram;
/// let mut h = Histogram::new(0.0, 100.0, 10);
/// h.record(5.0);
/// h.record(95.0);
/// h.record(150.0); // overflow
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.bucket_count(0), 1);
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `n` equal-width buckets.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or `n == 0`.
    pub fn new(lo: f64, hi: f64, n: usize) -> Self {
        assert!(lo < hi, "histogram bounds must satisfy lo < hi");
        assert!(n > 0, "histogram needs at least one bucket");
        Histogram {
            lo,
            hi,
            buckets: vec![0; n],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Records a sample.
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() || x < self.lo {
            self.underflow += 1;
            return;
        }
        if x >= self.hi {
            self.overflow += 1;
            return;
        }
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        let idx = ((x - self.lo) / width) as usize;
        let idx = idx.min(self.buckets.len() - 1);
        self.buckets[idx] += 1;
    }

    /// Total number of recorded samples, including under/overflow.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Count in bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Samples below the histogram range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the histogram range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        let s: OnlineStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-9);
        assert!((s.std_dev() - 2.0).abs() < 1e-9);
        assert_eq!(s.count(), 8);
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_sane() {
        let s = OnlineStats::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.percentile(50.0), None);
    }

    #[test]
    fn percentiles() {
        let s: OnlineStats = (1..=100).map(|x| x as f64).collect();
        assert!((s.percentile(0.0).unwrap() - 1.0).abs() < 1e-9);
        assert!((s.percentile(100.0).unwrap() - 100.0).abs() < 1e-9);
        let p50 = s.percentile(50.0).unwrap();
        assert!((p50 - 50.5).abs() < 1e-9, "p50 {p50}");
        let p95 = s.percentile(95.0).unwrap();
        assert!((95.0..=96.0).contains(&p95), "p95 {p95}");
    }

    #[test]
    fn non_finite_samples_ignored() {
        let mut s = OnlineStats::new();
        s.record(f64::NAN);
        s.record(f64::INFINITY);
        s.record(1.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 1.0);
    }

    #[test]
    fn merge_combines() {
        let mut a: OnlineStats = [1.0, 2.0].into_iter().collect();
        let b: OnlineStats = [3.0, 4.0].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert!((a.mean() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn std_error_shrinks_with_count() {
        let small: OnlineStats = (0..10).map(|x| x as f64).collect();
        let big: OnlineStats = (0..1000).map(|x| (x % 10) as f64).collect();
        assert!(big.std_error() < small.std_error());
    }

    #[test]
    fn histogram_bucketing() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [0.5, 1.5, 2.5, 9.9, -1.0, 10.0, 12.0] {
            h.record(x);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.bucket_count(0), 2); // 0.5, 1.5
        assert_eq!(h.bucket_count(1), 1); // 2.5
        assert_eq!(h.bucket_count(4), 1); // 9.9
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
    }

    #[test]
    #[should_panic]
    fn histogram_rejects_bad_bounds() {
        let _ = Histogram::new(5.0, 5.0, 3);
    }
}

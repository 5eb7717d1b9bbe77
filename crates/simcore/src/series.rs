//! Uniform-grid time series with the reductions the experiment reports need
//! (hourly averages, time-weighted integrals, SLO-violation fractions).

use crate::time::{SimDuration, SimTime, SECS_PER_HOUR};

/// An append-only series of values sampled on a uniform time grid.
///
/// Point `i` sits at `step_secs * i as f64` seconds — the expression the
/// simulation engine computes its tick times with, so the derived timestamps
/// are bit-equal to the ticks that produced the values. Only the values are
/// stored: five series of one run share one grid, and a timestamp vector per
/// series would be most of a tenant's memory.
///
/// # Example
///
/// ```
/// use dejavu_simcore::{SimDuration, SimTime, TimeSeries};
/// let mut s = TimeSeries::new("latency_ms", SimDuration::from_secs(60.0));
/// s.push(10.0);
/// s.push(20.0);
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.mean(), 15.0);
/// assert_eq!(s.iter().last(), Some((SimTime::from_secs(60.0), 20.0)));
/// ```
#[derive(Debug, Clone)]
pub struct TimeSeries {
    name: String,
    step_secs: f64,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series with a human-readable name (used in reports)
    /// whose points are `step` apart, the first at time zero.
    pub fn new(name: impl Into<String>, step: SimDuration) -> Self {
        Self::with_capacity(name, step, 0)
    }

    /// Creates an empty series preallocated for `capacity` samples — use when
    /// the sample count is known up front (one per observation tick).
    pub fn with_capacity(name: impl Into<String>, step: SimDuration, capacity: usize) -> Self {
        TimeSeries {
            name: name.into(),
            step_secs: step.as_secs(),
            values: Vec::with_capacity(capacity),
        }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends the value of the next grid point.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns true if the series has no points.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Time of point `index`, in seconds.
    fn time_secs(&self, index: usize) -> f64 {
        self.step_secs * index as f64
    }

    /// Iterator over `(SimTime, value)` points.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(|(i, &v)| (SimTime::from_secs(self.time_secs(i)), v))
    }

    /// The raw values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Unweighted mean of the values (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Maximum value, if any.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().fold(None, |acc, v| match acc {
            None => Some(v),
            Some(m) => Some(m.max(v)),
        })
    }

    /// Minimum value, if any.
    pub fn min(&self) -> Option<f64> {
        self.values.iter().copied().fold(None, |acc, v| match acc {
            None => Some(v),
            Some(m) => Some(m.min(v)),
        })
    }

    /// Fraction of points whose value exceeds `threshold` (0.0 if empty).
    pub fn fraction_above(&self, threshold: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().filter(|&&v| v > threshold).count() as f64 / self.values.len() as f64
    }

    /// Fraction of points whose value is below `threshold` (0.0 if empty).
    pub fn fraction_below(&self, threshold: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().filter(|&&v| v < threshold).count() as f64 / self.values.len() as f64
    }

    /// Time-weighted integral of the series (each value held until the next
    /// point), i.e. `sum(value_i * (t_{i+1} - t_i))`. The last point contributes
    /// until `end`.
    ///
    /// This is what turns an instance-count series into instance-hours for the
    /// cost reports.
    pub fn integral_until(&self, end: SimTime) -> f64 {
        let mut total = 0.0;
        for (i, &value) in self.values.iter().enumerate() {
            let t0 = self.time_secs(i);
            let t1 = if i + 1 < self.values.len() {
                self.time_secs(i + 1)
            } else {
                end.as_secs().max(t0)
            };
            total += value * (t1 - t0);
        }
        total
    }

    /// Averages the series into per-hour buckets covering `[0, hours)`.
    /// Hours with no points get the previous hour's last value (or 0.0 at the
    /// start), matching how a step-valued allocation series behaves.
    pub fn hourly_means(&self, hours: usize) -> Vec<f64> {
        let mut out = vec![f64::NAN; hours];
        let mut sums = vec![0.0; hours];
        let mut counts = vec![0usize; hours];
        for (i, &v) in self.values.iter().enumerate() {
            let h = (self.time_secs(i) / SECS_PER_HOUR) as usize;
            if h < hours {
                sums[h] += v;
                counts[h] += 1;
            }
        }
        let mut last = 0.0;
        for h in 0..hours {
            if counts[h] > 0 {
                last = sums[h] / counts[h] as f64;
            }
            out[h] = last;
        }
        out
    }

    /// Value in effect at `time` (the latest point at or before `time`), if any.
    pub fn value_at(&self, time: SimTime) -> Option<f64> {
        let t = time.as_secs();
        // Grid times never decrease with the index, so the points at or
        // before `t` are a prefix: bisect for its length.
        let (mut lo, mut hi) = (0, self.values.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.time_secs(mid) <= t {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo.checked_sub(1).map(|i| self.values[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(step_secs: f64, values: &[f64]) -> TimeSeries {
        let mut s = TimeSeries::new("test", SimDuration::from_secs(step_secs));
        for &v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn basic_reductions() {
        let s = series(10.0, &[1.0, 3.0, 5.0]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.max(), Some(5.0));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.name(), "test");
    }

    #[test]
    fn points_sit_on_the_grid() {
        let s = series(120.0, &[7.0, 8.0, 9.0]);
        let points: Vec<(f64, f64)> = s.iter().map(|(t, v)| (t.as_secs(), v)).collect();
        assert_eq!(points, vec![(0.0, 7.0), (120.0, 8.0), (240.0, 9.0)]);
    }

    #[test]
    fn fraction_above_and_below() {
        let s = series(1.0, &[1.0, 2.0, 3.0, 4.0]);
        assert!((s.fraction_above(2.5) - 0.5).abs() < 1e-12);
        assert!((s.fraction_below(1.5) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn integral_holds_last_value() {
        // 2 instances for 100 s then 4 instances for 100 s.
        let s = series(100.0, &[2.0, 4.0]);
        let integral = s.integral_until(SimTime::from_secs(200.0));
        assert!((integral - (2.0 * 100.0 + 4.0 * 100.0)).abs() < 1e-9);
    }

    #[test]
    fn hourly_means_forward_fill() {
        // One point every two hours: the odd hours hold no point.
        let s = series(2.0 * SECS_PER_HOUR, &[2.0, 6.0]);
        let means = s.hourly_means(4);
        assert_eq!(means, vec![2.0, 2.0, 6.0, 6.0]);
    }

    #[test]
    fn value_at_lookup() {
        let s = series(10.0, &[1.0, 2.0, 3.0]);
        assert_eq!(s.value_at(SimTime::from_secs(0.0)), Some(1.0));
        assert_eq!(s.value_at(SimTime::from_secs(10.0)), Some(2.0));
        assert_eq!(s.value_at(SimTime::from_secs(15.0)), Some(2.0));
        assert_eq!(s.value_at(SimTime::from_secs(25.0)), Some(3.0));
        assert_eq!(s.value_at(SimTime::from_secs(1e9)), Some(3.0));
    }

    #[test]
    fn empty_series_reductions() {
        let s = series(30.0, &[]);
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max(), None);
        assert_eq!(s.value_at(SimTime::from_secs(100.0)), None);
        assert_eq!(s.integral_until(SimTime::from_secs(100.0)), 0.0);
        assert_eq!(s.hourly_means(3), vec![0.0, 0.0, 0.0]);
    }
}

//! Load traces: sequences of normalized load levels at a fixed sampling step.

use dejavu_simcore::{SimDuration, SimTime};
use std::error::Error;
use std::fmt;

/// Errors raised when constructing or manipulating traces.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceError {
    /// The trace has no samples.
    Empty,
    /// A load level was outside `[0, 1.5]` or not finite.
    InvalidLevel {
        /// Index of the offending sample.
        index: usize,
    },
    /// The sampling step was zero or negative.
    InvalidStep,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Empty => write!(f, "trace has no samples"),
            TraceError::InvalidLevel { index } => {
                write!(f, "load level at index {index} is invalid")
            }
            TraceError::InvalidStep => write!(f, "trace step must be positive"),
        }
    }
}

impl Error for TraceError {}

/// A load trace: normalized load levels (fraction of the peak the service can
/// sustain at full capacity, usually in `[0, 1]`) sampled at a fixed step.
///
/// The paper's HotMail/Messenger traces are hourly over one week; the Figure-1
/// sine wave changes every 10 minutes. Both are [`LoadTrace`]s with different
/// steps.
///
/// # Example
///
/// ```
/// use dejavu_traces::LoadTrace;
/// use dejavu_simcore::{SimDuration, SimTime};
///
/// let t = LoadTrace::hourly("demo", vec![0.2, 0.8, 0.5])?;
/// assert_eq!(t.len(), 3);
/// assert_eq!(t.level_at(SimTime::from_hours(1.5)), 0.8);
/// assert_eq!(t.duration(), SimDuration::from_hours(3.0));
/// # Ok::<(), dejavu_traces::TraceError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LoadTrace {
    name: String,
    step_secs: f64,
    levels: Vec<f64>,
}

impl LoadTrace {
    /// Creates a trace with an arbitrary sampling step.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Empty`] if `levels` is empty,
    /// [`TraceError::InvalidStep`] if `step` is zero and
    /// [`TraceError::InvalidLevel`] if any level is negative, above 1.5 or not
    /// finite.
    pub fn new(
        name: impl Into<String>,
        step: SimDuration,
        levels: Vec<f64>,
    ) -> Result<Self, TraceError> {
        if levels.is_empty() {
            return Err(TraceError::Empty);
        }
        if step.is_zero() {
            return Err(TraceError::InvalidStep);
        }
        for (i, &l) in levels.iter().enumerate() {
            if !l.is_finite() || !(0.0..=1.5).contains(&l) {
                return Err(TraceError::InvalidLevel { index: i });
            }
        }
        Ok(LoadTrace {
            name: name.into(),
            step_secs: step.as_secs(),
            levels,
        })
    }

    /// Creates an hourly trace (the granularity of the paper's data-center traces).
    ///
    /// # Errors
    ///
    /// Same as [`LoadTrace::new`].
    pub fn hourly(name: impl Into<String>, levels: Vec<f64>) -> Result<Self, TraceError> {
        LoadTrace::new(name, SimDuration::from_hours(1.0), levels)
    }

    /// The trace name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Returns true if the trace has no samples (never true for a constructed trace).
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// The sampling step.
    pub fn step(&self) -> SimDuration {
        SimDuration::from_secs(self.step_secs)
    }

    /// Total trace duration.
    pub fn duration(&self) -> SimDuration {
        SimDuration::from_secs(self.step_secs * self.levels.len() as f64)
    }

    /// The raw normalized levels.
    pub fn levels(&self) -> &[f64] {
        &self.levels
    }

    /// The level in effect at `time`. Times beyond the end of the trace hold
    /// the last level (the simulation engine never queries past the end).
    pub fn level_at(&self, time: SimTime) -> f64 {
        let idx = (time.as_secs() / self.step_secs) as usize;
        self.levels[idx.min(self.levels.len() - 1)]
    }

    /// Iterates over `(start_time, level)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.levels
            .iter()
            .enumerate()
            .map(|(i, &l)| (SimTime::from_secs(self.step_secs * i as f64), l))
    }

    /// Maximum level in the trace.
    pub fn peak(&self) -> f64 {
        self.levels.iter().copied().fold(0.0, f64::max)
    }

    /// Minimum level in the trace.
    pub fn trough(&self) -> f64 {
        self.levels.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Mean level.
    pub fn mean(&self) -> f64 {
        self.levels.iter().sum::<f64>() / self.levels.len() as f64
    }

    /// Returns a copy scaled so that the trace peak maps to `new_peak`
    /// (the paper scales traces so the peak matches what 10 instances can serve).
    ///
    /// # Panics
    ///
    /// Panics if `new_peak` is negative, above 1.5 or not finite.
    pub fn rescaled_to_peak(&self, new_peak: f64) -> LoadTrace {
        assert!(
            new_peak.is_finite() && (0.0..=1.5).contains(&new_peak),
            "peak must be within [0, 1.5]"
        );
        let peak = self.peak().max(f64::MIN_POSITIVE);
        LoadTrace {
            name: self.name.clone(),
            step_secs: self.step_secs,
            levels: self.levels.iter().map(|l| l / peak * new_peak).collect(),
        }
    }

    /// Returns the sub-trace covering days `[start_day, end_day)` for traces
    /// whose step divides a day. Used to separate the learning day from the
    /// reuse days.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or extends beyond the trace.
    pub fn days(&self, start_day: usize, end_day: usize) -> LoadTrace {
        assert!(start_day < end_day, "day range must be non-empty");
        let per_day = (86_400.0 / self.step_secs).round() as usize;
        let start = start_day * per_day;
        let end = end_day * per_day;
        assert!(end <= self.levels.len(), "day range exceeds trace length");
        LoadTrace {
            name: format!("{}[d{start_day}..d{end_day}]", self.name),
            step_secs: self.step_secs,
            levels: self.levels[start..end].to_vec(),
        }
    }

    /// Number of whole days covered by the trace.
    pub fn num_days(&self) -> usize {
        (self.duration().as_secs() / 86_400.0).round() as usize
    }

    /// Converts levels to absolute client counts given the peak client count.
    pub fn to_clients(&self, peak_clients: u32) -> Vec<u32> {
        self.levels
            .iter()
            .map(|l| (l * peak_clients as f64).round() as u32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_input() {
        assert_eq!(LoadTrace::hourly("x", vec![]), Err(TraceError::Empty));
        assert_eq!(
            LoadTrace::hourly("x", vec![0.5, 2.0]),
            Err(TraceError::InvalidLevel { index: 1 })
        );
        assert_eq!(
            LoadTrace::new("x", SimDuration::ZERO, vec![0.5]),
            Err(TraceError::InvalidStep)
        );
        assert!(LoadTrace::hourly("x", vec![0.0, 1.0, 1.5]).is_ok());
    }

    #[test]
    fn level_lookup_and_saturation() {
        let t = LoadTrace::hourly("t", vec![0.1, 0.2, 0.3]).unwrap();
        assert_eq!(t.level_at(SimTime::ZERO), 0.1);
        assert_eq!(t.level_at(SimTime::from_hours(2.9)), 0.3);
        assert_eq!(t.level_at(SimTime::from_hours(99.0)), 0.3);
    }

    #[test]
    fn statistics() {
        let t = LoadTrace::hourly("t", vec![0.2, 0.4, 0.6]).unwrap();
        assert_eq!(t.peak(), 0.6);
        assert_eq!(t.trough(), 0.2);
        assert!((t.mean() - 0.4).abs() < 1e-12);
        assert_eq!(t.num_days(), 0);
        assert_eq!(t.duration(), SimDuration::from_hours(3.0));
    }

    #[test]
    fn rescale_to_peak() {
        let t = LoadTrace::hourly("t", vec![0.2, 0.5]).unwrap();
        let r = t.rescaled_to_peak(1.0);
        assert!((r.peak() - 1.0).abs() < 1e-12);
        assert!((r.levels()[0] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn day_slicing() {
        let levels: Vec<f64> = (0..48).map(|h| (h / 24) as f64 * 0.5 + 0.1).collect();
        let t = LoadTrace::hourly("two-days", levels).unwrap();
        assert_eq!(t.num_days(), 2);
        let d0 = t.days(0, 1);
        let d1 = t.days(1, 2);
        assert_eq!(d0.len(), 24);
        assert_eq!(d1.len(), 24);
        assert!((d0.levels()[0] - 0.1).abs() < 1e-12);
        assert!((d1.levels()[0] - 0.6).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn day_slicing_out_of_range_panics() {
        let t = LoadTrace::hourly("short", vec![0.1; 24]).unwrap();
        let _ = t.days(0, 2);
    }

    #[test]
    fn client_conversion() {
        let t = LoadTrace::hourly("t", vec![0.5, 1.0]).unwrap();
        assert_eq!(t.to_clients(400), vec![200, 400]);
    }

    #[test]
    fn iter_yields_times_in_order() {
        let t = LoadTrace::hourly("t", vec![0.1, 0.2]).unwrap();
        let pts: Vec<_> = t.iter().collect();
        assert_eq!(pts[0].0, SimTime::ZERO);
        assert_eq!(pts[1].0, SimTime::from_hours(1.0));
    }

    #[test]
    fn error_display_nonempty() {
        assert!(!TraceError::Empty.to_string().is_empty());
        assert!(!TraceError::InvalidStep.to_string().is_empty());
    }
}

//! Performance interference from co-located tenants.
//!
//! §4.3 of the paper mimics a co-located tenant by injecting a microbenchmark
//! that occupies 10% or 20% of each VM's CPU and memory over time. We model
//! the same effect as a time-varying fraction of each VM's capacity that is
//! unavailable to the service.

use dejavu_simcore::SimTime;

/// The fraction of VM capacity stolen by co-located tenants, in `[0, 0.9]`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct InterferenceLevel(f64);

impl InterferenceLevel {
    /// No interference.
    pub const NONE: InterferenceLevel = InterferenceLevel(0.0);

    /// Creates an interference level.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `[0, 0.9]`.
    pub fn new(fraction: f64) -> Self {
        assert!(
            fraction.is_finite() && (0.0..=0.9).contains(&fraction),
            "interference fraction must be in [0, 0.9]"
        );
        InterferenceLevel(fraction)
    }

    /// The stolen capacity fraction.
    pub fn fraction(self) -> f64 {
        self.0
    }

    /// Returns true if there is no interference.
    pub fn is_none(self) -> bool {
        self.0 == 0.0
    }

    /// Multiplier applied to a VM's capacity (`1 - fraction`).
    pub fn capacity_multiplier(self) -> f64 {
        1.0 - self.0
    }
}

impl Default for InterferenceLevel {
    fn default() -> Self {
        InterferenceLevel::NONE
    }
}

/// A schedule of interference levels over simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct InterferenceSchedule {
    /// `(start_secs, level)` steps in time order; the level holds until the next step.
    steps: Vec<(f64, InterferenceLevel)>,
}

impl InterferenceSchedule {
    /// No interference at any time.
    pub fn none() -> Self {
        InterferenceSchedule {
            steps: vec![(0.0, InterferenceLevel::NONE)],
        }
    }

    /// Constant interference.
    pub fn constant(level: InterferenceLevel) -> Self {
        InterferenceSchedule {
            steps: vec![(0.0, level)],
        }
    }

    /// Alternates between the given levels, switching every `period_hours`.
    /// The paper's §4.3 setup alternates between 10% and 20%.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty or `period_hours` is not positive.
    pub fn alternating(levels: &[InterferenceLevel], period_hours: f64, total_hours: f64) -> Self {
        assert!(!levels.is_empty(), "need at least one interference level");
        assert!(period_hours > 0.0, "period must be positive");
        let mut steps = Vec::new();
        let mut t = 0.0;
        let mut i = 0;
        while t < total_hours {
            steps.push((t * 3_600.0, levels[i % levels.len()]));
            t += period_hours;
            i += 1;
        }
        InterferenceSchedule { steps }
    }

    /// The paper's interference scenario: 10% and 20% alternating every 4 hours
    /// for a week.
    pub fn paper_scenario() -> Self {
        InterferenceSchedule::alternating(
            &[InterferenceLevel::new(0.10), InterferenceLevel::new(0.20)],
            4.0,
            7.0 * 24.0,
        )
    }

    /// The interference level in effect at `time`.
    pub fn level_at(&self, time: SimTime) -> InterferenceLevel {
        let t = time.as_secs();
        self.steps
            .iter()
            .rev()
            .find(|&&(t0, _)| t0 <= t)
            .map(|&(_, l)| l)
            .unwrap_or(InterferenceLevel::NONE)
    }

    /// Returns true if the schedule never injects interference.
    pub fn is_none(&self) -> bool {
        self.steps.iter().all(|&(_, l)| l.is_none())
    }
}

impl Default for InterferenceSchedule {
    fn default() -> Self {
        InterferenceSchedule::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_bounds() {
        assert_eq!(InterferenceLevel::new(0.2).fraction(), 0.2);
        assert_eq!(InterferenceLevel::new(0.2).capacity_multiplier(), 0.8);
        assert!(InterferenceLevel::NONE.is_none());
    }

    #[test]
    #[should_panic]
    fn rejects_excessive_interference() {
        let _ = InterferenceLevel::new(0.95);
    }

    #[test]
    fn constant_and_none_schedules() {
        let none = InterferenceSchedule::none();
        assert!(none.is_none());
        assert_eq!(
            none.level_at(SimTime::from_hours(5.0)),
            InterferenceLevel::NONE
        );
        let c = InterferenceSchedule::constant(InterferenceLevel::new(0.1));
        assert_eq!(c.level_at(SimTime::from_days(3.0)).fraction(), 0.1);
        assert!(!c.is_none());
    }

    #[test]
    fn alternating_switches_levels() {
        let s = InterferenceSchedule::alternating(
            &[InterferenceLevel::new(0.1), InterferenceLevel::new(0.2)],
            2.0,
            8.0,
        );
        assert_eq!(s.level_at(SimTime::from_hours(0.5)).fraction(), 0.1);
        assert_eq!(s.level_at(SimTime::from_hours(2.5)).fraction(), 0.2);
        assert_eq!(s.level_at(SimTime::from_hours(4.5)).fraction(), 0.1);
    }

    #[test]
    fn paper_scenario_covers_a_week() {
        let s = InterferenceSchedule::paper_scenario();
        let levels: Vec<f64> = (0..168)
            .map(|h| s.level_at(SimTime::from_hours(h as f64 + 0.5)).fraction())
            .collect();
        assert!(levels.iter().all(|&l| l == 0.1 || l == 0.2));
        assert!(levels.contains(&0.1));
        assert!(levels.contains(&0.2));
    }
}

//! Simulated time: instants ([`SimTime`]) and durations ([`SimDuration`]).
//!
//! Simulated time is measured in seconds since the beginning of the experiment
//! and stored as `f64`. Newtypes keep instants and durations from being mixed
//! up and provide the handful of conversions the experiments need (hours for
//! trace epochs, minutes for controller calm times).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Number of seconds in one simulated hour.
pub const SECS_PER_HOUR: f64 = 3_600.0;
/// Number of seconds in one simulated day.
pub const SECS_PER_DAY: f64 = 86_400.0;

/// An instant in simulated time, in seconds since the start of the experiment.
///
/// # Example
///
/// ```
/// use dejavu_simcore::{SimTime, SimDuration};
/// let t = SimTime::from_hours(2.0) + SimDuration::from_secs(30.0);
/// assert_eq!(t.as_secs(), 7_230.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(f64);

/// A span of simulated time, in seconds.
///
/// # Example
///
/// ```
/// use dejavu_simcore::SimDuration;
/// let d = SimDuration::from_mins(3.0);
/// assert_eq!(d.as_secs(), 180.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimDuration(f64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates an instant `secs` seconds after the start of the experiment.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimTime must be finite and non-negative"
        );
        SimTime(secs)
    }

    /// Creates an instant `hours` hours after the start of the experiment.
    pub fn from_hours(hours: f64) -> Self {
        Self::from_secs(hours * SECS_PER_HOUR)
    }

    /// Creates an instant `days` days after the start of the experiment.
    pub fn from_days(days: f64) -> Self {
        Self::from_secs(days * SECS_PER_DAY)
    }

    /// Returns the instant as seconds since the start of the experiment.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Returns the instant as fractional hours since the start of the experiment.
    pub fn as_hours(self) -> f64 {
        self.0 / SECS_PER_HOUR
    }

    /// Returns the whole hour index this instant falls in (hour 0 is the first hour).
    pub fn hour_index(self) -> u64 {
        (self.0 / SECS_PER_HOUR).floor() as u64
    }

    /// Returns the whole day index this instant falls in (day 0 is the first day).
    pub fn day_index(self) -> u64 {
        (self.0 / SECS_PER_DAY).floor() as u64
    }

    /// Returns the hour of the day (0..24) this instant falls in.
    pub fn hour_of_day(self) -> u64 {
        self.hour_index() % 24
    }

    /// Returns the duration elapsed since `earlier`, or [`SimDuration::ZERO`] if
    /// `earlier` is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        if self.0 >= earlier.0 {
            SimDuration(self.0 - earlier.0)
        } else {
            SimDuration::ZERO
        }
    }

    /// Returns the later of `self` and `other`.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of `self` and `other`.
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Creates a duration of `secs` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimDuration must be finite and non-negative"
        );
        SimDuration(secs)
    }

    /// Creates a duration of `mins` minutes.
    pub fn from_mins(mins: f64) -> Self {
        Self::from_secs(mins * 60.0)
    }

    /// Creates a duration of `hours` hours.
    pub fn from_hours(hours: f64) -> Self {
        Self::from_secs(hours * SECS_PER_HOUR)
    }

    /// Creates a duration of `days` days.
    pub fn from_days(days: f64) -> Self {
        Self::from_secs(days * SECS_PER_DAY)
    }

    /// Returns the duration in seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Returns the duration in minutes.
    pub fn as_mins(self) -> f64 {
        self.0 / 60.0
    }

    /// Returns the duration in hours.
    pub fn as_hours(self) -> f64 {
        self.0 / SECS_PER_HOUR
    }

    /// Returns true if the duration is exactly zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Returns the larger of `self` and `other`.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of `self` and `other`.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime((self.0 - rhs.0).max(0.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration((self.0 - rhs.0).max(0.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration((self.0 - rhs.0).max(0.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = (self.0 - rhs.0).max(0.0);
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: f64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let day = self.day_index();
        let hour = self.hour_of_day();
        let rem = self.0 - (day as f64) * SECS_PER_DAY - (hour as f64) * SECS_PER_HOUR;
        let min = (rem / 60.0).floor();
        let sec = rem - min * 60.0;
        write!(f, "d{day}+{hour:02}:{min:02.0}:{sec:04.1}")
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= SECS_PER_HOUR {
            write!(f, "{:.2}h", self.as_hours())
        } else if self.0 >= 60.0 {
            write!(f, "{:.1}min", self.as_mins())
        } else {
            write!(f, "{:.1}s", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_constructors_agree() {
        assert_eq!(SimTime::from_hours(1.0).as_secs(), 3_600.0);
        assert_eq!(SimTime::from_days(1.0).as_hours(), 24.0);
        assert_eq!(SimDuration::from_mins(2.0).as_secs(), 120.0);
        assert_eq!(SimDuration::from_days(0.5).as_hours(), 12.0);
    }

    #[test]
    fn hour_and_day_indices() {
        let t = SimTime::from_hours(49.5);
        assert_eq!(t.hour_index(), 49);
        assert_eq!(t.day_index(), 2);
        assert_eq!(t.hour_of_day(), 1);
    }

    #[test]
    fn arithmetic_is_saturating_for_subtraction() {
        let a = SimTime::from_secs(10.0);
        let b = SimTime::from_secs(30.0);
        assert_eq!((a - b).as_secs(), 0.0);
        assert_eq!((b - a).as_secs(), 20.0);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a).as_secs(), 20.0);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_secs(10.0);
        assert_eq!((d * 3.0).as_secs(), 30.0);
        assert_eq!((d / 2.0).as_secs(), 5.0);
    }

    #[test]
    fn display_is_not_empty() {
        assert!(!format!("{}", SimTime::ZERO).is_empty());
        assert!(!format!("{}", SimDuration::from_secs(90.0)).is_empty());
        assert!(!format!("{}", SimDuration::from_hours(2.0)).is_empty());
    }

    #[test]
    #[should_panic]
    fn negative_time_panics() {
        let _ = SimTime::from_secs(-1.0);
    }

    #[test]
    fn min_max_helpers() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let d1 = SimDuration::from_secs(1.0);
        let d2 = SimDuration::from_secs(2.0);
        assert_eq!(d1.max(d2), d2);
        assert_eq!(d1.min(d2), d1);
    }
}

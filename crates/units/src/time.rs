//! Simulation time quantity.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use crate::SECONDS_PER_HOUR;

/// A span of simulated time, stored internally in seconds.
///
/// The simulator is slotted (1-minute slots by default, per the paper's MDP),
/// but thermal dynamics integrate with finer sub-steps and experiments speak
/// in hours and days, so conversions in both directions are provided.
///
/// # Examples
///
/// ```
/// use hbm_units::Duration;
///
/// let slot = Duration::from_minutes(1.0);
/// let year = Duration::from_days(365.0);
/// assert_eq!((year / slot).round() as u64, 525_600);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Duration(f64);

impl Duration {
    /// Zero duration.
    pub const ZERO: Duration = Duration(0.0);

    /// Creates a duration from seconds.
    pub fn from_seconds(seconds: f64) -> Self {
        Duration(seconds)
    }

    /// Creates a duration from minutes.
    pub fn from_minutes(minutes: f64) -> Self {
        Duration(minutes * 60.0)
    }

    /// Creates a duration from hours.
    pub fn from_hours(hours: f64) -> Self {
        Duration(hours * SECONDS_PER_HOUR)
    }

    /// Creates a duration from days.
    pub fn from_days(days: f64) -> Self {
        Duration(days * 24.0 * SECONDS_PER_HOUR)
    }

    /// Returns the value in seconds.
    pub fn as_seconds(self) -> f64 {
        self.0
    }

    /// Returns the value in minutes.
    pub fn as_minutes(self) -> f64 {
        self.0 / 60.0
    }

    /// Returns the value in hours.
    pub fn as_hours(self) -> f64 {
        self.0 / SECONDS_PER_HOUR
    }

    /// Returns the value in days.
    pub fn as_days(self) -> f64 {
        self.0 / (24.0 * SECONDS_PER_HOUR)
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: Duration) -> Duration {
        Duration(self.0.min(other.0))
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }

    /// Whether this duration is a finite, non-NaN value.
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 24.0 * SECONDS_PER_HOUR {
            write!(f, "{:.2} d", self.as_days())
        } else if self.0 >= SECONDS_PER_HOUR {
            write!(f, "{:.2} h", self.as_hours())
        } else if self.0 >= 60.0 {
            write!(f, "{:.2} min", self.as_minutes())
        } else {
            write!(f, "{:.1} s", self.0)
        }
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: f64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Mul<Duration> for f64 {
    type Output = Duration;
    fn mul(self, rhs: Duration) -> Duration {
        Duration(self * rhs.0)
    }
}

impl Div<f64> for Duration {
    type Output = Duration;
    fn div(self, rhs: f64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Div<Duration> for Duration {
    /// Dimensionless ratio of two durations (e.g. slots per day).
    type Output = f64;
    fn div(self, rhs: Duration) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, Add::add)
    }
}

impl<'a> Sum<&'a Duration> for Duration {
    fn sum<I: Iterator<Item = &'a Duration>>(iter: I) -> Duration {
        iter.copied().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Duration::from_minutes(2.0).as_seconds(), 120.0);
        assert_eq!(Duration::from_hours(1.5).as_minutes(), 90.0);
        assert_eq!(Duration::from_days(2.0).as_hours(), 48.0);
        assert!((Duration::from_seconds(90.0).as_minutes() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn slot_counting() {
        let slots = Duration::from_days(1.0) / Duration::from_minutes(1.0);
        assert_eq!(slots.round() as u64, 1440);
    }

    #[test]
    fn arithmetic() {
        let a = Duration::from_minutes(5.0);
        let b = Duration::from_minutes(2.0);
        assert_eq!((a + b).as_minutes(), 7.0);
        assert_eq!((a - b).as_minutes(), 3.0);
        assert_eq!((a * 2.0).as_minutes(), 10.0);
        assert_eq!((a / 5.0).as_minutes(), 1.0);
    }

    #[test]
    fn display_picks_scale() {
        assert_eq!(Duration::from_seconds(30.0).to_string(), "30.0 s");
        assert_eq!(Duration::from_minutes(5.0).to_string(), "5.00 min");
        assert_eq!(Duration::from_hours(4.0).to_string(), "4.00 h");
        assert_eq!(Duration::from_days(365.0).to_string(), "365.00 d");
    }
}

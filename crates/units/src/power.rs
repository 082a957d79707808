//! Electrical/thermal power quantity.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use crate::{Duration, Energy, SECONDS_PER_HOUR};

/// A power quantity, stored internally in watts.
///
/// In this workspace power is used both for electrical draw and for cooling
/// load: the paper's threat model rests on the fact that (fan power aside)
/// essentially 100 % of server electrical power becomes heat, so the two share
/// a unit.
///
/// # Examples
///
/// ```
/// use hbm_units::Power;
///
/// let subscribed = Power::from_kilowatts(0.8);
/// let battery_boost = Power::from_kilowatts(1.0);
/// let actual = subscribed + battery_boost;
/// assert_eq!(actual.as_kilowatts(), 1.8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Power(f64);

impl Power {
    /// Zero power.
    pub const ZERO: Power = Power(0.0);

    /// Creates a power from watts.
    pub fn from_watts(watts: f64) -> Self {
        Power(watts)
    }

    /// Creates a power from kilowatts.
    pub fn from_kilowatts(kilowatts: f64) -> Self {
        Power(kilowatts * 1e3)
    }

    /// Returns the value in watts.
    pub fn as_watts(self) -> f64 {
        self.0
    }

    /// Returns the value in kilowatts.
    pub fn as_kilowatts(self) -> f64 {
        self.0 / 1e3
    }

    /// Returns the smaller of two powers.
    pub fn min(self, other: Power) -> Power {
        Power(self.0.min(other.0))
    }

    /// Returns the larger of two powers.
    pub fn max(self, other: Power) -> Power {
        Power(self.0.max(other.0))
    }

    /// Clamps this power to `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn clamp(self, lo: Power, hi: Power) -> Power {
        assert!(lo.0 <= hi.0, "power clamp bounds inverted");
        Power(self.0.clamp(lo.0, hi.0))
    }

    /// Power that is negative or zero becomes zero (`[·]⁺` in the paper).
    pub fn positive_part(self) -> Power {
        Power(self.0.max(0.0))
    }

    /// Whether this power is a finite, non-NaN value.
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// Absolute value.
    pub fn abs(self) -> Power {
        Power(self.0.abs())
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 1e3 {
            write!(f, "{:.3} kW", self.0 / 1e3)
        } else {
            write!(f, "{:.1} W", self.0)
        }
    }
}

impl Add for Power {
    type Output = Power;
    fn add(self, rhs: Power) -> Power {
        Power(self.0 + rhs.0)
    }
}

impl AddAssign for Power {
    fn add_assign(&mut self, rhs: Power) {
        self.0 += rhs.0;
    }
}

impl Sub for Power {
    type Output = Power;
    fn sub(self, rhs: Power) -> Power {
        Power(self.0 - rhs.0)
    }
}

impl SubAssign for Power {
    fn sub_assign(&mut self, rhs: Power) {
        self.0 -= rhs.0;
    }
}

impl Neg for Power {
    type Output = Power;
    fn neg(self) -> Power {
        Power(-self.0)
    }
}

impl Mul<f64> for Power {
    type Output = Power;
    fn mul(self, rhs: f64) -> Power {
        Power(self.0 * rhs)
    }
}

impl Mul<Power> for f64 {
    type Output = Power;
    fn mul(self, rhs: Power) -> Power {
        Power(self * rhs.0)
    }
}

impl Div<f64> for Power {
    type Output = Power;
    fn div(self, rhs: f64) -> Power {
        Power(self.0 / rhs)
    }
}

impl Div<Power> for Power {
    /// Dimensionless ratio of two powers (e.g. utilization).
    type Output = f64;
    fn div(self, rhs: Power) -> f64 {
        self.0 / rhs.0
    }
}

impl Mul<Duration> for Power {
    type Output = Energy;
    fn mul(self, rhs: Duration) -> Energy {
        Energy::from_kilowatt_hours(self.as_kilowatts() * rhs.as_seconds() / SECONDS_PER_HOUR)
    }
}

impl Mul<Power> for Duration {
    type Output = Energy;
    fn mul(self, rhs: Power) -> Energy {
        rhs * self
    }
}

impl Sum for Power {
    fn sum<I: Iterator<Item = Power>>(iter: I) -> Power {
        iter.fold(Power::ZERO, Add::add)
    }
}

impl<'a> Sum<&'a Power> for Power {
    fn sum<I: Iterator<Item = &'a Power>>(iter: I) -> Power {
        iter.copied().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_round_trip() {
        assert_eq!(Power::from_kilowatts(8.0).as_watts(), 8000.0);
        assert_eq!(Power::from_watts(450.0).as_kilowatts(), 0.45);
    }

    #[test]
    fn arithmetic() {
        let a = Power::from_watts(200.0);
        let b = Power::from_watts(250.0);
        assert_eq!((a + b).as_watts(), 450.0);
        assert_eq!((b - a).as_watts(), 50.0);
        assert_eq!((a * 2.0).as_watts(), 400.0);
        assert_eq!((a / 2.0).as_watts(), 100.0);
        assert_eq!(b / a, 1.25);
        assert_eq!((-a).as_watts(), -200.0);
    }

    #[test]
    fn positive_part_clips_negatives() {
        assert_eq!(Power::from_watts(-5.0).positive_part(), Power::ZERO);
        assert_eq!(Power::from_watts(5.0).positive_part().as_watts(), 5.0);
    }

    #[test]
    fn sum_over_servers() {
        let loads = vec![Power::from_watts(100.0); 40];
        let total: Power = loads.iter().sum();
        assert_eq!(total.as_kilowatts(), 4.0);
    }

    #[test]
    fn display_switches_units() {
        assert_eq!(Power::from_watts(200.0).to_string(), "200.0 W");
        assert_eq!(Power::from_kilowatts(8.0).to_string(), "8.000 kW");
    }

    #[test]
    fn clamp_and_minmax() {
        let p = Power::from_watts(500.0);
        assert_eq!(
            p.clamp(Power::ZERO, Power::from_watts(120.0)).as_watts(),
            120.0
        );
        assert_eq!(p.min(Power::from_watts(120.0)).as_watts(), 120.0);
        assert_eq!(p.max(Power::from_watts(800.0)).as_watts(), 800.0);
    }

    #[test]
    #[should_panic(expected = "clamp bounds inverted")]
    fn clamp_panics_on_inverted_bounds() {
        let _ = Power::ZERO.clamp(Power::from_watts(2.0), Power::from_watts(1.0));
    }
}

//! Energy quantity.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use crate::{Duration, Power};

/// An energy quantity, stored internally in kilowatt-hours.
///
/// Battery state, charged/discharged energy per slot, and annual electricity
/// cost computations all use this type.
///
/// # Examples
///
/// ```
/// use hbm_units::{Energy, Power, Duration};
///
/// // The default attacker battery: 0.2 kWh drained at 1 kW lasts 12 minutes.
/// let battery = Energy::from_kilowatt_hours(0.2);
/// let runtime = battery / Power::from_kilowatts(1.0);
/// assert!((runtime.as_minutes() - 12.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Energy(f64);

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0.0);

    /// Creates an energy from kilowatt-hours.
    pub fn from_kilowatt_hours(kwh: f64) -> Self {
        Energy(kwh)
    }

    /// Creates an energy from watt-hours.
    pub fn from_watt_hours(wh: f64) -> Self {
        Energy(wh / 1e3)
    }

    /// Returns the value in kilowatt-hours.
    pub fn as_kilowatt_hours(self) -> f64 {
        self.0
    }

    /// Returns the value in watt-hours.
    pub fn as_watt_hours(self) -> f64 {
        self.0 * 1e3
    }

    /// Returns the smaller of two energies.
    pub fn min(self, other: Energy) -> Energy {
        Energy(self.0.min(other.0))
    }

    /// Returns the larger of two energies.
    pub fn max(self, other: Energy) -> Energy {
        Energy(self.0.max(other.0))
    }

    /// Clamps this energy to `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn clamp(self, lo: Energy, hi: Energy) -> Energy {
        assert!(lo.0 <= hi.0, "energy clamp bounds inverted");
        Energy(self.0.clamp(lo.0, hi.0))
    }

    /// Energy that is negative or zero becomes zero.
    pub fn positive_part(self) -> Energy {
        Energy(self.0.max(0.0))
    }

    /// Whether this energy is a finite, non-NaN value.
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} kWh", self.0)
    }
}

impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Sub for Energy {
    type Output = Energy;
    fn sub(self, rhs: Energy) -> Energy {
        Energy(self.0 - rhs.0)
    }
}

impl SubAssign for Energy {
    fn sub_assign(&mut self, rhs: Energy) {
        self.0 -= rhs.0;
    }
}

impl Neg for Energy {
    type Output = Energy;
    fn neg(self) -> Energy {
        Energy(-self.0)
    }
}

impl Mul<f64> for Energy {
    type Output = Energy;
    fn mul(self, rhs: f64) -> Energy {
        Energy(self.0 * rhs)
    }
}

impl Mul<Energy> for f64 {
    type Output = Energy;
    fn mul(self, rhs: Energy) -> Energy {
        Energy(self * rhs.0)
    }
}

impl Div<f64> for Energy {
    type Output = Energy;
    fn div(self, rhs: f64) -> Energy {
        Energy(self.0 / rhs)
    }
}

impl Div<Energy> for Energy {
    /// Dimensionless ratio of two energies (e.g. battery state-of-charge).
    type Output = f64;
    fn div(self, rhs: Energy) -> f64 {
        self.0 / rhs.0
    }
}

impl Div<Power> for Energy {
    /// Time for which `rhs` can be sustained from this energy.
    type Output = Duration;
    fn div(self, rhs: Power) -> Duration {
        Duration::from_hours(self.0 / rhs.as_kilowatts())
    }
}

impl Div<Duration> for Energy {
    /// Average power when this energy is spread over `rhs`.
    type Output = Power;
    fn div(self, rhs: Duration) -> Power {
        Power::from_kilowatts(self.0 / rhs.as_hours())
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, Add::add)
    }
}

impl<'a> Sum<&'a Energy> for Energy {
    fn sum<I: Iterator<Item = &'a Energy>>(iter: I) -> Energy {
        iter.copied().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let e = Energy::from_kilowatt_hours(0.05);
        assert!((e.as_watt_hours() - 50.0).abs() < 1e-12);
        assert!((Energy::from_watt_hours(200.0).as_kilowatt_hours() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn battery_runtime() {
        let rt = Energy::from_kilowatt_hours(0.2) / Power::from_kilowatts(3.0);
        assert!((rt.as_minutes() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn average_power() {
        let p = Energy::from_kilowatt_hours(2.0) / Duration::from_hours(4.0);
        assert!((p.as_watts() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn soc_ratio() {
        let soc = Energy::from_kilowatt_hours(0.1) / Energy::from_kilowatt_hours(0.2);
        assert_eq!(soc, 0.5);
    }

    #[test]
    fn sum_and_clamp() {
        let total: Energy = (0..4).map(|_| Energy::from_kilowatt_hours(0.05)).sum();
        assert!((total.as_kilowatt_hours() - 0.2).abs() < 1e-12);
        assert_eq!(
            Energy::from_kilowatt_hours(0.5).clamp(Energy::ZERO, Energy::from_kilowatt_hours(0.2)),
            Energy::from_kilowatt_hours(0.2)
        );
    }
}

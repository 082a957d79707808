//! Absolute temperature and temperature difference quantities.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// An absolute temperature in degrees Celsius.
///
/// Server inlet temperature is the paper's central thermal metric: the AC
/// conditions it at 27 °C, an emergency is declared above 32 °C, and the PDU
/// powers off at 45 °C.
///
/// Subtracting two [`Temperature`]s yields a [`TemperatureDelta`]; an absolute
/// temperature plus a delta is again absolute. Adding two absolute
/// temperatures is physically meaningless and deliberately not implemented.
///
/// # Examples
///
/// ```
/// use hbm_units::Temperature;
///
/// let setpoint = Temperature::from_celsius(27.0);
/// let emergency = Temperature::from_celsius(32.0);
/// let margin = emergency - setpoint;
/// assert_eq!(margin.as_celsius(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Temperature(f64);

impl Temperature {
    /// Creates a temperature from degrees Celsius.
    pub const fn from_celsius(celsius: f64) -> Self {
        Temperature(celsius)
    }

    /// Returns the value in degrees Celsius.
    pub fn as_celsius(self) -> f64 {
        self.0
    }

    /// Returns the smaller of two temperatures.
    pub fn min(self, other: Temperature) -> Temperature {
        Temperature(self.0.min(other.0))
    }

    /// Returns the larger of two temperatures.
    pub fn max(self, other: Temperature) -> Temperature {
        Temperature(self.0.max(other.0))
    }

    /// Whether this temperature is a finite, non-NaN value.
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

impl Default for Temperature {
    /// The ASHRAE-recommended 27 °C inlet setpoint used throughout the paper.
    fn default() -> Self {
        Temperature::from_celsius(27.0)
    }
}

impl fmt::Display for Temperature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} °C", self.0)
    }
}

impl Sub for Temperature {
    type Output = TemperatureDelta;
    fn sub(self, rhs: Temperature) -> TemperatureDelta {
        TemperatureDelta(self.0 - rhs.0)
    }
}

impl Add<TemperatureDelta> for Temperature {
    type Output = Temperature;
    fn add(self, rhs: TemperatureDelta) -> Temperature {
        Temperature(self.0 + rhs.0)
    }
}

impl AddAssign<TemperatureDelta> for Temperature {
    fn add_assign(&mut self, rhs: TemperatureDelta) {
        self.0 += rhs.0;
    }
}

impl Sub<TemperatureDelta> for Temperature {
    type Output = Temperature;
    fn sub(self, rhs: TemperatureDelta) -> Temperature {
        Temperature(self.0 - rhs.0)
    }
}

impl SubAssign<TemperatureDelta> for Temperature {
    fn sub_assign(&mut self, rhs: TemperatureDelta) {
        self.0 -= rhs.0;
    }
}

/// A temperature difference in kelvin (equivalently, Celsius degrees).
///
/// Used for temperature rises above the setpoint (the paper's ΔT) and for
/// thermal-model increments.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct TemperatureDelta(f64);

impl TemperatureDelta {
    /// Zero temperature difference.
    pub const ZERO: TemperatureDelta = TemperatureDelta(0.0);

    /// Creates a difference from Celsius degrees (kelvin).
    pub fn from_celsius(celsius: f64) -> Self {
        TemperatureDelta(celsius)
    }

    /// Returns the difference in Celsius degrees (kelvin).
    pub fn as_celsius(self) -> f64 {
        self.0
    }

    /// Difference that is negative becomes zero (`[·]⁺` in the paper's reward).
    pub fn positive_part(self) -> TemperatureDelta {
        TemperatureDelta(self.0.max(0.0))
    }

    /// Absolute value of the difference.
    pub fn abs(self) -> TemperatureDelta {
        TemperatureDelta(self.0.abs())
    }

    /// Returns the smaller of two deltas.
    pub fn min(self, other: TemperatureDelta) -> TemperatureDelta {
        TemperatureDelta(self.0.min(other.0))
    }

    /// Returns the larger of two deltas.
    pub fn max(self, other: TemperatureDelta) -> TemperatureDelta {
        TemperatureDelta(self.0.max(other.0))
    }
}

impl fmt::Display for TemperatureDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:+.2} K", self.0)
    }
}

impl Add for TemperatureDelta {
    type Output = TemperatureDelta;
    fn add(self, rhs: TemperatureDelta) -> TemperatureDelta {
        TemperatureDelta(self.0 + rhs.0)
    }
}

impl AddAssign for TemperatureDelta {
    fn add_assign(&mut self, rhs: TemperatureDelta) {
        self.0 += rhs.0;
    }
}

impl Sub for TemperatureDelta {
    type Output = TemperatureDelta;
    fn sub(self, rhs: TemperatureDelta) -> TemperatureDelta {
        TemperatureDelta(self.0 - rhs.0)
    }
}

impl SubAssign for TemperatureDelta {
    fn sub_assign(&mut self, rhs: TemperatureDelta) {
        self.0 -= rhs.0;
    }
}

impl Neg for TemperatureDelta {
    type Output = TemperatureDelta;
    fn neg(self) -> TemperatureDelta {
        TemperatureDelta(-self.0)
    }
}

impl Mul<f64> for TemperatureDelta {
    type Output = TemperatureDelta;
    fn mul(self, rhs: f64) -> TemperatureDelta {
        TemperatureDelta(self.0 * rhs)
    }
}

impl Mul<TemperatureDelta> for f64 {
    type Output = TemperatureDelta;
    fn mul(self, rhs: TemperatureDelta) -> TemperatureDelta {
        TemperatureDelta(self * rhs.0)
    }
}

impl Div<f64> for TemperatureDelta {
    type Output = TemperatureDelta;
    fn div(self, rhs: f64) -> TemperatureDelta {
        TemperatureDelta(self.0 / rhs)
    }
}

impl Div<TemperatureDelta> for TemperatureDelta {
    /// Dimensionless ratio of two temperature differences.
    type Output = f64;
    fn div(self, rhs: TemperatureDelta) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for TemperatureDelta {
    fn sum<I: Iterator<Item = TemperatureDelta>>(iter: I) -> TemperatureDelta {
        iter.fold(TemperatureDelta::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absolute_and_delta_interplay() {
        let t = Temperature::from_celsius(27.0) + TemperatureDelta::from_celsius(5.0);
        assert_eq!(t.as_celsius(), 32.0);
        let d = Temperature::from_celsius(45.0) - t;
        assert_eq!(d.as_celsius(), 13.0);
        assert_eq!((t - TemperatureDelta::from_celsius(2.0)).as_celsius(), 30.0);
    }

    #[test]
    fn default_is_ashrae_setpoint() {
        assert_eq!(Temperature::default().as_celsius(), 27.0);
    }

    #[test]
    fn delta_positive_part() {
        assert_eq!(
            TemperatureDelta::from_celsius(-3.0).positive_part(),
            TemperatureDelta::ZERO
        );
        assert_eq!(
            TemperatureDelta::from_celsius(3.0)
                .positive_part()
                .as_celsius(),
            3.0
        );
    }

    #[test]
    fn delta_arithmetic() {
        let d = TemperatureDelta::from_celsius(4.0);
        assert_eq!((d * 0.5).as_celsius(), 2.0);
        assert_eq!((0.5 * d).as_celsius(), 2.0);
        assert_eq!((d / 2.0).as_celsius(), 2.0);
        assert_eq!((-d).as_celsius(), -4.0);
        assert_eq!(d / TemperatureDelta::from_celsius(2.0), 2.0);
    }

    #[test]
    fn ordering() {
        assert!(Temperature::from_celsius(32.0) > Temperature::from_celsius(27.0));
        assert!(TemperatureDelta::from_celsius(1.0) < TemperatureDelta::from_celsius(2.0));
    }

    #[test]
    fn display() {
        assert_eq!(Temperature::from_celsius(27.0).to_string(), "27.00 °C");
        assert_eq!(TemperatureDelta::from_celsius(5.0).to_string(), "+5.00 K");
    }
}

//! Per-server calorimetry: pinpointing the attacker's servers.

use hbm_units::{Power, Temperature, TemperatureDelta};

/// Specific heat of air, J/(kg·K).
const CP_AIR: f64 = 1005.0;

/// One per-server measurement: inlet/outlet temperatures, exhaust airflow,
/// and the metered electrical power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalorimeterReading {
    /// Server inlet temperature.
    pub inlet: Temperature,
    /// Server outlet temperature.
    pub outlet: Temperature,
    /// Exhaust airflow, kg/s.
    pub airflow_kg_s: f64,
    /// Power metered for this server.
    pub metered: Power,
}

impl CalorimeterReading {
    /// The thermal power carried away by the exhaust air,
    /// `ṁ·c_p·(T_out − T_in)`.
    pub fn thermal_power(&self) -> Power {
        let dt = (self.outlet - self.inlet).as_celsius();
        Power::from_watts(self.airflow_kg_s * CP_AIR * dt)
    }

    /// Heat produced beyond the metered power (positive = hidden source).
    pub fn excess(&self) -> Power {
        self.thermal_power() - self.metered
    }
}

/// Attribution of hidden cooling loads to individual servers.
///
/// With outlet air-flow meters (or a thermal camera plus fan-noise
/// microphones — Section VII-B) the operator can measure each server's
/// actual heat output. A server whose heat exceeds its metered power by
/// more than the measurement tolerance is drawing on a concealed source —
/// the built-in battery.
///
/// # Examples
///
/// ```
/// use hbm_defense::{CalorimeterReading, ServerCalorimeter};
/// use hbm_units::{Power, Temperature};
///
/// let calorimeter = ServerCalorimeter::new(Power::from_watts(40.0));
/// let honest = CalorimeterReading {
///     inlet: Temperature::from_celsius(27.0),
///     outlet: Temperature::from_celsius(38.0),
///     airflow_kg_s: 0.018,
///     metered: Power::from_watts(199.0),
/// };
/// assert!(!calorimeter.is_suspicious(&honest));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerCalorimeter {
    tolerance: Power,
}

impl ServerCalorimeter {
    /// Creates a calorimeter with the given measurement tolerance (sensor
    /// noise plus fan-power slack; tens of watts in practice).
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is negative.
    pub fn new(tolerance: Power) -> Self {
        assert!(tolerance >= Power::ZERO, "tolerance must be non-negative");
        ServerCalorimeter { tolerance }
    }

    /// Whether a reading indicates a hidden power source.
    pub fn is_suspicious(&self, reading: &CalorimeterReading) -> bool {
        reading.excess() > self.tolerance
    }

    /// Indices of suspicious servers in a rack-wide sweep.
    pub fn flag_servers(&self, readings: &[CalorimeterReading]) -> Vec<usize> {
        readings
            .iter()
            .enumerate()
            .filter(|(_, r)| self.is_suspicious(r))
            .map(|(i, _)| i)
            .collect()
    }
}

/// Builds the reading an operator would take for a server given its actual
/// power, metered power, and airflow (helper for simulations and tests).
pub fn reading_for(
    actual: Power,
    metered: Power,
    inlet: Temperature,
    airflow_kg_s: f64,
) -> CalorimeterReading {
    let rise = TemperatureDelta::from_celsius(actual.as_watts() / (airflow_kg_s * CP_AIR));
    CalorimeterReading {
        inlet,
        outlet: inlet + rise,
        airflow_kg_s,
        metered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inlet() -> Temperature {
        Temperature::from_celsius(27.0)
    }

    #[test]
    fn honest_server_passes() {
        let c = ServerCalorimeter::new(Power::from_watts(40.0));
        let r = reading_for(
            Power::from_watts(200.0),
            Power::from_watts(200.0),
            inlet(),
            0.018,
        );
        assert!(!c.is_suspicious(&r));
        assert!(r.excess().abs() < Power::from_watts(1.0));
    }

    #[test]
    fn attacking_server_is_flagged() {
        // 450 W actual, 200 W metered — the paper's repeated-attack server.
        let c = ServerCalorimeter::new(Power::from_watts(40.0));
        let r = reading_for(
            Power::from_watts(450.0),
            Power::from_watts(200.0),
            inlet(),
            0.018,
        );
        assert!(c.is_suspicious(&r));
        assert!((r.excess().as_watts() - 250.0).abs() < 1.0);
    }

    #[test]
    fn pinpoints_attacker_in_rack_sweep() {
        let c = ServerCalorimeter::new(Power::from_watts(40.0));
        let mut rack: Vec<CalorimeterReading> = (0..40)
            .map(|_| {
                reading_for(
                    Power::from_watts(180.0),
                    Power::from_watts(180.0),
                    inlet(),
                    0.018,
                )
            })
            .collect();
        for s in [3, 7] {
            rack[s] = reading_for(
                Power::from_watts(450.0),
                Power::from_watts(200.0),
                inlet(),
                0.018,
            );
        }
        assert_eq!(c.flag_servers(&rack), vec![3, 7]);
    }

    #[test]
    fn charging_attacker_is_not_flagged() {
        // While charging, actual heat is *below* metered power — nothing to
        // flag thermally (the inspection defense catches the battery
        // instead).
        let c = ServerCalorimeter::new(Power::from_watts(40.0));
        let r = reading_for(
            Power::from_watts(280.0),
            Power::from_watts(480.0),
            inlet(),
            0.018,
        );
        assert!(!c.is_suspicious(&r));
    }

    #[test]
    fn thermal_power_round_trip() {
        let r = reading_for(
            Power::from_watts(300.0),
            Power::from_watts(100.0),
            inlet(),
            0.02,
        );
        assert!((r.thermal_power().as_watts() - 300.0).abs() < 1e-9);
    }
}

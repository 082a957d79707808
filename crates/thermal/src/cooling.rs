//! Cooling plant model.

use hbm_units::{Power, Temperature};

/// The computer-room air conditioner of the edge colocation.
///
/// Sized to the colocation's power capacity (8 kW in the paper's Table I),
/// supplying air at the ASHRAE-recommended 27 °C. Real refrigeration loses
/// effectiveness as the return/room temperature climbs past the design point
/// (falling COP, unreachable supply setpoint), which is what turns a
/// sustained overload into the runaway the paper's one-shot attack exploits:
/// once the room is hot, even a modest residual overload keeps it climbing to
/// the 45 °C shutdown limit. That derating is modeled linearly above
/// `derate_onset`, floored at `min_capacity_fraction`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoolingSystem {
    /// Nameplate heat-removal capacity at the design point.
    pub capacity: Power,
    /// Supply-air temperature setpoint (server inlet under containment).
    pub supply: Temperature,
    /// Room temperature above which capacity starts to derate.
    pub derate_onset: Temperature,
    /// Fractional capacity lost per kelvin above the onset.
    pub derate_per_kelvin: f64,
    /// Lower bound on the derated capacity, as a fraction of nameplate.
    pub min_capacity_fraction: f64,
}

impl CoolingSystem {
    /// The paper's 8 kW edge colocation plant: 8 kW capacity, 27 °C supply.
    pub fn paper_default() -> Self {
        CoolingSystem {
            capacity: Power::from_kilowatts(8.0),
            supply: Temperature::from_celsius(27.0),
            derate_onset: Temperature::from_celsius(33.0),
            derate_per_kelvin: 0.05,
            min_capacity_fraction: 0.65,
        }
    }

    /// The scaled-down 3 kW prototype plant of Appendix A (14-server rack).
    pub fn prototype() -> Self {
        CoolingSystem {
            capacity: Power::from_kilowatts(3.0),
            supply: Temperature::from_celsius(24.0),
            derate_onset: Temperature::from_celsius(30.0),
            derate_per_kelvin: 0.05,
            min_capacity_fraction: 0.65,
        }
    }

    /// Returns a copy with a different nameplate capacity (Fig. 12e's extra
    /// cooling capacity sweep).
    pub fn with_capacity(mut self, capacity: Power) -> Self {
        self.capacity = capacity;
        self
    }

    /// Returns a copy with a different supply setpoint (the "lower the
    /// setpoint" prevention defense of Section VII-A).
    pub fn with_supply(mut self, supply: Temperature) -> Self {
        self.supply = supply;
        self
    }

    /// Heat-removal capacity available when the room/inlet air is at `room`.
    pub fn effective_capacity(&self, room: Temperature) -> Power {
        let excess = (room - self.derate_onset).positive_part().as_celsius();
        let fraction = (1.0 - self.derate_per_kelvin * excess).max(self.min_capacity_fraction);
        self.capacity * fraction
    }

    /// Validates physical plausibility.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.capacity.is_finite() || self.capacity <= Power::ZERO {
            return Err("cooling capacity must be positive".into());
        }
        if !self.supply.is_finite() {
            return Err("supply temperature must be finite".into());
        }
        if self.derate_onset < self.supply {
            return Err("derate onset must be at or above the supply setpoint".into());
        }
        if !(0.0..1.0).contains(&self.derate_per_kelvin) {
            return Err("derate per kelvin must be in [0, 1)".into());
        }
        if !(0.0..=1.0).contains(&self.min_capacity_fraction) {
            return Err("minimum capacity fraction must be in [0, 1]".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_capacity_at_design_point() {
        let ac = CoolingSystem::paper_default();
        assert_eq!(
            ac.effective_capacity(Temperature::from_celsius(27.0)),
            Power::from_kilowatts(8.0)
        );
        assert_eq!(
            ac.effective_capacity(Temperature::from_celsius(33.0)),
            Power::from_kilowatts(8.0)
        );
    }

    #[test]
    fn derates_above_onset() {
        let ac = CoolingSystem::paper_default();
        let at_35 = ac.effective_capacity(Temperature::from_celsius(35.0));
        // 2 K over onset at 5 %/K → 90 % of nameplate.
        assert!((at_35.as_kilowatts() - 7.2).abs() < 1e-9);
    }

    #[test]
    fn derating_floors_at_minimum() {
        let ac = CoolingSystem::paper_default();
        let very_hot = ac.effective_capacity(Temperature::from_celsius(80.0));
        assert!((very_hot.as_kilowatts() - 5.2).abs() < 1e-9);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut ac = CoolingSystem::paper_default();
        assert!(ac.validate().is_ok());
        ac.derate_onset = Temperature::from_celsius(20.0);
        assert!(ac.validate().is_err());
        let mut ac2 = CoolingSystem::paper_default();
        ac2.capacity = Power::ZERO;
        assert!(ac2.validate().is_err());
        let mut ac3 = CoolingSystem::paper_default();
        ac3.derate_per_kelvin = 1.5;
        assert!(ac3.validate().is_err());
    }

    #[test]
    fn prototype_is_smaller() {
        let p = CoolingSystem::prototype();
        assert!(p.capacity < CoolingSystem::paper_default().capacity);
        assert!(p.validate().is_ok());
    }
}

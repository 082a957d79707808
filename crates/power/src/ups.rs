//! Facility UPS model: the head of the paper's tree-type power hierarchy.

use hbm_units::Power;

/// The colocation's double-conversion UPS.
///
/// Utility power enters through the UPS, which protects the downstream PDU
/// (Fig. 2 of the paper). Two facts about it matter for capacity planning
/// and for the defense side of this reproduction:
///
/// * the *critical power* (what the servers may draw) is the UPS rating,
///   and the paper's capacity `C` is defined at this level — UPS losses
///   and cooling power are excluded from it;
/// * the UPS's own conversion loss is utility-side heat that never reaches
///   the contained white space, so it does **not** contribute to the
///   server-inlet cooling load (it is cooled separately).
///
/// The loss model is the standard two-term fit: a fixed no-load loss plus a
/// proportional conversion loss.
///
/// # Examples
///
/// ```
/// use hbm_power::Ups;
/// use hbm_units::Power;
///
/// let ups = Ups::paper_default();
/// let utility = ups.utility_draw(Power::from_kilowatts(8.0));
/// assert!(utility > Power::from_kilowatts(8.0)); // losses
/// assert!(ups.efficiency_at(Power::from_kilowatts(8.0)) > 0.9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ups {
    /// Rated (critical) output power.
    pub rating: Power,
    /// Fixed no-load loss.
    pub no_load_loss: Power,
    /// Proportional conversion loss (fraction of the output power).
    pub proportional_loss: f64,
}

impl Ups {
    /// A UPS sized for the paper's 8 kW colocation: ≈95–96 % efficient at
    /// full load, with a realistic low-load efficiency droop.
    pub fn paper_default() -> Self {
        Ups {
            rating: Power::from_kilowatts(8.0),
            no_load_loss: Power::from_watts(120.0),
            proportional_loss: 0.03,
        }
    }

    /// Validates physical plausibility.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.rating.is_finite() || self.rating <= Power::ZERO {
            return Err("UPS rating must be positive".into());
        }
        if !self.no_load_loss.is_finite() || self.no_load_loss < Power::ZERO {
            return Err("no-load loss must be non-negative".into());
        }
        if !(0.0..1.0).contains(&self.proportional_loss) {
            return Err("proportional loss must be in [0, 1)".into());
        }
        Ok(())
    }

    /// Output power clamped to the rating (overload trips are modeled by
    /// the emergency protocol, not here).
    pub fn clamp_output(&self, requested: Power) -> Power {
        requested.clamp(Power::ZERO, self.rating)
    }

    /// Utility-side draw needed to deliver `output` to the PDU.
    ///
    /// # Panics
    ///
    /// Panics if `output` is negative.
    pub fn utility_draw(&self, output: Power) -> Power {
        assert!(output >= Power::ZERO, "output must be non-negative");
        output + self.losses(output)
    }

    /// Heat dissipated inside the UPS at a given output.
    pub fn losses(&self, output: Power) -> Power {
        self.no_load_loss + output * self.proportional_loss
    }

    /// End-to-end efficiency at a given output (0 at zero output).
    pub fn efficiency_at(&self, output: Power) -> f64 {
        let input = self.utility_draw(output);
        if input <= Power::ZERO {
            return 0.0;
        }
        output / input
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_droops_at_low_load() {
        let ups = Ups::paper_default();
        let full = ups.efficiency_at(Power::from_kilowatts(8.0));
        let light = ups.efficiency_at(Power::from_kilowatts(1.0));
        assert!(
            full > light,
            "full-load {full} must beat light-load {light}"
        );
        assert!(full > 0.94 && full < 0.98);
        assert!(light > 0.85);
    }

    #[test]
    fn losses_grow_with_output() {
        let ups = Ups::paper_default();
        let l0 = ups.losses(Power::ZERO);
        let l8 = ups.losses(Power::from_kilowatts(8.0));
        assert_eq!(l0, Power::from_watts(120.0));
        assert!((l8.as_watts() - 360.0).abs() < 1e-9);
    }

    #[test]
    fn clamp_respects_rating() {
        let ups = Ups::paper_default();
        assert_eq!(
            ups.clamp_output(Power::from_kilowatts(10.0)),
            Power::from_kilowatts(8.0)
        );
        assert_eq!(
            ups.clamp_output(Power::from_kilowatts(5.0)),
            Power::from_kilowatts(5.0)
        );
    }

    #[test]
    fn utility_draw_is_output_plus_losses() {
        let ups = Ups::paper_default();
        let out = Power::from_kilowatts(6.0);
        assert_eq!(ups.utility_draw(out), out + ups.losses(out));
    }

    #[test]
    fn zero_output_efficiency_is_zero() {
        assert_eq!(Ups::paper_default().efficiency_at(Power::ZERO), 0.0);
    }

    #[test]
    fn validation() {
        assert!(Ups::paper_default().validate().is_ok());
        let mut bad = Ups::paper_default();
        bad.proportional_loss = 1.5;
        assert!(bad.validate().is_err());
    }
}

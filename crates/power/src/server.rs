//! Server power model.

use hbm_units::Power;

/// Power model of one physical server: linear in utilization between idle
/// and peak — the standard model validated at warehouse scale by Fan et
/// al., and the family the paper's power-trace methodology builds on (its
/// refs 58–60).
///
/// # Examples
///
/// ```
/// use hbm_power::ServerSpec;
/// use hbm_units::Power;
///
/// let s = ServerSpec::paper_default();
/// assert_eq!(s.power_at(1.0), Power::from_watts(200.0));
/// assert_eq!(s.power_at(0.0), Power::from_watts(60.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerSpec {
    /// Power drawn at zero utilization.
    pub idle: Power,
    /// Power drawn at full utilization.
    pub peak: Power,
}

impl ServerSpec {
    /// The paper's benign server: 200 W peak (Table I), 30 % idle floor.
    pub fn paper_default() -> Self {
        ServerSpec {
            idle: Power::from_watts(60.0),
            peak: Power::from_watts(200.0),
        }
    }

    /// The attacker's repeated-attack server: 450 W peak via one extra GPU
    /// (200 W subscribed + 250 W battery-fed).
    pub fn attacker_repeated() -> Self {
        ServerSpec {
            idle: Power::from_watts(70.0),
            peak: Power::from_watts(450.0),
        }
    }

    /// Validates physical plausibility.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.idle.is_finite() || self.idle < Power::ZERO {
            return Err("idle power must be non-negative".into());
        }
        if !self.peak.is_finite() || self.peak <= self.idle {
            return Err("peak power must exceed idle power".into());
        }
        Ok(())
    }

    /// Power drawn at a CPU utilization in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `utilization` is outside `[0, 1]`.
    pub fn power_at(&self, utilization: f64) -> Power {
        assert!(
            (0.0..=1.0).contains(&utilization),
            "utilization must be in [0, 1]"
        );
        self.idle + (self.peak - self.idle) * utilization
    }

    /// Inverse of [`ServerSpec::power_at`], clamped to `[0, 1]`.
    pub fn utilization_for(&self, power: Power) -> f64 {
        ((power - self.idle) / (self.peak - self.idle)).clamp(0.0, 1.0)
    }

    /// The fraction of peak power a given absolute cap corresponds to
    /// (used by the latency model, whose power axis is normalized to peak).
    pub fn cap_fraction(&self, cap: Power) -> f64 {
        (cap / self.peak).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_interpolation() {
        let s = ServerSpec::paper_default();
        assert_eq!(s.power_at(0.5), Power::from_watts(130.0));
        assert!((s.utilization_for(Power::from_watts(130.0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn inverse_round_trips() {
        let s = ServerSpec::attacker_repeated();
        for u in [0.0, 0.25, 0.7, 1.0] {
            let p = s.power_at(u);
            assert!((s.utilization_for(p) - u).abs() < 1e-12);
        }
    }

    #[test]
    fn utilization_clamps_out_of_range_power() {
        let s = ServerSpec::paper_default();
        assert_eq!(s.utilization_for(Power::from_watts(10.0)), 0.0);
        assert_eq!(s.utilization_for(Power::from_watts(500.0)), 1.0);
    }

    #[test]
    fn cap_fraction_for_emergency_cap() {
        // The 120 W emergency cap is 60 % of the 200 W server rating.
        let s = ServerSpec::paper_default();
        assert!((s.cap_fraction(Power::from_watts(120.0)) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn attacker_specs_exceed_subscription() {
        assert!(ServerSpec::attacker_repeated().peak > Power::from_watts(200.0));
    }

    #[test]
    fn validation() {
        assert!(ServerSpec::paper_default().validate().is_ok());
        let bad = ServerSpec {
            idle: Power::from_watts(300.0),
            peak: Power::from_watts(200.0),
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "utilization")]
    fn power_at_rejects_out_of_range() {
        let _ = ServerSpec::paper_default().power_at(1.5);
    }
}

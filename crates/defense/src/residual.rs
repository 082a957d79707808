//! Power/temperature cross-check: the behind-the-meter heat detector.

use hbm_thermal::ZoneModel;
use hbm_units::{Duration, Power, Temperature, TemperatureDelta};

/// Detects behind-the-meter cooling load by running a *digital twin* of the
/// colocation's thermal dynamics on the **metered** power and comparing its
/// predicted inlet temperature against the measured one.
///
/// Any sustained positive residual means more heat is being produced than
/// the meters account for — exactly the signature of a battery-assisted
/// thermal attack. The detector requires the residual to exceed a threshold
/// for a number of consecutive slots before alarming, to ride out sensor
/// noise and model error.
///
/// # Examples
///
/// ```
/// use hbm_defense::ThermalResidualDetector;
/// use hbm_thermal::ZoneModel;
/// use hbm_units::{Duration, Power, Temperature, TemperatureDelta};
///
/// let mut detector = ThermalResidualDetector::new(
///     ZoneModel::paper_default(),
///     TemperatureDelta::from_celsius(0.8),
///     3,
/// );
/// let slot = Duration::from_minutes(1.0);
/// // Metered 7 kW but 8.6 kW of actual heat: the room runs hotter than
/// // the twin predicts, and the detector fires within a few minutes.
/// let mut twin_truth = ZoneModel::paper_default();
/// let mut fired = false;
/// for _ in 0..10 {
///     let observed = twin_truth.step(Power::from_kilowatts(8.6), slot);
///     fired |= detector.observe(Power::from_kilowatts(7.0), observed, slot);
/// }
/// assert!(fired);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalResidualDetector {
    twin: ZoneModel,
    threshold: TemperatureDelta,
    required_consecutive: u32,
    consecutive: u32,
    last_residual: TemperatureDelta,
    alarms: u64,
}

impl ThermalResidualDetector {
    /// Creates a detector.
    ///
    /// * `twin` — thermal model of the colocation, initialized to the
    ///   current conditions;
    /// * `threshold` — residual magnitude treated as anomalous;
    /// * `required_consecutive` — consecutive anomalous slots before the
    ///   alarm fires.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is non-positive or `required_consecutive` is 0.
    pub fn new(twin: ZoneModel, threshold: TemperatureDelta, required_consecutive: u32) -> Self {
        assert!(
            threshold > TemperatureDelta::ZERO,
            "threshold must be positive"
        );
        assert!(
            required_consecutive > 0,
            "need at least one consecutive slot"
        );
        ThermalResidualDetector {
            twin,
            threshold,
            required_consecutive,
            consecutive: 0,
            last_residual: TemperatureDelta::ZERO,
            alarms: 0,
        }
    }

    /// Feeds one slot of metered power and the measured inlet temperature;
    /// returns whether the alarm fires on this slot.
    ///
    /// # Panics
    ///
    /// Panics if `metered` is negative or `dt` non-positive.
    pub fn observe(&mut self, metered: Power, observed: Temperature, dt: Duration) -> bool {
        let predicted = self.twin.step(metered, dt);
        self.last_residual = observed - predicted;
        if self.last_residual > self.threshold {
            self.consecutive += 1;
        } else {
            self.consecutive = 0;
        }
        // Keep the twin honest: once it has diverged, re-anchor it to the
        // observation so subsequent residuals measure *new* divergence.
        if self.last_residual.abs() > self.threshold * 3.0 {
            self.twin.set_inlet(observed);
        }
        if self.consecutive >= self.required_consecutive {
            self.alarms += 1;
            self.consecutive = 0;
            true
        } else {
            false
        }
    }

    /// Residual of the most recent observation.
    pub fn last_residual(&self) -> TemperatureDelta {
        self.last_residual
    }

    /// Number of alarms raised so far.
    pub fn alarm_count(&self) -> u64 {
        self.alarms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector() -> ThermalResidualDetector {
        ThermalResidualDetector::new(
            ZoneModel::paper_default(),
            TemperatureDelta::from_celsius(0.8),
            3,
        )
    }

    fn slot() -> Duration {
        Duration::from_minutes(1.0)
    }

    #[test]
    fn silent_when_meters_match_heat() {
        let mut d = detector();
        let mut truth = ZoneModel::paper_default();
        for kw in [5.0, 6.5, 7.5, 7.9, 6.0] {
            for _ in 0..10 {
                let observed = truth.step(Power::from_kilowatts(kw), slot());
                assert!(!d.observe(Power::from_kilowatts(kw), observed, slot()));
            }
        }
        assert_eq!(d.alarm_count(), 0);
    }

    #[test]
    fn fires_on_behind_the_meter_attack() {
        let mut d = detector();
        let mut truth = ZoneModel::paper_default();
        // Normal operation first.
        for _ in 0..30 {
            let observed = truth.step(Power::from_kilowatts(7.0), slot());
            d.observe(Power::from_kilowatts(7.0), observed, slot());
        }
        // Attack: metered 7.48 kW, actual 8.48 kW.
        let mut detected_after = None;
        for k in 0..15 {
            let observed = truth.step(Power::from_kilowatts(8.48), slot());
            if d.observe(Power::from_kilowatts(7.48), observed, slot()) {
                detected_after = Some(k + 1);
                break;
            }
        }
        let latency = detected_after.expect("attack must be detected");
        assert!(
            latency <= 8,
            "detection should beat the emergency dwell, took {latency} min"
        );
    }

    #[test]
    fn tolerates_transient_mismatch() {
        let mut d = detector();
        let mut truth = ZoneModel::paper_default();
        // One minute of mismatch (e.g. meter sampling skew) — no alarm.
        let observed = truth.step(Power::from_kilowatts(9.0), slot());
        assert!(!d.observe(Power::from_kilowatts(7.0), observed, slot()));
        for _ in 0..10 {
            let observed = truth.step(Power::from_kilowatts(6.0), slot());
            assert!(!d.observe(Power::from_kilowatts(6.0), observed, slot()));
        }
        assert_eq!(d.alarm_count(), 0);
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn rejects_bad_threshold() {
        let _ = ThermalResidualDetector::new(ZoneModel::paper_default(), TemperatureDelta::ZERO, 3);
    }
}

//! Reproduction of the paper's battery-dynamics validation (Fig. 7b).
//!
//! The prototype experiment: two Dell desktops (~175 W total) powered from a
//! 600 VA CyberPower UPS. The UPS first runs unplugged (battery discharging)
//! for 10 minutes, then is reconnected (battery charging). Power meters on
//! both sides of the UPS expose its internal consumption. The observation the
//! paper draws from it: the energy trace is linear in both phases, and the
//! charging slope is shallower than the discharging slope because conversion
//! losses ride on top of the desktop load.

use hbm_units::{Duration, Energy, Power};

use crate::{Battery, BatterySpec};

/// Configuration of the UPS charge/discharge validation experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpsExperiment {
    /// Battery under test.
    pub spec: BatterySpec,
    /// Steady load powered through the UPS (the two desktops).
    pub load: Power,
    /// How long the UPS stays unplugged (discharge phase).
    pub discharge_phase: Duration,
    /// How long the recharge phase is observed afterwards.
    pub charge_phase: Duration,
    /// Sampling interval of the recorded energy trace.
    pub sample_interval: Duration,
}

impl Default for UpsExperiment {
    /// The prototype setup of Section V-B: ~175 W load, 10-minute discharge,
    /// then recharge, sampled every 30 s on a CyberPower-class battery.
    fn default() -> Self {
        UpsExperiment {
            spec: BatterySpec {
                capacity: Energy::from_watt_hours(60.0), // 600 VA consumer UPS class
                max_charge_rate: Power::from_watts(90.0),
                max_discharge_rate: Power::from_watts(360.0),
                charge_efficiency: 0.85,
                discharge_efficiency: 0.90,
            },
            load: Power::from_watts(175.0),
            discharge_phase: Duration::from_minutes(10.0),
            charge_phase: Duration::from_minutes(25.0),
            sample_interval: Duration::from_seconds(30.0),
        }
    }
}

/// One sample of the recorded battery-energy trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpsSample {
    /// Time since the start of the experiment.
    pub elapsed: Duration,
    /// Battery energy at this instant.
    pub stored: Energy,
    /// Power drawn from the wall (zero while unplugged).
    pub wall_power: Power,
}

/// Runs the Fig. 7(b) validation experiment and returns the energy trace.
///
/// The battery starts full, sustains `experiment.load` alone during the
/// discharge phase, and then recharges at its charger rate while the wall
/// additionally carries the load.
///
/// # Examples
///
/// ```
/// use hbm_battery::{ups_experiment, UpsExperiment};
///
/// let trace = ups_experiment(&UpsExperiment::default());
/// let lowest = trace.iter().map(|s| s.stored).fold(trace[0].stored, |a, b| a.min(b));
/// assert!(lowest < trace[0].stored);            // discharged first
/// assert!(trace.last().unwrap().stored > lowest); // then recharged
/// ```
///
/// # Panics
///
/// Panics if the spec is invalid or any duration is non-positive.
pub fn ups_experiment(experiment: &UpsExperiment) -> Vec<UpsSample> {
    assert!(
        experiment.sample_interval > Duration::ZERO,
        "sample interval must be positive"
    );
    let mut battery = Battery::full(experiment.spec);
    let dt = experiment.sample_interval;
    let total = experiment.discharge_phase + experiment.charge_phase;
    let steps = (total / dt).ceil() as usize;
    let mut trace = Vec::with_capacity(steps + 1);
    let mut elapsed = Duration::ZERO;
    trace.push(UpsSample {
        elapsed,
        stored: battery.stored(),
        wall_power: experiment.load,
    });
    for _ in 0..steps {
        let wall_power = if elapsed < experiment.discharge_phase {
            // Unplugged: the battery alone carries the desktops.
            battery.discharge(experiment.load, dt);
            Power::ZERO
        } else {
            // Plugged back in: wall carries the load plus charger draw.
            let charger = battery.charge(experiment.spec.max_charge_rate, dt);
            experiment.load + charger
        };
        elapsed += dt;
        trace.push(UpsSample {
            elapsed,
            stored: battery.stored(),
            wall_power,
        });
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slope_wh_per_min(a: &UpsSample, b: &UpsSample) -> f64 {
        (b.stored.as_watt_hours() - a.stored.as_watt_hours()) / (b.elapsed - a.elapsed).as_minutes()
    }

    #[test]
    fn discharge_then_recharge_shape() {
        let exp = UpsExperiment::default();
        let trace = ups_experiment(&exp);
        let turn = trace
            .iter()
            .position(|s| s.elapsed >= exp.discharge_phase)
            .expect("discharge phase inside trace");
        assert!(trace[turn].stored < trace[0].stored);
        assert!(trace.last().unwrap().stored > trace[turn].stored);
    }

    #[test]
    fn both_phases_are_linear() {
        let exp = UpsExperiment::default();
        let trace = ups_experiment(&exp);
        // Compare early and late slope within the discharge phase.
        let s1 = slope_wh_per_min(&trace[1], &trace[2]);
        let s2 = slope_wh_per_min(&trace[10], &trace[11]);
        assert!((s1 - s2).abs() < 1e-9, "discharge slope must be constant");
        assert!(s1 < 0.0);
    }

    #[test]
    fn charging_is_slower_than_discharging() {
        let exp = UpsExperiment::default();
        let trace = ups_experiment(&exp);
        let turn = trace
            .iter()
            .position(|s| s.elapsed >= exp.discharge_phase)
            .unwrap();
        let discharge_slope = slope_wh_per_min(&trace[1], &trace[turn - 1]).abs();
        let charge_slope = slope_wh_per_min(&trace[turn + 1], &trace[turn + 5]).abs();
        assert!(
            charge_slope < discharge_slope,
            "charge {charge_slope} must be slower than discharge {discharge_slope}"
        );
    }

    #[test]
    fn wall_power_is_zero_only_while_unplugged() {
        let exp = UpsExperiment::default();
        let trace = ups_experiment(&exp);
        for s in &trace[1..] {
            if s.elapsed <= exp.discharge_phase {
                assert_eq!(s.wall_power, Power::ZERO);
            } else {
                assert!(s.wall_power >= exp.load);
            }
        }
    }

    #[test]
    fn ups_loss_visible_in_wall_power_during_charge() {
        // Wall power during charging exceeds the desktop load by the charger
        // draw — that surplus is the "UPS loss + recharge" the paper measures.
        let exp = UpsExperiment::default();
        let trace = ups_experiment(&exp);
        let charging: Vec<_> = trace
            .iter()
            .filter(|s| s.elapsed > exp.discharge_phase && !s.wall_power.as_watts().eq(&0.0))
            .collect();
        let peak_wall = charging
            .iter()
            .map(|s| s.wall_power)
            .fold(Power::ZERO, Power::max);
        assert!(peak_wall > exp.load);
        assert!(peak_wall <= exp.load + exp.spec.max_charge_rate);
    }
}

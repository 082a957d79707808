//! Aggregated evaluation metrics (Section V-A, "Evaluation metrics").

use hbm_sidechannel::stats::Histogram;
use hbm_units::{Duration, Energy, TemperatureDelta};

/// Metrics accumulated over a simulation run.
///
/// Covers everything the paper reports: adverse-thermal-environment metrics
/// (average inlet-temperature increase, temperature distribution, emergency
/// time) and tenant-performance metrics (normalized 95th-percentile response
/// time during emergencies).
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    /// Total simulated slots.
    pub slots: u64,
    /// Slot length.
    pub slot: Duration,
    /// Slots spent in a declared thermal emergency (capping active).
    pub emergency_slots: u64,
    /// Number of distinct emergencies (rising edges).
    pub emergency_events: u64,
    /// Number of outages (PDU shutdowns).
    pub outage_events: u64,
    /// Slots spent in outage downtime.
    pub outage_slots: u64,
    /// Slots in which the attacker injected battery-fed load.
    pub attack_slots: u64,
    /// Total energy discharged from the battery into attacks.
    pub attack_energy: Energy,
    /// Sum of inlet-temperature rise above the setpoint (for averaging).
    pub delta_t_sum: TemperatureDelta,
    /// Distribution of the inlet temperature, °C.
    pub inlet_histogram: Histogram,
    /// Sum of the latency degradation factor over emergency slots.
    pub degradation_sum: f64,
    /// Count of emergency slots contributing to `degradation_sum`.
    pub degradation_slots: u64,
    /// Total energy the operator metered from the attacker.
    pub attacker_metered_energy: Energy,
    /// Total actual (heat-producing) energy of the attacker.
    pub attacker_actual_energy: Energy,
}

impl Metrics {
    /// Creates empty metrics for the given slot length.
    pub fn new(slot: Duration) -> Self {
        Metrics {
            slots: 0,
            slot,
            emergency_slots: 0,
            emergency_events: 0,
            outage_events: 0,
            outage_slots: 0,
            attack_slots: 0,
            attack_energy: Energy::ZERO,
            delta_t_sum: TemperatureDelta::ZERO,
            inlet_histogram: Histogram::new(26.0, 50.0, 96),
            degradation_sum: 0.0,
            degradation_slots: 0,
            attacker_metered_energy: Energy::ZERO,
            attacker_actual_energy: Energy::ZERO,
        }
    }

    /// Total simulated time.
    pub fn simulated_time(&self) -> Duration {
        self.slot * self.slots as f64
    }

    /// Fraction of time under a declared thermal emergency.
    pub fn emergency_fraction(&self) -> f64 {
        if self.slots == 0 {
            return 0.0;
        }
        self.emergency_slots as f64 / self.slots as f64
    }

    /// Emergency time extrapolated to hours per year.
    pub fn emergency_hours_per_year(&self) -> f64 {
        self.emergency_fraction() * 365.0 * 24.0
    }

    /// Average inlet-temperature increase over the setpoint (ΔT of
    /// Fig. 11b).
    pub fn avg_delta_t(&self) -> TemperatureDelta {
        if self.slots == 0 {
            return TemperatureDelta::ZERO;
        }
        self.delta_t_sum / self.slots as f64
    }

    /// Average attack time in hours per day (the x-axis of Figs. 11b–c).
    pub fn attack_hours_per_day(&self) -> f64 {
        let days = self.simulated_time().as_days();
        if days == 0.0 {
            return 0.0;
        }
        (self.slot * self.attack_slots as f64).as_hours() / days
    }

    /// Mean normalized 95th-percentile response time during emergencies
    /// (Fig. 11d; 1.0 when no emergency ever occurred).
    pub fn mean_emergency_degradation(&self) -> f64 {
        if self.degradation_slots == 0 {
            return 1.0;
        }
        self.degradation_sum / self.degradation_slots as f64
    }

    /// The attacker's behind-the-meter energy: the heat it produced that no
    /// power meter accounted for. This is exactly the battery-fed attack
    /// energy — the charging draw that replenished it *was* metered (as
    /// legitimate consumption), which is the concealment the paper's title
    /// refers to.
    pub fn behind_the_meter_energy(&self) -> Energy {
        self.attack_energy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Metrics {
        let mut m = Metrics::new(Duration::from_minutes(1.0));
        m.slots = 1440; // one day
        m.emergency_slots = 30;
        m.emergency_events = 6;
        m.attack_slots = 60;
        m.attack_energy = Energy::from_kilowatt_hours(1.0);
        m.delta_t_sum = TemperatureDelta::from_celsius(720.0);
        m.degradation_sum = 120.0;
        m.degradation_slots = 30;
        m.attacker_metered_energy = Energy::from_kilowatt_hours(10.0);
        m.attacker_actual_energy = Energy::from_kilowatt_hours(11.0);
        m
    }

    #[test]
    fn derived_fractions() {
        let m = sample();
        assert!((m.emergency_fraction() - 30.0 / 1440.0).abs() < 1e-12);
        assert!((m.attack_hours_per_day() - 1.0).abs() < 1e-12);
        assert!((m.avg_delta_t().as_celsius() - 0.5).abs() < 1e-12);
        assert!((m.mean_emergency_degradation() - 4.0).abs() < 1e-12);
        assert_eq!(m.behind_the_meter_energy(), m.attack_energy);
    }

    #[test]
    fn empty_metrics_are_neutral() {
        let m = Metrics::new(Duration::from_minutes(1.0));
        assert_eq!(m.emergency_fraction(), 0.0);
        assert_eq!(m.attack_hours_per_day(), 0.0);
        assert_eq!(m.mean_emergency_degradation(), 1.0);
        assert_eq!(m.avg_delta_t(), TemperatureDelta::ZERO);
    }

    #[test]
    fn yearly_extrapolation() {
        let m = sample();
        // 30 min/day in emergency → 182.5 h/yr.
        assert!((m.emergency_hours_per_year() - 182.5).abs() < 1e-9);
    }
}

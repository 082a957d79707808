//! Simulation configuration (the paper's Table I).

use hbm_battery::BatterySpec;
use hbm_power::{EmergencyProtocol, ServerSpec};
use hbm_sidechannel::SideChannelConfig;
use hbm_thermal::CoolingSystem;
use hbm_units::{Duration, Energy, Power};
use hbm_workload::{latency::LatencyModel, TraceConfig};

/// Full configuration of one simulated edge colocation with an attacker.
///
/// [`ColoConfig::paper_default`] reproduces Table I; the `with_*` methods
/// support the sensitivity sweeps of Fig. 12.
#[derive(Debug, Clone, PartialEq)]
pub struct ColoConfig {
    /// Total power/cooling capacity `C` (8 kW).
    pub capacity: Power,
    /// Number of benign tenants (3; the attacker is the 4th tenant).
    pub benign_tenants: usize,
    /// Servers per benign tenant (12 each → 36 benign + 4 attacker = 40).
    pub benign_servers_per_tenant: usize,
    /// Benign server power model.
    pub benign_server: ServerSpec,
    /// Attacker's subscribed capacity `c_a` (0.8 kW).
    pub attacker_capacity: Power,
    /// Number of attacker servers (4).
    pub attacker_servers: usize,
    /// Aggregate built-in battery of the attacker (0.2 kWh, 0.2 kW charge).
    pub battery: BatterySpec,
    /// Net thermal load injected from the battery during a repeated attack
    /// (`p_b`, 1 kW).
    pub attack_load: Power,
    /// Attacker's metered power while standing by (dummy workloads).
    pub standby_power: Power,
    /// Cooling plant.
    pub cooling: CoolingSystem,
    /// Zone thermal capacitance, J/K.
    pub zone_heat_capacity_j_per_k: f64,
    /// Zone pull-down conductance, W/K.
    pub zone_pulldown_w_per_k: f64,
    /// Emergency protocol (32 °C / 2 min / 120 W / 5 min / 45 °C).
    pub protocol: EmergencyProtocol,
    /// Voltage side channel configuration.
    pub side_channel: SideChannelConfig,
    /// Benign power trace configuration.
    pub trace: TraceConfig,
    /// Latency model used for performance metrics.
    pub latency: LatencyModel,
    /// Exponential-moving-average coefficient the attacker applies to its
    /// side-channel estimates (weight of the newest sample). 1.0 disables
    /// filtering; lower values trade estimation lag for less minute-to-
    /// minute jitter.
    pub estimate_ema_alpha: f64,
    /// Slot length (1 minute).
    pub slot: Duration,
    /// Downtime after an outage before the colocation restarts.
    pub outage_downtime: Duration,
}

impl ColoConfig {
    /// The paper's Table I defaults on a year-long default trace.
    pub fn paper_default() -> Self {
        ColoConfig {
            capacity: Power::from_kilowatts(8.0),
            benign_tenants: 3,
            benign_servers_per_tenant: 12,
            benign_server: ServerSpec::paper_default(),
            attacker_capacity: Power::from_kilowatts(0.8),
            attacker_servers: 4,
            battery: BatterySpec::paper_default(),
            attack_load: Power::from_kilowatts(1.0),
            standby_power: Power::from_watts(280.0),
            cooling: CoolingSystem::paper_default(),
            zone_heat_capacity_j_per_k: 40_000.0,
            zone_pulldown_w_per_k: 700.0,
            protocol: EmergencyProtocol::paper_default(),
            side_channel: SideChannelConfig::paper_default(),
            trace: TraceConfig::paper_default_year(2021),
            latency: LatencyModel::web_service(),
            estimate_ema_alpha: 0.4,
            slot: Duration::from_minutes(1.0),
            outage_downtime: Duration::from_minutes(60.0),
        }
    }

    /// Number of servers in the colocation (benign + attacker).
    pub fn server_count(&self) -> usize {
        self.benign_tenants * self.benign_servers_per_tenant + self.attacker_servers
    }

    /// Number of benign servers.
    pub fn benign_server_count(&self) -> usize {
        self.benign_tenants * self.benign_servers_per_tenant
    }

    /// Total benign subscribed capacity (capacity − attacker's share).
    pub fn benign_capacity(&self) -> Power {
        self.capacity - self.attacker_capacity
    }

    /// Aggregate benign power cap during an emergency
    /// (benign servers × 120 W).
    pub fn benign_emergency_cap(&self) -> Power {
        self.protocol.cap_per_server * self.benign_server_count() as f64
    }

    /// Aggregate attacker metered cap during an emergency.
    pub fn attacker_emergency_cap(&self) -> Power {
        self.protocol.cap_per_server * self.attacker_servers as f64
    }

    /// The emergency cap as a fraction of benign server peak (0.6 at
    /// defaults), which is the power axis of the latency model.
    pub fn emergency_cap_fraction(&self) -> f64 {
        self.benign_server
            .cap_fraction(self.protocol.cap_per_server)
    }

    /// Returns a copy with a different battery capacity (Fig. 12a).
    pub fn with_battery_capacity(mut self, capacity: Energy) -> Self {
        self.battery = self.battery.with_capacity(capacity);
        self
    }

    /// Returns a copy with extra side-channel noise (Fig. 12b).
    pub fn with_side_channel_noise(mut self, noise: Power) -> Self {
        self.side_channel = self.side_channel.with_extra_noise(noise);
        self
    }

    /// Returns a copy with a different attack load (Fig. 12c).
    pub fn with_attack_load(mut self, load: Power) -> Self {
        self.battery = self.battery.with_max_discharge_rate(load);
        self.attack_load = load;
        self
    }

    /// Returns a copy with the trace scaled to a different mean utilization
    /// of the colocation capacity (Fig. 12d).
    pub fn with_mean_utilization(mut self, utilization: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&utilization),
            "utilization must be in [0, 1]"
        );
        // The benign trace mean so that benign + attacker standby reaches
        // the requested total mean.
        let total_mean = self.capacity * utilization;
        let benign_mean = (total_mean - self.standby_power).positive_part();
        self.trace = self.trace.with_mean(benign_mean);
        self
    }

    /// Returns a copy with extra cooling capacity, in fraction of the power
    /// capacity (Fig. 12e: cooling headroom beyond the 8 kW design).
    pub fn with_extra_cooling(mut self, extra_fraction: f64) -> Self {
        assert!(extra_fraction >= 0.0, "extra cooling must be non-negative");
        self.cooling = self
            .cooling
            .with_capacity(self.capacity * (1.0 + extra_fraction));
        self
    }

    /// Returns a copy with a different trace length (shorter smoke runs).
    pub fn with_trace_len(mut self, len: usize) -> Self {
        self.trace = self.trace.with_len(len);
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.capacity <= Power::ZERO {
            return Err("capacity must be positive".into());
        }
        if self.benign_tenants == 0 || self.benign_servers_per_tenant == 0 {
            return Err("need at least one benign tenant with servers".into());
        }
        if self.attacker_servers == 0 {
            return Err("attacker needs at least one server".into());
        }
        if self.attacker_capacity <= Power::ZERO || self.attacker_capacity >= self.capacity {
            return Err("attacker capacity must be within (0, capacity)".into());
        }
        self.benign_server.validate()?;
        self.battery.validate().map_err(|e| e.to_string())?;
        self.cooling.validate()?;
        if self.attack_load <= Power::ZERO {
            return Err("attack load must be positive".into());
        }
        if self.standby_power > self.attacker_capacity {
            return Err("standby power must fit the attacker's subscription".into());
        }
        if self.slot <= Duration::ZERO {
            return Err("slot must be positive".into());
        }
        if !(0.0 < self.estimate_ema_alpha && self.estimate_ema_alpha <= 1.0) {
            return Err("estimate EMA alpha must be in (0, 1]".into());
        }
        // Trace synthesis would panic on either; a simulation synthesizes
        // its trace only when first stepped, so it is checked here.
        if self.trace.len == 0 {
            return Err("trace length must be positive".into());
        }
        if self.trace.slot.as_seconds().is_nan() || self.trace.slot <= Duration::ZERO {
            return Err("trace slot must be positive".into());
        }
        Ok(())
    }

    /// Table I as printable `(parameter, value)` rows.
    pub fn table_one(&self) -> Vec<(String, String)> {
        vec![
            ("Data Center Capacity".into(), format!("{}", self.capacity)),
            (
                "Number of Tenants".into(),
                format!("{}", self.benign_tenants + 1),
            ),
            (
                "Number of Servers".into(),
                format!("{}", self.server_count()),
            ),
            ("Number of Server Racks".into(), "2".into()),
            (
                "Attacker's Capacity (c_a)".into(),
                format!("{}", self.attacker_capacity),
            ),
            (
                "Attacker's Total Battery Capacity (B)".into(),
                format!("{}", self.battery.capacity),
            ),
            (
                "Attack Thermal Load from Battery".into(),
                format!("{}", self.attack_load),
            ),
            (
                "Charging Rate of the Battery".into(),
                format!("{}", self.battery.max_charge_rate),
            ),
            (
                "Temperature Threshold for Emergency (T_th)".into(),
                format!("{}", self.protocol.threshold),
            ),
            ("Q-learning Discount Factor (gamma)".into(), "0.99".into()),
            (
                "Q-learning Learning Rate (delta(t))".into(),
                "1/t^0.85".into(),
            ),
        ]
    }
}

impl Default for ColoConfig {
    fn default() -> Self {
        ColoConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbm_units::Temperature;

    #[test]
    fn paper_default_matches_table_one() {
        let c = ColoConfig::paper_default();
        assert!(c.validate().is_ok());
        assert_eq!(c.capacity, Power::from_kilowatts(8.0));
        assert_eq!(c.server_count(), 40);
        assert_eq!(c.benign_server_count(), 36);
        assert_eq!(c.attacker_capacity, Power::from_kilowatts(0.8));
        assert_eq!(c.battery.capacity, Energy::from_kilowatt_hours(0.2));
        assert_eq!(c.attack_load, Power::from_kilowatts(1.0));
        assert_eq!(c.battery.max_charge_rate, Power::from_kilowatts(0.2));
        assert_eq!(c.protocol.threshold, Temperature::from_celsius(32.0));
    }

    #[test]
    fn derived_quantities() {
        let c = ColoConfig::paper_default();
        assert_eq!(c.benign_capacity(), Power::from_kilowatts(7.2));
        assert_eq!(c.benign_emergency_cap(), Power::from_kilowatts(4.32));
        assert_eq!(c.attacker_emergency_cap(), Power::from_watts(480.0));
        assert!((c.emergency_cap_fraction() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn sweep_helpers() {
        let c = ColoConfig::paper_default()
            .with_battery_capacity(Energy::from_kilowatt_hours(0.4))
            .with_attack_load(Power::from_kilowatts(2.0))
            .with_extra_cooling(0.1);
        assert!(c.validate().is_ok());
        assert_eq!(c.battery.capacity, Energy::from_kilowatt_hours(0.4));
        assert_eq!(c.attack_load, Power::from_kilowatts(2.0));
        assert_eq!(c.battery.max_discharge_rate, Power::from_kilowatts(2.0));
        assert_eq!(c.cooling.capacity, Power::from_kilowatts(8.8));
    }

    #[test]
    fn utilization_sweep_changes_trace_mean() {
        let c = ColoConfig::paper_default().with_mean_utilization(0.6);
        assert!(c.trace.mean < Power::from_kilowatts(5.0));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn table_one_has_eleven_rows() {
        assert_eq!(ColoConfig::paper_default().table_one().len(), 11);
    }

    #[test]
    fn validation_rejects_oversized_standby() {
        let mut c = ColoConfig::paper_default();
        c.standby_power = Power::from_kilowatts(1.0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_an_empty_trace() {
        let c = ColoConfig::paper_default().with_trace_len(0);
        assert_eq!(c.validate(), Err("trace length must be positive".into()));
    }

    #[test]
    fn validation_rejects_a_non_positive_trace_slot() {
        for seconds in [0.0, -60.0, f64::NAN] {
            let mut c = ColoConfig::paper_default();
            c.trace.slot = Duration::from_seconds(seconds);
            assert_eq!(
                c.validate(),
                Err("trace slot must be positive".into()),
                "slot of {seconds} s"
            );
        }
    }
}

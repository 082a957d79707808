//! Cost estimates (Section VI-C).

use hbm_units::{Energy, Power};

use crate::Metrics;

/// Monetary parameters of the cost model, following the paper's references:
/// 150 $/kW/month subscription, 0.1 $/kWh energy, 4 500 $ per server
/// (amortized over 4 years), and a victim-side cost calibrated so the
/// default Foresighted attack lands near the paper's ≈$60 K+/year estimate
/// for the 8 kW colocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Power-capacity subscription, $ per kW per month.
    pub subscription_per_kw_month: f64,
    /// Electricity, $ per kWh.
    pub energy_per_kwh: f64,
    /// Purchase price of one attack server, $.
    pub server_price: f64,
    /// Server amortization period, years.
    pub server_life_years: f64,
    /// Victim-side cost per emergency hour, $ (latency-degradation cost of
    /// all affected tenants combined).
    pub victim_cost_per_emergency_hour: f64,
}

impl CostModel {
    /// The paper's §VI-C parameters.
    pub fn paper_default() -> Self {
        CostModel {
            subscription_per_kw_month: 150.0,
            energy_per_kwh: 0.1,
            server_price: 4_500.0,
            server_life_years: 4.0,
            victim_cost_per_emergency_hour: 300.0,
        }
    }
}

/// Yearly cost breakdown of an attack campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostReport {
    /// Attacker: colocation subscription, $/yr.
    pub attacker_subscription: f64,
    /// Attacker: electricity, $/yr.
    pub attacker_energy: f64,
    /// Attacker: amortized server purchase, $/yr.
    pub attacker_servers: f64,
    /// Benign tenants: performance cost of attack-induced emergencies, $/yr.
    pub victim_performance: f64,
}

impl CostReport {
    /// Attacker's total, $/yr.
    pub fn attacker_total(&self) -> f64 {
        self.attacker_subscription + self.attacker_energy + self.attacker_servers
    }
}

impl CostModel {
    /// Computes the yearly cost report for a campaign measured by `metrics`,
    /// extrapolating to a full year.
    ///
    /// `subscribed` is the attacker's capacity (`c_a`), `servers` its server
    /// count, and `metered_energy` what it actually drew from the PDU over
    /// the measured period.
    pub fn yearly_report(
        &self,
        metrics: &Metrics,
        subscribed: Power,
        servers: usize,
        metered_energy: Energy,
    ) -> CostReport {
        let years = (metrics.simulated_time().as_days() / 365.0).max(1e-9);
        CostReport {
            attacker_subscription: subscribed.as_kilowatts()
                * self.subscription_per_kw_month
                * 12.0,
            attacker_energy: metered_energy.as_kilowatt_hours() * self.energy_per_kwh / years,
            attacker_servers: servers as f64 * self.server_price / self.server_life_years,
            victim_performance: metrics.emergency_hours_per_year()
                * self.victim_cost_per_emergency_hour
                * metrics.mean_emergency_degradation().max(1.0)
                / 4.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbm_units::Duration;

    #[test]
    fn attacker_fixed_costs_match_paper_arithmetic() {
        let model = CostModel::paper_default();
        let metrics = Metrics::new(Duration::from_minutes(1.0));
        let report = model.yearly_report(&metrics, Power::from_kilowatts(0.8), 4, Energy::ZERO);
        // 0.8 kW × 150 $/kW/mo × 12 = 1 440 $/yr.
        assert!((report.attacker_subscription - 1_440.0).abs() < 1e-9);
        // 4 × 4 500 $ / 4 yr = 4 500 $/yr.
        assert!((report.attacker_servers - 4_500.0).abs() < 1e-9);
        assert_eq!(report.victim_performance, 0.0);
    }

    #[test]
    fn victim_cost_scales_with_emergency_time() {
        let model = CostModel::paper_default();
        let mut metrics = Metrics::new(Duration::from_minutes(1.0));
        metrics.slots = 365 * 1440;
        metrics.emergency_slots = (0.023 * 365.0 * 1440.0) as u64; // 2.3 % of the year
        metrics.degradation_sum = 4.0 * metrics.emergency_slots as f64;
        metrics.degradation_slots = metrics.emergency_slots;
        let report = model.yearly_report(
            &metrics,
            Power::from_kilowatts(0.8),
            4,
            Energy::from_kilowatt_hours(3_000.0),
        );
        // ≈201 emergency hours × 300 $/h × 4x degradation / 4 ≈ 60 K$/yr —
        // the paper's ballpark.
        assert!(
            (45_000.0..80_000.0).contains(&report.victim_performance),
            "victim cost {} outside the paper's ballpark",
            report.victim_performance
        );
        assert!(report.attacker_total() < report.victim_performance / 2.0);
    }
}

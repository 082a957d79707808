//! Coarse finite-volume ("CFD-lite") model of the containerized colocation.
//!
//! This plays the role of the paper's transient CFD analysis: a physically
//! structured air-loop model of the Vertiv SmartMod-class container with two
//! racks of twenty servers, hot/cold-aisle containment, and a capacity-
//! limited AC. It resolves per-server inlet temperatures, advection delays
//! up the aisles, and containment leakage — the features the paper's
//! heat-distribution matrix is extracted from — while remaining fast enough
//! to run minutes-long transients in milliseconds.
//!
//! # Air loop
//!
//! ```text
//!            ┌──────────── return plenum ◄──────────┐
//!            ▼                                       │ (1-λ)·m per server
//!           AC  (removes ≤ effective capacity)   hot aisle cells (rise)
//!            │                                       ▲
//!            ▼                                       │
//!        supply duct ──► cold aisle cells ──► server cells (heat +P_s)
//!                          ▲    (rise)               │
//!                          └──── λ·m leakage ◄───────┘
//! ```
//!
//! Each server draws `m` kg/s from the cold-aisle cell at its height, heats
//! it by `P_s/(m·c_p)`, and exhausts it: a fraction `λ` leaks back into the
//! cold aisle at the same height (imperfect containment), the rest joins the
//! hot aisle. Mass is conserved exactly; energy is integrated explicitly
//! with a sub-step safely below the smallest cell residence time.

use hbm_units::{Duration, Power, Temperature, TemperatureDelta};

use crate::CoolingSystem;

/// Specific heat of air, J/(kg·K).
const CP_AIR: f64 = 1005.0;

/// Geometry and airflow configuration of the CFD-lite model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CfdConfig {
    /// Number of racks (columns of servers).
    pub racks: usize,
    /// Servers per rack, stacked bottom (0) to top.
    pub servers_per_rack: usize,
    /// Cooling plant.
    pub cooling: CoolingSystem,
    /// Airflow through each server, kg/s.
    pub per_server_flow_kg_s: f64,
    /// Fraction of each server's exhaust that leaks back into the cold aisle
    /// at its own height (containment imperfection).
    pub leakage_fraction: f64,
    /// Air mass of each aisle cell, kg.
    pub cell_mass_kg: f64,
    /// Air mass of the supply duct and return plenum, kg.
    pub plenum_mass_kg: f64,
}

impl CfdConfig {
    /// The paper's two-rack, forty-server, 8 kW container.
    ///
    /// Per-server flow is sized for the canonical 10+ K outlet rise at the
    /// 200 W server rating.
    pub fn paper_default() -> Self {
        CfdConfig {
            racks: 2,
            servers_per_rack: 20,
            cooling: CoolingSystem::paper_default(),
            per_server_flow_kg_s: 0.018,
            leakage_fraction: 0.06,
            cell_mass_kg: 0.5,
            plenum_mass_kg: 4.0,
        }
    }

    /// The 14-server single-rack prototype of Appendix A (3 kW cooling).
    pub fn prototype() -> Self {
        CfdConfig {
            racks: 1,
            servers_per_rack: 14,
            cooling: CoolingSystem::prototype(),
            per_server_flow_kg_s: 0.018,
            leakage_fraction: 0.08,
            cell_mass_kg: 0.5,
            plenum_mass_kg: 2.0,
        }
    }

    /// Total number of servers.
    pub fn server_count(&self) -> usize {
        self.racks * self.servers_per_rack
    }

    /// Total airflow reaching the AC, kg/s.
    pub fn ac_flow_kg_s(&self) -> f64 {
        self.server_count() as f64 * self.per_server_flow_kg_s * (1.0 - self.leakage_fraction)
    }

    /// Validates physical plausibility.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.racks == 0 || self.servers_per_rack == 0 {
            return Err("layout must contain at least one server".into());
        }
        self.cooling.validate()?;
        if self.per_server_flow_kg_s <= 0.0 || !self.per_server_flow_kg_s.is_finite() {
            return Err("per-server flow must be positive".into());
        }
        if !(0.0..0.5).contains(&self.leakage_fraction) {
            return Err("leakage fraction must be in [0, 0.5)".into());
        }
        if self.cell_mass_kg <= 0.0 || self.plenum_mass_kg <= 0.0 {
            return Err("cell masses must be positive".into());
        }
        Ok(())
    }
}

/// Transient state of the CFD-lite model.
///
/// # Examples
///
/// ```
/// use hbm_thermal::{CfdConfig, CfdModel};
/// use hbm_units::{Duration, Power};
///
/// let config = CfdConfig::paper_default();
/// let mut cfd = CfdModel::new(config);
/// let powers = vec![Power::from_watts(150.0); config.server_count()];
/// cfd.step(&powers, Duration::from_minutes(5.0));
/// // Below capacity: inlets stay essentially at the 27 °C supply setpoint.
/// assert!(cfd.mean_inlet().as_celsius() < 28.5);
/// ```
#[derive(Debug, Clone)]
pub struct CfdModel {
    config: CfdConfig,
    /// Cold-aisle cell temperatures, rack-major
    /// (`rack * servers_per_rack + height`), °C.
    cold: Vec<f64>,
    /// Hot-aisle cell temperatures, rack-major, °C.
    hot: Vec<f64>,
    /// Back buffers swapped with the live state every sub-step, so
    /// integration never allocates.
    cold_back: Vec<f64>,
    hot_back: Vec<f64>,
    /// Supply duct temperature, °C.
    duct: f64,
    /// Return plenum temperature, °C.
    ret: f64,
    /// Integration sub-step, seconds.
    dt: f64,
}

impl PartialEq for CfdModel {
    /// Compares the physical state only; the back buffers are scratch.
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
            && self.cold == other.cold
            && self.hot == other.hot
            && self.duct == other.duct
            && self.ret == other.ret
            && self.dt == other.dt
    }
}

impl CfdModel {
    /// Creates a model at thermal equilibrium (everything at the supply
    /// setpoint).
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`CfdConfig::validate`].
    pub fn new(config: CfdConfig) -> Self {
        config.validate().expect("invalid CFD configuration");
        let sup = config.cooling.supply.as_celsius();
        // Stability: sub-step below the smallest residence time. The largest
        // per-cell throughflow is the bottom cold cell of a rack.
        let max_flow = config.servers_per_rack as f64
            * config.per_server_flow_kg_s
            * (1.0 - config.leakage_fraction)
            + config.per_server_flow_kg_s;
        let dt = (0.4 * config.cell_mass_kg / max_flow).min(0.5);
        let cells = config.server_count();
        CfdModel {
            cold: vec![sup; cells],
            hot: vec![sup; cells],
            cold_back: vec![sup; cells],
            hot_back: vec![sup; cells],
            duct: sup,
            ret: sup,
            dt,
            config,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CfdConfig {
        &self.config
    }

    /// Inlet temperature of server `s` (rack-major indexing:
    /// `s = rack * servers_per_rack + height`).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn inlet(&self, s: usize) -> Temperature {
        let (r, h) = self.locate(s);
        Temperature::from_celsius(self.cold[r * self.config.servers_per_rack + h])
    }

    /// Outlet temperature of server `s` under the given power.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn outlet(&self, s: usize, power: Power) -> Temperature {
        let inlet = self.inlet(s);
        inlet
            + TemperatureDelta::from_celsius(
                power.as_watts() / (self.config.per_server_flow_kg_s * CP_AIR),
            )
    }

    /// Mean server inlet temperature (the paper's headline thermal metric).
    pub fn mean_inlet(&self) -> Temperature {
        let n = self.config.server_count() as f64;
        let sum: f64 = self.cold.iter().sum();
        Temperature::from_celsius(sum / n)
    }

    /// All inlet temperatures, rack-major.
    pub fn inlets(&self) -> Vec<Temperature> {
        self.cold
            .iter()
            .map(|&c| Temperature::from_celsius(c))
            .collect()
    }

    /// All inlet temperatures in °C, rack-major, without allocating
    /// (the cold-aisle cells *are* the inlets).
    pub(crate) fn inlet_celsius(&self) -> &[f64] {
        &self.cold
    }

    /// Advances the model by `span` with constant per-server powers.
    ///
    /// # Panics
    ///
    /// Panics if `powers.len()` differs from the server count, any power is
    /// negative, or `span` is non-positive.
    pub fn step(&mut self, powers: &[Power], span: Duration) {
        assert_eq!(
            powers.len(),
            self.config.server_count(),
            "one power per server required"
        );
        assert!(
            powers.iter().all(|&p| p >= Power::ZERO),
            "server powers must be non-negative"
        );
        assert!(span > Duration::ZERO, "span must be positive");
        let started = hbm_telemetry::timing::start();
        let mut substeps: u64 = 0;
        let mut remaining = span.as_seconds();
        while remaining > 0.0 {
            let h = remaining.min(self.dt);
            self.substep(powers, h);
            substeps += 1;
            remaining -= h;
        }
        hbm_telemetry::timing::record_span_units("cfd.substep", started, substeps);
    }

    /// Runs with constant powers until the mean inlet changes by less than
    /// `tol_kelvin` over a minute (or `max` elapses); returns elapsed time.
    pub fn run_to_steady_state(
        &mut self,
        powers: &[Power],
        tol_kelvin: f64,
        max: Duration,
    ) -> Duration {
        let mut elapsed = Duration::ZERO;
        let minute = Duration::from_minutes(1.0);
        let mut prev = self.mean_inlet();
        while elapsed < max {
            self.step(powers, minute);
            elapsed += minute;
            let now = self.mean_inlet();
            if (now - prev).abs().as_celsius() < tol_kelvin {
                break;
            }
            prev = now;
        }
        elapsed
    }

    fn locate(&self, s: usize) -> (usize, usize) {
        assert!(s < self.config.server_count(), "server index out of range");
        (
            s / self.config.servers_per_rack,
            s % self.config.servers_per_rack,
        )
    }

    fn substep(&mut self, powers: &[Power], h: f64) {
        let cfg = &self.config;
        let m = cfg.per_server_flow_kg_s;
        let lam = cfg.leakage_fraction;
        let keep = 1.0 - lam;
        let n_h = cfg.servers_per_rack;
        let rack_supply = n_h as f64 * m * keep; // duct inflow per rack
        let cell_mass = cfg.cell_mass_kg;
        // Loop invariants hoisted out of the cell loop; each matches the
        // per-cell expression of the original nested-Vec implementation
        // bit for bit (same operands, same association).
        let m_cp = m * CP_AIR;
        let lam_m = lam * m;
        let keep_m = keep * m;
        let h_over_mass = |d: f64| h * d / cell_mass;

        // AC: cool the return air toward the setpoint, limited by effective
        // capacity (derated by the current mean inlet).
        let ac_flow = cfg.ac_flow_kg_s();
        let capacity = cfg.cooling.effective_capacity(self.mean_inlet());
        let sup = cfg.cooling.supply.as_celsius();
        let q_needed = ac_flow * CP_AIR * (self.ret - sup).max(0.0);
        let q = q_needed.min(capacity.as_watts());
        let ac_out = self.ret - q / (ac_flow * CP_AIR);

        // Supply duct.
        let duct_next = self.duct + h * ac_flow / cfg.plenum_mass_kg * (ac_out - self.duct);

        let duct = self.duct;
        let cold = &self.cold;
        let hot = &self.hot;
        let cold_next = &mut self.cold_back;
        let hot_next = &mut self.hot_back;
        let mut return_inflow_temp = 0.0;

        for r in 0..cfg.racks {
            // Upward flow in the cold aisle above height i:
            //   f_c(i) = (n_h - 1 - i) * m * keep
            // and in the hot aisle: f_h(i) = (i + 1) * m * keep.
            let base = r * n_h;
            for i in 0..n_h {
                let s = base + i;
                let p = powers[s].as_watts();
                let t_in = cold[s];
                let t_out = t_in + p / m_cp;

                // Cold cell i: inflow from below (duct for i = 0) plus local
                // leakage of this server's exhaust; outflow to the server
                // and upward.
                let below_t = if i == 0 { duct } else { cold[s - 1] };
                let inflow_below = if i == 0 {
                    rack_supply
                } else {
                    (n_h - i) as f64 * m * keep
                };
                let d_cold = inflow_below * (below_t - t_in) + lam_m * (t_out - t_in);
                cold_next[s] = t_in + h_over_mass(d_cold);

                // Hot cell i: server exhaust plus flow from below.
                let t_hot = hot[s];
                let hot_below_t = if i == 0 { t_hot } else { hot[s - 1] };
                let hot_inflow_below = if i == 0 { 0.0 } else { i as f64 * m * keep };
                let d_hot = keep_m * (t_out - t_hot) + hot_inflow_below * (hot_below_t - t_hot);
                hot_next[s] = t_hot + h_over_mass(d_hot);
            }
            return_inflow_temp += hot[base + n_h - 1];
        }

        // Return plenum mixes the top-of-hot-aisle flows of all racks.
        let mean_top = return_inflow_temp / cfg.racks as f64;
        let ret_next = self.ret + h * ac_flow / cfg.plenum_mass_kg * (mean_top - self.ret);

        std::mem::swap(&mut self.cold, &mut self.cold_back);
        std::mem::swap(&mut self.hot, &mut self.hot_back);
        self.duct = duct_next;
        self.ret = ret_next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(config: &CfdConfig, watts: f64) -> Vec<Power> {
        vec![Power::from_watts(watts); config.server_count()]
    }

    #[test]
    fn equilibrium_below_capacity() {
        let config = CfdConfig::paper_default();
        let mut cfd = CfdModel::new(config);
        // 150 W × 40 = 6 kW < 8 kW capacity.
        let powers = uniform(&config, 150.0);
        cfd.run_to_steady_state(&powers, 0.005, Duration::from_minutes(60.0));
        let mean = cfd.mean_inlet();
        assert!(
            mean.as_celsius() < 28.5,
            "inlets should sit near the setpoint, got {mean}"
        );
    }

    #[test]
    fn outlet_rise_is_ten_plus_kelvin_at_rating() {
        // Eqn. (1) of the paper: outlet is typically 10+ K above inlet.
        let config = CfdConfig::paper_default();
        let cfd = CfdModel::new(config);
        let rise = cfd.outlet(0, Power::from_watts(200.0)) - cfd.inlet(0);
        assert!(
            (10.0..14.0).contains(&rise.as_celsius()),
            "outlet rise {rise} out of expected band"
        );
    }

    #[test]
    fn overload_heats_the_inlets() {
        let config = CfdConfig::paper_default();
        let mut cfd = CfdModel::new(config);
        // 240 W × 40 = 9.6 kW > 8 kW capacity.
        let powers = uniform(&config, 240.0);
        cfd.step(&powers, Duration::from_minutes(6.0));
        assert!(
            cfd.mean_inlet() > Temperature::from_celsius(30.0),
            "mean inlet {} should have risen well above setpoint",
            cfd.mean_inlet()
        );
    }

    #[test]
    fn top_servers_run_warmer_than_bottom() {
        // Leakage at each height accumulates up the cold aisle.
        let config = CfdConfig::paper_default();
        let mut cfd = CfdModel::new(config);
        let powers = uniform(&config, 190.0);
        cfd.run_to_steady_state(&powers, 0.005, Duration::from_minutes(30.0));
        let bottom = cfd.inlet(0);
        let top = cfd.inlet(config.servers_per_rack - 1);
        assert!(
            top > bottom,
            "top inlet {top} should exceed bottom inlet {bottom}"
        );
    }

    #[test]
    fn hot_spike_at_one_server_raises_other_inlets() {
        let config = CfdConfig::paper_default();
        let mut cfd = CfdModel::new(config);
        let base = uniform(&config, 195.0); // ~7.8 kW, near capacity
        cfd.run_to_steady_state(&base, 0.005, Duration::from_minutes(30.0));
        let before = cfd.inlet(30);
        let mut spiked = base.clone();
        spiked[5] = Power::from_watts(600.0); // push past capacity
        cfd.step(&spiked, Duration::from_minutes(5.0));
        let after = cfd.inlet(30);
        assert!(
            after > before + TemperatureDelta::from_celsius(0.2),
            "shared cooling must couple servers: {before} → {after}"
        );
    }

    #[test]
    fn recovers_after_overload_clears() {
        let config = CfdConfig::paper_default();
        let mut cfd = CfdModel::new(config);
        cfd.step(&uniform(&config, 240.0), Duration::from_minutes(3.0));
        assert!(cfd.mean_inlet() > Temperature::from_celsius(29.0));
        cfd.step(&uniform(&config, 120.0), Duration::from_minutes(15.0));
        assert!(
            cfd.mean_inlet() < Temperature::from_celsius(28.0),
            "should pull back toward setpoint, at {}",
            cfd.mean_inlet()
        );
    }

    #[test]
    fn temperatures_stay_finite_and_above_supply() {
        // With positive powers and a bounded AC, no temperature should ever
        // go NaN/infinite or below the supply setpoint minus epsilon, even
        // under a sustained severe overload (the PDU would power off at
        // 45 °C long before this in the full simulator).
        let config = CfdConfig::paper_default();
        let mut cfd = CfdModel::new(config);
        let powers = uniform(&config, 250.0);
        cfd.step(&powers, Duration::from_minutes(8.0));
        for t in cfd.inlets() {
            assert!(t.is_finite());
            assert!(t.as_celsius() >= config.cooling.supply.as_celsius() - 0.01);
            assert!(t.as_celsius() < 150.0);
        }
    }

    #[test]
    fn prototype_layout_works() {
        let config = CfdConfig::prototype();
        let mut cfd = CfdModel::new(config);
        assert_eq!(config.server_count(), 14);
        cfd.step(&uniform(&config, 150.0), Duration::from_minutes(5.0));
        assert!(cfd.mean_inlet().is_finite());
    }

    #[test]
    #[should_panic(expected = "one power per server")]
    fn wrong_power_vector_length_rejected() {
        let config = CfdConfig::paper_default();
        let mut cfd = CfdModel::new(config);
        cfd.step(&[Power::ZERO; 3], Duration::from_minutes(1.0));
    }
}

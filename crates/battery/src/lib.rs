//! Built-in server battery model.
//!
//! The attack in *Heat Behind the Meter* hinges on servers whose power supply
//! units embed battery packs (e.g. Supermicro BBP). Discharging those packs
//! lets a malicious tenant consume more power — and therefore emit more heat —
//! than the colocation operator's power meters register. This crate models
//! that energy buffer.
//!
//! The paper validates (Section V-B, Fig. 7b) that a **linear** energy model
//! `b_{k+1} = min(b_k + e_k, B̄)` suffices; the only refinement kept here is a
//! configurable round-trip efficiency, which reproduces the experimentally
//! observed asymmetry between charge and discharge slopes (the prototype UPS
//! charges slower than it discharges because conversion losses ride on top of
//! the desktop load).
//!
//! # Examples
//!
//! ```
//! use hbm_battery::{Battery, BatterySpec};
//! use hbm_units::{Duration, Energy, Power};
//!
//! // The paper's default attacker battery: 0.2 kWh, 0.2 kW charge rate.
//! let mut battery = Battery::full(BatterySpec::paper_default());
//! // One minute of attack at 1 kW net output:
//! let delivered = battery.discharge(Power::from_kilowatts(1.0), Duration::from_minutes(1.0));
//! assert_eq!(delivered.as_kilowatts(), 1.0);
//! assert!(battery.stored() < Energy::from_kilowatt_hours(0.2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod validation;

pub use validation::{ups_experiment, UpsExperiment, UpsSample};

use hbm_units::{Duration, Energy, Power};

/// Static parameters of a battery (pack) as installed in a server PSU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatterySpec {
    /// Usable energy capacity `B̄`.
    pub capacity: Energy,
    /// Maximum power the charger draws from the PDU.
    pub max_charge_rate: Power,
    /// Maximum net power the pack can deliver to the server.
    pub max_discharge_rate: Power,
    /// Fraction of charger input energy that ends up stored (0, 1].
    pub charge_efficiency: f64,
    /// Fraction of stored energy that reaches the server on discharge (0, 1].
    pub discharge_efficiency: f64,
}

impl BatterySpec {
    /// The paper's Table I attacker default: 0.2 kWh total capacity,
    /// 0.2 kW charging, enough discharge headroom for the 1 kW repeated-attack
    /// load. The 3 kW one-shot load uses [`BatterySpec::one_shot`].
    pub fn paper_default() -> Self {
        BatterySpec {
            capacity: Energy::from_kilowatt_hours(0.2),
            max_charge_rate: Power::from_kilowatts(0.2),
            max_discharge_rate: Power::from_kilowatts(1.0),
            charge_efficiency: 0.92,
            discharge_efficiency: 0.95,
        }
    }

    /// A larger pack sized for the 3 kW one-shot attack (950 W peak per
    /// server across four servers, sustained for several minutes).
    pub fn one_shot() -> Self {
        BatterySpec {
            capacity: Energy::from_kilowatt_hours(0.5),
            max_charge_rate: Power::from_kilowatts(0.2),
            max_discharge_rate: Power::from_kilowatts(3.0),
            charge_efficiency: 0.92,
            discharge_efficiency: 0.95,
        }
    }

    /// Returns a copy with a different capacity (sensitivity sweeps, Fig. 12a).
    pub fn with_capacity(mut self, capacity: Energy) -> Self {
        self.capacity = capacity;
        self
    }

    /// Returns a copy with a different maximum discharge rate (Fig. 12c).
    pub fn with_max_discharge_rate(mut self, rate: Power) -> Self {
        self.max_discharge_rate = rate;
        self
    }

    /// Validates physical plausibility of the parameters.
    ///
    /// # Errors
    ///
    /// Returns a [`BatterySpecError`] describing the first violated constraint
    /// (non-positive capacity/rates, efficiency outside `(0, 1]`, or
    /// non-finite values).
    pub fn validate(&self) -> Result<(), BatterySpecError> {
        if !self.capacity.is_finite() || self.capacity <= Energy::ZERO {
            return Err(BatterySpecError::NonPositiveCapacity);
        }
        if !self.max_charge_rate.is_finite() || self.max_charge_rate <= Power::ZERO {
            return Err(BatterySpecError::NonPositiveChargeRate);
        }
        if !self.max_discharge_rate.is_finite() || self.max_discharge_rate <= Power::ZERO {
            return Err(BatterySpecError::NonPositiveDischargeRate);
        }
        if !(self.charge_efficiency > 0.0 && self.charge_efficiency <= 1.0) {
            return Err(BatterySpecError::EfficiencyOutOfRange);
        }
        if !(self.discharge_efficiency > 0.0 && self.discharge_efficiency <= 1.0) {
            return Err(BatterySpecError::EfficiencyOutOfRange);
        }
        Ok(())
    }
}

/// Error returned by [`BatterySpec::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatterySpecError {
    /// Capacity must be positive and finite.
    NonPositiveCapacity,
    /// Charge rate must be positive and finite.
    NonPositiveChargeRate,
    /// Discharge rate must be positive and finite.
    NonPositiveDischargeRate,
    /// Efficiencies must lie in `(0, 1]`.
    EfficiencyOutOfRange,
}

impl std::fmt::Display for BatterySpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            BatterySpecError::NonPositiveCapacity => "battery capacity must be positive",
            BatterySpecError::NonPositiveChargeRate => "battery charge rate must be positive",
            BatterySpecError::NonPositiveDischargeRate => "battery discharge rate must be positive",
            BatterySpecError::EfficiencyOutOfRange => "battery efficiency must be within (0, 1]",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for BatterySpecError {}

/// A battery pack with its current stored energy.
///
/// State transitions follow the paper's linear model with efficiency factors:
///
/// * charging: `b' = min(b + η_c · p_in · Δt, B̄)`
/// * discharging: `b' = max(b − p_out · Δt / η_d, 0)`
///
/// Both operations report how much power actually flowed on the *external*
/// side (PDU draw for charging, server delivery for discharging), so the
/// caller can meter it.
#[derive(Debug, Clone, PartialEq)]
pub struct Battery {
    spec: BatterySpec,
    stored: Energy,
}

impl Battery {
    /// Creates a battery at the given initial stored energy.
    ///
    /// # Panics
    ///
    /// Panics if `spec` fails [`BatterySpec::validate`] or if `initial` is
    /// outside `[0, capacity]`.
    pub fn new(spec: BatterySpec, initial: Energy) -> Self {
        spec.validate().expect("invalid battery spec");
        assert!(
            initial >= Energy::ZERO && initial <= spec.capacity,
            "initial battery energy outside [0, capacity]"
        );
        Battery {
            spec,
            stored: initial,
        }
    }

    /// Creates a fully charged battery.
    ///
    /// # Panics
    ///
    /// Panics if `spec` fails [`BatterySpec::validate`].
    pub fn full(spec: BatterySpec) -> Self {
        let capacity = spec.capacity;
        Battery::new(spec, capacity)
    }

    /// Creates an empty battery.
    ///
    /// # Panics
    ///
    /// Panics if `spec` fails [`BatterySpec::validate`].
    pub fn empty(spec: BatterySpec) -> Self {
        Battery::new(spec, Energy::ZERO)
    }

    /// The static parameters of this battery.
    pub fn spec(&self) -> &BatterySpec {
        &self.spec
    }

    /// Currently stored energy `b`.
    pub fn stored(&self) -> Energy {
        self.stored
    }

    /// State of charge in `[0, 1]`.
    pub fn state_of_charge(&self) -> f64 {
        self.stored / self.spec.capacity
    }

    /// Whether the pack is at capacity.
    pub fn is_full(&self) -> bool {
        self.spec.capacity - self.stored < Energy::from_kilowatt_hours(1e-12)
    }

    /// Whether the pack is drained.
    pub fn is_empty(&self) -> bool {
        self.stored < Energy::from_kilowatt_hours(1e-12)
    }

    /// Charges for `dt` drawing at most `input` from the PDU.
    ///
    /// Returns the power actually drawn, which is capped by the charger rate
    /// and tapers in the final slot when the pack tops out.
    ///
    /// # Panics
    ///
    /// Panics if `input` is negative or `dt` is non-positive.
    pub fn charge(&mut self, input: Power, dt: Duration) -> Power {
        assert!(input >= Power::ZERO, "charge input must be non-negative");
        assert!(dt > Duration::ZERO, "charge duration must be positive");
        let rate = input.min(self.spec.max_charge_rate);
        let headroom = self.spec.capacity - self.stored;
        // Input power whose stored fraction would exactly fill the pack.
        let fill_rate = headroom / dt / self.spec.charge_efficiency;
        let drawn = rate.min(fill_rate);
        self.stored = (self.stored + drawn * dt * self.spec.charge_efficiency)
            .clamp(Energy::ZERO, self.spec.capacity);
        drawn
    }

    /// Discharges for `dt`, requesting `output` net power at the server.
    ///
    /// Returns the power actually delivered, capped by the discharge rate and
    /// by the remaining stored energy (losses considered).
    ///
    /// # Panics
    ///
    /// Panics if `output` is negative or `dt` is non-positive.
    pub fn discharge(&mut self, output: Power, dt: Duration) -> Power {
        assert!(
            output >= Power::ZERO,
            "discharge output must be non-negative"
        );
        assert!(dt > Duration::ZERO, "discharge duration must be positive");
        let rate = output.min(self.spec.max_discharge_rate);
        // Net output sustainable from what is stored over this slot.
        let drain_rate = self.stored / dt * self.spec.discharge_efficiency;
        let delivered = rate.min(drain_rate);
        self.stored = (self.stored - delivered * dt / self.spec.discharge_efficiency)
            .clamp(Energy::ZERO, self.spec.capacity);
        delivered
    }

    /// Sets the stored energy directly (used by tests and warm starts).
    ///
    /// # Panics
    ///
    /// Panics if `stored` is outside `[0, capacity]`.
    pub fn set_stored(&mut self, stored: Energy) {
        assert!(
            stored >= Energy::ZERO && stored <= self.spec.capacity,
            "stored energy outside [0, capacity]"
        );
        self.stored = stored;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minute() -> Duration {
        Duration::from_minutes(1.0)
    }

    /// The paper default with ideal conversion: the plain linear model.
    fn lossless() -> BatterySpec {
        BatterySpec {
            charge_efficiency: 1.0,
            discharge_efficiency: 1.0,
            ..BatterySpec::paper_default()
        }
    }

    #[test]
    fn full_battery_delivers_requested_power() {
        let mut b = Battery::full(BatterySpec::paper_default());
        let p = b.discharge(Power::from_kilowatts(1.0), minute());
        assert_eq!(p.as_kilowatts(), 1.0);
    }

    #[test]
    fn discharge_is_rate_limited() {
        let mut b = Battery::full(BatterySpec::paper_default());
        let p = b.discharge(Power::from_kilowatts(5.0), minute());
        assert_eq!(p.as_kilowatts(), 1.0); // spec max
    }

    #[test]
    fn charge_is_rate_limited() {
        let mut b = Battery::empty(BatterySpec::paper_default());
        let p = b.charge(Power::from_kilowatts(2.0), minute());
        assert_eq!(p.as_kilowatts(), 0.2); // spec max
    }

    #[test]
    fn empty_battery_delivers_nothing() {
        let mut b = Battery::empty(BatterySpec::paper_default());
        let p = b.discharge(Power::from_kilowatts(1.0), minute());
        assert_eq!(p, Power::ZERO);
        assert!(b.is_empty());
    }

    #[test]
    fn charge_tapers_at_capacity() {
        let spec = lossless();
        let mut b = Battery::new(spec, spec.capacity - Energy::from_kilowatt_hours(0.001));
        // 0.2 kW for a minute would add 0.00333 kWh; only 0.001 kWh fits.
        let drawn = b.charge(Power::from_kilowatts(0.2), minute());
        assert!(drawn < Power::from_kilowatts(0.2));
        assert!(b.is_full());
    }

    #[test]
    fn lossless_round_trip_conserves_energy() {
        let spec = lossless();
        let mut b = Battery::empty(spec);
        for _ in 0..60 {
            b.charge(Power::from_kilowatts(0.2), minute());
        }
        // 0.2 kW for 1 h = 0.2 kWh = full capacity.
        assert!(b.is_full());
        let mut delivered = Energy::ZERO;
        for _ in 0..12 {
            delivered += b.discharge(Power::from_kilowatts(1.0), minute()) * minute();
        }
        assert!((delivered.as_kilowatt_hours() - 0.2).abs() < 1e-9);
        assert!(b.is_empty());
    }

    #[test]
    fn lossy_round_trip_loses_energy() {
        let spec = BatterySpec::paper_default();
        let mut b = Battery::empty(spec);
        let mut drawn = Energy::ZERO;
        for _ in 0..200 {
            drawn += b.charge(Power::from_kilowatts(0.2), minute()) * minute();
            if b.is_full() {
                break;
            }
        }
        let mut delivered = Energy::ZERO;
        for _ in 0..200 {
            delivered += b.discharge(Power::from_kilowatts(1.0), minute()) * minute();
            if b.is_empty() {
                break;
            }
        }
        assert!(delivered < drawn, "round trip must lose energy");
        let ratio = delivered / drawn;
        let expected = spec.charge_efficiency * spec.discharge_efficiency;
        assert!(
            (ratio - expected).abs() < 0.02,
            "ratio {ratio} vs {expected}"
        );
    }

    #[test]
    fn default_pack_supports_fifteen_minutes_per_server() {
        // Table I: 0.05 kWh per server = 200 W for 15 min.
        let spec = BatterySpec {
            capacity: Energy::from_kilowatt_hours(0.05),
            max_charge_rate: Power::from_kilowatts(0.05),
            max_discharge_rate: Power::from_kilowatts(0.25),
            charge_efficiency: 1.0,
            discharge_efficiency: 1.0,
        };
        let mut b = Battery::full(spec);
        let mut minutes = 0;
        while !b.is_empty() {
            let p = b.discharge(Power::from_watts(200.0), minute());
            if p < Power::from_watts(1.0) {
                break;
            }
            minutes += 1;
        }
        assert_eq!(minutes, 15);
    }

    #[test]
    fn spec_validation_rejects_bad_parameters() {
        let good = BatterySpec::paper_default();
        assert!(good.validate().is_ok());
        assert_eq!(
            good.with_capacity(Energy::ZERO).validate(),
            Err(BatterySpecError::NonPositiveCapacity)
        );
        assert_eq!(
            BatterySpec {
                max_charge_rate: Power::ZERO,
                ..good
            }
            .validate(),
            Err(BatterySpecError::NonPositiveChargeRate)
        );
        assert_eq!(
            good.with_max_discharge_rate(Power::from_kilowatts(-1.0))
                .validate(),
            Err(BatterySpecError::NonPositiveDischargeRate)
        );
        let mut bad_eff = good;
        bad_eff.charge_efficiency = 1.5;
        assert_eq!(
            bad_eff.validate(),
            Err(BatterySpecError::EfficiencyOutOfRange)
        );
    }

    #[test]
    #[should_panic(expected = "outside [0, capacity]")]
    fn new_rejects_overfull_state() {
        let spec = BatterySpec::paper_default();
        let _ = Battery::new(spec, spec.capacity + Energy::from_kilowatt_hours(0.1));
    }
}

//! Aggregation of per-server battery packs.

use hbm_units::{Duration, Energy, Power};

use crate::{Battery, BatterySpec};

/// A bank of identical per-server battery packs operated in lock-step.
///
/// The paper's attacker has four servers, each with a 0.05 kWh pack, used as
/// one 0.2 kWh aggregate. The bank charges and discharges all packs evenly —
/// matching a dual-source PSU setup where every server contributes the same
/// share of the attack load — while still tracking per-pack state so that
/// uneven requests saturate gracefully.
///
/// # Examples
///
/// ```
/// use hbm_battery::{BatteryBank, BatterySpec};
/// use hbm_units::{Duration, Energy, Power};
///
/// let per_server = BatterySpec {
///     capacity: Energy::from_kilowatt_hours(0.05),
///     max_charge_rate: Power::from_kilowatts(0.05),
///     max_discharge_rate: Power::from_kilowatts(0.25),
///     charge_efficiency: 0.92,
///     discharge_efficiency: 0.95,
/// };
/// let mut bank = BatteryBank::full(per_server, 4);
/// assert_eq!(bank.capacity(), Energy::from_kilowatt_hours(0.2));
/// let p = bank.discharge(Power::from_kilowatts(1.0), Duration::from_minutes(1.0));
/// assert_eq!(p.as_kilowatts(), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BatteryBank {
    packs: Vec<Battery>,
}

impl BatteryBank {
    /// Creates a bank of `count` fully charged packs.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or `per_pack` is invalid.
    pub fn full(per_pack: BatterySpec, count: usize) -> Self {
        assert!(count > 0, "battery bank needs at least one pack");
        BatteryBank {
            packs: (0..count).map(|_| Battery::full(per_pack)).collect(),
        }
    }

    /// Creates a bank of `count` empty packs.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or `per_pack` is invalid.
    pub fn empty(per_pack: BatterySpec, count: usize) -> Self {
        assert!(count > 0, "battery bank needs at least one pack");
        BatteryBank {
            packs: (0..count).map(|_| Battery::empty(per_pack)).collect(),
        }
    }

    /// Number of packs in the bank.
    pub fn len(&self) -> usize {
        self.packs.len()
    }

    /// Whether the bank has no packs (never true for constructed banks).
    pub fn is_empty(&self) -> bool {
        self.packs.is_empty()
    }

    /// Iterates over the individual packs.
    pub fn iter(&self) -> std::slice::Iter<'_, Battery> {
        self.packs.iter()
    }

    /// Total usable capacity across packs.
    pub fn capacity(&self) -> Energy {
        self.packs.iter().map(|p| p.spec().capacity).sum()
    }

    /// Total stored energy across packs.
    pub fn stored(&self) -> Energy {
        self.packs.iter().map(Battery::stored).sum()
    }

    /// Aggregate state of charge in `[0, 1]`.
    pub fn state_of_charge(&self) -> f64 {
        self.stored() / self.capacity()
    }

    /// Whether every pack is drained.
    pub fn is_drained(&self) -> bool {
        self.packs.iter().all(Battery::is_empty)
    }

    /// Whether every pack is at capacity.
    pub fn is_full(&self) -> bool {
        self.packs.iter().all(Battery::is_full)
    }

    /// Charges the bank, splitting `input` evenly across packs.
    ///
    /// Returns the total power drawn from the PDU.
    ///
    /// # Panics
    ///
    /// Panics if `input` is negative or `dt` is non-positive.
    pub fn charge(&mut self, input: Power, dt: Duration) -> Power {
        let share = input / self.packs.len() as f64;
        self.packs.iter_mut().map(|p| p.charge(share, dt)).sum()
    }

    /// Discharges the bank, splitting the `output` request evenly.
    ///
    /// Returns the total net power delivered to the servers.
    ///
    /// # Panics
    ///
    /// Panics if `output` is negative or `dt` is non-positive.
    pub fn discharge(&mut self, output: Power, dt: Duration) -> Power {
        let share = output / self.packs.len() as f64;
        self.packs.iter_mut().map(|p| p.discharge(share, dt)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn per_server() -> BatterySpec {
        BatterySpec {
            capacity: Energy::from_kilowatt_hours(0.05),
            max_charge_rate: Power::from_kilowatts(0.05),
            max_discharge_rate: Power::from_kilowatts(0.25),
            charge_efficiency: 1.0,
            discharge_efficiency: 1.0,
        }
    }

    #[test]
    fn aggregates_match_paper_defaults() {
        let bank = BatteryBank::full(per_server(), 4);
        assert_eq!(bank.len(), 4);
        assert!((bank.capacity().as_kilowatt_hours() - 0.2).abs() < 1e-12);
        assert_eq!(bank.state_of_charge(), 1.0);
        assert!(bank.is_full());
    }

    #[test]
    fn even_discharge_runs_twelve_minutes_at_one_kilowatt() {
        let mut bank = BatteryBank::full(per_server(), 4);
        let dt = Duration::from_minutes(1.0);
        let mut minutes = 0;
        loop {
            let p = bank.discharge(Power::from_kilowatts(1.0), dt);
            if p < Power::from_watts(999.0) {
                break;
            }
            minutes += 1;
        }
        assert_eq!(minutes, 12); // 0.2 kWh at 1 kW
        assert!(bank.is_drained());
    }

    #[test]
    fn charge_rate_is_aggregate_of_pack_rates() {
        let mut bank = BatteryBank::empty(per_server(), 4);
        let drawn = bank.charge(Power::from_kilowatts(1.0), Duration::from_minutes(1.0));
        assert!((drawn.as_kilowatts() - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one pack")]
    fn zero_packs_rejected() {
        let _ = BatteryBank::full(per_server(), 0);
    }
}

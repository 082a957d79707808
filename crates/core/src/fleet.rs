//! Coordinated attacks across a fleet of edge colocations.
//!
//! The paper notes (Section III-C) that a one-shot attack "can also be
//! coordinated across multiple edge colocations for a wide-area service
//! interruption" — the scenario that makes the attack interesting to a
//! state-sponsored adversary: edge applications (assisted driving, AR) fail
//! over between nearby sites, so taking out *one* colocation degrades
//! service, but taking out most of a metro area's sites simultaneously
//! interrupts it.
//!
//! [`Fleet`] runs one [`Simulation`] per site in lock-step and tracks the
//! wide-area availability: how many sites are up each slot, and the longest
//! window in which the up-fraction was below a service threshold.

use hbm_units::{Duration, Power};

use crate::{ColoConfig, Policy, SimReport, Simulation};

/// Wide-area outcome of a fleet campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Per-site reports.
    pub sites: Vec<SimReport>,
    /// Number of slots in which at least one site was down.
    pub any_down_slots: u64,
    /// Number of slots in which the fraction of sites up was below the
    /// service threshold (the wide-area interruption).
    pub interruption_slots: u64,
    /// Longest contiguous interruption.
    pub longest_interruption: Duration,
    /// Total sites that experienced at least one outage.
    pub sites_hit: usize,
}

impl FleetReport {
    /// Whether a wide-area interruption occurred at all.
    pub fn wide_area_interrupted(&self) -> bool {
        self.interruption_slots > 0
    }
}

/// A fleet of identical edge colocations attacked in coordination.
///
/// Sites differ by seed (their workload traces and side channels are
/// independent) but share the configuration; the attacker runs one policy
/// instance per site.
///
/// # Examples
///
/// ```no_run
/// use hbm_battery::BatterySpec;
/// use hbm_core::{ColoConfig, Fleet, OneShotPolicy};
/// use hbm_units::Power;
///
/// let mut config = ColoConfig::paper_default();
/// config.battery = BatterySpec::one_shot();
/// config.attack_load = Power::from_kilowatts(3.0);
/// let mut fleet = Fleet::new(config, 5, 1, |_, _| {
///     OneShotPolicy::new(Power::from_kilowatts(7.6))
/// });
/// let report = fleet.run(3 * 1440, 0.5);
/// assert!(report.wide_area_interrupted());
/// ```
pub struct Fleet {
    sites: Vec<Simulation>,
}

impl Fleet {
    /// Builds a fleet of `count` sites. `make_policy(site, seed)` builds
    /// each site's attack policy.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or the config is invalid.
    pub fn new<P: Into<Policy>>(
        config: ColoConfig,
        count: usize,
        base_seed: u64,
        mut make_policy: impl FnMut(usize, u64) -> P,
    ) -> Self {
        assert!(count > 0, "fleet needs at least one site");
        let sites = (0..count)
            .map(|i| {
                let seed = base_seed.wrapping_add(1 + i as u64 * 1299721);
                Simulation::new(config.clone(), make_policy(i, seed), seed)
            })
            .collect();
        Fleet { sites }
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether the fleet has no sites (never true for constructed fleets).
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// The per-site simulations.
    pub fn sites(&self) -> &[Simulation] {
        &self.sites
    }

    /// Runs all sites for `slots` slots in lock-step and reports wide-area
    /// availability. A slot counts as a *wide-area interruption* when the
    /// fraction of sites up drops below `required_up_fraction`.
    ///
    /// The sites advance through the batch engine ([`crate::run_sharded`]):
    /// structure-of-arrays lockstep stepping, sharded across the `hbm_par`
    /// thread budget, with trajectories bit-identical to stepping each site
    /// alone at any thread count. Each site's accumulated metrics are moved
    /// into the report (no per-site clone); the sites themselves keep their
    /// stepping state and continue with fresh metrics, as after
    /// [`Simulation::warmup`].
    ///
    /// # Panics
    ///
    /// Panics if `required_up_fraction` is outside `(0, 1]`.
    pub fn run(&mut self, slots: u64, required_up_fraction: f64) -> FleetReport {
        assert!(
            required_up_fraction > 0.0 && required_up_fraction <= 1.0,
            "up fraction must be in (0, 1]"
        );
        let n = self.sites.len();
        let slot_len = self.sites[0].config().slot;
        let run = crate::run_sharded(std::mem::take(&mut self.sites), slots);
        self.sites = run.sims;
        let mut any_down_slots = 0u64;
        let mut interruption_slots = 0u64;
        let mut longest = 0u64;
        let mut current = 0u64;
        for &down in &run.down_per_slot {
            if down > 0 {
                any_down_slots += 1;
            }
            let up_fraction = (n - down as usize) as f64 / n as f64;
            if up_fraction < required_up_fraction {
                interruption_slots += 1;
                current += 1;
                longest = longest.max(current);
            } else {
                current = 0;
            }
        }
        let sites_hit = run
            .reports
            .iter()
            .filter(|r| r.metrics.outage_events > 0)
            .count();
        FleetReport {
            sites: run.reports,
            any_down_slots,
            interruption_slots,
            longest_interruption: slot_len * longest as f64,
            sites_hit,
        }
    }
}

/// Convenience: the paper's coordinated one-shot scenario — every site's
/// attacker waits for its local high-load moment and fires; because the
/// sites share a (metro-wide) diurnal pattern, the outages cluster in time.
pub fn coordinated_one_shot(
    sites: usize,
    base_seed: u64,
    horizon_slots: u64,
    required_up_fraction: f64,
) -> FleetReport {
    use crate::OneShotPolicy;
    use hbm_battery::BatterySpec;

    let mut config = ColoConfig::paper_default();
    config.battery = BatterySpec::one_shot();
    config.attack_load = Power::from_kilowatts(3.0);
    let mut fleet = Fleet::new(config, sites, base_seed, |_, _| {
        OneShotPolicy::new(Power::from_kilowatts(7.6))
    });
    fleet.run(horizon_slots, required_up_fraction)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MyopicPolicy;

    #[test]
    fn benign_fleet_never_interrupted() {
        let config = ColoConfig::paper_default().with_trace_len(2 * 1440);
        let mut fleet = Fleet::new(config, 3, 7, |_, _| {
            MyopicPolicy::new(Power::from_kilowatts(99.0))
        });
        let report = fleet.run(2 * 1440, 1.0);
        assert_eq!(report.any_down_slots, 0);
        assert_eq!(report.interruption_slots, 0);
        assert_eq!(report.sites_hit, 0);
    }

    #[test]
    fn coordinated_one_shot_interrupts_the_metro() {
        let report = coordinated_one_shot(4, 1, 3 * 1440, 0.5);
        assert_eq!(report.sites_hit, 4, "every site should eventually fall");
        assert!(
            report.wide_area_interrupted(),
            "shared diurnal peaks must cluster the outages"
        );
        assert!(report.longest_interruption >= Duration::from_minutes(10.0));
    }

    #[test]
    fn sites_have_independent_traces() {
        let config = ColoConfig::paper_default().with_trace_len(1440);
        let fleet = Fleet::new(config, 2, 3, |_, _| {
            MyopicPolicy::new(Power::from_kilowatts(7.4))
        });
        let a = fleet.sites()[0].trace();
        let b = fleet.sites()[1].trace();
        assert_ne!(a, b, "each site must get its own trace realization");
    }
}

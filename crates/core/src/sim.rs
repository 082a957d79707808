//! The slotted colocation simulator.

use std::sync::Arc;

use hbm_battery::Battery;
use hbm_power::EmergencyProtocol;
use hbm_sidechannel::VoltageSideChannel;
use hbm_telemetry::ChannelValue;
use hbm_thermal::ZoneModel;
use hbm_units::{Duration, Energy, Power, Temperature};
use hbm_workload::latency::LatencyModel;
use hbm_workload::{generate, PowerTrace};

use crate::traces::effective_trace_config;
use crate::{AttackAction, ColoConfig, Metrics, Observation, Policy, Transition};

/// One slot of recorded simulator state (drives the snapshot figures
/// 8, 9, and 13).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotRecord {
    /// Slot index.
    pub slot: u64,
    /// Benign tenants' desired aggregate power.
    pub benign_demand: Power,
    /// Benign tenants' actual (possibly capped) power.
    pub benign_actual: Power,
    /// Total power the operator's meters registered.
    pub metered_total: Power,
    /// Total actual heat-producing power.
    pub actual_total: Power,
    /// Battery-fed attack load this slot (zero unless attacking).
    pub attack_load: Power,
    /// Attacker battery state of charge at the end of the slot.
    pub battery_soc: f64,
    /// The attacker's side-channel estimate (incl. its own subscription).
    pub estimated_total: Power,
    /// The unfiltered side-channel estimate the filtered one was updated
    /// from (zero in outage slots, when nothing is sensed).
    pub raw_estimate: Power,
    /// Action the attacker took.
    pub action: AttackAction,
    /// Server inlet temperature at the end of the slot.
    pub inlet: Temperature,
    /// Whether capping was enforced during this slot.
    pub capping: bool,
    /// Whether the colocation was down during this slot.
    pub outage: bool,
}

/// Result of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Name of the attack policy that ran.
    pub policy: String,
    /// Aggregated metrics.
    pub metrics: Metrics,
}

/// Everything not yet known when the policy acted; completed (and fed to
/// [`Policy::learn`]) at the start of the next slot, when the next
/// side-channel estimate exists. Both engines leave one after every
/// non-outage slot, whatever the policy, so a checkpoint never depends on
/// which engine stepped the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PendingTransition {
    pub(crate) observation: Observation,
    pub(crate) action: AttackAction,
    pub(crate) inlet: Temperature,
    pub(crate) next_battery_soc: f64,
    pub(crate) next_battery_stored: Energy,
}

impl PendingTransition {
    /// The learning [`Transition`], completed with what the next slot
    /// observed (both engines go through here).
    pub(crate) fn complete(
        self,
        next_estimated_total: Power,
        next_capping: bool,
        p: &SlotParams,
    ) -> Transition {
        Transition {
            observation: self.observation,
            action: self.action,
            inlet: self.inlet,
            next_battery_soc: self.next_battery_soc,
            next_battery_stored: self.next_battery_stored,
            next_estimated_total,
            next_capping,
            day: self.observation.slot / p.slots_per_day,
        }
    }
}

/// Per-slot scalars derived once from a [`ColoConfig`]: everything the slot
/// phases read. Each [`Simulation`] holds one (a batched lane included), so
/// the hot path never walks the multi-cache-line config.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotParams {
    slot: Duration,
    slots_per_day: u64,
    benign_cap: Power,
    benign_emergency_cap: Power,
    attacker_cap: Power,
    attacker_emergency_cap: Power,
    standby: Power,
    attack_load: Power,
    max_charge_rate: Power,
    charge_efficiency: f64,
    ema_alpha: f64,
    supply: Temperature,
    outage_downtime: Duration,
    latency: LatencyModel,
    emergency_cap_fraction: f64,
}

impl SlotParams {
    pub(crate) fn of(config: &ColoConfig) -> SlotParams {
        SlotParams {
            slot: config.slot,
            slots_per_day: (Duration::from_days(1.0) / config.slot).round().max(1.0) as u64,
            benign_cap: config.benign_capacity(),
            benign_emergency_cap: config.benign_emergency_cap(),
            attacker_cap: config.attacker_capacity,
            attacker_emergency_cap: config.attacker_emergency_cap(),
            standby: config.standby_power,
            attack_load: config.attack_load,
            max_charge_rate: config.battery.max_charge_rate,
            charge_efficiency: config.battery.charge_efficiency,
            ema_alpha: config.estimate_ema_alpha,
            supply: config.cooling.supply,
            outage_downtime: config.outage_downtime,
            latency: config.latency,
            emergency_cap_fraction: config.emergency_cap_fraction(),
        }
    }
}

/// The attacker's side of one slot's power.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct AttackerPower {
    /// What the operator's meters registered.
    metered: Power,
    /// What turned into heat.
    actual: Power,
}

impl SlotRecord {
    /// An all-zero record: the placeholder a slot's phases fill in.
    pub(crate) fn blank() -> SlotRecord {
        SlotRecord {
            slot: 0,
            benign_demand: Power::ZERO,
            benign_actual: Power::ZERO,
            metered_total: Power::ZERO,
            actual_total: Power::ZERO,
            attack_load: Power::ZERO,
            battery_soc: 0.0,
            estimated_total: Power::ZERO,
            raw_estimate: Power::ZERO,
            action: AttackAction::Standby,
            inlet: Temperature::from_celsius(0.0),
            capping: false,
            outage: false,
        }
    }

    /// A slot of outage downtime: everything is off and nothing is sensed.
    pub(crate) fn outage(slot: u64, battery_soc: f64, inlet: Temperature) -> SlotRecord {
        SlotRecord {
            slot,
            battery_soc,
            inlet,
            outage: true,
            ..SlotRecord::blank()
        }
    }

    /// The record as its telemetry channels, in trace order; the names
    /// mirror the figure CSV columns (`docs/TELEMETRY.md`). A trace line is
    /// `hbm_telemetry::Sample { step: r.slot, channels: &r.channels() }`.
    pub fn channels(&self) -> [(&'static str, ChannelValue); 12] {
        let action = match self.action {
            AttackAction::Attack => "attack",
            AttackAction::Charge => "charge",
            AttackAction::Standby => "standby",
        };
        [
            ("benign_kw", self.benign_demand.as_kilowatts().into()),
            ("benign_actual_kw", self.benign_actual.as_kilowatts().into()),
            ("metered_kw", self.metered_total.as_kilowatts().into()),
            ("actual_kw", self.actual_total.as_kilowatts().into()),
            ("attack_kw", self.attack_load.as_kilowatts().into()),
            ("soc", self.battery_soc.into()),
            ("est_kw", self.estimated_total.as_kilowatts().into()),
            ("raw_est_kw", self.raw_estimate.as_kilowatts().into()),
            ("inlet_c", self.inlet.as_celsius().into()),
            ("capping", self.capping.into()),
            ("outage", self.outage.into()),
            ("action", ChannelValue::Str(action)),
        ]
    }
}

/// The edge-colocation simulator (see the crate docs for the slot
/// sequence).
///
/// Fields are `pub(crate)` so the checkpoint module (`crate::state`) can
/// serialize and restore the dynamic state bit-exactly.
pub struct Simulation {
    pub(crate) config: ColoConfig,
    /// The slot phases' view of `config` (derived once; the config is
    /// never mutated after construction).
    pub(crate) params: SlotParams,
    /// The benign workload trace. Behind an [`Arc`] because it is the one
    /// large piece of *static* state: [`Simulation::fork`] shares it
    /// instead of copying megabytes of samples per branch.
    pub(crate) trace: Arc<PowerTrace>,
    pub(crate) zone: ZoneModel,
    pub(crate) protocol: EmergencyProtocol,
    pub(crate) battery: Battery,
    pub(crate) side_channel: VoltageSideChannel,
    pub(crate) policy: Policy,
    pub(crate) slot_index: u64,
    pub(crate) metrics: Metrics,
    pub(crate) pending: Option<PendingTransition>,
    pub(crate) outage_remaining: Option<Duration>,
    pub(crate) prev_capping: bool,
    /// EMA state of the attacker's filtered side-channel estimate.
    pub(crate) estimate_filter: Option<Power>,
}

impl Simulation {
    /// Builds a simulator from a configuration, an attack policy, and a
    /// seed (which controls the workload trace and the side channel; the
    /// policy carries its own RNG).
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`ColoConfig::validate`].
    pub fn new(config: ColoConfig, policy: impl Into<Policy>, seed: u64) -> Self {
        let trace = Arc::new(generate(&effective_trace_config(&config.trace, seed)));
        Self::with_trace(config, policy.into(), seed, trace)
    }

    /// Like [`Simulation::new`], but with an already-generated workload
    /// trace instead of synthesizing one. The caller is responsible for
    /// passing exactly the trace [`Simulation::new`] would generate for
    /// this `config`/`seed` pair: [`crate::TraceStore`] and
    /// [`crate::Scenario::build_sim_sharing_trace`] key it by the effective
    /// trace configuration. A bounded run ([`crate::Scenario::run`]) may
    /// pass that trace's head instead (`hbm_workload::generate_heads`),
    /// since it reads no slot past the head's `keep`.
    pub(crate) fn with_trace(
        config: ColoConfig,
        policy: Policy,
        seed: u64,
        trace: Arc<PowerTrace>,
    ) -> Self {
        config.validate().expect("invalid colocation config");
        let zone = ZoneModel::new(
            config.cooling,
            config.zone_heat_capacity_j_per_k,
            config.zone_pulldown_w_per_k,
        );
        let protocol = config.protocol.clone();
        let battery = Battery::full(config.battery);
        let side_channel = VoltageSideChannel::new(config.side_channel, seed.wrapping_mul(31) + 7);
        let slot = config.slot;
        Simulation {
            params: SlotParams::of(&config),
            config,
            trace,
            zone,
            protocol,
            battery,
            side_channel,
            policy,
            slot_index: 0,
            metrics: Metrics::new(slot),
            pending: None,
            outage_remaining: None,
            prev_capping: false,
            estimate_filter: None,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ColoConfig {
        &self.config
    }

    /// The benign workload trace in use.
    pub fn trace(&self) -> &PowerTrace {
        &self.trace
    }

    /// Current inlet temperature.
    pub fn inlet(&self) -> Temperature {
        self.zone.inlet()
    }

    /// Current attacker battery state of charge.
    pub fn battery_soc(&self) -> f64 {
        self.battery.state_of_charge()
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The attack policy (match on the variant to inspect a concrete type,
    /// e.g. the learnt Foresighted policy for Fig. 10).
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// Runs `slots` slots and returns the accumulated report.
    pub fn run(&mut self, slots: u64) -> SimReport {
        for _ in 0..slots {
            self.step();
        }
        self.report()
    }

    /// Runs `slots` slots, recording every slot (for snapshot figures).
    pub fn run_recorded(&mut self, slots: u64) -> (SimReport, Vec<SlotRecord>) {
        let mut records = Vec::with_capacity(slots as usize);
        for _ in 0..slots {
            records.push(self.step());
        }
        (self.report(), records)
    }

    /// Runs `slots` slots for learning warm-up, then discards the metrics
    /// (the paper initializes its Q tables offline before the measured
    /// year).
    pub fn warmup(&mut self, slots: u64) {
        for _ in 0..slots {
            self.step();
        }
        self.metrics = Metrics::new(self.config.slot);
    }

    /// The report for everything simulated so far.
    pub fn report(&self) -> SimReport {
        SimReport {
            policy: self.policy.name().to_string(),
            metrics: self.metrics.clone(),
        }
    }

    /// Simulates one slot and returns its record.
    pub fn step(&mut self) -> SlotRecord {
        let started = hbm_telemetry::timing::start();
        let mut r = SlotRecord::blank();
        let demand = self.trace.get(self.slot_index as usize);
        let attacker = if self.open_slot(demand, &mut r) {
            let sensed = self.side_channel.estimate(r.benign_actual);
            self.act_slot(sensed, self.zone.inlet(), &mut r)
        } else {
            AttackerPower::default()
        };
        let inlet = self.zone.step(r.actual_total, self.params.slot);
        self.close_slot(&mut r, attacker, inlet);
        hbm_telemetry::timing::record_span("sim.step", started);
        r
    }

    // The slot body, in three phases both engines run per lane: the batch
    // engine packs only the side-channel measurement between `open_slot`
    // and `act_slot`, and the zone physics between `act_slot` and
    // `close_slot`. Each phase reads nothing of `zone` or `side_channel`,
    // which are cold templates while a lane is batched.

    /// Opens slot `self.slot_index` with the trace's `demand`: advances the
    /// slot index and fills `r` with the slot, the demand and the benign
    /// tenants' actual power (capped to the emergency share while the
    /// operator caps). Returns `false`, with `r` an outage record, when the
    /// colocation is down this slot: nothing is sensed or decided, and the
    /// zone cools at zero load.
    #[inline]
    pub(crate) fn open_slot(&mut self, demand: Power, r: &mut SlotRecord) -> bool {
        let k = self.slot_index;
        self.slot_index += 1;
        if self.outage_remaining.is_some() {
            let soc = self.battery.state_of_charge();
            *r = SlotRecord::outage(k, soc, Temperature::from_celsius(0.0));
            return false;
        }
        // `prev_capping` is invariantly the protocol's capping state as of
        // the end of the previous slot (`close_slot` keeps it, and a
        // checkpoint that breaks it does not parse).
        let capping = self.prev_capping;
        debug_assert_eq!(capping, self.protocol.state().is_capping());
        let p = &self.params;
        let limit = if capping {
            p.benign_emergency_cap
        } else {
            p.benign_cap
        };
        *r = SlotRecord {
            slot: k,
            benign_demand: demand,
            benign_actual: demand.min(limit),
            capping,
            ..SlotRecord::blank()
        };
        true
    }

    /// The attacker's turn in an open slot, given the side channel's
    /// `sensed` benign load and the slot's starting `inlet`: filters the
    /// estimate, completes last slot's transition and learns from it,
    /// decides, then draws or charges the battery and splits the slot's
    /// power into metered and actual (filling the rest of `r` but its
    /// inlet). Returns the attacker's power.
    #[inline]
    pub(crate) fn act_slot(
        &mut self,
        sensed: Power,
        inlet: Temperature,
        r: &mut SlotRecord,
    ) -> AttackerPower {
        let p = &self.params;
        let raw_estimate = sensed + p.attacker_cap;
        let estimated_total = match self.estimate_filter {
            // Capped slots carry no information about the underlying
            // demand; freeze the filter so the attacker's view of the load
            // survives the 5-minute capping episodes.
            Some(prev) if r.capping => prev,
            Some(prev) => prev * (1.0 - p.ema_alpha) + raw_estimate * p.ema_alpha,
            None => raw_estimate,
        };
        self.estimate_filter = Some(estimated_total);
        let observation = Observation {
            slot: r.slot,
            battery_soc: self.battery.state_of_charge(),
            battery_stored: self.battery.stored(),
            estimated_total,
            inlet,
            capping: r.capping,
        };
        // Complete last slot's transition now that the new estimate exists.
        if let Some(pending) = self.pending.take() {
            let transition = pending.complete(estimated_total, r.capping, p);
            self.policy.learn(&transition);
        }
        let action = self.policy.decide(&observation);
        r.estimated_total = estimated_total;
        r.raw_estimate = raw_estimate;
        r.action = action;

        let metered_limit = if r.capping {
            p.attacker_emergency_cap
        } else {
            p.attacker_cap
        };
        let battery = &mut self.battery;
        let (metered, actual, battery_attack) = match action {
            AttackAction::Attack => {
                let delivered = battery.discharge(p.attack_load, p.slot);
                (metered_limit, metered_limit + delivered, delivered)
            }
            AttackAction::Charge => {
                let headroom = (metered_limit - p.standby).positive_part();
                let drawn = battery.charge(p.max_charge_rate.min(headroom), p.slot);
                let standby = p.standby.min(metered_limit);
                // Charging draws extra metered power; only conversion
                // losses of it become heat — the rest is stored chemistry.
                let loss = drawn * (1.0 - p.charge_efficiency);
                (standby + drawn, standby + loss, Power::ZERO)
            }
            AttackAction::Standby => {
                let standby = p.standby.min(metered_limit);
                (standby, standby, Power::ZERO)
            }
        };
        r.metered_total = r.benign_actual + metered;
        r.actual_total = r.benign_actual + actual;
        r.attack_load = battery_attack;
        r.battery_soc = battery.state_of_charge();

        // Defer the learning feedback to the next slot; `close_slot` fills
        // in the inlet the zone reaches.
        self.pending = Some(PendingTransition {
            observation,
            action,
            inlet: Temperature::from_celsius(0.0),
            next_battery_soc: r.battery_soc,
            next_battery_stored: battery.stored(),
        });
        AttackerPower { metered, actual }
    }

    /// Closes the slot at the `inlet` the zone reached: steps the operator
    /// protocol, records emergency and outage edges and accumulates the
    /// slot into the metrics. A slot of outage downtime instead counts the
    /// outage down, after which the protocol restarts from normal, and ends
    /// the attacker's episode.
    #[inline]
    pub(crate) fn close_slot(
        &mut self,
        r: &mut SlotRecord,
        attacker: AttackerPower,
        inlet: Temperature,
    ) {
        let p = &self.params;
        let metrics = &mut self.metrics;
        r.inlet = inlet;
        metrics.slots += 1;
        if r.outage {
            metrics.outage_slots += 1;
            metrics.inlet_histogram.add(inlet.as_celsius());
            let left = self
                .outage_remaining
                .expect("an outage slot of a lane that is up")
                - p.slot;
            if left > Duration::ZERO {
                self.outage_remaining = Some(left);
            } else {
                self.outage_remaining = None;
                self.protocol.reset();
            }
            self.prev_capping = false;
            self.pending = None; // the attacker's episode is over
        } else {
            let next_state = self.protocol.step(inlet, p.slot);
            if next_state.is_outage() {
                metrics.outage_events += 1;
                self.outage_remaining = Some(p.outage_downtime);
            }
            let capping_next = next_state.is_capping();
            if capping_next && !self.prev_capping {
                metrics.emergency_events += 1;
            }
            self.prev_capping = capping_next;
            if r.capping {
                metrics.emergency_slots += 1;
                let u_inst = (r.benign_demand / p.benign_cap).clamp(0.0, 1.0);
                let load_frac = p.latency.rated_load() * u_inst;
                metrics.degradation_sum +=
                    p.latency.degradation(p.emergency_cap_fraction, load_frac);
                metrics.degradation_slots += 1;
            }
            if r.attack_load > Power::ZERO {
                metrics.attack_slots += 1;
                metrics.attack_energy += r.attack_load * p.slot;
            }
            metrics.delta_t_sum += (inlet - p.supply).positive_part();
            metrics.inlet_histogram.add(inlet.as_celsius());
            metrics.attacker_metered_energy += attacker.metered * p.slot;
            metrics.attacker_actual_energy += attacker.actual * p.slot;
            if let Some(pending) = &mut self.pending {
                pending.inlet = inlet;
            }
        }
    }

    /// A deep copy of the live simulation that continues bit-identically
    /// and independently: every piece of dynamic state (zone, protocol,
    /// battery, side-channel RNG, policy tables, metrics, pending learning
    /// transition) is cloned, while the immutable workload trace is shared
    /// via [`Arc`].
    ///
    /// This is the cheap branching primitive behind [`crate::StateTree`]
    /// and the serve layer's `/fork` endpoint: forking costs a state copy
    /// (a few kB plus the policy's Q tables), not a rebuild-from-scenario
    /// plus checkpoint round trip.
    pub fn fork(&self) -> Simulation {
        Simulation {
            config: self.config.clone(),
            params: self.params,
            trace: Arc::clone(&self.trace),
            zone: self.zone,
            protocol: self.protocol.clone(),
            battery: self.battery.clone(),
            side_channel: self.side_channel.clone(),
            policy: self.policy.clone(),
            slot_index: self.slot_index,
            metrics: self.metrics.clone(),
            pending: self.pending,
            outage_remaining: self.outage_remaining,
            prev_capping: self.prev_capping,
            estimate_filter: self.estimate_filter,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MyopicPolicy, OneShotPolicy, RandomPolicy};
    use hbm_battery::BatterySpec;
    use hbm_power::ServerSpec;

    fn short_config() -> ColoConfig {
        ColoConfig::paper_default().with_trace_len(7 * 1440)
    }

    fn myopic(threshold_kw: f64) -> MyopicPolicy {
        MyopicPolicy::new(Power::from_kilowatts(threshold_kw))
    }

    #[test]
    fn no_attack_no_emergency() {
        // Myopic with an unreachable threshold never attacks; subscriptions
        // fit the cooling capacity, so no emergencies occur.
        let mut sim = Simulation::new(short_config(), myopic(99.0), 1);
        let report = sim.run(2 * 1440);
        assert_eq!(report.metrics.attack_slots, 0);
        assert_eq!(report.metrics.emergency_slots, 0);
        assert_eq!(report.metrics.outage_events, 0);
        assert!(report.metrics.avg_delta_t().as_celsius() < 0.05);
    }

    #[test]
    fn myopic_attack_creates_emergencies() {
        let mut sim = Simulation::new(short_config(), myopic(7.4), 1);
        let report = sim.run(7 * 1440);
        assert!(report.metrics.attack_slots > 0, "must find opportunities");
        assert!(
            report.metrics.emergency_slots > 0,
            "well-timed attacks must trigger emergencies"
        );
        assert_eq!(report.metrics.outage_events, 0, "1 kW cannot cause outage");
    }

    #[test]
    fn metered_stays_within_capacity() {
        let mut sim = Simulation::new(short_config(), myopic(7.0), 3);
        let (_, records) = sim.run_recorded(3 * 1440);
        for r in &records {
            assert!(
                r.metered_total <= Power::from_kilowatts(8.0) + Power::from_watts(1e-6),
                "metered power may never exceed capacity, got {}",
                r.metered_total
            );
        }
    }

    #[test]
    fn behind_the_meter_load_appears_only_during_attack() {
        let mut sim = Simulation::new(short_config(), myopic(7.2), 4);
        let (_, records) = sim.run_recorded(3 * 1440);
        let mut attacked = false;
        for r in &records {
            let gap = r.actual_total - r.metered_total;
            if r.action == AttackAction::Attack && r.attack_load > Power::ZERO {
                attacked = true;
                assert!(
                    gap > Power::ZERO,
                    "attack slots must show behind-the-meter load"
                );
            } else if r.action == AttackAction::Charge {
                // While charging, actual heat is *below* the metered draw —
                // the stored energy is not heat (visible in Fig. 9).
                assert!(
                    gap < Power::ZERO,
                    "charging slots must show actual below metered, gap {gap}"
                );
            } else {
                assert!(
                    gap.abs() <= Power::from_watts(20.0),
                    "standby slots must be nearly meter-accurate, gap {gap}"
                );
            }
        }
        assert!(attacked);
    }

    #[test]
    fn battery_drains_and_recharges() {
        let mut sim = Simulation::new(short_config(), myopic(7.2), 5);
        let (_, records) = sim.run_recorded(3 * 1440);
        let min_soc = records.iter().map(|r| r.battery_soc).fold(1.0, f64::min);
        let last_soc = records.last().unwrap().battery_soc;
        assert!(min_soc < 0.9, "battery must actually discharge");
        assert!(
            last_soc > min_soc - 1e-9,
            "battery must recharge afterwards"
        );
    }

    #[test]
    fn random_policy_fails_to_create_emergencies() {
        // Fig. 9 / Fig. 11c: Random (8 % attack probability) spreads its
        // battery budget over mostly-low-load slots.
        let config = short_config();
        let policy = RandomPolicy::new(0.08, config.attack_load, config.slot, 11);
        let mut sim = Simulation::new(config, policy, 1);
        let report = sim.run(7 * 1440);
        assert!(report.metrics.attack_slots > 0);
        assert_eq!(
            report.metrics.emergency_slots, 0,
            "random timing should not produce emergencies"
        );
    }

    #[test]
    fn one_shot_attack_causes_outage() {
        // Fig. 8: a 3 kW battery-backed load launched at high benign load
        // drives the inlet past 45 °C despite the operator's capping.
        let mut config = short_config();
        config.battery = BatterySpec::one_shot();
        config.attack_load = Power::from_kilowatts(3.0);
        let policy = OneShotPolicy::new(Power::from_kilowatts(7.6));
        let mut sim = Simulation::new(config, policy, 1);
        let report = sim.run(3 * 1440);
        assert!(
            report.metrics.outage_events >= 1,
            "one-shot attack must shut the colocation down"
        );
        assert!(report.metrics.outage_slots > 0);
    }

    #[test]
    fn emergency_caps_benign_power() {
        let mut sim = Simulation::new(short_config(), myopic(7.2), 1);
        let (_, records) = sim.run_recorded(7 * 1440);
        let capped: Vec<_> = records.iter().filter(|r| r.capping).collect();
        assert!(!capped.is_empty());
        for r in capped {
            assert!(
                r.benign_actual <= Power::from_kilowatts(4.32) + Power::from_watts(1e-6),
                "capped benign power {} exceeds 36×120 W",
                r.benign_actual
            );
        }
    }

    #[test]
    fn degradation_recorded_during_emergencies() {
        let mut sim = Simulation::new(short_config(), myopic(7.2), 8);
        let report = sim.run(7 * 1440);
        if report.metrics.emergency_slots > 0 {
            let d = report.metrics.mean_emergency_degradation();
            assert!(d > 1.5, "capping must hurt tail latency, got {d}");
        }
    }

    #[test]
    fn estimate_filter_freezes_during_capping() {
        // Capped slots carry no information about the underlying demand;
        // the attacker's filtered estimate must hold its pre-emergency
        // value through the 5-minute capping episodes.
        let mut sim = Simulation::new(short_config(), myopic(7.4), 1);
        let (_, records) = sim.run_recorded(7 * 1440);
        let mut checked = 0;
        for w in records.windows(2) {
            if w[0].capping && w[1].capping && !w[1].outage {
                assert_eq!(
                    w[0].estimated_total, w[1].estimated_total,
                    "estimate must freeze across capped slots"
                );
                checked += 1;
            }
        }
        assert!(checked > 0, "no capped windows exercised");
    }

    #[test]
    fn deterministic_given_seeds() {
        let run = || {
            let mut sim = Simulation::new(short_config(), myopic(7.4), 9);
            sim.run(1440).metrics
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn warmup_discards_metrics_but_keeps_time() {
        let mut sim = Simulation::new(short_config(), myopic(7.4), 10);
        sim.warmup(1440);
        assert_eq!(sim.metrics().slots, 0);
        let report = sim.run(1440);
        assert_eq!(report.metrics.slots, 1440);
    }

    #[test]
    fn attacker_peak_is_consistent_with_server_specs() {
        // 4 × 450 W attack servers = 0.8 kW subscribed + 1 kW battery.
        let spec = ServerSpec::attacker_repeated();
        let config = ColoConfig::paper_default();
        assert_eq!(
            spec.peak * config.attacker_servers as f64,
            config.attacker_capacity + config.attack_load
        );
    }
}

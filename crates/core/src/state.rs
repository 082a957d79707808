//! Bit-exact simulation checkpoints (the `hbm-serve` experiment schema)
//! and the in-memory [`Snapshot`] they serialize.
//!
//! A checkpoint captures everything that *evolves* during a run — RNG state
//! words, the zone inlet, protocol and campaign state machines, battery
//! energy, the EMA estimate filter, the pending learning transition, metric
//! accumulators (histogram included), and the policy's Q tables — as one
//! flat-JSON line. Everything *static* (the configuration, the workload
//! trace, grid geometry, calibration biases) is deliberately **not**
//! serialized: it re-derives deterministically from the [`Scenario`] that
//! created the run, so restore means "rebuild from the scenario, then
//! overwrite the dynamic state". [`Simulation::restore_from_json`] applied
//! to a freshly built simulation continues bit-identically to the
//! uninterrupted run (`crates/core/tests/checkpoint.rs` proves it slot for
//! slot, and the serve layer's kill-and-restore test proves it across a
//! daemon restart).
//!
//! The same dynamic state also exists in binary form: [`Simulation::snapshot`]
//! captures it as a [`Snapshot`] — a plain struct whose clone costs a memcpy
//! plus the policy's Q tables, with **no** serialization —
//! [`Simulation::restore`] overwrites a live simulation from one, and the two
//! forms convert losslessly ([`Snapshot::to_json`] / [`Snapshot::from_json`]).
//! The JSON path is implemented *on top of* the binary one, so the two can
//! never drift: `snapshot_json()` is literally `snapshot().to_json()`. Hot
//! paths (the serve step loop, [`crate::StateTree`] branching) hold
//! `Snapshot`s and only pay for JSON when a checkpoint actually reaches disk
//! or a client asks for `/state`.
//!
//! Numbers round-trip exactly: floats use the shortest-round-trip encoding
//! of [`hbm_telemetry::json::push_json_f64`] (bit-exact by test), counters
//! stay far below 2⁵³, and full-range RNG words are hex strings. Quantities
//! serialize in their type's *internal* unit (kilowatt-hours for
//! [`Energy`], watts for [`Power`], seconds, celsius) — converting units
//! here would cost the last bit and break bit-exactness.
//!
//! [`Scenario`]: crate::Scenario

use hbm_telemetry::json::{push_json_f64_array, push_json_u64_array, Fields, JsonObject};
use hbm_units::{Duration, Energy, Power, Temperature};

use crate::attacker::Learner;
use crate::sim::PendingTransition;
use crate::{AttackAction, Metrics, Observation, Policy, Simulation};

/// Schema tag of the checkpoint line; bump when the layout changes.
pub const SNAPSHOT_SCHEMA: &str = "hbm-checkpoint-v1";

fn action_name(a: AttackAction) -> &'static str {
    match a {
        AttackAction::Charge => "charge",
        AttackAction::Attack => "attack",
        AttackAction::Standby => "standby",
    }
}

fn action_from_name(s: &str) -> Result<AttackAction, String> {
    match s {
        "charge" => Ok(AttackAction::Charge),
        "attack" => Ok(AttackAction::Attack),
        "standby" => Ok(AttackAction::Standby),
        other => Err(format!("unknown action {other:?}")),
    }
}

fn push_hex_array(out: &mut String, words: &[u64; 4]) {
    out.push('[');
    for (i, w) in words.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(&format!("{w:016x}"));
        out.push('"');
    }
    out.push(']');
}

/// The dynamic state of one policy, captured by kind. Stored as the raw
/// checkpoint payload (RNG words, table vectors) rather than a policy
/// clone, so restoring from a binary snapshot overwrites **exactly** the
/// fields a JSON checkpoint restore overwrites — nothing more.
#[derive(Debug, Clone, PartialEq)]
enum PolicySnapshot {
    /// Myopic (and any other policy without dynamic state).
    Stateless,
    /// Random: its RNG words.
    Random([u64; 4]),
    /// One-shot: the trigger latch.
    OneShot(bool),
    /// Foresighted: exploration RNG, campaign state machine, learning
    /// flag, and the Q tables.
    Foresighted {
        rng: [u64; 4],
        campaign_code: u64,
        campaign_launch_w: f64,
        learning: bool,
        learner: LearnerSnapshot,
    },
}

/// Raw Q-table payload of a [`PolicySnapshot::Foresighted`].
#[derive(Debug, Clone, PartialEq)]
enum LearnerSnapshot {
    /// Batch Q-learning: Q table plus post-decision state values.
    Batch {
        values: Vec<f64>,
        visits: Vec<u64>,
        post: Vec<f64>,
    },
    /// Classic Q-learning: the Q table alone.
    Standard { values: Vec<f64>, visits: Vec<u64> },
}

/// The complete dynamic state of a [`Simulation`] in binary form — the
/// in-memory counterpart of one `hbm-checkpoint-v1` line.
///
/// Cloning a `Snapshot` is cheap (a memcpy plus the policy's Q-table
/// vectors); nothing is serialized until [`Snapshot::to_json`] is called.
/// Apply one with [`Simulation::restore`] to a simulation built from the
/// same scenario and subsequent stepping is bit-identical to the run the
/// snapshot was taken from — exactly the contract of the JSON path, which
/// is implemented on top of this type.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    policy_name: String,
    slot_index: u64,
    inlet: Temperature,
    protocol: hbm_power::ProtocolState,
    battery_stored: Energy,
    sc_rng: [u64; 4],
    sc_wander: f64,
    estimate_filter: Option<Power>,
    prev_capping: bool,
    outage_remaining: Option<Duration>,
    pending: Option<PendingTransition>,
    metrics: Metrics,
    policy: PolicySnapshot,
}

impl Snapshot {
    /// The policy name the snapshot was taken from.
    pub fn policy(&self) -> &str {
        &self.policy_name
    }

    /// The slot index at capture time (slots simulated so far, warm-up
    /// included).
    pub fn slot_index(&self) -> u64 {
        self.slot_index
    }

    /// The metric accumulators at capture time.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Serializes the snapshot as one flat-JSON checkpoint line (schema
    /// [`SNAPSHOT_SCHEMA`]) — byte-identical to what
    /// [`Simulation::snapshot_json`] has always produced.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.str("schema", SNAPSHOT_SCHEMA);
        o.str("policy", &self.policy_name);
        o.u64("slot_index", self.slot_index);
        o.f64("inlet_c", self.inlet.as_celsius());
        let (proto, proto_secs) = match self.protocol {
            hbm_power::ProtocolState::Normal => ("normal", 0.0),
            hbm_power::ProtocolState::Watch { over_threshold_for } => {
                ("watch", over_threshold_for.as_seconds())
            }
            hbm_power::ProtocolState::Emergency { remaining } => {
                ("emergency", remaining.as_seconds())
            }
            hbm_power::ProtocolState::Outage => ("outage", 0.0),
        };
        o.str("protocol", proto);
        o.f64("protocol_secs", proto_secs);
        o.f64("battery_kwh", self.battery_stored.as_kilowatt_hours());
        let mut rng = String::new();
        push_hex_array(&mut rng, &self.sc_rng);
        o.raw("sc_rng", &rng);
        o.f64("sc_wander", self.sc_wander);
        match self.estimate_filter {
            Some(p) => o.f64("filter_w", p.as_watts()),
            None => o.raw("filter_w", "null"),
        };
        o.bool("prev_capping", self.prev_capping);
        match self.outage_remaining {
            Some(d) => o.f64("outage_secs", d.as_seconds()),
            None => o.raw("outage_secs", "null"),
        };
        o.bool("pending", self.pending.is_some());
        let blank = PendingTransition {
            observation: Observation {
                slot: 0,
                battery_soc: 0.0,
                battery_stored: Energy::ZERO,
                estimated_total: Power::ZERO,
                inlet: Temperature::from_celsius(0.0),
                capping: false,
            },
            action: AttackAction::Standby,
            inlet: Temperature::from_celsius(0.0),
            next_battery_soc: 0.0,
            next_battery_stored: Energy::ZERO,
        };
        let p = self.pending.as_ref().unwrap_or(&blank);
        o.u64("pend_slot", p.observation.slot);
        o.f64("pend_soc", p.observation.battery_soc);
        o.f64(
            "pend_stored_kwh",
            p.observation.battery_stored.as_kilowatt_hours(),
        );
        o.f64("pend_est_w", p.observation.estimated_total.as_watts());
        o.f64("pend_obs_inlet_c", p.observation.inlet.as_celsius());
        o.bool("pend_capping", p.observation.capping);
        o.str("pend_action", action_name(p.action));
        o.f64("pend_inlet_c", p.inlet.as_celsius());
        o.f64("pend_next_soc", p.next_battery_soc);
        o.f64(
            "pend_next_stored_kwh",
            p.next_battery_stored.as_kilowatt_hours(),
        );
        self.metrics_to_json(&mut o);
        self.policy_to_json(&mut o);
        o.finish()
    }

    fn metrics_to_json(&self, o: &mut JsonObject) {
        let m = &self.metrics;
        o.u64("m_slots", m.slots);
        o.u64("m_emergency_slots", m.emergency_slots);
        o.u64("m_emergency_events", m.emergency_events);
        o.u64("m_outage_events", m.outage_events);
        o.u64("m_outage_slots", m.outage_slots);
        o.u64("m_attack_slots", m.attack_slots);
        o.f64("m_attack_energy_kwh", m.attack_energy.as_kilowatt_hours());
        o.f64("m_delta_t_sum_c", m.delta_t_sum.as_celsius());
        o.f64("m_degradation_sum", m.degradation_sum);
        o.u64("m_degradation_slots", m.degradation_slots);
        o.f64(
            "m_metered_energy_kwh",
            m.attacker_metered_energy.as_kilowatt_hours(),
        );
        o.f64(
            "m_actual_energy_kwh",
            m.attacker_actual_energy.as_kilowatt_hours(),
        );
        let mut hist = String::new();
        push_json_u64_array(&mut hist, m.inlet_histogram.counts());
        o.raw("m_hist", &hist);
        o.u64("m_hist_under", m.inlet_histogram.underflow());
        o.u64("m_hist_over", m.inlet_histogram.overflow());
    }

    fn policy_to_json(&self, o: &mut JsonObject) {
        match &self.policy {
            PolicySnapshot::Stateless => {}
            PolicySnapshot::Random(words) => {
                let mut rng = String::new();
                push_hex_array(&mut rng, words);
                o.raw("p_rng", &rng);
            }
            PolicySnapshot::OneShot(triggered) => {
                o.bool("p_triggered", *triggered);
            }
            PolicySnapshot::Foresighted {
                rng,
                campaign_code,
                campaign_launch_w,
                learning,
                learner,
            } => {
                let mut words = String::new();
                push_hex_array(&mut words, rng);
                o.raw("p_rng", &words);
                o.u64("p_campaign", *campaign_code);
                o.f64("p_campaign_w", *campaign_launch_w);
                o.bool("p_learning", *learning);
                let (kind, values, visits, post) = match learner {
                    LearnerSnapshot::Batch {
                        values,
                        visits,
                        post,
                    } => ("batch", values, visits, Some(post)),
                    LearnerSnapshot::Standard { values, visits } => {
                        ("standard", values, visits, None)
                    }
                };
                o.str("p_learner", kind);
                let mut buf = String::new();
                push_json_f64_array(&mut buf, values);
                o.raw("p_q_values", &buf);
                buf.clear();
                push_json_u64_array(&mut buf, visits);
                o.raw("p_q_visits", &buf);
                if let Some(v) = post {
                    buf.clear();
                    push_json_f64_array(&mut buf, v);
                    o.raw("p_post_values", &buf);
                }
            }
        }
    }

    /// Parses a checkpoint line produced by [`Snapshot::to_json`] (or the
    /// equivalent [`Simulation::snapshot_json`]) back into a binary
    /// snapshot.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON, a schema mismatch, a missing,
    /// duplicate, unknown or malformed field (see [`Fields`]), or a state no
    /// run can reach: `prev_capping` must equal the protocol's capping
    /// state, and `outage_secs` must be set exactly when the protocol is in
    /// outage.
    /// Shape and policy-kind mismatches against a concrete simulation
    /// surface later, in [`Simulation::restore`].
    pub fn from_json(line: &str) -> Result<Snapshot, String> {
        let mut f = Fields::parse(line)?;
        let schema = f.str("schema")?;
        if schema != SNAPSHOT_SCHEMA {
            return Err(format!(
                "checkpoint schema {schema:?} (expected {SNAPSHOT_SCHEMA:?})"
            ));
        }
        let policy_name = f.str("policy")?;
        let secs = Duration::from_seconds(f.f64("protocol_secs")?.max(0.0));
        let protocol = match f.str("protocol")?.as_str() {
            "normal" => hbm_power::ProtocolState::Normal,
            "watch" => hbm_power::ProtocolState::Watch {
                over_threshold_for: secs,
            },
            "emergency" => hbm_power::ProtocolState::Emergency { remaining: secs },
            "outage" => hbm_power::ProtocolState::Outage,
            other => return Err(format!("unknown protocol state {other:?}")),
        };
        // The pending transition is always written, blank when absent.
        let has_pending = f.bool("pending")?;
        let pending = PendingTransition {
            observation: Observation {
                slot: f.u64("pend_slot")?,
                battery_soc: f.f64("pend_soc")?,
                battery_stored: Energy::from_kilowatt_hours(f.f64("pend_stored_kwh")?),
                estimated_total: Power::from_watts(f.f64("pend_est_w")?),
                inlet: Temperature::from_celsius(f.f64("pend_obs_inlet_c")?),
                capping: f.bool("pend_capping")?,
            },
            action: action_from_name(&f.str("pend_action")?)?,
            inlet: Temperature::from_celsius(f.f64("pend_inlet_c")?),
            next_battery_soc: f.f64("pend_next_soc")?,
            next_battery_stored: Energy::from_kilowatt_hours(f.f64("pend_next_stored_kwh")?),
        };
        let snapshot = Snapshot {
            slot_index: f.u64("slot_index")?,
            inlet: Temperature::from_celsius(f.f64("inlet_c")?),
            protocol,
            battery_stored: Energy::from_kilowatt_hours(f.f64("battery_kwh")?.max(0.0)),
            sc_rng: hex4(&mut f, "sc_rng")?,
            sc_wander: f.f64("sc_wander")?,
            estimate_filter: f.f64_or_null("filter_w")?.map(Power::from_watts),
            prev_capping: f.bool("prev_capping")?,
            outage_remaining: f.f64_or_null("outage_secs")?.map(Duration::from_seconds),
            pending: has_pending.then_some(pending),
            metrics: Self::metrics_from_json(&mut f)?,
            policy: Self::policy_from_json(&policy_name, &mut f)?,
            policy_name,
        };
        f.finish()?;
        // Both hold at every slot boundary of a real run, and the slot
        // phases rely on them: the next slot caps on `prev_capping` and
        // goes down on `outage_secs`, while the protocol steps on. A line
        // that breaks either would run a slot the protocol never ordered
        // (and fail `open_slot`'s debug assertion).
        let state = snapshot.protocol;
        if snapshot.prev_capping != state.is_capping() {
            return Err(format!(
                "checkpoint has prev_capping {} in protocol state {state:?}",
                snapshot.prev_capping
            ));
        }
        if snapshot.outage_remaining.is_some() != state.is_outage() {
            return Err(format!(
                "checkpoint has outage_secs {:?} in protocol state {state:?}",
                snapshot.outage_remaining.map(Duration::as_seconds)
            ));
        }
        Ok(snapshot)
    }

    fn policy_from_json(name: &str, f: &mut Fields) -> Result<PolicySnapshot, String> {
        Ok(match name {
            "random" => PolicySnapshot::Random(hex4(f, "p_rng")?),
            "one-shot" => PolicySnapshot::OneShot(f.bool("p_triggered")?),
            "foresighted" => {
                let kind = f.str("p_learner")?;
                let values = f.f64_array("p_q_values")?;
                let visits = f.u64_array("p_q_visits")?;
                let learner = match kind.as_str() {
                    "batch" => LearnerSnapshot::Batch {
                        values,
                        visits,
                        post: f.f64_array("p_post_values")?,
                    },
                    "standard" => LearnerSnapshot::Standard { values, visits },
                    other => return Err(format!("unknown learner kind {other:?}")),
                };
                PolicySnapshot::Foresighted {
                    rng: hex4(f, "p_rng")?,
                    campaign_code: f.u64("p_campaign")?,
                    campaign_launch_w: f.f64("p_campaign_w")?,
                    learning: f.bool("p_learning")?,
                    learner,
                }
            }
            _ => PolicySnapshot::Stateless,
        })
    }

    fn metrics_from_json(f: &mut Fields) -> Result<Metrics, String> {
        // The slot length is static state (it re-derives from the scenario)
        // and is overwritten by `Simulation::restore`; the placeholder here
        // never escapes.
        let mut m = Metrics::new(Duration::from_minutes(1.0));
        m.slots = f.u64("m_slots")?;
        m.emergency_slots = f.u64("m_emergency_slots")?;
        m.emergency_events = f.u64("m_emergency_events")?;
        m.outage_events = f.u64("m_outage_events")?;
        m.outage_slots = f.u64("m_outage_slots")?;
        m.attack_slots = f.u64("m_attack_slots")?;
        m.attack_energy = Energy::from_kilowatt_hours(f.f64("m_attack_energy_kwh")?);
        m.delta_t_sum = hbm_units::TemperatureDelta::from_celsius(f.f64("m_delta_t_sum_c")?);
        m.degradation_sum = f.f64("m_degradation_sum")?;
        m.degradation_slots = f.u64("m_degradation_slots")?;
        m.attacker_metered_energy = Energy::from_kilowatt_hours(f.f64("m_metered_energy_kwh")?);
        m.attacker_actual_energy = Energy::from_kilowatt_hours(f.f64("m_actual_energy_kwh")?);
        let counts = f.u64_array("m_hist")?;
        if counts.len() != m.inlet_histogram.counts().len() {
            return Err(format!(
                "histogram shape mismatch: expected {} bins, got {}",
                m.inlet_histogram.counts().len(),
                counts.len()
            ));
        }
        m.inlet_histogram
            .set_counts(&counts, f.u64("m_hist_under")?, f.u64("m_hist_over")?);
        Ok(m)
    }
}

/// A 4-word RNG state, stored as an array of hex strings.
fn hex4(f: &mut Fields, key: &str) -> Result<[u64; 4], String> {
    let items = f.array(key)?;
    if items.len() != 4 {
        return Err(format!("field {key:?} must hold 4 RNG words"));
    }
    let mut words = [0u64; 4];
    for (w, v) in words.iter_mut().zip(&items) {
        let s = v
            .as_str()
            .ok_or_else(|| format!("field {key:?} has a non-string word"))?;
        *w = u64::from_str_radix(s, 16)
            .map_err(|e| format!("field {key:?} has a bad hex word {s:?}: {e}"))?;
    }
    Ok(words)
}

impl Simulation {
    /// Captures the complete dynamic state as a binary [`Snapshot`] — no
    /// serialization, just copies (the policy's Q tables are the only
    /// allocations). Emits a `state.snapshot` telemetry span.
    pub fn snapshot(&self) -> Snapshot {
        let started = hbm_telemetry::timing::start();
        let snap = Snapshot {
            policy_name: self.policy.name().to_string(),
            slot_index: self.slot_index,
            inlet: self.zone.inlet(),
            protocol: self.protocol.state(),
            battery_stored: self.battery.stored(),
            sc_rng: self.side_channel.rng_state(),
            sc_wander: self.side_channel.wander_volts(),
            estimate_filter: self.estimate_filter,
            prev_capping: self.prev_capping,
            outage_remaining: self.outage_remaining,
            pending: self.pending,
            metrics: self.metrics.clone(),
            policy: self.snapshot_policy(),
        };
        hbm_telemetry::timing::record_span("state.snapshot", started);
        snap
    }

    fn snapshot_policy(&self) -> PolicySnapshot {
        match &self.policy {
            // Myopic carries no dynamic state.
            Policy::Myopic(_) => PolicySnapshot::Stateless,
            Policy::Random(p) => PolicySnapshot::Random(p.rng_state()),
            Policy::OneShot(p) => PolicySnapshot::OneShot(p.triggered()),
            Policy::Foresighted(p) => {
                let (campaign_code, campaign_launch_w) = p.campaign_code();
                let learner = match p.learner() {
                    Learner::Batch(agent) => {
                        let (values, visits, post) = agent.tables();
                        LearnerSnapshot::Batch {
                            values,
                            visits,
                            post,
                        }
                    }
                    Learner::Standard(agent) => LearnerSnapshot::Standard {
                        values: agent.table().values().to_vec(),
                        visits: agent.table().visits().to_vec(),
                    },
                };
                PolicySnapshot::Foresighted {
                    rng: p.rng_state(),
                    campaign_code,
                    campaign_launch_w,
                    learning: p.learning_enabled(),
                    learner,
                }
            }
        }
    }

    /// Overwrites the dynamic state from a binary [`Snapshot`]. The
    /// receiver must have been built from the same scenario (same
    /// configuration, policy kind, and seed); subsequent stepping is then
    /// bit-identical to the run the snapshot was taken from. Emits a
    /// `state.restore` telemetry span.
    ///
    /// This is the in-memory fast path behind the serve layer's perturb
    /// and fork operations — identical semantics to
    /// [`Simulation::restore_from_json`], minus the serialization.
    ///
    /// # Errors
    ///
    /// Returns a message on a policy mismatch or shape mismatches
    /// (Q-table or histogram sizes).
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), String> {
        let started = hbm_telemetry::timing::start();
        let result = self.restore_inner(snap);
        hbm_telemetry::timing::record_span("state.restore", started);
        result
    }

    fn restore_inner(&mut self, snap: &Snapshot) -> Result<(), String> {
        if snap.policy_name != self.policy.name() {
            return Err(format!(
                "checkpoint policy {:?} does not match simulation policy {:?}",
                snap.policy_name,
                self.policy.name()
            ));
        }
        self.restore_policy(&snap.policy)?;
        if snap.metrics.inlet_histogram.counts().len()
            != self.metrics.inlet_histogram.counts().len()
        {
            return Err(format!(
                "histogram shape mismatch: expected {} bins, got {}",
                self.metrics.inlet_histogram.counts().len(),
                snap.metrics.inlet_histogram.counts().len()
            ));
        }
        self.slot_index = snap.slot_index;
        self.zone.set_inlet(snap.inlet);
        self.protocol.restore_state(snap.protocol);
        // Clamp into the (possibly perturbed) pack capacity; both the
        // in-process perturb path and the crash-restore path apply the same
        // clamp, so determinism is preserved.
        self.battery
            .set_stored(snap.battery_stored.min(self.battery.spec().capacity));
        self.side_channel
            .restore_noise_state(snap.sc_rng, snap.sc_wander);
        self.estimate_filter = snap.estimate_filter;
        self.prev_capping = snap.prev_capping;
        self.outage_remaining = snap.outage_remaining;
        self.pending = snap.pending;
        let mut metrics = snap.metrics.clone();
        // The slot length is static state: it re-derives from the scenario,
        // exactly as the JSON restore path rebuilds `Metrics::new(slot)`.
        metrics.slot = self.config.slot;
        self.metrics = metrics;
        Ok(())
    }

    fn restore_policy(&mut self, snap: &PolicySnapshot) -> Result<(), String> {
        match (snap, &mut self.policy) {
            (PolicySnapshot::Stateless, _) => Ok(()),
            (PolicySnapshot::Random(words), Policy::Random(p)) => {
                p.restore_rng(*words);
                Ok(())
            }
            (PolicySnapshot::Random(_), _) => Err("checkpoint carries random-policy state but the simulation's policy is not RandomPolicy".into()),
            (PolicySnapshot::OneShot(triggered), Policy::OneShot(p)) => {
                p.set_triggered(*triggered);
                Ok(())
            }
            (PolicySnapshot::OneShot(_), _) => Err("checkpoint carries one-shot state but the simulation's policy is not OneShotPolicy".into()),
            (
                PolicySnapshot::Foresighted {
                    rng,
                    campaign_code,
                    campaign_launch_w,
                    learning,
                    learner,
                },
                Policy::Foresighted(p),
            ) => {
                p.restore_rng(*rng);
                p.restore_campaign(*campaign_code, *campaign_launch_w)?;
                p.set_learning(*learning);
                match (learner, p.learner_mut()) {
                    (
                        LearnerSnapshot::Batch {
                            values,
                            visits,
                            post,
                        },
                        Learner::Batch(agent),
                    ) => agent.restore(values, visits, post),
                    (LearnerSnapshot::Standard { values, visits }, Learner::Standard(agent)) => {
                        agent.table_mut().restore(values, visits)?;
                        Ok(())
                    }
                    (snap_learner, _) => {
                        let kind = match snap_learner {
                            LearnerSnapshot::Batch { .. } => "batch",
                            LearnerSnapshot::Standard { .. } => "standard",
                        };
                        Err(format!(
                            "checkpoint learner {kind:?} does not match the simulation's learner"
                        ))
                    }
                }
            }
            (PolicySnapshot::Foresighted { .. }, _) => Err(
                "checkpoint carries foresighted state but the simulation's policy is not ForesightedPolicy".into(),
            ),
        }
    }

    /// Serializes the dynamic state as one flat-JSON checkpoint line
    /// (schema [`SNAPSHOT_SCHEMA`]; see the module docs for what is and is
    /// not captured). Equivalent to `self.snapshot().to_json()` — which is
    /// exactly how it is implemented, so the binary and JSON paths can
    /// never drift.
    pub fn snapshot_json(&self) -> String {
        self.snapshot().to_json()
    }

    /// Overwrites the dynamic state from a checkpoint line produced by
    /// [`Simulation::snapshot_json`]. The receiver must have been built
    /// from the same scenario (same configuration, policy kind, and seed);
    /// subsequent stepping is then bit-identical to the run the checkpoint
    /// was taken from.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON, a schema or policy mismatch, or
    /// shape mismatches (Q-table or histogram sizes).
    pub fn restore_from_json(&mut self, line: &str) -> Result<(), String> {
        let snap = Snapshot::from_json(line)?;
        self.restore(&snap)
    }
}

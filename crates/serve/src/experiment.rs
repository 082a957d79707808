//! The experiment supervisor: long-lived simulations behind the API.
//!
//! An *experiment* is a [`Simulation`] that outlives any one request:
//! created (and warmed up) once, then stepped, perturbed, forked, and
//! eventually deleted. The [`Supervisor`] owns the table of live
//! experiments; mutating operations (create/step/perturb/fork/delete) run
//! on the daemon's worker pool and serialize per experiment through its
//! state mutex, while reads (`state`/`metrics`/`branches`/list) answer
//! inline on the accept thread from a small *published* view refreshed
//! after every mutation — a slow step can never stall a read or the
//! accept loop. Every operation renders its own response body here.
//!
//! The published view holds the **binary** [`Snapshot`], not its JSON: a
//! mutation publishes an `Arc<Snapshot>` (a cheap clone of the flat
//! dynamic state) and readers serialize lazily on demand, so the hot
//! step path pays no JSON tax. Checkpointing is write-behind: with a
//! state dir, every mutation *enqueues* its [`ExperimentRecord`] on the
//! [`CheckpointWriter`] (latest-wins per experiment) instead of writing
//! two files synchronously; the queue is flushed on delete and shutdown,
//! so [`Supervisor::recover`] still restores every experiment
//! bit-identically — the contract proven by
//! `crates/core/tests/checkpoint.rs` and the serve crate's
//! kill-and-restore test. Write failures are surfaced through
//! [`Supervisor::checkpoint_failures`].
//!
//! Forking roots a [`StateTree`] at the experiment's current state; the
//! tree's branches advance in lockstep on batch lanes, independently of
//! the trunk experiment, and are **memory-only** — they are not
//! checkpointed and do not survive a restart.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hbm_core::scenario::metrics_json;
use hbm_core::{BranchOutcome, Perturbation, Scenario, Simulation, Snapshot, StateTree};
use hbm_telemetry::json::{push_json_f64, push_json_str, JsonObject};

use crate::store::{ExperimentRecord, ExperimentStore};
use crate::writer::CheckpointWriter;

/// An API-level failure: the HTTP status to answer with and a message.
pub type ApiError = (u16, String);

/// Tuning for a [`Supervisor`], split out of `ServeConfig`.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Maximum live experiments; creates beyond this answer `429`.
    pub max_experiments: usize,
    /// Evict experiments idle longer than this (`None`: never).
    pub ttl: Option<Duration>,
    /// Maximum branches per experiment; forks beyond this answer `429`.
    pub max_branches: usize,
    /// Maximum cumulative slots a branch tree may run (bounds the
    /// in-memory per-slot records); branch steps beyond this answer `413`.
    pub max_branch_slots: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_experiments: 64,
            ttl: None,
            max_branches: 16,
            max_branch_slots: 100_000,
        }
    }
}

/// The scenario-derived strings reads and checkpoints need, computed once
/// per scenario change (create/perturb/recover) and shared by reference.
#[derive(Clone)]
struct ScenarioStrings {
    canonical: Arc<String>,
    config_hash: Arc<String>,
    scenario_json: Arc<String>,
}

impl ScenarioStrings {
    fn of(scenario: &Scenario) -> ScenarioStrings {
        ScenarioStrings {
            canonical: Arc::new(scenario.config_canonical()),
            config_hash: Arc::new(scenario.config_hash()),
            scenario_json: Arc::new(scenario.to_flat_json()),
        }
    }
}

/// The in-memory state of one experiment, guarded by its slot's mutex.
struct ExperimentState {
    scenario: Scenario,
    strings: ScenarioStrings,
    sim: Simulation,
    tree: Option<StateTree>,
    warmup_slots: u64,
    steps: u64,
    perturbs: u64,
}

impl ExperimentState {
    fn new(scenario: Scenario, sim: Simulation, warmup_slots: u64) -> ExperimentState {
        ExperimentState {
            strings: ScenarioStrings::of(&scenario),
            scenario,
            sim,
            tree: None,
            warmup_slots,
            steps: 0,
            perturbs: 0,
        }
    }

    /// Rebuilds a persisted experiment: the effective scenario's
    /// simulation with the checkpointed dynamic state restored on top, so
    /// stepping on continues bit-identically.
    fn restore(record: &ExperimentRecord) -> Result<ExperimentState, String> {
        let scenario = Scenario::from_flat_json(&record.scenario_json)?;
        let (mut sim, _) = scenario.build_sim()?;
        sim.restore(&record.snapshot)?;
        Ok(ExperimentState {
            steps: record.steps,
            perturbs: record.perturbs,
            ..ExperimentState::new(scenario, sim, record.warmup_slots)
        })
    }

    /// This state as the store persists it, with `snapshot` its published
    /// snapshot.
    fn record(&self, snapshot: Arc<Snapshot>) -> ExperimentRecord {
        ExperimentRecord {
            warmup_slots: self.warmup_slots,
            steps: self.steps,
            perturbs: self.perturbs,
            scenario_json: Arc::clone(&self.strings.scenario_json),
            snapshot,
        }
    }
}

/// What reads see without touching the simulation: refreshed after every
/// mutating operation. The snapshot stays binary; readers serialize it
/// (or render metrics from it) lazily.
struct Published {
    snapshot: Arc<Snapshot>,
    strings: ScenarioStrings,
    /// The branch report (`GET …/branches`), refreshed after every fork
    /// and branch step; `None` until the first fork.
    branches: Option<Arc<String>>,
    slots: u64,
    last_touched: Instant,
}

impl Published {
    fn of(state: &ExperimentState) -> Published {
        Published {
            snapshot: Arc::new(state.sim.snapshot()),
            strings: state.strings.clone(),
            branches: None,
            slots: state.sim.metrics().slots,
            last_touched: Instant::now(),
        }
    }
}

struct Slot {
    id: String,
    /// Set (under no lock) when the experiment is deleted or evicted;
    /// queued operations that already resolved the slot check it before
    /// persisting, so they can never resurrect a removed directory.
    retired: AtomicBool,
    state: Mutex<ExperimentState>,
    published: Mutex<Published>,
}

impl Slot {
    /// Replaces the published branch report.
    fn publish_branches(&self, report: Option<String>) {
        self.published.lock().unwrap().branches = report.map(Arc::new);
    }
}

struct Table {
    entries: HashMap<String, Arc<Slot>>,
    next_id: u64,
}

/// Owns every live experiment; see the module docs for the locking story.
pub struct Supervisor {
    store: Option<Arc<ExperimentStore>>,
    writer: Option<CheckpointWriter>,
    config: SupervisorConfig,
    table: Mutex<Table>,
}
/// A JSON array of `items`, each appended by `push`.
pub(crate) fn json_array<T>(
    items: impl IntoIterator<Item = T>,
    push: impl Fn(&mut String, T),
) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push(&mut out, item);
    }
    out.push(']');
    out
}

/// Renders the branch report served by `GET …/branches`: scalar tree
/// facts plus parallel per-branch arrays (the `/v1/experiments` listing
/// idiom).
fn branches_report(id: &str, tree: &StateTree) -> String {
    let outcomes = tree.outcomes();
    let u64s = |of: fn(&BranchOutcome) -> u64| {
        json_array(outcomes.iter().map(of), |out, v| {
            out.push_str(&v.to_string())
        })
    };
    let f64s = |of: fn(&BranchOutcome) -> f64| json_array(outcomes.iter().map(of), push_json_f64);
    let mut o = JsonObject::new();
    o.str("id", id)
        .u64("fork_slot", tree.fork_slot())
        .u64("branches", outcomes.len() as u64)
        .u64("slots_run", outcomes.first().map_or(0, |b| b.slots_run));
    match tree.first_divergence() {
        Some(slot) => o.u64("first_divergence", slot),
        None => o.raw("first_divergence", "null"),
    };
    let labels = json_array(&outcomes, |out, b| push_json_str(out, &b.label));
    o.raw("labels", &labels)
        .raw("attack_slots", &u64s(|b| b.metrics.attack_slots))
        .raw("emergency_slots", &u64s(|b| b.metrics.emergency_slots))
        .raw("outage_events", &u64s(|b| b.metrics.outage_events))
        .raw(
            "attack_energy_kwh",
            &f64s(|b| b.metrics.attack_energy.as_kilowatt_hours()),
        )
        .raw(
            "avg_delta_t_c",
            &f64s(|b| b.metrics.avg_delta_t().as_celsius()),
        )
        .raw("inlet_c", &f64s(|b| b.inlet_c))
        .raw("battery_soc", &f64s(|b| b.battery_soc));
    o.finish()
}

impl Supervisor {
    /// A supervisor persisting through `store` (`None`: memory only).
    /// With a store, checkpoints are write-behind: enqueued per mutation,
    /// coalesced latest-wins, flushed on delete/[`Supervisor::flush`]/drop.
    pub fn new(config: SupervisorConfig, store: Option<ExperimentStore>) -> Supervisor {
        let store = store.map(Arc::new);
        let writer = store.as_ref().map(|s| CheckpointWriter::new(Arc::clone(s)));
        Supervisor {
            store,
            writer,
            config,
            table: Mutex::new(Table {
                entries: HashMap::new(),
                next_id: 1,
            }),
        }
    }

    /// Live experiment count (the `experiments_active` gauge).
    pub fn active(&self) -> usize {
        self.table.lock().unwrap().entries.len()
    }

    /// Checkpoint writes that failed since boot (`checkpoint_failures` in
    /// `GET /v1/metrics`); always 0 without a state dir.
    pub fn checkpoint_failures(&self) -> u64 {
        self.writer.as_ref().map_or(0, CheckpointWriter::failures)
    }

    /// Blocks until every queued checkpoint is on disk. The server calls
    /// this before `run()` returns, making orderly shutdown durable.
    pub fn flush(&self) {
        if let Some(writer) = &self.writer {
            writer.flush();
        }
    }

    fn resolve(&self, id: &str) -> Result<Arc<Slot>, ApiError> {
        self.table
            .lock()
            .unwrap()
            .entries
            .get(id)
            .cloned()
            .ok_or_else(|| (404, format!("no experiment {id:?}")))
    }

    /// Runs `op` on experiment `id`'s state under its lock — the one lock
    /// site of every mutating operation. `404` for an unknown id, `410`
    /// when the experiment was deleted while the caller waited.
    fn live<T>(
        &self,
        id: &str,
        op: impl FnOnce(&Slot, &mut ExperimentState) -> Result<T, ApiError>,
    ) -> Result<T, ApiError> {
        let slot = self.resolve(id)?;
        let mut state = slot.state.lock().unwrap();
        if slot.retired.load(Ordering::SeqCst) {
            return Err((410, format!("experiment {id:?} was deleted")));
        }
        op(&slot, &mut state)
    }

    /// Reads experiment `id`'s published view, refreshing its idle clock.
    fn read<T>(&self, id: &str, read: impl FnOnce(&Published) -> T) -> Result<T, ApiError> {
        let slot = self.resolve(id)?;
        let mut published = slot.published.lock().unwrap();
        published.last_touched = Instant::now();
        Ok(read(&published))
    }

    /// `429` when `live` experiments fill the capacity.
    fn has_room(&self, live: usize) -> Result<(), ApiError> {
        if live < self.config.max_experiments {
            return Ok(());
        }
        Err((
            429,
            format!(
                "experiment capacity {} reached; delete one or raise --max-experiments",
                self.config.max_experiments
            ),
        ))
    }

    /// Adds an experiment to the table under `id`, or under the next fresh
    /// id when `None` (`429` at capacity; a recovered id is always
    /// admitted). Fresh ids count past every registered one.
    fn register(&self, id: Option<String>, state: ExperimentState) -> Result<Arc<Slot>, ApiError> {
        let published = Mutex::new(Published::of(&state));
        let mut table = self.table.lock().unwrap();
        let id = match id {
            Some(id) => id,
            None => {
                self.has_room(table.entries.len())?;
                format!("exp-{:06}", table.next_id)
            }
        };
        if let Some(n) = id.strip_prefix("exp-").and_then(|n| n.parse::<u64>().ok()) {
            table.next_id = table.next_id.max(n.saturating_add(1));
        }
        let slot = Arc::new(Slot {
            id: id.clone(),
            retired: AtomicBool::new(false),
            state: Mutex::new(state),
            published,
        });
        table.entries.insert(id, Arc::clone(&slot));
        Ok(slot)
    }

    /// Retires a slot already removed from the table: marks it so queued
    /// operations cannot persist it, waits out an in-flight one, discards
    /// its queued checkpoint and removes its directory.
    fn retire(&self, slot: &Slot) {
        slot.retired.store(true, Ordering::SeqCst);
        let _drain = slot.state.lock().unwrap();
        if let Some(writer) = &self.writer {
            writer.forget(&slot.id);
        }
        if let Some(store) = &self.store {
            if let Err(e) = store.remove(&slot.id) {
                eprintln!("warning: cannot remove experiment {}: {e}", slot.id);
            }
        }
    }

    /// Enqueues `slot`'s published state for write-behind persistence,
    /// unless the experiment was retired (deleted/evicted) meanwhile.
    /// Persistence failures are counted, not fatal: the in-memory
    /// experiment stays authoritative.
    fn save(&self, slot: &Slot, state: &ExperimentState) {
        let Some(writer) = &self.writer else { return };
        if slot.retired.load(Ordering::SeqCst) {
            return;
        }
        let snapshot = Arc::clone(&slot.published.lock().unwrap().snapshot);
        writer.enqueue(&slot.id, state.record(snapshot));
    }

    /// Publishes `state` after a trunk mutation (keeping the branch
    /// report) and enqueues its checkpoint; returns the measured slots.
    fn commit(&self, slot: &Slot, state: &ExperimentState) -> u64 {
        let fresh = Published::of(state);
        let slots = fresh.slots;
        {
            let mut published = slot.published.lock().unwrap();
            let branches = published.branches.take();
            *published = Published { branches, ..fresh };
        }
        self.save(slot, state);
        slots
    }

    /// Creates an experiment: validates and builds the scenario, runs the
    /// warm-up (for learning policies), registers the slot, and enqueues
    /// the first checkpoint. Runs on a worker thread — warm-up can be
    /// long. Returns the new id and the response body.
    ///
    /// # Errors
    ///
    /// `400` for an invalid scenario, `429` at the experiment capacity.
    pub fn create(&self, scenario: Scenario) -> Result<(String, String), ApiError> {
        self.has_room(self.active())?;
        let (mut sim, needs_warmup) = scenario.build_sim().map_err(|e| (400, e))?;
        let warmup_slots = if needs_warmup {
            sim.warmup(scenario.warmup_slots());
            scenario.warmup_slots()
        } else {
            0
        };
        let slot = self.register(None, ExperimentState::new(scenario, sim, warmup_slots))?;
        let state = slot.state.lock().unwrap();
        self.save(&slot, &state);
        let mut o = JsonObject::new();
        o.str("id", &slot.id)
            .str("policy", &state.scenario.policy)
            .u64("warmup_slots", warmup_slots)
            .u64("slots", 0);
        Ok((slot.id.clone(), o.finish()))
    }

    /// Steps an experiment `slots` measured slots and enqueues the
    /// checkpoint.
    ///
    /// # Errors
    ///
    /// `404` for an unknown id, `410` if it was deleted mid-flight.
    pub fn step(&self, id: &str, slots: u64) -> Result<String, ApiError> {
        self.live(id, |slot, state| {
            for _ in 0..slots {
                state.sim.step();
            }
            state.steps += 1;
            let total = self.commit(slot, state);
            let mut o = JsonObject::new();
            o.str("id", &slot.id)
                .u64("stepped", slots)
                .u64("slots", total);
            Ok(o.finish())
        })
    }

    /// Applies a perturbation: rebuilds the simulation from the perturbed
    /// (effective) scenario and transplants the dynamic state through an
    /// in-memory binary [`Snapshot`] — the restore a crash recovery
    /// performs, so perturbed experiments stay bit-exact across restarts.
    /// Returns the effective scenario's flat JSON.
    ///
    /// # Errors
    ///
    /// `404`/`410` as for [`Supervisor::step`]; `400` if the perturbed
    /// scenario is invalid; `500` if the state transplant fails.
    pub fn perturb(&self, id: &str, perturbation: &Perturbation) -> Result<String, ApiError> {
        self.live(id, |slot, state| {
            let effective = perturbation.apply(&state.scenario);
            // Perturbations cannot change the seed, so the rebuilt
            // simulator shares the live one's workload trace unless the
            // perturbation changed the workload itself — no trace
            // regeneration on this path.
            let (mut sim, _) = effective
                .build_sim_sharing_trace(&state.sim, state.scenario.seed)
                .map_err(|e| (400, e))?;
            sim.restore(&state.sim.snapshot())
                .map_err(|e| (500, format!("state transplant failed: {e}")))?;
            state.sim = sim;
            state.strings = ScenarioStrings::of(&effective);
            state.scenario = effective;
            state.perturbs += 1;
            self.commit(slot, state);
            Ok(state.strings.scenario_json.as_ref().clone())
        })
    }

    /// Adds a branch to the experiment's [`StateTree`], rooting the tree
    /// at the experiment's *current* state on the first fork. An empty
    /// perturbation is the control branch (a plain state fork); a
    /// non-empty one rebuilds from the perturbed scenario with the fork
    /// point's snapshot transplanted in. Branches are memory-only. Returns
    /// the response body.
    ///
    /// # Errors
    ///
    /// `404`/`410` as for [`Supervisor::step`]; `400` for an invalid
    /// perturbation; `429` at the branch capacity.
    pub fn fork(
        &self,
        id: &str,
        label: Option<String>,
        perturbation: &Perturbation,
    ) -> Result<String, ApiError> {
        self.live(id, |slot, state| {
            let rooted_now = state.tree.is_none();
            let tree = state
                .tree
                .get_or_insert_with(|| StateTree::new(state.sim.fork(), state.scenario.clone()));
            let max_branches = self.config.max_branches;
            if tree.len() >= max_branches {
                return Err((
                    429,
                    format!(
                        "branch capacity {max_branches} reached; DELETE …/branches to start over"
                    ),
                ));
            }
            let label = label.unwrap_or_else(|| format!("branch-{}", tree.len()));
            let branch = match tree.branch(label.clone(), perturbation) {
                Ok(index) => index as u64,
                Err(e) => {
                    if rooted_now {
                        // Do not leave an empty tree pinned at this slot:
                        // the fork point is the first *successful* fork.
                        state.tree = None;
                    }
                    return Err((400, e));
                }
            };
            let mut o = JsonObject::new();
            o.str("id", &slot.id)
                .u64("branch", branch)
                .str("label", &label)
                .u64("fork_slot", tree.fork_slot())
                .u64("branches", tree.len() as u64);
            slot.publish_branches(Some(branches_report(&slot.id, tree)));
            Ok(o.finish())
        })
    }

    /// Advances every branch of the experiment's tree by `slots` in
    /// lockstep (batch lanes) and republishes the branch report. The
    /// trunk experiment does not move.
    ///
    /// # Errors
    ///
    /// `404`/`410` as for [`Supervisor::step`]; `409` if the experiment
    /// has no branches; `413` past the cumulative branch-slot budget.
    pub fn branch_step(&self, id: &str, slots: u64) -> Result<String, ApiError> {
        self.live(id, |slot, state| {
            let max_branch_slots = self.config.max_branch_slots;
            let tree = state
                .tree
                .as_mut()
                .filter(|t| !t.is_empty())
                .ok_or_else(|| {
                    (
                        409,
                        format!("experiment {id:?} has no branches; POST …/fork first"),
                    )
                })?;
            let horizon = tree.records(0).len() as u64;
            if horizon + slots > max_branch_slots {
                return Err((
                    413,
                    format!(
                        "branch horizon {horizon}+{slots} exceeds the budget {max_branch_slots}"
                    ),
                ));
            }
            tree.run(slots);
            let mut o = JsonObject::new();
            o.str("id", &slot.id)
                .u64("stepped", slots)
                .u64("branches", tree.len() as u64);
            if let Some(slot) = tree.first_divergence() {
                o.u64("first_divergence", slot);
            }
            slot.publish_branches(Some(branches_report(&slot.id, tree)));
            Ok(o.finish())
        })
    }

    /// The published branch report (refreshes the idle clock).
    ///
    /// # Errors
    ///
    /// `404` for an unknown id or when the experiment has no branches.
    pub fn branches_of(&self, id: &str) -> Result<Arc<String>, ApiError> {
        self.read(id, |published| published.branches.clone())?
            .ok_or_else(|| (404, format!("experiment {id:?} has no branches")))
    }

    /// Drops the experiment's branch tree, freeing its lanes and records.
    ///
    /// # Errors
    ///
    /// `404`/`410` as for [`Supervisor::step`]; `404` when the experiment
    /// has no branches.
    pub fn branch_delete(&self, id: &str) -> Result<String, ApiError> {
        self.live(id, |slot, state| {
            let tree = state
                .tree
                .take()
                .ok_or_else(|| (404, format!("experiment {id:?} has no branches")))?;
            slot.publish_branches(None);
            let mut o = JsonObject::new();
            o.str("id", &slot.id)
                .u64("deleted_branches", tree.len() as u64);
            Ok(o.finish())
        })
    }

    /// Deletes an experiment: unregisters it, waits for any in-flight
    /// operation to drain, discards its queued checkpoint, and removes its
    /// directory.
    ///
    /// # Errors
    ///
    /// `404` for an unknown id.
    pub fn delete(&self, id: &str) -> Result<String, ApiError> {
        let slot = self
            .table
            .lock()
            .unwrap()
            .entries
            .remove(id)
            .ok_or_else(|| (404, format!("no experiment {id:?}")))?;
        self.retire(&slot);
        let mut o = JsonObject::new();
        o.str("deleted", id);
        Ok(o.finish())
    }

    /// Evicts every experiment idle longer than the TTL, returning how
    /// many went. Busy experiments are never evicted (stepping counts as
    /// touching). No-op without a TTL.
    pub fn sweep(&self) -> u64 {
        let Some(ttl) = self.config.ttl else { return 0 };
        let mut expired = Vec::new();
        self.table.lock().unwrap().entries.retain(|_, slot| {
            let idle = slot.published.lock().unwrap().last_touched.elapsed() > ttl;
            if idle {
                expired.push(Arc::clone(slot));
            }
            !idle
        });
        for slot in &expired {
            self.retire(slot);
        }
        expired.len() as u64
    }

    /// `(id, measured slots)` rows for every live experiment, id-sorted.
    pub fn list(&self) -> Vec<(String, u64)> {
        let slots: Vec<Arc<Slot>> = self
            .table
            .lock()
            .unwrap()
            .entries
            .values()
            .cloned()
            .collect();
        let mut rows: Vec<(String, u64)> = slots
            .iter()
            .map(|slot| (slot.id.clone(), slot.published.lock().unwrap().slots))
            .collect();
        rows.sort();
        rows
    }

    /// The latest checkpoint line, serialized lazily from the published
    /// binary snapshot (refreshes the idle clock).
    ///
    /// # Errors
    ///
    /// `404` for an unknown id.
    pub fn state_of(&self, id: &str) -> Result<String, ApiError> {
        let snapshot = self.read(id, |published| Arc::clone(&published.snapshot))?;
        Ok(snapshot.to_json())
    }

    /// The metrics line for the effective scenario — the same
    /// `metrics_json` bytes `/v1/simulate` would return for it — rendered
    /// lazily from the published snapshot, plus the effective config hash
    /// (refreshes the idle clock).
    ///
    /// # Errors
    ///
    /// `404` for an unknown id.
    pub fn metrics_of(&self, id: &str) -> Result<(String, String), ApiError> {
        let (snapshot, strings) = self.read(id, |published| {
            (Arc::clone(&published.snapshot), published.strings.clone())
        })?;
        Ok((
            metrics_json(&strings.canonical, snapshot.metrics()),
            strings.config_hash.as_ref().clone(),
        ))
    }

    /// Restores every persisted experiment from the store: rebuild from
    /// the effective scenario, overwrite the dynamic state from the
    /// checkpoint — bit-identical continuation. Returns how many restored;
    /// corrupt entries are skipped with a warning. Call before serving.
    pub fn recover(&self) -> u64 {
        let Some(store) = &self.store else { return 0 };
        let mut restored = 0;
        for (id, record) in store.load_all() {
            match ExperimentState::restore(&record) {
                Ok(state) => {
                    if self.register(Some(id), state).is_ok() {
                        restored += 1;
                    }
                }
                Err(e) => eprintln!("warning: cannot restore experiment {id:?}: {e}"),
            }
        }
        restored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scenario() -> Scenario {
        let mut s = Scenario::new("myopic");
        s.days = 2;
        s.warmup_days = 0;
        s.seed = 5;
        s
    }

    /// Field `key` of a flat-JSON response body (numbers as `u64`).
    fn field(body: &str, key: &str) -> String {
        let fields = hbm_telemetry::json::parse_flat_object(body).unwrap();
        let (_, value) = fields.iter().find(|(k, _)| k == key).unwrap();
        match value.as_str() {
            Some(text) => text.to_string(),
            None => (value.as_f64().unwrap() as u64).to_string(),
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hbm_sup_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn create_step_metrics_delete_lifecycle() {
        let sup = Supervisor::new(SupervisorConfig::default(), None);
        let (id, created) = sup.create(scenario()).unwrap();
        assert_eq!(id, "exp-000001");
        assert_eq!(
            created,
            r#"{"id":"exp-000001","policy":"myopic","warmup_slots":0,"slots":0}"#
        );
        assert_eq!(sup.active(), 1);

        let out = sup.step(&id, 100).unwrap();
        assert_eq!(out, r#"{"id":"exp-000001","stepped":100,"slots":100}"#);
        let (metrics, hash) = sup.metrics_of(&id).unwrap();
        assert!(metrics.contains("\"slots\":100"), "got {metrics}");
        assert_eq!(hash, scenario().config_hash());
        assert_eq!(sup.list(), vec![(id.clone(), 100)]);

        assert_eq!(sup.delete(&id).unwrap(), r#"{"deleted":"exp-000001"}"#);
        assert_eq!(sup.active(), 0);
        assert_eq!(sup.step(&id, 1).unwrap_err().0, 404);
        assert_eq!(sup.delete(&id).unwrap_err().0, 404);
    }

    #[test]
    fn capacity_is_enforced_with_429() {
        let sup = Supervisor::new(
            SupervisorConfig {
                max_experiments: 1,
                ..SupervisorConfig::default()
            },
            None,
        );
        sup.create(scenario()).unwrap();
        assert_eq!(sup.create(scenario()).unwrap_err().0, 429);
    }

    #[test]
    fn stepped_experiment_matches_one_shot_scenario_run() {
        // Stepping to the full horizon must equal Scenario::run exactly.
        let sup = Supervisor::new(SupervisorConfig::default(), None);
        let s = scenario();
        let expected = metrics_json(&s.config_canonical(), &s.run().unwrap().metrics);
        let (id, _) = sup.create(s.clone()).unwrap();
        sup.step(&id, 1000).unwrap();
        sup.step(&id, s.slots() - 1000).unwrap();
        let (metrics, _) = sup.metrics_of(&id).unwrap();
        assert_eq!(metrics, expected);
    }

    #[test]
    fn recover_continues_bit_identically() {
        let dir = temp_dir("recover");
        let s = scenario();
        let expected = metrics_json(&s.config_canonical(), &s.run().unwrap().metrics);

        let sup = Supervisor::new(
            SupervisorConfig::default(),
            Some(ExperimentStore::open(&dir).unwrap()),
        );
        let (id, _) = sup.create(s.clone()).unwrap();
        sup.step(&id, 700).unwrap();
        drop(sup); // "kill" the daemon (drop flushes the write-behind queue)

        let sup = Supervisor::new(
            SupervisorConfig::default(),
            Some(ExperimentStore::open(&dir).unwrap()),
        );
        assert_eq!(sup.recover(), 1);
        assert_eq!(sup.list(), vec![(id.clone(), 700)]);
        sup.step(&id, s.slots() - 700).unwrap();
        let (metrics, _) = sup.metrics_of(&id).unwrap();
        assert_eq!(metrics, expected);

        // Ids keep counting past recovered ones.
        assert_eq!(sup.create(s).unwrap().0, "exp-000002");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn recover_skips_a_checkpoint_with_an_infinite_inlet() {
        let dir = temp_dir("inf_inlet");
        let sup = Supervisor::new(
            SupervisorConfig::default(),
            Some(ExperimentStore::open(&dir).unwrap()),
        );
        let (corrupt, _) = sup.create(scenario()).unwrap();
        let (healthy, _) = sup.create(scenario()).unwrap();
        sup.step(&healthy, 100).unwrap();
        drop(sup);

        let path = dir
            .join("experiments")
            .join(&corrupt)
            .join("checkpoint.json");
        let line = std::fs::read_to_string(&path).unwrap();
        let at = line.find("\"inlet_c\":").unwrap() + "\"inlet_c\":".len();
        let end = at + line[at..].find(',').unwrap();
        let bad = format!("{}1e999{}", &line[..at], &line[end..]);
        std::fs::write(&path, bad).unwrap();

        let sup = Supervisor::new(
            SupervisorConfig::default(),
            Some(ExperimentStore::open(&dir).unwrap()),
        );
        assert_eq!(sup.recover(), 1);
        assert_eq!(sup.list(), vec![(healthy, 100)]);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn perturb_is_durable_and_bit_exact_across_recovery() {
        let dir = temp_dir("perturb");
        let sup = Supervisor::new(
            SupervisorConfig::default(),
            Some(ExperimentStore::open(&dir).unwrap()),
        );
        let (id, _) = sup.create(scenario()).unwrap();
        sup.step(&id, 500).unwrap();
        let perturbation = Perturbation {
            threshold_c: Some(30.5),
            ..Perturbation::default()
        };
        let effective = sup.perturb(&id, &perturbation).unwrap();
        assert!(
            effective.contains("\"threshold_c\":30.5"),
            "got {effective}"
        );
        sup.step(&id, 300).unwrap();
        let (reference, _) = sup.metrics_of(&id).unwrap();
        let snapshot = sup.state_of(&id).unwrap();
        drop(sup);

        let sup = Supervisor::new(
            SupervisorConfig::default(),
            Some(ExperimentStore::open(&dir).unwrap()),
        );
        assert_eq!(sup.recover(), 1);
        assert_eq!(sup.state_of(&id).unwrap(), snapshot);
        assert_eq!(sup.metrics_of(&id).unwrap().0, reference);

        // An invalid perturbation is rejected without corrupting state.
        let bad = Perturbation {
            utilization: Some(2.0),
            ..Perturbation::default()
        };
        assert_eq!(sup.perturb(&id, &bad).unwrap_err().0, 400);
        assert_eq!(sup.state_of(&id).unwrap(), snapshot);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn sweep_evicts_only_idle_experiments() {
        let sup = Supervisor::new(
            SupervisorConfig {
                max_experiments: 8,
                ttl: Some(Duration::from_secs(0)),
                ..SupervisorConfig::default()
            },
            None,
        );
        sup.create(scenario()).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(sup.sweep(), 1);
        assert_eq!(sup.active(), 0);

        let sup = Supervisor::new(
            SupervisorConfig {
                max_experiments: 8,
                ttl: Some(Duration::from_secs(3600)),
                ..SupervisorConfig::default()
            },
            None,
        );
        sup.create(scenario()).unwrap();
        assert_eq!(sup.sweep(), 0);
        assert_eq!(sup.active(), 1);
    }

    #[test]
    fn fork_branch_step_compare_delete_lifecycle() {
        let sup = Supervisor::new(SupervisorConfig::default(), None);
        let (id, _) = sup.create(scenario()).unwrap();
        sup.step(&id, 300).unwrap();

        // No branches yet.
        assert_eq!(sup.branches_of(&id).unwrap_err().0, 404);
        assert_eq!(sup.branch_step(&id, 10).unwrap_err().0, 409);

        // Control + a heavier-attack variant fork at slot 300.
        let control = sup.fork(&id, None, &Perturbation::default()).unwrap();
        assert_eq!(
            control,
            r#"{"id":"exp-000001","branch":0,"label":"branch-0","fork_slot":300,"branches":1}"#
        );
        let hot = Perturbation {
            attack_load_kw: Some(3.0),
            battery_kwh: Some(1.0),
            ..Perturbation::default()
        };
        let variant = sup.fork(&id, Some("hot".into()), &hot).unwrap();
        assert_eq!(
            (field(&variant, "branch"), field(&variant, "branches")),
            ("1".into(), "2".into())
        );
        assert_eq!(field(&variant, "fork_slot"), "300");

        let out = sup.branch_step(&id, 1440).unwrap();
        assert_eq!(
            (field(&out, "stepped"), field(&out, "branches")),
            ("1440".into(), "2".into())
        );
        let div: u64 = field(&out, "first_divergence").parse().unwrap();
        assert!(div >= 300, "a 3 kW variant must diverge: {out}");

        let report = sup.branches_of(&id).unwrap();
        assert!(report.contains("\"fork_slot\":300"), "got {report}");
        assert!(report.contains("\"labels\":[\"branch-0\",\"hot\"]"));
        assert!(report.contains(&format!("\"first_divergence\":{div}")));

        // The trunk did not move: branch stepping is independent, and
        // trunk steps keep the published branch report.
        let (metrics, _) = sup.metrics_of(&id).unwrap();
        assert!(metrics.contains("\"slots\":300"), "got {metrics}");
        sup.step(&id, 1).unwrap();
        assert_eq!(sup.branches_of(&id).unwrap(), report);

        // Invalid fork leaves the tree intact.
        let bad = Perturbation {
            utilization: Some(2.0),
            ..Perturbation::default()
        };
        assert_eq!(sup.fork(&id, None, &bad).unwrap_err().0, 400);
        assert_eq!(sup.branches_of(&id).unwrap().as_str(), report.as_str());

        assert_eq!(
            sup.branch_delete(&id).unwrap(),
            r#"{"id":"exp-000001","deleted_branches":2}"#
        );
        assert_eq!(sup.branches_of(&id).unwrap_err().0, 404);
        assert_eq!(sup.branch_delete(&id).unwrap_err().0, 404);
    }

    #[test]
    fn branch_capacity_and_budget_are_enforced() {
        let sup = Supervisor::new(
            SupervisorConfig {
                max_branches: 2,
                max_branch_slots: 100,
                ..SupervisorConfig::default()
            },
            None,
        );
        let (id, _) = sup.create(scenario()).unwrap();
        let control = Perturbation::default();
        sup.fork(&id, None, &control).unwrap();
        sup.fork(&id, None, &control).unwrap();
        assert_eq!(sup.fork(&id, None, &control).unwrap_err().0, 429);
        sup.branch_step(&id, 80).unwrap();
        assert_eq!(sup.branch_step(&id, 21).unwrap_err().0, 413);
        sup.branch_step(&id, 20).unwrap();
    }

    #[test]
    fn control_branch_matches_trunk_trajectory() {
        // Stepping the control branch N slots must land on the exact
        // attack accounting the trunk reaches after the same N slots.
        let sup = Supervisor::new(SupervisorConfig::default(), None);
        let (id, _) = sup.create(scenario()).unwrap();
        sup.step(&id, 400).unwrap();
        sup.fork(&id, Some("control".into()), &Perturbation::default())
            .unwrap();
        sup.branch_step(&id, 500).unwrap();
        sup.step(&id, 500).unwrap();
        let (trunk, _) = sup.metrics_of(&id).unwrap();
        let report = sup.branches_of(&id).unwrap();
        let trunk_attack_slots = trunk
            .split("\"attack_slots\":")
            .nth(1)
            .and_then(|s| s.split(&[',', '}'][..]).next())
            .unwrap()
            .to_string();
        assert!(
            report.contains(&format!("\"attack_slots\":[{trunk_attack_slots}]")),
            "branch report {report} must match trunk {trunk}"
        );
    }
}

//! The experiment supervisor: long-lived simulations behind the API.
//!
//! An *experiment* is a [`Simulation`] that outlives any one request:
//! created (and warmed up) once, then stepped, perturbed, forked, and
//! eventually deleted. The [`Supervisor`] owns the table of live
//! experiments; mutating operations (create/step/perturb/fork/delete) run
//! on the daemon's worker pool and serialize per experiment through its
//! state mutex, while reads (`state`/`metrics`/`branches`/list) answer
//! inline on the accept thread from a small *published* snapshot refreshed
//! after every mutation — a slow step can never stall a read or the
//! accept loop.
//!
//! The published snapshot is the **binary** [`Snapshot`], not its JSON: a
//! mutation publishes an `Arc<Snapshot>` (a cheap clone of the flat
//! dynamic state) and readers serialize lazily on demand, so the hot
//! step path pays no JSON tax. Checkpointing is write-behind: with a
//! state dir, every mutation *enqueues* its snapshot on the
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
use hbm_core::{Perturbation, Scenario, Simulation, Snapshot, StateTree};
use hbm_telemetry::json::push_json_f64;

use crate::store::ExperimentStore;
use crate::writer::{CheckpointWriter, PendingSave};

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

/// What reads see without touching the simulation: refreshed after every
/// mutating operation. The snapshot stays binary; readers serialize it
/// (or render metrics from it) lazily.
struct Published {
    snapshot: Arc<Snapshot>,
    canonical: Arc<String>,
    config_hash: Arc<String>,
    scenario_json: Arc<String>,
    slots: u64,
    last_touched: Instant,
}

struct Slot {
    id: String,
    /// Set (under no lock) when the experiment is deleted or evicted;
    /// queued operations that already resolved the slot check it before
    /// persisting, so they can never resurrect a removed directory.
    retired: AtomicBool,
    state: Mutex<ExperimentState>,
    published: Mutex<Published>,
    /// The published branch report (`GET …/branches`), refreshed after
    /// every fork / branch step; `None` until the first fork.
    branches: Mutex<Option<Arc<String>>>,
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

/// A successful create: the new id and how much warm-up ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreateOutcome {
    /// The new experiment id.
    pub id: String,
    /// Warm-up slots run before the experiment became steppable.
    pub warmup_slots: u64,
}

/// A successful step: how far the experiment advanced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepOutcome {
    /// The experiment id.
    pub id: String,
    /// Slots stepped by this operation.
    pub stepped: u64,
    /// Total measured slots so far.
    pub slots: u64,
}

/// A successful fork: where the new branch sits in the tree.
#[derive(Debug, Clone, PartialEq)]
pub struct ForkOutcome {
    /// The experiment id.
    pub id: String,
    /// Index of the new branch.
    pub branch: u64,
    /// The branch's label (given or generated).
    pub label: String,
    /// The slot index every branch forked from.
    pub fork_slot: u64,
    /// Total branches after this fork.
    pub branches: u64,
    /// The branch's effective scenario (tree base with the fork's
    /// perturbation applied) — lets the server consult the thermal tier
    /// for the branch without re-deriving the perturbation.
    pub scenario: Scenario,
}

/// A successful lockstep branch step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchStepOutcome {
    /// The experiment id.
    pub id: String,
    /// Slots every branch advanced by this operation.
    pub stepped: u64,
    /// Number of branches stepped.
    pub branches: u64,
    /// First absolute slot where any branch diverged from branch 0, if
    /// any divergence has been observed yet.
    pub first_divergence: Option<u64>,
}

fn publish(state: &ExperimentState) -> Published {
    Published {
        snapshot: Arc::new(state.sim.snapshot()),
        canonical: Arc::clone(&state.strings.canonical),
        config_hash: Arc::clone(&state.strings.config_hash),
        scenario_json: Arc::clone(&state.strings.scenario_json),
        slots: state.sim.metrics().slots,
        last_touched: Instant::now(),
    }
}

/// Renders the branch report served by `GET …/branches`: scalar tree
/// facts plus parallel per-branch arrays (the `/v1/experiments` listing
/// idiom). Labels are validated upstream to need no JSON escaping.
fn branches_report(id: &str, tree: &StateTree) -> String {
    let outcomes = tree.outcomes();
    let slots_run = outcomes.first().map_or(0, |o| o.slots_run);
    let mut out = format!(
        "{{\"id\":\"{id}\",\"fork_slot\":{},\"branches\":{},\"slots_run\":{slots_run}",
        tree.fork_slot(),
        outcomes.len()
    );
    out.push_str(",\"first_divergence\":");
    match tree.first_divergence() {
        Some(slot) => out.push_str(&slot.to_string()),
        None => out.push_str("null"),
    }
    out.push_str(",\"labels\":[");
    for (i, o) in outcomes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(&o.label);
        out.push('"');
    }
    out.push(']');
    {
        let mut u64s = |key: &str, of: &dyn Fn(&hbm_core::BranchOutcome) -> u64| {
            out.push_str(",\"");
            out.push_str(key);
            out.push_str("\":[");
            for (i, o) in outcomes.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&of(o).to_string());
            }
            out.push(']');
        };
        u64s("attack_slots", &|o| o.metrics.attack_slots);
        u64s("emergency_slots", &|o| o.metrics.emergency_slots);
        u64s("outage_events", &|o| o.metrics.outage_events);
    }
    {
        let mut f64s = |key: &str, of: &dyn Fn(&hbm_core::BranchOutcome) -> f64| {
            out.push_str(",\"");
            out.push_str(key);
            out.push_str("\":[");
            for (i, o) in outcomes.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_json_f64(&mut out, of(o));
            }
            out.push(']');
        };
        f64s("attack_energy_kwh", &|o| {
            o.metrics.attack_energy.as_kilowatt_hours()
        });
        f64s("avg_delta_t_c", &|o| o.metrics.avg_delta_t().as_celsius());
        f64s("inlet_c", &|o| o.inlet_c);
        f64s("battery_soc", &|o| o.battery_soc);
    }
    out.push('}');
    out
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

    /// Enqueues `slot`'s current published state for write-behind
    /// persistence, unless the experiment was retired (deleted/evicted)
    /// meanwhile. Persistence failures are counted, not fatal: the
    /// in-memory experiment stays authoritative.
    fn save(&self, slot: &Slot, state: &ExperimentState, published: &Published) {
        let Some(writer) = &self.writer else { return };
        if slot.retired.load(Ordering::SeqCst) {
            return;
        }
        writer.enqueue(
            &slot.id,
            PendingSave {
                warmup_slots: state.warmup_slots,
                steps: state.steps,
                perturbs: state.perturbs,
                scenario_json: Arc::clone(&published.scenario_json),
                snapshot: Arc::clone(&published.snapshot),
            },
        );
    }

    /// Creates an experiment: validates and builds the scenario, runs the
    /// warm-up (for learning policies), registers the slot, and enqueues
    /// the first checkpoint. Runs on a worker thread — warm-up can be
    /// long.
    ///
    /// # Errors
    ///
    /// `400` for an invalid scenario, `429` at the experiment capacity.
    pub fn create(&self, scenario: Scenario) -> Result<CreateOutcome, ApiError> {
        if self.active() >= self.config.max_experiments {
            return Err((
                429,
                format!(
                    "experiment capacity {} reached; delete one or raise --max-experiments",
                    self.config.max_experiments
                ),
            ));
        }
        let (mut sim, needs_warmup) = scenario.build_sim().map_err(|e| (400, e))?;
        let warmup_slots = if needs_warmup {
            sim.warmup(scenario.warmup_slots());
            scenario.warmup_slots()
        } else {
            0
        };
        let strings = ScenarioStrings::of(&scenario);
        let state = ExperimentState {
            scenario,
            strings,
            sim,
            tree: None,
            warmup_slots,
            steps: 0,
            perturbs: 0,
        };
        let published = publish(&state);
        let slot = {
            let mut table = self.table.lock().unwrap();
            if table.entries.len() >= self.config.max_experiments {
                return Err((
                    429,
                    format!(
                        "experiment capacity {} reached; delete one or raise --max-experiments",
                        self.config.max_experiments
                    ),
                ));
            }
            let id = format!("exp-{:06}", table.next_id);
            table.next_id += 1;
            let slot = Arc::new(Slot {
                id: id.clone(),
                retired: AtomicBool::new(false),
                state: Mutex::new(state),
                published: Mutex::new(published),
                branches: Mutex::new(None),
            });
            table.entries.insert(id, Arc::clone(&slot));
            slot
        };
        let state = slot.state.lock().unwrap();
        let published = slot.published.lock().unwrap();
        self.save(&slot, &state, &published);
        Ok(CreateOutcome {
            id: slot.id.clone(),
            warmup_slots,
        })
    }

    /// Steps an experiment `slots` measured slots and enqueues the
    /// checkpoint.
    ///
    /// # Errors
    ///
    /// `404` for an unknown id, `410` if it was deleted mid-flight.
    pub fn step(&self, id: &str, slots: u64) -> Result<StepOutcome, ApiError> {
        let slot = self.resolve(id)?;
        let mut state = slot.state.lock().unwrap();
        if slot.retired.load(Ordering::SeqCst) {
            return Err((410, format!("experiment {id:?} was deleted")));
        }
        for _ in 0..slots {
            state.sim.step();
        }
        state.steps += 1;
        let published = publish(&state);
        let outcome = StepOutcome {
            id: slot.id.clone(),
            stepped: slots,
            slots: published.slots,
        };
        self.save(&slot, &state, &published);
        *slot.published.lock().unwrap() = published;
        Ok(outcome)
    }

    /// Applies a perturbation: rebuilds the simulation from the perturbed
    /// (effective) scenario and transplants the dynamic state through an
    /// in-memory binary [`Snapshot`] — bit-equivalent to the JSON
    /// checkpoint round trip a crash-restore performs, so perturbed
    /// experiments stay bit-exact across restarts. Returns the effective
    /// scenario's flat JSON.
    ///
    /// # Errors
    ///
    /// `404`/`410` as for [`Supervisor::step`]; `400` if the perturbed
    /// scenario is invalid; `500` if the state transplant fails.
    pub fn perturb(&self, id: &str, perturbation: &Perturbation) -> Result<String, ApiError> {
        let slot = self.resolve(id)?;
        let mut state = slot.state.lock().unwrap();
        if slot.retired.load(Ordering::SeqCst) {
            return Err((410, format!("experiment {id:?} was deleted")));
        }
        let effective = perturbation.apply(&state.scenario);
        // Perturbations cannot change the seed, so the rebuilt simulator
        // shares the live one's workload trace unless the perturbation
        // changed the workload itself — no trace regeneration on this path.
        let (mut sim, _) = effective
            .build_sim_sharing_trace(&state.sim, state.scenario.seed)
            .map_err(|e| (400, e))?;
        sim.restore(&state.sim.snapshot())
            .map_err(|e| (500, format!("state transplant failed: {e}")))?;
        state.sim = sim;
        state.strings = ScenarioStrings::of(&effective);
        state.scenario = effective;
        state.perturbs += 1;
        let published = publish(&state);
        let scenario_json = published.scenario_json.as_ref().clone();
        self.save(&slot, &state, &published);
        *slot.published.lock().unwrap() = published;
        Ok(scenario_json)
    }

    /// Adds a branch to the experiment's [`StateTree`], rooting the tree
    /// at the experiment's *current* state on the first fork. An empty
    /// perturbation is the control branch (a plain state fork); a
    /// non-empty one rebuilds from the perturbed scenario with the fork
    /// point's snapshot transplanted in. Branches are memory-only.
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
    ) -> Result<ForkOutcome, ApiError> {
        let slot = self.resolve(id)?;
        let mut state = slot.state.lock().unwrap();
        if slot.retired.load(Ordering::SeqCst) {
            return Err((410, format!("experiment {id:?} was deleted")));
        }
        let rooted_now = state.tree.is_none();
        if rooted_now {
            let base = state.sim.fork();
            let scenario = state.scenario.clone();
            state.tree = Some(StateTree::new(base, scenario));
        }
        let max_branches = self.config.max_branches;
        let tree = state.tree.as_mut().expect("tree just ensured");
        if tree.len() >= max_branches {
            return Err((
                429,
                format!("branch capacity {max_branches} reached; DELETE …/branches to start over"),
            ));
        }
        let label = label.unwrap_or_else(|| format!("branch-{}", tree.len()));
        let branch = match tree.branch(label.clone(), perturbation) {
            Ok(index) => index as u64,
            Err(e) => {
                if rooted_now {
                    // Do not leave an empty tree pinned at this slot: the
                    // fork point is the first *successful* fork.
                    state.tree = None;
                }
                return Err((400, e));
            }
        };
        let tree = state.tree.as_ref().expect("tree holds the new branch");
        let outcome = ForkOutcome {
            id: slot.id.clone(),
            branch,
            label,
            fork_slot: tree.fork_slot(),
            branches: tree.len() as u64,
            scenario: perturbation.apply(tree.scenario()),
        };
        let report = Arc::new(branches_report(&slot.id, tree));
        drop(state);
        *slot.branches.lock().unwrap() = Some(report);
        Ok(outcome)
    }

    /// Advances every branch of the experiment's tree by `slots` in
    /// lockstep (batch lanes) and republishes the branch report. The
    /// trunk experiment does not move.
    ///
    /// # Errors
    ///
    /// `404`/`410` as for [`Supervisor::step`]; `409` if the experiment
    /// has no branches; `413` past the cumulative branch-slot budget.
    pub fn branch_step(&self, id: &str, slots: u64) -> Result<BranchStepOutcome, ApiError> {
        let slot = self.resolve(id)?;
        let mut state = slot.state.lock().unwrap();
        if slot.retired.load(Ordering::SeqCst) {
            return Err((410, format!("experiment {id:?} was deleted")));
        }
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
                format!("branch horizon {horizon}+{slots} exceeds the budget {max_branch_slots}"),
            ));
        }
        tree.run(slots);
        let outcome = BranchStepOutcome {
            id: slot.id.clone(),
            stepped: slots,
            branches: tree.len() as u64,
            first_divergence: tree.first_divergence(),
        };
        let report = Arc::new(branches_report(&slot.id, tree));
        drop(state);
        *slot.branches.lock().unwrap() = Some(report);
        Ok(outcome)
    }

    /// The published branch report (refreshes the idle clock).
    ///
    /// # Errors
    ///
    /// `404` for an unknown id or when the experiment has no branches.
    pub fn branches_of(&self, id: &str) -> Result<Arc<String>, ApiError> {
        let slot = self.resolve(id)?;
        slot.published.lock().unwrap().last_touched = Instant::now();
        let report = slot.branches.lock().unwrap().clone();
        report.ok_or_else(|| (404, format!("experiment {id:?} has no branches")))
    }

    /// Drops the experiment's branch tree, freeing its lanes and records.
    /// Returns how many branches went.
    ///
    /// # Errors
    ///
    /// `404` for an unknown id or when the experiment has no branches.
    pub fn branch_delete(&self, id: &str) -> Result<u64, ApiError> {
        let slot = self.resolve(id)?;
        let mut state = slot.state.lock().unwrap();
        let tree = state
            .tree
            .take()
            .ok_or_else(|| (404, format!("experiment {id:?} has no branches")))?;
        let branches = tree.len() as u64;
        drop(state);
        *slot.branches.lock().unwrap() = None;
        Ok(branches)
    }

    /// Deletes an experiment: unregisters it, waits for any in-flight
    /// operation to drain, discards its queued checkpoint, and removes its
    /// directory.
    ///
    /// # Errors
    ///
    /// `404` for an unknown id.
    pub fn delete(&self, id: &str) -> Result<(), ApiError> {
        let slot = {
            let mut table = self.table.lock().unwrap();
            table
                .entries
                .remove(id)
                .ok_or_else(|| (404, format!("no experiment {id:?}")))?
        };
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
        Ok(())
    }

    /// Evicts every experiment idle longer than the TTL, returning how
    /// many went. Busy experiments are never evicted (stepping counts as
    /// touching). No-op without a TTL.
    pub fn sweep(&self) -> u64 {
        let Some(ttl) = self.config.ttl else { return 0 };
        let expired: Vec<Arc<Slot>> = {
            let mut table = self.table.lock().unwrap();
            let ids: Vec<String> = table
                .entries
                .values()
                .filter(|slot| slot.published.lock().unwrap().last_touched.elapsed() > ttl)
                .map(|slot| slot.id.clone())
                .collect();
            ids.iter()
                .filter_map(|id| table.entries.remove(id))
                .collect()
        };
        let evicted = expired.len() as u64;
        for slot in expired {
            slot.retired.store(true, Ordering::SeqCst);
            let _drain = slot.state.lock().unwrap();
            if let Some(writer) = &self.writer {
                writer.forget(&slot.id);
            }
            if let Some(store) = &self.store {
                let _ = store.remove(&slot.id);
            }
        }
        evicted
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
        let slot = self.resolve(id)?;
        let snapshot = {
            let mut published = slot.published.lock().unwrap();
            published.last_touched = Instant::now();
            Arc::clone(&published.snapshot)
        };
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
        let slot = self.resolve(id)?;
        let (snapshot, canonical, hash) = {
            let mut published = slot.published.lock().unwrap();
            published.last_touched = Instant::now();
            (
                Arc::clone(&published.snapshot),
                Arc::clone(&published.canonical),
                published.config_hash.as_ref().clone(),
            )
        };
        Ok((metrics_json(&canonical, snapshot.metrics()), hash))
    }

    /// Restores every persisted experiment from the store: rebuild from
    /// the effective scenario, overwrite the dynamic state from the
    /// checkpoint — bit-identical continuation. Returns how many restored;
    /// corrupt entries are skipped with a warning. Call before serving.
    pub fn recover(&self) -> u64 {
        let Some(store) = &self.store else { return 0 };
        let mut restored = 0;
        for p in store.load_all() {
            match Self::rebuild(&p.scenario_json, &p.snapshot) {
                Ok((scenario, sim)) => {
                    let strings = ScenarioStrings::of(&scenario);
                    let state = ExperimentState {
                        scenario,
                        strings,
                        sim,
                        tree: None,
                        warmup_slots: p.warmup_slots,
                        steps: p.steps,
                        perturbs: p.perturbs,
                    };
                    let published = publish(&state);
                    let mut table = self.table.lock().unwrap();
                    if let Some(n) =
                        p.id.strip_prefix("exp-")
                            .and_then(|s| s.parse::<u64>().ok())
                    {
                        table.next_id = table.next_id.max(n + 1);
                    }
                    table.entries.insert(
                        p.id.clone(),
                        Arc::new(Slot {
                            id: p.id,
                            retired: AtomicBool::new(false),
                            state: Mutex::new(state),
                            published: Mutex::new(published),
                            branches: Mutex::new(None),
                        }),
                    );
                    restored += 1;
                }
                Err(e) => eprintln!("warning: cannot restore experiment {:?}: {e}", p.id),
            }
        }
        restored
    }

    fn rebuild(scenario_json: &str, snapshot: &str) -> Result<(Scenario, Simulation), String> {
        let scenario = Scenario::from_flat_json(scenario_json)?;
        let (mut sim, _) = scenario.build_sim()?;
        sim.restore_from_json(snapshot)?;
        Ok((scenario, sim))
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

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hbm_sup_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn create_step_metrics_delete_lifecycle() {
        let sup = Supervisor::new(SupervisorConfig::default(), None);
        let created = sup.create(scenario()).unwrap();
        assert_eq!(created.id, "exp-000001");
        assert_eq!(created.warmup_slots, 0);
        assert_eq!(sup.active(), 1);

        let out = sup.step(&created.id, 100).unwrap();
        assert_eq!((out.stepped, out.slots), (100, 100));
        let (metrics, hash) = sup.metrics_of(&created.id).unwrap();
        assert!(metrics.contains("\"slots\":100"), "got {metrics}");
        assert_eq!(hash, scenario().config_hash());
        assert_eq!(sup.list(), vec![(created.id.clone(), 100)]);

        sup.delete(&created.id).unwrap();
        assert_eq!(sup.active(), 0);
        assert_eq!(sup.step(&created.id, 1).unwrap_err().0, 404);
        assert_eq!(sup.delete(&created.id).unwrap_err().0, 404);
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
        let created = sup.create(s.clone()).unwrap();
        sup.step(&created.id, 1000).unwrap();
        sup.step(&created.id, s.slots() - 1000).unwrap();
        let (metrics, _) = sup.metrics_of(&created.id).unwrap();
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
        let created = sup.create(s.clone()).unwrap();
        sup.step(&created.id, 700).unwrap();
        drop(sup); // "kill" the daemon (drop flushes the write-behind queue)

        let sup = Supervisor::new(
            SupervisorConfig::default(),
            Some(ExperimentStore::open(&dir).unwrap()),
        );
        assert_eq!(sup.recover(), 1);
        assert_eq!(sup.list(), vec![(created.id.clone(), 700)]);
        sup.step(&created.id, s.slots() - 700).unwrap();
        let (metrics, _) = sup.metrics_of(&created.id).unwrap();
        assert_eq!(metrics, expected);

        // Ids keep counting past recovered ones.
        assert_eq!(sup.create(s).unwrap().id, "exp-000002");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn recover_skips_a_checkpoint_with_an_infinite_inlet() {
        let dir = temp_dir("inf_inlet");
        let sup = Supervisor::new(
            SupervisorConfig::default(),
            Some(ExperimentStore::open(&dir).unwrap()),
        );
        let corrupt = sup.create(scenario()).unwrap().id;
        let healthy = sup.create(scenario()).unwrap().id;
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
        let created = sup.create(scenario()).unwrap();
        sup.step(&created.id, 500).unwrap();
        let perturbation = Perturbation {
            threshold_c: Some(30.5),
            ..Perturbation::default()
        };
        let effective = sup.perturb(&created.id, &perturbation).unwrap();
        assert!(
            effective.contains("\"threshold_c\":30.5"),
            "got {effective}"
        );
        sup.step(&created.id, 300).unwrap();
        let (reference, _) = sup.metrics_of(&created.id).unwrap();
        let snapshot = sup.state_of(&created.id).unwrap();
        drop(sup);

        let sup = Supervisor::new(
            SupervisorConfig::default(),
            Some(ExperimentStore::open(&dir).unwrap()),
        );
        assert_eq!(sup.recover(), 1);
        assert_eq!(sup.state_of(&created.id).unwrap(), snapshot);
        assert_eq!(sup.metrics_of(&created.id).unwrap().0, reference);

        // An invalid perturbation is rejected without corrupting state.
        let bad = Perturbation {
            utilization: Some(2.0),
            ..Perturbation::default()
        };
        assert_eq!(sup.perturb(&created.id, &bad).unwrap_err().0, 400);
        assert_eq!(sup.state_of(&created.id).unwrap(), snapshot);
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
        let created = sup.create(scenario()).unwrap();
        sup.step(&created.id, 300).unwrap();

        // No branches yet.
        assert_eq!(sup.branches_of(&created.id).unwrap_err().0, 404);
        assert_eq!(sup.branch_step(&created.id, 10).unwrap_err().0, 409);

        // Control + a heavier-attack variant fork at slot 300.
        let control = sup
            .fork(&created.id, None, &Perturbation::default())
            .unwrap();
        assert_eq!(control.fork_slot, 300);
        assert_eq!((control.branch, control.branches), (0, 1));
        assert_eq!(control.label, "branch-0");
        let hot = Perturbation {
            attack_load_kw: Some(3.0),
            battery_kwh: Some(1.0),
            ..Perturbation::default()
        };
        let variant = sup.fork(&created.id, Some("hot".into()), &hot).unwrap();
        assert_eq!((variant.branch, variant.branches), (1, 2));
        assert_eq!(variant.fork_slot, 300);

        let out = sup.branch_step(&created.id, 1440).unwrap();
        assert_eq!((out.stepped, out.branches), (1440, 2));
        let div = out.first_divergence.expect("a 3 kW variant must diverge");
        assert!(div >= 300);

        let report = sup.branches_of(&created.id).unwrap();
        assert!(report.contains("\"fork_slot\":300"), "got {report}");
        assert!(report.contains("\"labels\":[\"branch-0\",\"hot\"]"));
        assert!(report.contains(&format!("\"first_divergence\":{div}")));

        // The trunk did not move: branch stepping is independent.
        let (metrics, _) = sup.metrics_of(&created.id).unwrap();
        assert!(metrics.contains("\"slots\":300"), "got {metrics}");

        // Invalid fork leaves the tree intact.
        let bad = Perturbation {
            utilization: Some(2.0),
            ..Perturbation::default()
        };
        assert_eq!(sup.fork(&created.id, None, &bad).unwrap_err().0, 400);
        assert_eq!(
            sup.branches_of(&created.id).unwrap().as_str(),
            report.as_str()
        );

        assert_eq!(sup.branch_delete(&created.id).unwrap(), 2);
        assert_eq!(sup.branches_of(&created.id).unwrap_err().0, 404);
        assert_eq!(sup.branch_delete(&created.id).unwrap_err().0, 404);
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
        let created = sup.create(scenario()).unwrap();
        sup.fork(&created.id, None, &Perturbation::default())
            .unwrap();
        sup.fork(&created.id, None, &Perturbation::default())
            .unwrap();
        assert_eq!(
            sup.fork(&created.id, None, &Perturbation::default())
                .unwrap_err()
                .0,
            429
        );
        sup.branch_step(&created.id, 80).unwrap();
        assert_eq!(sup.branch_step(&created.id, 21).unwrap_err().0, 413);
        sup.branch_step(&created.id, 20).unwrap();
    }

    #[test]
    fn control_branch_matches_trunk_trajectory() {
        // Stepping the control branch N slots must land on the exact
        // attack accounting the trunk reaches after the same N slots.
        let sup = Supervisor::new(SupervisorConfig::default(), None);
        let created = sup.create(scenario()).unwrap();
        sup.step(&created.id, 400).unwrap();
        sup.fork(
            &created.id,
            Some("control".into()),
            &Perturbation::default(),
        )
        .unwrap();
        sup.branch_step(&created.id, 500).unwrap();
        sup.step(&created.id, 500).unwrap();
        let (trunk, _) = sup.metrics_of(&created.id).unwrap();
        let report = sup.branches_of(&created.id).unwrap();
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

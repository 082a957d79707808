//! Batched fleet-scale simulation engine.
//!
//! [`BatchSim`] advances a whole batch of scenarios in lockstep: per-slot
//! state lives in structure-of-arrays form so the hot kernels — the zone
//! thermal sub-steps ([`ZoneLanes`]) and the side channel's Box–Muller noise
//! pass ([`box_muller_slice`]) — run as tight, SIMD-friendly inner loops over
//! the batch dimension instead of re-entering one `Simulation` at a time.
//! Every other phase of a lane's slot — the benign cap, the estimate filter,
//! the policy's learn/decide, act and settle — calls the same function
//! [`Simulation::step`] calls, so the slot is written once.
//!
//! # Determinism contract
//!
//! Lane `i` of a batch produces **bit-identical** trajectories, records, and
//! metrics to running the same [`Simulation`] alone:
//!
//! * every lane applies exactly the op-for-op IEEE-754 sequence of
//!   [`Simulation::step`] (the shared kernels are the single source of truth
//!   for the math);
//! * lanes never interact — each carries its own side-channel RNG, battery,
//!   protocol, and policy, and reads its trace (which lanes built from one
//!   [`crate::TraceStore`] may share, since traces are immutable) at its own
//!   slot index;
//! * sharding ([`run_sharded`]) partitions lanes contiguously and merges
//!   order-independent per-slot down counts, so results are byte-identical
//!   at any thread count, including fully sequential.
//!
//! Telemetry: each batch slot emits one `batch.step` span (one unit per
//! lane), with the zone pass nested under `batch.zone`.

use std::sync::Arc;

use hbm_battery::Battery;
use hbm_power::EmergencyProtocol;
use hbm_sidechannel::math::box_muller_slice;
use hbm_sidechannel::{ChannelLanes, VoltageSideChannel, NORMALS_PER_ESTIMATE};
use hbm_telemetry::Recorder;
use hbm_thermal::{ZoneLanes, ZoneModel};
use hbm_units::{Duration, Power, Temperature};
use hbm_workload::PowerTrace;

use crate::sim::{
    act, benign_cap, emit_sample, filter_estimate, settle, settle_outage, AttackerPower,
    PendingTransition, SlotParams,
};
use crate::{ColoConfig, Metrics, Observation, Policy, SimReport, Simulation, SlotRecord};

/// A batch of simulations advanced in lockstep over structure-of-arrays
/// state (see the module docs for the determinism contract).
///
/// Build one from fully constructed [`Simulation`]s with [`BatchSim::new`],
/// drive it with [`step_all`](BatchSim::step_all) or
/// [`run`](BatchSim::run), then collect results with
/// [`take_reports`](BatchSim::take_reports) and hand the scenarios back with
/// [`into_sims`](BatchSim::into_sims).
pub struct BatchSim {
    // ---- Per-lane scenario state, one entry per lane. ----
    configs: Vec<ColoConfig>,
    /// Each lane's slot-kernel parameters.
    params: Vec<SlotParams>,
    traces: Vec<Arc<PowerTrace>>,
    /// Parameter template per lane; live inlet state is in `zones`.
    zone_models: Vec<ZoneModel>,
    protocols: Vec<EmergencyProtocol>,
    batteries: Vec<Battery>,
    side_channels: Vec<VoltageSideChannel>,
    policies: Vec<Policy>,
    slot_indices: Vec<u64>,
    metrics: Vec<Metrics>,
    pendings: Vec<Option<PendingTransition>>,
    outage_remainings: Vec<Option<Duration>>,
    prev_cappings: Vec<bool>,
    estimate_filters: Vec<Option<Power>>,
    recorders: Vec<Option<Box<dyn Recorder>>>,
    /// Where phase 1 reads each slot's benign demand.
    trace_rows: TraceRows,

    // ---- SoA hot state. ----
    zones: ZoneLanes,
    /// Side-channel RNG/wander/params in column-wise form; the authoritative
    /// noise state while batched (`side_channels` holds the cold template,
    /// re-synced on [`into_sims`](BatchSim::into_sims)).
    sc_lanes: ChannelLanes,

    // ---- Shared batch invariants. ----
    slot: Duration,

    // ---- Preallocated per-slot scratch (no steady-state allocations). ----
    /// Lane indices not in outage downtime this slot.
    active: Vec<u32>,
    /// Per-lane IT heat load fed to the zone pass, watts.
    loads_w: Vec<f64>,
    /// Packed side-channel uniforms/normals, `NORMALS_PER_ESTIMATE` per
    /// active lane. Draw-major (`u[k·lanes + i]`) on the dense path,
    /// lane-major compacted over `active` on the mixed path; the Box–Muller
    /// pass is element-wise, so both layouts share the buffers.
    u1: Vec<f64>,
    u2: Vec<f64>,
    z: Vec<f64>,
    /// Benign actuals in watts (dense-path input to the packed estimate).
    benign_w: Vec<f64>,
    /// Sensed benign load in watts (dense-path output of the packed
    /// estimate).
    sensed_w: Vec<f64>,
    raw_estimates: Vec<Power>,
    attackers: Vec<AttackerPower>,
    records: Vec<SlotRecord>,
}

/// Where phase 1 reads the benign demand, chosen once in [`BatchSim::new`].
/// Lanes advance their cursors in lockstep (every lane, every slot, outage
/// or not), so a batch that starts shared stays shared forever.
enum TraceRows {
    /// Every lane holds the same trace allocation at the same cursor: one
    /// sample per slot serves the whole batch. `pos` is that cursor.
    Shared { pos: u32 },
    /// Anything else: the next [`BatchSim::TRACE_WINDOW`] samples of every
    /// lane, gathered at its own cursor.
    Window(TraceWindow),
}

/// One slot's benign-demand source, resolved from [`TraceRows`] before the
/// lane loop.
#[derive(Clone, Copy)]
enum DemandRow<'a> {
    Shared(Power),
    /// The window's block and the slot's row in it.
    Window(&'a [Power], usize),
}

/// The next [`SLOTS`](TraceWindow::SLOTS) samples of every lane's trace,
/// refilled every `SLOTS` slots from each lane's own wrapping cursor, so
/// gathering costs in proportion to the slots stepped and the block holds
/// `SLOTS` samples per lane whatever the traces' lengths.
///
/// The block is tiled by [`GROUP`](TraceWindow::GROUP) lanes: a group's
/// tile is `SLOTS` rows of `GROUP` samples, one cache line each. A refill
/// then reads `GROUP` contiguous runs and writes one contiguous tile per
/// group, and a slot reads one line per group. At 1000 lanes of week-long
/// traces a refill measured ~2.6 ns per sample, against 6–9 ns for
/// slot-major or lane-major blocks of 32 rows: long runs amortize each
/// run's start, and a lane-major block with long runs would put every
/// lane on its own page at every slot (see docs/PERFORMANCE.md).
struct TraceWindow {
    block: Vec<Power>,
    /// The block's row for the coming slot; `SLOTS` means "refill first".
    row: usize,
    /// Per-lane wrapping cursor: the trace index of the sample after the
    /// block's last row.
    cursors: Vec<u32>,
}

impl TraceWindow {
    /// Rows per refill.
    const SLOTS: usize = BatchSim::TRACE_WINDOW;
    /// Lanes per tile: one 64-byte cache line of samples.
    const GROUP: usize = 8;

    /// An empty window whose first refill starts each lane at `cursors`.
    fn new(cursors: Vec<u32>) -> TraceWindow {
        let tiles = cursors.len().div_ceil(Self::GROUP);
        TraceWindow {
            block: vec![Power::ZERO; tiles * Self::GROUP * Self::SLOTS],
            row: Self::SLOTS,
            cursors,
        }
    }

    /// Where lane `i` reads `row` in the block.
    fn at(i: usize, row: usize) -> usize {
        ((i / Self::GROUP) * Self::SLOTS + row) * Self::GROUP + i % Self::GROUP
    }

    /// Loads the next `SLOTS` samples of every lane, wrapping each at its
    /// trace's end (a trace shorter than the window wraps more than once).
    fn refill(&mut self, traces: &[Arc<PowerTrace>]) {
        const G: usize = TraceWindow::GROUP;
        let tiles = self.block.chunks_exact_mut(G * Self::SLOTS);
        for ((tile, traces), cursors) in tiles.zip(traces.chunks(G)).zip(self.cursors.chunks_mut(G))
        {
            let runs: Option<[&[Power]; G]> = (traces.len() == G).then(|| {
                std::array::from_fn(|k| {
                    let from = cursors[k] as usize;
                    traces[k]
                        .samples()
                        .get(from..from + Self::SLOTS)
                        .unwrap_or_default()
                })
            });
            match runs {
                // Every lane of a full group has `SLOTS` samples before
                // its trace's end: copy row by row, reading the group's
                // runs side by side (at 1000 lanes, ~1.6x faster than the
                // lane-by-lane loop below).
                Some(runs) if runs.iter().all(|run| run.len() == Self::SLOTS) => {
                    for (j, line) in tile.chunks_exact_mut(G).enumerate() {
                        for (sample, run) in line.iter_mut().zip(&runs) {
                            *sample = run[j];
                        }
                    }
                    for (cursor, trace) in cursors.iter_mut().zip(traces) {
                        *cursor = ((*cursor as usize + Self::SLOTS) % trace.len()) as u32;
                    }
                }
                _ => {
                    for (k, (cursor, trace)) in cursors.iter_mut().zip(traces).enumerate() {
                        let samples = trace.samples();
                        let mut pos = *cursor as usize;
                        for line in tile.chunks_exact_mut(G) {
                            line[k] = samples[pos];
                            pos += 1;
                            if pos == samples.len() {
                                pos = 0;
                            }
                        }
                        *cursor = pos as u32;
                    }
                }
            }
        }
        self.row = 0;
    }
}

impl BatchSim {
    /// Slots of every lane's trace gathered at once when the lanes do not
    /// share one trace at one cursor. The batch holds this many samples
    /// per lane, whatever its traces' lengths, and `new` copies no trace.
    pub const TRACE_WINDOW: usize = 480;

    /// Builds a batch from fully constructed simulations (one lane each).
    ///
    /// # Panics
    ///
    /// Panics if `sims` is empty or the scenarios disagree on the slot
    /// length (the batch advances all lanes by one shared slot at a time).
    pub fn new(sims: Vec<Simulation>) -> BatchSim {
        assert!(!sims.is_empty(), "batch needs at least one scenario");
        let lanes = sims.len();
        let mut configs = Vec::with_capacity(lanes);
        let mut params = Vec::with_capacity(lanes);
        let mut traces = Vec::with_capacity(lanes);
        let mut zone_models = Vec::with_capacity(lanes);
        let mut protocols = Vec::with_capacity(lanes);
        let mut batteries = Vec::with_capacity(lanes);
        let mut side_channels = Vec::with_capacity(lanes);
        let mut policies = Vec::with_capacity(lanes);
        let mut slot_indices = Vec::with_capacity(lanes);
        // Copied in lane order, so the lanes' histogram bins lie in lane
        // order in memory. The bins of separately built simulations are
        // scattered, and phase 6 of a 1000-lane learning fleet then ran
        // ~1.5x slower, missing the cache on most histogram updates.
        let metrics: Vec<Metrics> = sims.iter().map(|sim| sim.metrics.clone()).collect();
        let mut pendings = Vec::with_capacity(lanes);
        let mut outage_remainings = Vec::with_capacity(lanes);
        let mut prev_cappings = Vec::with_capacity(lanes);
        let mut estimate_filters = Vec::with_capacity(lanes);
        let mut recorders = Vec::with_capacity(lanes);
        for sim in sims {
            configs.push(sim.config);
            params.push(sim.params);
            traces.push(sim.trace);
            zone_models.push(sim.zone);
            protocols.push(sim.protocol);
            batteries.push(sim.battery);
            side_channels.push(sim.side_channel);
            policies.push(sim.policy);
            slot_indices.push(sim.slot_index);
            pendings.push(sim.pending);
            outage_remainings.push(sim.outage_remaining);
            prev_cappings.push(sim.prev_capping);
            estimate_filters.push(sim.estimate_filter);
            recorders.push(sim.recorder);
        }
        let slot = configs[0].slot;
        assert!(
            configs.iter().all(|c| c.slot == slot),
            "all lanes must share the slot length"
        );
        let zones = ZoneLanes::from_models(&zone_models);
        let sc_lanes = ChannelLanes::from_channels(&side_channels);
        let cursors: Vec<u32> = slot_indices
            .iter()
            .zip(&traces)
            .map(|(&k, t)| (k % t.len() as u64) as u32)
            .collect();
        let shared = traces.iter().all(|t| Arc::ptr_eq(t, &traces[0]))
            && cursors.iter().all(|&p| p == cursors[0]);
        let trace_rows = if shared {
            TraceRows::Shared { pos: cursors[0] }
        } else {
            TraceRows::Window(TraceWindow::new(cursors))
        };
        BatchSim {
            configs,
            params,
            traces,
            zone_models,
            protocols,
            batteries,
            side_channels,
            policies,
            slot_indices,
            metrics,
            pendings,
            outage_remainings,
            prev_cappings,
            estimate_filters,
            recorders,
            trace_rows,
            zones,
            sc_lanes,
            slot,
            active: Vec::with_capacity(lanes),
            loads_w: vec![0.0; lanes],
            u1: vec![0.0; lanes * NORMALS_PER_ESTIMATE],
            u2: vec![0.0; lanes * NORMALS_PER_ESTIMATE],
            z: vec![0.0; lanes * NORMALS_PER_ESTIMATE],
            benign_w: vec![0.0; lanes],
            sensed_w: vec![0.0; lanes],
            raw_estimates: vec![Power::ZERO; lanes],
            attackers: vec![AttackerPower::default(); lanes],
            records: vec![SlotRecord::blank(); lanes],
        }
    }

    /// Number of lanes (scenarios) in the batch.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// Whether the batch is empty (never true for constructed batches).
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// The shared slot length.
    pub fn slot(&self) -> Duration {
        self.slot
    }

    /// Whether the lanes' learn/decide calls are statically dispatched.
    /// Always `true`: policies are a closed enum held inline, so there is
    /// no virtual-dispatch fallback left to detect. Kept for callers that
    /// assert on it.
    pub fn learning_devirtualized(&self) -> bool {
        true
    }

    /// The last slot's records, one per lane (all-zero before the first
    /// [`step_all`](BatchSim::step_all)).
    pub fn records(&self) -> &[SlotRecord] {
        &self.records
    }

    /// Advances every lane by one slot and returns the number of lanes that
    /// spent the slot in outage downtime.
    ///
    /// Each lane runs the slot kernels [`Simulation::step`] runs, in its
    /// order; only the RNG draws, the side-channel measurement and the zone
    /// physics are packed across lanes:
    ///
    /// 1. slot bookkeeping and the benign cap;
    /// 2. side-channel uniform draws, compacted over non-outage lanes;
    /// 3. one packed Box–Muller pass over all lanes' normals (vectorized);
    /// 4. estimate → filter → learn → decide → act (each lane's
    ///    [`Policy`], called as [`Simulation::step`] calls it);
    /// 5. zone thermal pass over the whole batch ([`ZoneLanes::step_all`]);
    /// 6. settle: protocol, metrics, and the record's inlet.
    pub fn step_all(&mut self) -> u32 {
        let started = hbm_telemetry::timing::start();
        let slot = self.slot;
        let lanes = self.len();
        self.active.clear();
        // ---- Phase 1: slot bookkeeping + benign tenants. ----
        let demand = match &mut self.trace_rows {
            TraceRows::Shared { pos } => {
                let at = *pos as usize;
                *pos += 1;
                if *pos as usize == self.traces[0].len() {
                    *pos = 0;
                }
                DemandRow::Shared(self.traces[0].samples()[at])
            }
            TraceRows::Window(window) => {
                if window.row == TraceWindow::SLOTS {
                    window.refill(&self.traces);
                }
                window.row += 1;
                DemandRow::Window(&window.block, window.row - 1)
            }
        };
        for i in 0..lanes {
            let k = self.slot_indices[i];
            self.slot_indices[i] += 1;
            let benign_demand = match demand {
                DemandRow::Shared(demand) => demand,
                DemandRow::Window(block, row) => block[TraceWindow::at(i, row)],
            };
            if self.outage_remainings[i].is_some() {
                // The zone pass cools the lane at zero load; phase 6 fills
                // in the inlet and settles the books.
                self.loads_w[i] = 0.0;
                self.raw_estimates[i] = Power::ZERO;
                let soc = self.batteries[i].state_of_charge();
                self.records[i] = SlotRecord::outage(k, soc, Temperature::from_celsius(0.0));
            } else {
                self.active.push(i as u32);
                // `prev_cappings` is invariantly the protocol's capping
                // state as of the end of the previous slot (phase 6 keeps
                // it), so the protocol itself stays untouched until then.
                let capping = self.prev_cappings[i];
                debug_assert_eq!(capping, self.protocols[i].state().is_capping());
                let benign_actual = benign_cap(&self.params[i], benign_demand, capping);
                self.benign_w[i] = benign_actual.as_watts();
                let r = &mut self.records[i];
                r.slot = k;
                r.benign_demand = benign_demand;
                r.benign_actual = benign_actual;
                r.capping = capping;
                r.outage = false;
            }
        }

        // ---- Phase 2: side-channel uniforms. ----
        // Hoisting the draws ahead of the estimate is value-identical: the
        // uniforms are input-independent and drawn in the same RNG order.
        // Outage lanes draw nothing, exactly as the scalar engine.
        let n_active = self.active.len();
        let dense = n_active == lanes;
        if dense {
            // Every lane participates: one packed xoshiro sweep over the
            // whole batch (draw-major layout).
            self.sc_lanes.draw_all(&mut self.u1, &mut self.u2);
        } else {
            let mut tmp = [0.0; 2 * NORMALS_PER_ESTIMATE];
            for j in 0..n_active {
                let i = self.active[j] as usize;
                self.sc_lanes.draw_uniforms_lane(i, &mut tmp);
                let at = j * NORMALS_PER_ESTIMATE;
                self.u1[at..at + NORMALS_PER_ESTIMATE]
                    .copy_from_slice(&tmp[..NORMALS_PER_ESTIMATE]);
                self.u2[at..at + NORMALS_PER_ESTIMATE]
                    .copy_from_slice(&tmp[NORMALS_PER_ESTIMATE..]);
            }
        }

        // ---- Phase 3: packed Box–Muller across the whole batch. ----
        let packed = n_active * NORMALS_PER_ESTIMATE;
        box_muller_slice(
            &self.u1[..packed],
            &self.u2[..packed],
            &mut self.z[..packed],
        );

        // ---- Phase 4: estimate, filter, learn, decide, act. ----
        if dense {
            // Packed measurement-model pass over all lanes (inputs were laid
            // down column-wise by phase 1).
            self.sc_lanes
                .estimate_all(&self.benign_w, &self.z, &mut self.sensed_w);
        }
        for j in 0..n_active {
            let i = self.active[j] as usize;
            let p = &self.params[i];
            let r = &mut self.records[i];
            let sensed = if dense {
                Power::from_watts(self.sensed_w[i])
            } else {
                let at = j * NORMALS_PER_ESTIMATE;
                let mut z4 = [0.0; NORMALS_PER_ESTIMATE];
                z4.copy_from_slice(&self.z[at..at + NORMALS_PER_ESTIMATE]);
                self.sc_lanes.estimate_lane(i, r.benign_actual, &z4)
            };
            let (raw_estimate, estimated_total) =
                filter_estimate(p, &mut self.estimate_filters[i], sensed, r.capping);
            let battery = &mut self.batteries[i];
            let observation = Observation {
                slot: r.slot,
                battery_soc: battery.state_of_charge(),
                battery_stored: battery.stored(),
                estimated_total,
                inlet: self.zones.inlet(i),
                capping: r.capping,
            };
            // Complete last slot's transition now that the new estimate
            // exists, then decide, exactly as `Simulation::step` does.
            if let Some(pending) = self.pendings[i] {
                let transition = pending.complete(estimated_total, r.capping, p);
                self.policies[i].learn(&transition);
            }
            let action = self.policies[i].decide(&observation);
            r.estimated_total = estimated_total;
            r.action = action;
            self.attackers[i] = act(p, battery, r);
            self.loads_w[i] = r.actual_total.as_watts();
            self.raw_estimates[i] = raw_estimate;
            // Defer the learning feedback to the next slot; phase 6 fills in
            // the inlet the zone pass produces.
            self.pendings[i] = Some(PendingTransition {
                observation,
                action,
                inlet: Temperature::from_celsius(0.0),
                next_battery_soc: r.battery_soc,
                next_battery_stored: battery.stored(),
            });
        }

        // ---- Phase 5: zone thermal pass over the whole batch. ----
        self.zones.step_all(&self.loads_w, slot);

        // ---- Phase 6: settle. ----
        let mut down: u32 = 0;
        for i in 0..lanes {
            let inlet = self.zones.inlet(i);
            let r = &mut self.records[i];
            r.inlet = inlet;
            if r.outage {
                down += 1;
                settle_outage(
                    &self.params[i],
                    inlet,
                    &mut self.protocols[i],
                    &mut self.prev_cappings[i],
                    &mut self.outage_remainings[i],
                    &mut self.metrics[i],
                );
                self.pendings[i] = None; // the attacker's episode is over
            } else {
                settle(
                    &self.params[i],
                    r,
                    self.attackers[i],
                    &mut self.protocols[i],
                    &mut self.prev_cappings[i],
                    &mut self.outage_remainings[i],
                    &mut self.metrics[i],
                );
                if let Some(pending) = &mut self.pendings[i] {
                    pending.inlet = inlet;
                }
            }
            if let Some(rec) = self.recorders[i].as_mut() {
                emit_sample(rec.as_mut(), r, self.raw_estimates[i]);
            }
        }
        hbm_telemetry::timing::record_span_units("batch.step", started, lanes as u64);
        down
    }

    /// Runs `slots` slots and returns the per-slot count of lanes that were
    /// down (in outage downtime) — the fleet availability signal.
    pub fn run(&mut self, slots: u64) -> Vec<u32> {
        let mut down = Vec::with_capacity(slots as usize);
        for _ in 0..slots {
            down.push(self.step_all());
        }
        down
    }

    /// Like [`run`](BatchSim::run), but additionally collects every lane's
    /// per-slot [`SlotRecord`]s, lane-major (`records[i][t]`) — what the
    /// experiment harness needs to post-process a batched
    /// [`Simulation::run_recorded`] equivalent.
    pub fn run_recorded(&mut self, slots: u64) -> (Vec<u32>, Vec<Vec<SlotRecord>>) {
        let mut down = Vec::with_capacity(slots as usize);
        let mut records: Vec<Vec<SlotRecord>> = (0..self.len())
            .map(|_| Vec::with_capacity(slots as usize))
            .collect();
        for _ in 0..slots {
            down.push(self.step_all());
            for (lane, record) in records.iter_mut().zip(&self.records) {
                lane.push(*record);
            }
        }
        (down, records)
    }

    /// Per-lane reports, taking each lane's metrics *by move* (the lane
    /// continues with fresh metrics, as after [`Simulation::warmup`]).
    pub fn take_reports(&mut self) -> Vec<SimReport> {
        self.metrics
            .iter_mut()
            .zip(&self.policies)
            .map(|(metrics, policy)| SimReport {
                policy: policy.name().to_string(),
                metrics: std::mem::replace(metrics, Metrics::new(self.slot)),
            })
            .collect()
    }

    /// Disassembles the batch back into standalone simulations, each
    /// carrying its full state (zone inlet synced from the SoA lanes) so it
    /// can keep stepping scalar from exactly where the batch left off.
    pub fn into_sims(mut self) -> Vec<Simulation> {
        let lanes = self.len();
        // The column-wise RNG/wander state is authoritative while batched;
        // flow it back before handing the scenarios out.
        self.sc_lanes.sync_back(&mut self.side_channels);
        let mut sims = Vec::with_capacity(lanes);
        for i in (0..lanes).rev() {
            let mut zone = self.zone_models[i];
            zone.set_inlet(self.zones.inlet(i));
            sims.push(Simulation {
                config: self.configs.pop().expect("lane"),
                params: self.params[i],
                trace: self.traces.pop().expect("lane"),
                zone,
                protocol: self.protocols.pop().expect("lane"),
                battery: self.batteries.pop().expect("lane"),
                side_channel: self.side_channels.pop().expect("lane"),
                policy: self.policies.pop().expect("lane"),
                slot_index: self.slot_indices[i],
                metrics: self.metrics.pop().expect("lane"),
                pending: self.pendings[i],
                outage_remaining: self.outage_remainings[i],
                prev_capping: self.prev_cappings[i],
                estimate_filter: self.estimate_filters[i],
                recorder: self.recorders.pop().expect("lane"),
            });
        }
        sims.reverse();
        sims
    }
}

/// Outcome of a sharded batch run ([`run_sharded`] or
/// [`run_sharded_recorded`]).
pub struct BatchRun {
    /// The scenarios, in input order, ready to keep stepping (their metrics
    /// were moved into `reports`).
    pub sims: Vec<Simulation>,
    /// Per-scenario reports, in input order.
    pub reports: Vec<SimReport>,
    /// Per-scenario, per-slot records (`records[i][t]`), in input order;
    /// empty unless the run was recorded.
    pub records: Vec<Vec<SlotRecord>>,
    /// Per-slot count of scenarios that were down across the whole batch.
    pub down_per_slot: Vec<u32>,
}

/// Runs `sims` for `slots` slots through the batch engine, sharded across
/// the `hbm_par` thread budget.
///
/// Lanes are partitioned into contiguous shards (one per available worker,
/// probed via [`hbm_par::reserve_threads`]) and each shard advances in
/// lockstep via its own [`BatchSim`]; [`hbm_par::par_map`] returns shard
/// results in input order and the per-slot down counts merge by addition.
/// Because lanes never interact, the results are **byte-identical at any
/// thread count** — a budget of one simply runs the shards sequentially.
pub fn run_sharded(sims: Vec<Simulation>, slots: u64) -> BatchRun {
    shard_and_merge(sims, slots, false)
}

/// [`run_sharded`] plus every lane's per-slot [`SlotRecord`]s — the batched
/// counterpart of [`Simulation::run_recorded`], with the same determinism
/// contract (byte-identical at any thread count).
pub fn run_sharded_recorded(sims: Vec<Simulation>, slots: u64) -> BatchRun {
    shard_and_merge(sims, slots, true)
}

fn shard_and_merge(sims: Vec<Simulation>, slots: u64, record: bool) -> BatchRun {
    let lanes = sims.len();
    let outcomes = hbm_par::par_map(shard_lanes(sims), |shard| {
        let mut batch = BatchSim::new(shard);
        let (down, records) = if record {
            batch.run_recorded(slots)
        } else {
            (batch.run(slots), Vec::new())
        };
        let reports = batch.take_reports();
        (batch.into_sims(), reports, records, down)
    });
    let mut run = BatchRun {
        sims: Vec::with_capacity(lanes),
        reports: Vec::with_capacity(lanes),
        records: Vec::new(),
        down_per_slot: vec![0; slots as usize],
    };
    for (shard_sims, shard_reports, shard_records, shard_down) in outcomes {
        run.sims.extend(shard_sims);
        run.reports.extend(shard_reports);
        run.records.extend(shard_records);
        for (acc, d) in run.down_per_slot.iter_mut().zip(shard_down) {
            *acc += d;
        }
    }
    run
}

/// Warms up the lanes of `sims` flagged `true` through the sharded batch
/// engine and hands every simulation back in input order. Dropping the
/// warm-up run's reports performs exactly the metric reset
/// [`Simulation::warmup`] does, so each lane continues bit-identically to a
/// scalar `warmup` call (the batch determinism contract).
pub fn warmup_sims_batch(sims: Vec<(Simulation, bool)>, warmup_slots: u64) -> Vec<Simulation> {
    let mut lanes: Vec<Option<Simulation>> = Vec::with_capacity(sims.len());
    let mut warm = Vec::new();
    let mut warm_at = Vec::new();
    for (i, (sim, needs_warmup)) in sims.into_iter().enumerate() {
        if needs_warmup && warmup_slots > 0 {
            warm_at.push(i);
            warm.push(sim);
            lanes.push(None);
        } else {
            lanes.push(Some(sim));
        }
    }
    if !warm.is_empty() {
        let warmed = run_sharded(warm, warmup_slots).sims;
        for (i, sim) in warm_at.into_iter().zip(warmed) {
            lanes[i] = Some(sim);
        }
    }
    lanes.into_iter().map(|s| s.expect("lane")).collect()
}

/// Runs pre-built simulations through the sharded batch engine as one
/// batch: the lanes flagged `true` (learning policies) warm up together
/// first via [`warmup_sims_batch`], then every lane runs the measured
/// horizon in lockstep. Reports come back in input order, byte-identical to
/// a scalar [`Simulation::warmup`] (when flagged) plus [`Simulation::run`]
/// of each simulation alone.
pub fn run_sims_batch(
    sims: Vec<(Simulation, bool)>,
    warmup_slots: u64,
    slots: u64,
) -> Vec<SimReport> {
    let warmed = warmup_sims_batch(sims, warmup_slots);
    run_sharded(warmed, slots).reports
}

/// Partitions lanes into contiguous shards, one per worker the `hbm_par`
/// budget grants (probed, then released so `par_map` can re-borrow the same
/// threads for the actual work).
fn shard_lanes(sims: Vec<Simulation>) -> Vec<Vec<Simulation>> {
    let lanes = sims.len();
    if lanes == 0 {
        return Vec::new();
    }
    let workers = {
        let lease = hbm_par::reserve_threads(lanes.saturating_sub(1));
        (lease.granted() + 1).min(lanes)
    };
    let quotient = lanes / workers;
    let remainder = lanes % workers;
    let mut shards: Vec<Vec<Simulation>> = Vec::with_capacity(workers);
    let mut iter = sims.into_iter();
    for s in 0..workers {
        let take = quotient + usize::from(s < remainder);
        shards.push(iter.by_ref().take(take).collect());
    }
    shards
}

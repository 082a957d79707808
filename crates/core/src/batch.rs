//! Batched fleet-scale simulation engine.
//!
//! [`BatchSim`] advances a whole batch of scenarios in lockstep. Its lanes
//! are the [`Simulation`]s themselves, held in one `Vec`, and each lane runs
//! the same three slot phases [`Simulation::step`] runs: open the slot (the
//! benign cap), the attacker's turn (estimate filter, learn, decide, act)
//! and close the slot (protocol, metrics, telemetry), so the slot is written
//! once. Only what gains from packing lives in structure-of-arrays columns:
//! the side channel's RNG draws and measurement ([`ChannelLanes`], with the
//! Box–Muller pass [`box_muller_slice`]) and the zone thermal sub-steps
//! ([`ZoneLanes`]), which run as tight, SIMD-friendly loops over the batch
//! dimension between the phases.
//!
//! # Determinism contract
//!
//! Lane `i` of a batch produces **bit-identical** trajectories, records, and
//! metrics to running the same [`Simulation`] alone:
//!
//! * every lane applies exactly the op-for-op IEEE-754 sequence of
//!   [`Simulation::step`]: the slot phases are the same methods, and the
//!   packed columns share their arithmetic kernels with the scalar models;
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

use hbm_sidechannel::math::box_muller_slice;
use hbm_sidechannel::{ChannelLanes, NORMALS_PER_ESTIMATE};
use hbm_thermal::ZoneLanes;
use hbm_units::{Duration, Power};

use crate::sim::AttackerPower;
use crate::{Metrics, SimReport, Simulation, SlotRecord};

/// A batch of simulations advanced in lockstep, with the side channel and
/// the zone physics packed across lanes (see the module docs for the
/// determinism contract).
///
/// Build one from fully constructed [`Simulation`]s with [`BatchSim::new`],
/// drive it with [`step_all`](BatchSim::step_all) or
/// [`run`](BatchSim::run), then collect results with
/// [`take_reports`](BatchSim::take_reports) and hand the scenarios back with
/// [`into_sims`](BatchSim::into_sims).
pub struct BatchSim {
    /// The lanes, each a whole simulation that runs its own slot phases.
    /// While batched, a lane's `zone` and `side_channel` are cold
    /// templates: the live inlet is in `zones` and the live noise state in
    /// `sc_lanes`, synced back by [`into_sims`](BatchSim::into_sims).
    lanes: Vec<Simulation>,
    /// Where phase 1 reads each slot's benign demand.
    trace_rows: TraceRows,

    // ---- SoA hot state. ----
    zones: ZoneLanes,
    /// Side-channel RNG/wander/params in column-wise form; the authoritative
    /// noise state while batched.
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
    fn refill(&mut self, lanes: &[Simulation]) {
        const G: usize = TraceWindow::GROUP;
        let tiles = self.block.chunks_exact_mut(G * Self::SLOTS);
        for ((tile, lanes), cursors) in tiles.zip(lanes.chunks(G)).zip(self.cursors.chunks_mut(G)) {
            let runs: Option<[&[Power]; G]> = (lanes.len() == G).then(|| {
                std::array::from_fn(|k| {
                    let from = cursors[k] as usize;
                    lanes[k]
                        .trace
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
                    for (cursor, lane) in cursors.iter_mut().zip(lanes) {
                        *cursor = ((*cursor as usize + Self::SLOTS) % lane.trace.len()) as u32;
                    }
                }
                _ => {
                    for (k, (cursor, lane)) in cursors.iter_mut().zip(lanes).enumerate() {
                        let samples = lane.trace.samples();
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
    pub fn new(mut lanes: Vec<Simulation>) -> BatchSim {
        assert!(!lanes.is_empty(), "batch needs at least one scenario");
        let slot = lanes[0].config.slot;
        assert!(
            lanes.iter().all(|lane| lane.config.slot == slot),
            "all lanes must share the slot length"
        );
        // Re-cloned in lane order, so the lanes' histogram bins lie in lane
        // order in memory. The bins of separately built simulations are
        // scattered, and phase 6 of a 1000-lane learning fleet then ran
        // ~1.5x slower, missing the cache on most histogram updates. Every
        // clone is made before any original is dropped: replacing them one
        // by one lets each clone reuse the block the previous lane just
        // freed, which scatters the bins again.
        let metrics: Vec<Metrics> = lanes.iter().map(|lane| lane.metrics.clone()).collect();
        for (lane, metrics) in lanes.iter_mut().zip(metrics) {
            lane.metrics = metrics;
        }
        let zones = ZoneLanes::from_models(lanes.iter().map(|lane| &lane.zone));
        let sc_lanes = ChannelLanes::from_channels(lanes.iter().map(|lane| &lane.side_channel));
        let cursors: Vec<u32> = lanes
            .iter()
            .map(|lane| (lane.slot_index % lane.trace.len() as u64) as u32)
            .collect();
        let shared = lanes
            .iter()
            .all(|lane| Arc::ptr_eq(&lane.trace, &lanes[0].trace))
            && cursors.iter().all(|&p| p == cursors[0]);
        let trace_rows = if shared {
            TraceRows::Shared { pos: cursors[0] }
        } else {
            TraceRows::Window(TraceWindow::new(cursors))
        };
        let n = lanes.len();
        BatchSim {
            lanes,
            trace_rows,
            zones,
            sc_lanes,
            slot,
            active: Vec::with_capacity(n),
            loads_w: vec![0.0; n],
            u1: vec![0.0; n * NORMALS_PER_ESTIMATE],
            u2: vec![0.0; n * NORMALS_PER_ESTIMATE],
            z: vec![0.0; n * NORMALS_PER_ESTIMATE],
            benign_w: vec![0.0; n],
            sensed_w: vec![0.0; n],
            attackers: vec![AttackerPower::default(); n],
            records: vec![SlotRecord::blank(); n],
        }
    }

    /// Number of lanes (scenarios) in the batch.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Whether the batch is empty (never true for constructed batches).
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
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
    /// Each lane runs the slot phases [`Simulation::step`] runs, in its
    /// order; only the RNG draws, the side-channel measurement and the zone
    /// physics are packed across lanes:
    ///
    /// 1. open the slot: bookkeeping and the benign cap;
    /// 2. side-channel uniform draws, compacted over non-outage lanes;
    /// 3. one packed Box–Muller pass over all lanes' normals (vectorized);
    /// 4. the estimate, then the attacker's turn: filter, learn, decide,
    ///    act;
    /// 5. zone thermal pass over the whole batch ([`ZoneLanes::step_all`]);
    /// 6. close the slot: protocol, metrics, the record's inlet.
    pub fn step_all(&mut self) -> u32 {
        let started = hbm_telemetry::timing::start();
        let slot = self.slot;
        let lanes = self.len();
        self.active.clear();
        // ---- Phase 1: open the slot. ----
        let demand = match &mut self.trace_rows {
            TraceRows::Shared { pos } => {
                let trace = &self.lanes[0].trace;
                let at = *pos as usize;
                *pos += 1;
                if *pos as usize == trace.len() {
                    *pos = 0;
                }
                DemandRow::Shared(trace.samples()[at])
            }
            TraceRows::Window(window) => {
                if window.row == TraceWindow::SLOTS {
                    window.refill(&self.lanes);
                }
                window.row += 1;
                DemandRow::Window(&window.block, window.row - 1)
            }
        };
        for (i, (lane, r)) in self.lanes.iter_mut().zip(&mut self.records).enumerate() {
            let benign_demand = match demand {
                DemandRow::Shared(demand) => demand,
                DemandRow::Window(block, row) => block[TraceWindow::at(i, row)],
            };
            if lane.open_slot(benign_demand, r) {
                self.active.push(i as u32);
                self.benign_w[i] = r.benign_actual.as_watts();
            } else {
                // Down: the zone pass cools the lane at zero load, and
                // nothing is sensed.
                self.loads_w[i] = 0.0;
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

        // ---- Phase 4: the estimate and the attacker's turn. ----
        if dense {
            // Packed measurement-model pass over all lanes (inputs were laid
            // down column-wise by phase 1).
            self.sc_lanes
                .estimate_all(&self.benign_w, &self.z, &mut self.sensed_w);
        }
        for j in 0..n_active {
            let i = self.active[j] as usize;
            let r = &mut self.records[i];
            let sensed = if dense {
                Power::from_watts(self.sensed_w[i])
            } else {
                let at = j * NORMALS_PER_ESTIMATE;
                let mut z4 = [0.0; NORMALS_PER_ESTIMATE];
                z4.copy_from_slice(&self.z[at..at + NORMALS_PER_ESTIMATE]);
                self.sc_lanes.estimate_lane(i, r.benign_actual, &z4)
            };
            self.attackers[i] = self.lanes[i].act_slot(sensed, self.zones.inlet(i), r);
            self.loads_w[i] = r.actual_total.as_watts();
        }

        // ---- Phase 5: zone thermal pass over the whole batch. ----
        self.zones.step_all(&self.loads_w, slot);

        // ---- Phase 6: close the slot. ----
        let mut down: u32 = 0;
        for (i, (lane, r)) in self.lanes.iter_mut().zip(&mut self.records).enumerate() {
            down += u32::from(r.outage);
            lane.close_slot(r, self.attackers[i], self.zones.inlet(i));
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
        self.lanes
            .iter_mut()
            .map(|lane| SimReport {
                policy: lane.policy.name().to_string(),
                metrics: std::mem::replace(&mut lane.metrics, Metrics::new(self.slot)),
            })
            .collect()
    }

    /// Hands the lanes back as standalone simulations, each carrying its
    /// full state (zone inlet and side-channel noise synced from the packed
    /// lanes) so it can keep stepping scalar from exactly where the batch
    /// left off.
    pub fn into_sims(mut self) -> Vec<Simulation> {
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            lane.zone.set_inlet(self.zones.inlet(i));
        }
        self.sc_lanes
            .sync_back(self.lanes.iter_mut().map(|lane| &mut lane.side_channel));
        self.lanes
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

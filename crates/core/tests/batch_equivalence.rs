//! The batch engine's determinism contract: every lane of a [`BatchSim`]
//! produces byte-identical records, metrics, and reports to running the
//! same [`Simulation`] alone, and the sharded runner is thread-count
//! invariant.

use hbm_battery::BatterySpec;
use hbm_core::scenario::run_scenarios_batch;
use hbm_core::{
    run_sharded, run_sharded_recorded, BatchSim, ColoConfig, ForesightedPolicy, MyopicPolicy,
    OneShotPolicy, Policy, RandomPolicy, Scenario, SimReport, Simulation, SlotRecord, TraceStore,
};
use hbm_telemetry::{sample_to_jsonl, Sample};
use hbm_units::Power;
use hbm_workload::{generate, TraceConfig, TraceShape};

/// A policy/config mix covering every slot-body path: attacking and quiet
/// myopic, random, the learning foresighted attacker, and a one-shot
/// scenario that drives its site through outage downtime.
fn scenarios() -> Vec<Simulation> {
    let base = ColoConfig::paper_default().with_trace_len(7 * 1440);
    let mut outage = base.clone();
    outage.battery = BatterySpec::one_shot();
    outage.attack_load = Power::from_kilowatts(3.0);
    vec![
        Simulation::new(
            base.clone(),
            MyopicPolicy::new(Power::from_kilowatts(7.4)),
            1,
        ),
        Simulation::new(
            base.clone(),
            MyopicPolicy::new(Power::from_kilowatts(99.0)),
            2,
        ),
        Simulation::new(
            base.clone(),
            RandomPolicy::new(0.08, base.attack_load, base.slot, 11),
            3,
        ),
        Simulation::new(base.clone(), ForesightedPolicy::paper_default(14.0, 4), 4),
        Simulation::new(outage, OneShotPolicy::new(Power::from_kilowatts(7.6)), 1),
    ]
}

fn sequential_reference(slots: u64) -> Vec<(SimReport, Vec<SlotRecord>)> {
    scenarios()
        .into_iter()
        .map(|mut sim| sim.run_recorded(slots))
        .collect()
}

#[test]
fn batch_matches_sequential_slot_for_slot() {
    const SLOTS: u64 = 3 * 1440;
    let reference = sequential_reference(SLOTS);
    assert!(
        reference.last().unwrap().0.metrics.outage_slots > 0,
        "the one-shot lane must exercise the outage path"
    );

    let mut batch = BatchSim::new(scenarios());
    for k in 0..SLOTS {
        batch.step_all();
        for (i, (_, records)) in reference.iter().enumerate() {
            let want = records[k as usize];
            let got = batch.records()[i];
            assert_eq!(got, want, "lane {i} diverged at slot {k}");
            // PartialEq on f64 admits -0.0 == 0.0; pin the hot physics
            // channels down to the bit.
            assert_eq!(
                got.inlet.as_celsius().to_bits(),
                want.inlet.as_celsius().to_bits(),
                "lane {i} inlet bits diverged at slot {k}"
            );
            assert_eq!(
                got.estimated_total.as_kilowatts().to_bits(),
                want.estimated_total.as_kilowatts().to_bits(),
                "lane {i} estimate bits diverged at slot {k}"
            );
        }
    }

    let reports = batch.take_reports();
    for (i, (want, _)) in reference.iter().enumerate() {
        assert_eq!(reports[i], want.clone(), "lane {i} report diverged");
    }
}

/// The fleet-shaped case: a batch whose every lane is a [`MyopicPolicy`].
/// Thresholds straddle the trace so attacking, charging, and idle lanes are
/// all present.
#[test]
fn all_myopic_batch_matches_sequential() {
    const SLOTS: u64 = 2 * 1440;
    let base = ColoConfig::paper_default().with_trace_len(7 * 1440);
    let make = || -> Vec<Simulation> {
        [6.8, 7.4, 99.0]
            .iter()
            .enumerate()
            .map(|(i, &kw)| {
                Simulation::new(
                    base.clone(),
                    MyopicPolicy::new(Power::from_kilowatts(kw)),
                    1 + i as u64,
                )
            })
            .collect()
    };

    let reference: Vec<(SimReport, Vec<SlotRecord>)> = make()
        .into_iter()
        .map(|mut sim| sim.run_recorded(SLOTS))
        .collect();
    assert!(
        reference.iter().any(|(r, _)| r.metrics.attack_slots > 0),
        "at least one myopic lane must actually attack"
    );

    let mut batch = BatchSim::new(make());
    for k in 0..SLOTS {
        batch.step_all();
        for (i, (_, records)) in reference.iter().enumerate() {
            assert_eq!(
                batch.records()[i],
                records[k as usize],
                "myopic lane {i} diverged at slot {k}"
            );
        }
    }
    let reports = batch.take_reports();
    for (i, (want, _)) in reference.iter().enumerate() {
        assert_eq!(reports[i], want.clone(), "myopic lane {i} report diverged");
    }
}

/// Builds an all-foresighted fleet covering every decide path: a lane still
/// in its teacher phase, lanes past it (teacher disabled, so ε-greedy
/// exploration and the greedy scan run from slot 0), and a frozen
/// evaluation lane (no learning, no exploration). All lanes use the paper's
/// batch learner.
fn foresighted_fleet() -> Vec<Simulation> {
    let base = ColoConfig::paper_default().with_trace_len(7 * 1440);
    let mut sims = Vec::new();
    for (i, (w, teacher, learning)) in [
        (14.0, true, true),
        (9.0, false, true),
        (22.0, false, true),
        (0.0, false, false),
    ]
    .into_iter()
    .enumerate()
    {
        let mut policy = ForesightedPolicy::paper_default(w, 4 + i as u64);
        if !teacher {
            policy.set_teacher(Power::from_kilowatts(7.56), 0);
        }
        policy.set_learning(learning);
        sims.push(Simulation::new(base.clone(), policy, 4 + i as u64));
    }
    sims
}

/// The learning fleet: a batch whose every lane is a [`ForesightedPolicy`],
/// covering each decide path above slot for slot.
#[test]
fn all_foresighted_batch_matches_sequential() {
    const SLOTS: u64 = 3 * 1440;
    let reference: Vec<(SimReport, Vec<SlotRecord>)> = foresighted_fleet()
        .into_iter()
        .map(|mut sim| sim.run_recorded(SLOTS))
        .collect();
    assert!(
        reference.iter().any(|(r, _)| r.metrics.attack_slots > 0),
        "at least one foresighted lane must actually attack"
    );

    let mut batch = BatchSim::new(foresighted_fleet());
    for k in 0..SLOTS {
        batch.step_all();
        for (i, (_, records)) in reference.iter().enumerate() {
            let want = records[k as usize];
            let got = batch.records()[i];
            assert_eq!(got, want, "foresighted lane {i} diverged at slot {k}");
            assert_eq!(
                got.estimated_total.as_kilowatts().to_bits(),
                want.estimated_total.as_kilowatts().to_bits(),
                "foresighted lane {i} estimate bits diverged at slot {k}"
            );
        }
    }
    let reports = batch.take_reports();
    for (i, (want, _)) in reference.iter().enumerate() {
        assert_eq!(
            reports[i],
            want.clone(),
            "foresighted lane {i} report diverged"
        );
    }
}

/// Steps `make()` scalar and batched for `slots` slots and asserts every
/// lane's records and report match, record for record.
fn assert_batch_matches_sequential(make: impl Fn() -> Vec<Simulation>, slots: u64, what: &str) {
    assert_batch_matches(make(), make(), slots, what);
}

/// Steps `reference` scalar and `batched` as one batch for `slots` slots,
/// asserts every lane's records and report match, record for record, and
/// hands the batched lanes back.
fn assert_batch_matches(
    reference: Vec<Simulation>,
    batched: Vec<Simulation>,
    slots: u64,
    what: &str,
) -> Vec<Simulation> {
    let reference: Vec<(SimReport, Vec<SlotRecord>)> = reference
        .into_iter()
        .map(|mut sim| sim.run_recorded(slots))
        .collect();

    let mut batch = BatchSim::new(batched);
    for k in 0..slots {
        batch.step_all();
        for (i, (_, records)) in reference.iter().enumerate() {
            assert_eq!(
                batch.records()[i],
                records[k as usize],
                "{what} lane {i} diverged at slot {k}"
            );
        }
    }
    let reports = batch.take_reports();
    for (i, (want, _)) in reference.iter().enumerate() {
        assert_eq!(reports[i], want.clone(), "{what} lane {i} report diverged");
    }
    batch.into_sims()
}

/// Classic-Q ablation lanes, teacher disabled.
fn standard_q_lanes(base: &ColoConfig) -> Vec<Simulation> {
    [9.0, 14.0]
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let mut policy = ForesightedPolicy::paper_default(w, 21 + i as u64);
            policy.set_teacher(Power::from_kilowatts(7.56), 0);
            let policy = policy.with_standard_q();
            Simulation::new(base.clone(), policy, 21 + i as u64)
        })
        .collect()
}

/// Same contract for the classic-Q ablation learner.
#[test]
fn all_foresighted_standard_q_batch_matches_sequential() {
    let base = ColoConfig::paper_default().with_trace_len(7 * 1440);
    assert_batch_matches_sequential(|| standard_q_lanes(&base), 2 * 1440, "standard-Q");
}

/// A batch-Q lane among standard-Q lanes: learner kinds mix freely, since
/// every lane calls its own policy.
#[test]
fn mixed_learner_batch_matches_sequential() {
    let base = ColoConfig::paper_default().with_trace_len(7 * 1440);
    let make = || {
        let mut sims = standard_q_lanes(&base);
        let policy = ForesightedPolicy::paper_default(14.0, 30);
        sims.push(Simulation::new(base.clone(), policy, 30));
        sims
    };
    assert_batch_matches_sequential(make, 2 * 1440, "mixed-learner");
}

/// A ragged batch: trace lengths differ and one lane starts mid-trace, so
/// every lane reads its own wrapping trace cursor instead of the transposed
/// trace, and the one-shot outage lane mixes per-lane draws into the slots
/// it spends down.
#[test]
fn ragged_batch_matches_sequential() {
    let make = || {
        let short = ColoConfig::paper_default().with_trace_len(1440);
        let long = ColoConfig::paper_default().with_trace_len(2000);
        let mut outage = ColoConfig::paper_default().with_trace_len(1700);
        outage.battery = BatterySpec::one_shot();
        outage.attack_load = Power::from_kilowatts(3.0);
        let mut pre_stepped = Simulation::new(
            short.clone(),
            MyopicPolicy::new(Power::from_kilowatts(7.4)),
            1,
        );
        pre_stepped.run(40);
        vec![
            pre_stepped,
            Simulation::new(long, ForesightedPolicy::paper_default(14.0, 4), 4),
            Simulation::new(outage, OneShotPolicy::new(Power::from_kilowatts(7.6)), 1),
            Simulation::new(
                short.clone(),
                RandomPolicy::new(0.08, short.attack_load, short.slot, 11),
                3,
            ),
        ]
    };
    let slots = 3 * 1440;
    let outage_slots = make()[2].run(slots).metrics.outage_slots;
    assert!(outage_slots > 0, "the one-shot lane must go down");
    assert_batch_matches_sequential(make, slots, "ragged");
}

/// Mixed policies on one seed, the one-shot outage lane included: the
/// lanes' trace configurations agree, so a [`TraceStore`] hands every lane
/// the same trace.
fn one_seed_lanes(build: impl Fn(ColoConfig, Policy) -> Simulation) -> Vec<Simulation> {
    let base = ColoConfig::paper_default().with_trace_len(2000);
    let mut outage = base.clone();
    outage.battery = BatterySpec::one_shot();
    outage.attack_load = Power::from_kilowatts(3.0);
    vec![
        build(
            base.clone(),
            MyopicPolicy::new(Power::from_kilowatts(7.4)).into(),
        ),
        build(
            base.clone(),
            RandomPolicy::new(0.08, base.attack_load, base.slot, 11).into(),
        ),
        build(
            base.clone(),
            ForesightedPolicy::paper_default(14.0, 4).into(),
        ),
        build(
            outage,
            OneShotPolicy::new(Power::from_kilowatts(7.6)).into(),
        ),
    ]
}

/// A batch whose lanes all hold one shared trace at one cursor reads a
/// single sample per slot, and still matches lanes built with their own
/// freshly synthesized traces, slot for slot.
#[test]
fn shared_trace_batch_matches_sequential() {
    let store = TraceStore::new();
    let shared = one_seed_lanes(|config, policy| store.simulation(config, policy, 1));
    assert!(shared
        .iter()
        .all(|sim| std::ptr::eq(sim.trace(), shared[0].trace())));
    assert_eq!(store.len(), 1);
    let fresh = || one_seed_lanes(|config, policy| Simulation::new(config, policy, 1));
    let slots = 3 * 1440;
    let mut one_shot = fresh().pop().expect("one-shot lane");
    assert!(
        one_shot.run(slots).metrics.outage_slots > 0,
        "the one-shot lane must go down"
    );
    assert_batch_matches(fresh(), shared, slots, "shared-trace");
}

/// Lanes that share one trace but start at different cursors (one lane
/// pre-stepped) take the ragged path and still match.
#[test]
fn shared_trace_at_different_cursors_matches_sequential() {
    let store = TraceStore::new();
    let pre_step_first = |mut sims: Vec<Simulation>| {
        sims[0].run(40);
        sims
    };
    let shared = pre_step_first(one_seed_lanes(|config, policy| {
        store.simulation(config, policy, 1)
    }));
    assert!(shared
        .iter()
        .all(|sim| std::ptr::eq(sim.trace(), shared[0].trace())));
    let fresh = pre_step_first(one_seed_lanes(|config, policy| {
        Simulation::new(config, policy, 1)
    }));
    assert_batch_matches(fresh, shared, 3 * 1440, "shared-trace ragged");
}

/// Slots spanning at least three refills of the batch's trace window.
const THREE_WINDOWS: u64 = 3 * BatchSim::TRACE_WINDOW as u64 + 7;

/// A lane whose trace is shorter than the trace window wraps inside one
/// refill, more than once per refill for the shortest.
#[test]
fn trace_shorter_than_the_window_wraps_inside_a_refill() {
    let w = BatchSim::TRACE_WINDOW;
    let make = || {
        [w / 4 + 1, w - 1, 2 * w]
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                let config = ColoConfig::paper_default().with_trace_len(len);
                Simulation::new(
                    config,
                    MyopicPolicy::new(Power::from_kilowatts(7.4)),
                    1 + i as u64,
                )
            })
            .collect()
    };
    assert_batch_matches_sequential(make, THREE_WINDOWS, "short-trace");
}

/// Trace lengths the window does not divide, with lanes pre-stepped so
/// their cursors start mid-window and reach their traces' ends at
/// different rows of a refill: one lane's refill ends one sample short of
/// its trace's end and another's ends exactly on it. The first eight lanes
/// fill one tile of the window, which some refills copy in one piece (no
/// lane wraps) and others lane by lane; the ninth sits in a tile of its own.
#[test]
fn cursors_starting_mid_window_wrap_at_their_own_rows() {
    let w = BatchSim::TRACE_WINDOW as u64;
    let make = || {
        [
            (3 * w + 5, 0),
            (3 * w + 5, 4),
            (2 * w + 1, 1),
            (5 * w - 1, 7),
            (5 * w - 1, w / 5),
            (5 * w - 1, 2 * w / 3),
            (5 * w - 1, 2 * w + 40),
            (5 * w - 1, 3 * w + 60),
            (2 * w + 3, w + 9),
        ]
        .iter()
        .enumerate()
        .map(|(i, &(len, pre_step))| {
            let config = ColoConfig::paper_default().with_trace_len(len as usize);
            let seed = 7 + i as u64;
            let mut sim = if i % 3 == 0 {
                Simulation::new(config, ForesightedPolicy::paper_default(14.0, seed), seed)
            } else {
                Simulation::new(config, MyopicPolicy::new(Power::from_kilowatts(7.4)), seed)
            };
            sim.run(pre_step);
            sim
        })
        .collect()
    };
    assert_batch_matches_sequential(make, 2 * THREE_WINDOWS, "mid-window");
}

/// Lanes that share one trace allocation gather alongside lanes that do
/// not: the shared trace is read once per lane, at each lane's cursor.
#[test]
fn shared_and_own_traces_mix_in_one_window() {
    let config = ColoConfig::paper_default().with_trace_len(2 * BatchSim::TRACE_WINDOW + 11);
    let myopic = || MyopicPolicy::new(Power::from_kilowatts(7.4));
    let store = TraceStore::new();
    // Even lanes share the store's seed-1 trace; odd lanes and the last
    // build their own (lane 1 over the same samples, in its own allocation).
    let seeds = [1, 1, 1, 2, 1, 3, 1, 4, 5];
    let batched: Vec<Simulation> = seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            if i % 2 == 0 && i < 8 {
                store.simulation(config.clone(), myopic(), seed)
            } else {
                Simulation::new(config.clone(), myopic(), seed)
            }
        })
        .collect();
    assert!(std::ptr::eq(batched[0].trace(), batched[6].trace()));
    assert!(!std::ptr::eq(batched[0].trace(), batched[1].trace()));
    assert_eq!(store.len(), 1);
    let reference = seeds
        .iter()
        .map(|&seed| Simulation::new(config.clone(), myopic(), seed))
        .collect();
    assert_batch_matches(reference, batched, THREE_WINDOWS, "shared-and-own");
}

/// Where a lane of [`pending_lanes`] or [`pending_and_held_lanes`] gets its
/// trace before the batch is built.
#[derive(Clone, Copy, PartialEq)]
enum TraceSource {
    /// None yet: `BatchSim::new` synthesizes it.
    Pending,
    /// A [`TraceStore`]'s.
    Store,
    /// The lane's own, forced before batching; the next lane is its fork.
    Donor,
    /// The previous (donor) lane's, shared through `fork`.
    Fork,
}

/// Lane specs (config, seed, trace source) over two shapes and two
/// lengths: nine week-long default-shape lanes fill a lockstep chunk of
/// eight and a lone one, two alternate-shape and two shorter lanes form
/// groups of their own.
fn pending_lanes() -> Vec<(ColoConfig, u64, TraceSource)> {
    let week = ColoConfig::paper_default().with_trace_len(7 * 1440);
    let mut google = week.clone();
    google.trace.shape = TraceShape::Google;
    let short = ColoConfig::paper_default().with_trace_len(2 * 1440 + 17);
    let mut lanes: Vec<_> = (1..=9)
        .map(|seed| (week.clone(), seed, TraceSource::Pending))
        .collect();
    lanes.extend([1, 2].map(|seed| (google.clone(), seed, TraceSource::Pending)));
    lanes.extend([3, 4].map(|seed| (short.clone(), seed, TraceSource::Pending)));
    lanes
}

/// [`pending_lanes`] interleaved with lanes that already hold a trace: a
/// [`TraceStore`]'s and a donor's shared with its fork.
fn pending_and_held_lanes() -> Vec<(ColoConfig, u64, TraceSource)> {
    let mut lanes = pending_lanes();
    let week = lanes[0].0.clone();
    let google = lanes[9].0.clone();
    lanes.insert(3, (week, 20, TraceSource::Store));
    lanes.insert(7, (google.clone(), 21, TraceSource::Donor));
    lanes.insert(8, (google, 21, TraceSource::Fork));
    lanes
}

/// Every third lane learns, so the batch mixes policy kinds.
fn lane_policy(i: usize, seed: u64) -> Policy {
    if i.is_multiple_of(3) {
        ForesightedPolicy::paper_default(14.0, seed).into()
    } else {
        MyopicPolicy::new(Power::from_kilowatts(7.4)).into()
    }
}

/// Builds `specs`, each lane from its trace source.
fn build_lanes(specs: &[(ColoConfig, u64, TraceSource)], store: &TraceStore) -> Vec<Simulation> {
    let mut lanes: Vec<Simulation> = Vec::with_capacity(specs.len());
    for (i, (config, seed, source)) in specs.iter().enumerate() {
        let policy = lane_policy(i, *seed);
        let lane = match source {
            TraceSource::Pending => Simulation::new(config.clone(), policy, *seed),
            TraceSource::Store => store.simulation(config.clone(), policy, *seed),
            TraceSource::Donor => {
                let donor = Simulation::new(config.clone(), policy, *seed);
                donor.trace();
                donor
            }
            TraceSource::Fork => lanes.last().expect("a donor precedes its fork").fork(),
        };
        lanes.push(lane);
    }
    lanes
}

/// The trace a simulation of `config` built with `seed` runs on, as the
/// workload crate synthesizes it alone.
fn effective_trace(config: &ColoConfig, seed: u64) -> TraceConfig {
    TraceConfig {
        seed: config.trace.seed.wrapping_add(seed),
        ..config.trace
    }
}

/// Lanes that wait for their trace and lanes that hold one share a batch:
/// `BatchSim::new` synthesizes the pending ones together, bit for bit the
/// trace each would synthesize alone, leaves the held ones shared, and
/// every lane reports like the same lane stepped alone.
#[test]
fn pending_and_held_traces_mix_in_one_batch() {
    let specs = pending_and_held_lanes();
    let store = TraceStore::new();
    let batched = build_lanes(&specs, &store);
    let reference = specs
        .iter()
        .enumerate()
        .map(|(i, (config, seed, _))| Simulation::new(config.clone(), lane_policy(i, *seed), *seed))
        .collect();
    let lanes = assert_batch_matches(reference, batched, THREE_WINDOWS, "pending-and-held");
    for (i, (lane, (config, seed, source))) in lanes.iter().zip(&specs).enumerate() {
        let want = generate(&effective_trace(config, *seed));
        let got = lane.trace();
        assert_eq!(got.len(), want.len(), "lane {i} trace length");
        for (k, (got, want)) in got.iter().zip(want.iter()).enumerate() {
            assert_eq!(
                got.as_watts().to_bits(),
                want.as_watts().to_bits(),
                "lane {i} trace sample {k}"
            );
        }
        match source {
            TraceSource::Store => assert!(std::ptr::eq(got, &*store.trace(&config.trace, *seed))),
            TraceSource::Fork => assert!(std::ptr::eq(got, lanes[i - 1].trace())),
            TraceSource::Pending | TraceSource::Donor => {}
        }
    }
    assert_eq!(store.len(), 1);
}

/// A fork of a simulation that never stepped shares its parent's trace:
/// forking synthesizes it once, in the parent, and both branches hold it.
#[test]
fn fork_of_a_never_stepped_simulation_shares_its_trace() {
    let config = ColoConfig::paper_default().with_trace_len(1440);
    let parent = Simulation::new(config, MyopicPolicy::new(Power::from_kilowatts(7.4)), 3);
    let child = parent.fork();
    let grandchild = child.fork();
    assert!(std::ptr::eq(parent.trace(), child.trace()));
    assert!(std::ptr::eq(parent.trace(), grandchild.trace()));
}

/// Sharding splits pending lanes across workers, each shard synthesizing
/// its own lanes' traces in its own `BatchSim::new`: the results are
/// byte-identical at one and two threads, and to the lanes stepped alone.
#[test]
fn sharded_pending_lanes_are_thread_count_invariant() {
    const SLOTS: u64 = 1440;
    let specs = pending_lanes();
    let store = TraceStore::new();
    let alone: Vec<String> = build_lanes(&specs, &store)
        .into_iter()
        .map(|mut sim| format!("{:?}", sim.run(SLOTS)))
        .collect();
    let mut runs = Vec::new();
    for threads in [1usize, 2] {
        hbm_par::configure_threads(threads);
        let run = run_sharded_recorded(build_lanes(&specs, &store), SLOTS);
        let reports: Vec<String> = run.reports.iter().map(|r| format!("{r:?}")).collect();
        assert_eq!(reports, alone, "reports at {threads} threads");
        runs.push((format!("{:?}", run.records), run.down_per_slot));
    }
    hbm_par::configure_threads(1);
    assert!(
        runs[0] == runs[1],
        "records or down counts differ between 1 and 2 threads"
    );
    assert_eq!(store.len(), 0);
}

/// A checkpoint must not depend on which engine stepped the run: for every
/// policy kind, a lane batched and handed back snapshots to exactly the
/// JSON of the same lane stepped scalar, pending transition included.
#[test]
fn handed_back_lanes_checkpoint_like_scalar_ones() {
    const SLOTS: u64 = 600;
    let base = ColoConfig::paper_default().with_trace_len(7 * 1440);
    let make = |kind: usize| -> Simulation {
        let threshold = Power::from_kilowatts(7.4);
        match kind {
            0 => Simulation::new(base.clone(), MyopicPolicy::new(threshold), 5),
            1 => {
                let policy = RandomPolicy::new(0.08, base.attack_load, base.slot, 5);
                Simulation::new(base.clone(), policy, 5)
            }
            2 => Simulation::new(base.clone(), OneShotPolicy::new(threshold), 5),
            _ => Simulation::new(base.clone(), ForesightedPolicy::paper_default(14.0, 5), 5),
        }
    };
    let mut batch = BatchSim::new((0..4).map(make).collect());
    batch.run(SLOTS);
    for (kind, handed_back) in batch.into_sims().iter().enumerate() {
        let mut scalar = make(kind);
        scalar.run(SLOTS);
        let want = scalar.snapshot_json();
        assert!(want.contains("\"pending\":true"), "{want}");
        assert_eq!(
            handed_back.snapshot_json(),
            want,
            "the {} lane checkpoints differently after the batch",
            scalar.policy().name()
        );
    }
}

/// A lane's records as their JSONL trace lines: comparing the lines is
/// bit-level, where `==` on the records' `f64`s equates `-0.0` and `0.0`.
fn trace_lines(records: &[SlotRecord]) -> Vec<String> {
    records
        .iter()
        .map(|r| {
            sample_to_jsonl(&Sample {
                step: r.slot,
                channels: &r.channels(),
            })
        })
        .collect()
}

/// A one-shot lane that goes through outage downtime, a myopic 7.4 kW lane
/// that triggers emergencies and a learning lane.
fn hand_off_lanes() -> Vec<Simulation> {
    let base = ColoConfig::paper_default().with_trace_len(7 * 1440);
    let mut outage = base.clone();
    outage.battery = BatterySpec::one_shot();
    outage.attack_load = Power::from_kilowatts(3.0);
    vec![
        Simulation::new(outage, OneShotPolicy::new(Power::from_kilowatts(7.6)), 1),
        Simulation::new(
            base.clone(),
            MyopicPolicy::new(Power::from_kilowatts(7.4)),
            1,
        ),
        Simulation::new(base, ForesightedPolicy::paper_default(14.0, 4), 4),
    ]
}

/// Lanes that alternate between the engines in co-prime chunks (7 slots
/// batched, 5 scalar) step exactly as a scalar run: the same records, the
/// same telemetry lines and the same final checkpoint. The chunks hand
/// lanes over mid-emergency and mid-outage, in both directions.
#[test]
fn lanes_hand_off_between_engines_in_any_state() {
    const SLOTS: usize = 2 * 1440;
    const BATCHED: usize = 7;
    const SCALAR: usize = 5;
    let mut reference = hand_off_lanes();
    let want: Vec<Vec<SlotRecord>> = reference
        .iter_mut()
        .map(|sim| sim.run_recorded(SLOTS as u64).1)
        .collect();
    let outage_slots = want[0].iter().filter(|r| r.outage).count();
    assert!(outage_slots > 0, "the one-shot lane must go down");
    assert!(
        !want[0].last().unwrap().outage,
        "the run must outlast the outage downtime"
    );

    let mut sims = hand_off_lanes();
    let mut got: Vec<Vec<SlotRecord>> = vec![Vec::new(); sims.len()];
    // Slot boundaries at which the lanes entered a batch, and left one.
    let (mut batched_at, mut unbatched_at) = (Vec::new(), Vec::new());
    let mut t = 0;
    while t < SLOTS {
        batched_at.push(t);
        let n = BATCHED.min(SLOTS - t);
        let mut batch = BatchSim::new(sims);
        let (_, records) = batch.run_recorded(n as u64);
        sims = batch.into_sims();
        for (lane, records) in got.iter_mut().zip(records) {
            lane.extend(records);
        }
        t += n;
        unbatched_at.push(t);
        let n = SCALAR.min(SLOTS - t);
        for (sim, lane) in sims.iter_mut().zip(&mut got) {
            lane.extend(sim.run_recorded(n as u64).1);
        }
        t += n;
    }
    for (lane, (got, want)) in got.iter().zip(&want).enumerate() {
        for (k, (got, want)) in got.iter().zip(want).enumerate() {
            assert_eq!(got, want, "lane {lane} diverged at slot {k}");
        }
        assert_eq!(got.len(), want.len());
    }
    for (sim, want) in sims.iter().zip(&reference) {
        assert_eq!(sim.snapshot_json(), want.snapshot_json());
    }
    for (got, want) in got.iter().zip(&want) {
        assert_eq!(got.len(), SLOTS);
        assert_eq!(
            trace_lines(got),
            trace_lines(want),
            "the engines traced a lane differently"
        );
    }

    // The slot after a boundary shows the state the lanes crossed it in:
    // `capping` is the carried `prev_capping`, and an outage slot that
    // follows one means the lane was down through the boundary.
    let crossed = |at: &[usize], state: fn(&SlotRecord, &SlotRecord) -> bool| {
        at.iter()
            .filter(|&&t| t > 0 && t < SLOTS)
            .any(|&t| want.iter().any(|lane| state(&lane[t - 1], &lane[t])))
    };
    let mid_outage: fn(&SlotRecord, &SlotRecord) -> bool =
        |before, after| before.outage && after.outage;
    let capping: fn(&SlotRecord, &SlotRecord) -> bool = |_, after| after.capping;
    for (at, engine) in [(&batched_at, "re-batched"), (&unbatched_at, "handed back")] {
        assert!(crossed(at, mid_outage), "no lane was {engine} mid-outage");
        assert!(crossed(at, capping), "no lane was {engine} while capping");
    }
}

/// `into_sims` hands each lane's policy (tables, RNG, campaign) back with
/// its simulation, so scalar stepping continues bit-exactly.
#[test]
fn foresighted_batch_hands_back_resumable_sims() {
    const HALF: u64 = 1440;
    let full: Vec<SimReport> = foresighted_fleet()
        .into_iter()
        .map(|mut sim| sim.run(2 * HALF))
        .collect();

    let mut batch = BatchSim::new(foresighted_fleet());
    batch.run(HALF);
    let resumed: Vec<SimReport> = batch
        .into_sims()
        .iter_mut()
        .map(|sim| sim.run(HALF))
        .collect();
    assert_eq!(
        resumed, full,
        "scalar stepping must continue bit-exactly from the batched learning state"
    );
}

#[test]
fn sharded_foresighted_run_is_thread_count_invariant() {
    const SLOTS: u64 = 2 * 1440;
    let reports_ref: Vec<SimReport> = foresighted_fleet()
        .into_iter()
        .map(|mut sim| sim.run(SLOTS))
        .collect();

    // 1 = fully sequential; 3 splits the 4 lanes unevenly; 16 grants more
    // workers than lanes. All three must be byte-identical.
    for threads in [1usize, 3, 16] {
        hbm_par::configure_threads(threads);
        let run = run_sharded(foresighted_fleet(), SLOTS);
        assert_eq!(
            run.reports, reports_ref,
            "foresighted reports diverged at {threads} threads"
        );
    }
    hbm_par::configure_threads(1);
}

#[test]
fn batch_hands_back_resumable_sims() {
    const HALF: u64 = 1440;
    let full: Vec<SimReport> = scenarios()
        .into_iter()
        .map(|mut sim| sim.run(2 * HALF))
        .collect();

    let mut batch = BatchSim::new(scenarios());
    batch.run(HALF);
    let resumed: Vec<SimReport> = batch
        .into_sims()
        .iter_mut()
        .map(|sim| sim.run(HALF))
        .collect();
    assert_eq!(
        resumed, full,
        "scalar stepping must continue bit-exactly from where the batch left off"
    );
}

#[test]
fn sharded_run_is_thread_count_invariant() {
    const SLOTS: u64 = 2 * 1440;
    let reference = sequential_reference(SLOTS);
    let reports_ref: Vec<SimReport> = reference.iter().map(|(r, _)| r.clone()).collect();
    let down_ref: Vec<u32> = (0..SLOTS as usize)
        .map(|k| {
            reference
                .iter()
                .filter(|(_, records)| records[k].outage)
                .count() as u32
        })
        .collect();

    // 1 = fully sequential; 4 splits the 5 lanes unevenly; 16 grants more
    // workers than lanes. All three must be byte-identical.
    for threads in [1usize, 4, 16] {
        hbm_par::configure_threads(threads);
        let run = run_sharded(scenarios(), SLOTS);
        assert_eq!(
            run.reports, reports_ref,
            "reports diverged at {threads} threads"
        );
        assert_eq!(
            run.down_per_slot, down_ref,
            "down counts diverged at {threads} threads"
        );
        assert_eq!(run.sims.len(), reports_ref.len());
    }
    hbm_par::configure_threads(1);
}

/// A `policy` scenario at `seed`: one warm-up day, then one measured day.
fn short_scenario(policy: &str, seed: u64) -> Scenario {
    let mut s = Scenario::new(policy);
    s.days = 1;
    s.warmup_days = 1;
    s.seed = seed;
    s
}

/// The full-trace oracle of a bounded run: [`Scenario::build_sim`] with
/// its whole-year trace, warm-up when the policy learns, then the measured
/// days. [`Scenario::run`] and [`run_scenarios_batch`] hold only a head of
/// the trace, so they are checked against this path, not each other.
fn full_trace_run(site: &Scenario) -> SimReport {
    let (mut sim, needs_warmup) = site.build_sim().unwrap();
    if needs_warmup {
        sim.warmup(site.warmup_slots());
    }
    sim.run(site.slots())
}

/// `run_scenarios_batch` over `sites`, and `Scenario::run` of each, match
/// the full-trace oracle site for site, in input order. (A one-site batch
/// is `Scenario::run` itself.)
fn assert_bounded_runs_match_full_traces(sites: &[Scenario]) {
    let batch = run_scenarios_batch(sites).unwrap();
    assert_eq!(batch.len(), sites.len());
    for (site, report) in sites.iter().zip(&batch) {
        let oracle = format!("{:?}", full_trace_run(site));
        let what = site.config_canonical();
        assert_eq!(format!("{report:?}"), oracle, "batch: {what}");
        if sites.len() > 1 {
            assert_eq!(format!("{:?}", site.run().unwrap()), oracle, "run: {what}");
        }
    }
}

#[test]
fn one_scenario_batch_is_the_scalar_run() {
    // The one-site arm, on a learning site that warms up.
    assert_bounded_runs_match_full_traces(&[short_scenario("foresighted", 3)]);
}

#[test]
fn scenario_batch_mixes_learning_and_fixed_policies() {
    // Only the foresighted sites warm up; every site still matches its
    // own full-trace run, in input order.
    assert_bounded_runs_match_full_traces(&[
        short_scenario("myopic", 1),
        short_scenario("foresighted", 2),
        short_scenario("random", 3),
        short_scenario("foresighted", 4),
    ]);
}

#[test]
fn bounded_sites_with_different_trace_means_match_full_traces() {
    // Utilization rescales each trace to its own mean; the sites still
    // share shape, slot and length, so they synthesize in one lockstep
    // group.
    let sites: Vec<Scenario> = [0.55, 0.75, 0.9]
        .into_iter()
        .zip(["myopic", "foresighted", "myopic"])
        .enumerate()
        .map(|(i, (utilization, policy))| {
            let mut s = short_scenario(policy, 10 + i as u64);
            s.utilization = Some(utilization);
            s
        })
        .collect();
    assert_bounded_runs_match_full_traces(&sites);
}

#[test]
fn bounded_run_past_the_year_matches_full_traces() {
    // 366 measured days read past the year's 525 600 slots, so the head
    // clamps to the whole year and wraps exactly like the full trace. One
    // site (the scalar arm) keeps the debug-build cost to two year-long
    // runs; both arms build through the same head-trace helper.
    let mut site = short_scenario("myopic", 20);
    site.days = 366;
    site.warmup_days = 0;
    assert_bounded_runs_match_full_traces(&[site]);
}

#[test]
fn scenario_batch_refuses_mismatched_horizons() {
    let mut longer = short_scenario("myopic", 2);
    longer.days = 2;
    let err = run_scenarios_batch(&[short_scenario("myopic", 1), longer]).unwrap_err();
    assert!(err.contains("share the horizon"), "{err}");
    let mut colder = short_scenario("myopic", 2);
    colder.warmup_days = 0;
    let err = run_scenarios_batch(&[short_scenario("myopic", 1), colder]).unwrap_err();
    assert!(err.contains("share the horizon"), "{err}");
    assert!(run_scenarios_batch(&[]).is_err());
}

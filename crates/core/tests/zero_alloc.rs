//! Proof that the simulator's steady loop performs zero heap allocations
//! per slot, that building a batch copies no trace, and that a bounded run
//! holds no year-long trace.
//!
//! A counting wrapper around the system allocator measures `Simulation::step`
//! after construction and warm-up. This lives in its own integration-test
//! binary, and its tests hold one lock while they count, because the
//! counters are process-global: any concurrently running test would pollute
//! them.
//!
//! The library forbids `unsafe`; this test crate needs it only to implement
//! `GlobalAlloc` for the counting wrapper.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use hbm_core::scenario::run_scenarios_batch;
use hbm_core::{BatchSim, ColoConfig, ForesightedPolicy, MyopicPolicy, Scenario, Simulation};
use hbm_units::Power;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes requested by allocations (a reallocation counts its new size).
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
/// Held by each test while it counts.
static COUNTING: Mutex<()> = Mutex::new(());

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    ALLOCATED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: delegates every operation to the system allocator unchanged; the
// only addition is two relaxed atomic increments, which allocate nothing.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.load(Ordering::Relaxed)
}

fn counting() -> MutexGuard<'static, ()> {
    COUNTING
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Steps `sim` for `slots` slots and returns how many heap allocations the
/// stepping performed.
fn allocations_during(sim: &mut Simulation, slots: u64) -> u64 {
    let before = allocations();
    for _ in 0..slots {
        let record = sim.step();
        std::hint::black_box(&record);
    }
    allocations() - before
}

#[test]
fn steady_loop_allocates_nothing() {
    let _counting = counting();
    let config = ColoConfig::paper_default().with_trace_len(1440);

    // The learning attacker exercises the most machinery per slot: side
    // channel, EMA filter, campaign bookkeeping, batch Q-learning update,
    // zone model, protocol, metrics. Warm-up runs through the teacher
    // phase and several emergency/recovery cycles first.
    let policy = ForesightedPolicy::paper_default(14.0, 1);
    let mut sim = Simulation::new(config.clone(), policy, 1);
    sim.warmup(10 * 1440);
    let with_learning = allocations_during(&mut sim, 1440);
    assert_eq!(
        with_learning, 0,
        "foresighted steady loop must not touch the heap (got {with_learning} allocations over a day)"
    );

    // The myopic policy covers the attack-triggering non-learning path.
    let policy = MyopicPolicy::new(Power::from_kilowatts(7.4));
    let mut sim = Simulation::new(config.clone(), policy, 2);
    sim.warmup(2 * 1440);
    let myopic = allocations_during(&mut sim, 1440);
    assert_eq!(
        myopic, 0,
        "myopic steady loop must not touch the heap (got {myopic} allocations over a day)"
    );

    // The batch engine's steady loop must be just as clean: all per-slot
    // scratch is preallocated at construction, so advancing a whole batch
    // (learning and non-learning lanes, across emergency episodes) performs
    // zero allocations per slot. The lanes' traces differ (one seed each),
    // so phase 1 gathers them through the trace window, refilled many
    // times over the day.
    let sims: Vec<Simulation> = (0..8)
        .map(|i| {
            let policy: hbm_core::Policy = if i % 2 == 0 {
                MyopicPolicy::new(Power::from_kilowatts(7.4)).into()
            } else {
                ForesightedPolicy::paper_default(14.0, i).into()
            };
            Simulation::new(config.clone(), policy, i)
        })
        .collect();
    let mut batch = BatchSim::new(sims);
    for _ in 0..2 * 1440 {
        batch.step_all(); // warm-up: Q-tables, emergency episodes, filters
    }
    let before = allocations();
    for _ in 0..1440 {
        let down = batch.step_all();
        std::hint::black_box(down);
    }
    let batched = allocations() - before;
    assert_eq!(
        batched, 0,
        "batch steady loop must not touch the heap (got {batched} allocations over a day)"
    );

    // The learning fleet (all-foresighted batch): every lane's Q-tables are
    // allocated with its policy, and the per-day schedule memo lives inline.
    // Teacher disabled on most lanes so the ε-greedy and greedy-scan paths
    // run, not just the teacher's.
    let sims: Vec<Simulation> = (0..4)
        .map(|i| {
            let mut policy = ForesightedPolicy::paper_default(9.0 + 5.0 * i as f64, 40 + i);
            if i > 0 {
                policy.set_teacher(Power::from_kilowatts(7.56), 0);
            }
            Simulation::new(config.clone(), policy, 40 + i)
        })
        .collect();
    let mut batch = BatchSim::new(sims);
    for _ in 0..2 * 1440 {
        batch.step_all(); // warm-up: Q-tables, campaigns, emergency episodes
    }
    let before = allocations();
    for _ in 0..1440 {
        let down = batch.step_all();
        std::hint::black_box(down);
    }
    let learning_batched = allocations() - before;
    assert_eq!(
        learning_batched, 0,
        "batched learning steady loop must not touch the heap (got {learning_batched} allocations over a day)"
    );
}

/// `BatchSim::new` copies no trace: over 8 lanes of distinct year-long
/// traces (4.2 MB each) it allocates only per-lane state and the trace
/// window.
#[test]
fn batch_new_copies_no_trace() {
    let _counting = counting();
    let config = ColoConfig::paper_default();
    let sims: Vec<Simulation> = (0..8)
        .map(|i| {
            let policy = MyopicPolicy::new(Power::from_kilowatts(7.4));
            Simulation::new(config.clone(), policy, 1 + i)
        })
        .collect();
    assert_eq!(sims[0].trace().len(), 365 * 1440);
    let before = allocated_bytes();
    let batch = BatchSim::new(sims);
    let bytes = allocated_bytes() - before;
    std::hint::black_box(&batch);
    assert!(
        bytes < 1 << 20,
        "BatchSim::new allocated {bytes} bytes over 8 lanes"
    );
}

/// A bounded run synthesizes its traces but stores only their heads: a
/// `run_scenarios_batch` of 8 one-day myopic sites, and a `Scenario::run`
/// of one, each allocate less than one year-long trace (525 600 samples of
/// 8 bytes, 4.2 MB). Holding full traces, the batch would allocate at
/// least 8 of them (33.6 MB).
#[test]
fn bounded_runs_hold_no_year_trace() {
    const YEAR_TRACE_BYTES: u64 = 365 * 1440 * 8;
    let _counting = counting();
    let mut site = Scenario::new("myopic");
    site.days = 1;
    site.warmup_days = 0;
    let sites: Vec<Scenario> = (0..8).map(|i| site.site(i)).collect();

    let before = allocated_bytes();
    let reports = run_scenarios_batch(&sites).expect("batch runs");
    let batch = allocated_bytes() - before;
    std::hint::black_box(&reports);
    assert!(
        batch < YEAR_TRACE_BYTES,
        "run_scenarios_batch of 8 one-day sites allocated {batch} bytes"
    );

    let before = allocated_bytes();
    let report = site.run().expect("site runs");
    let single = allocated_bytes() - before;
    std::hint::black_box(&report);
    assert!(
        single < YEAR_TRACE_BYTES,
        "Scenario::run of one one-day site allocated {single} bytes"
    );
}

//! The trace store's contract: a simulation built over a stored trace is
//! bit-identical to one built by [`Simulation::new`], only equal effective
//! trace configurations share a trace, and one store serves parallel
//! workers without changing any result.

use hbm_core::{ColoConfig, ForesightedPolicy, MyopicPolicy, Policy, Simulation, TraceStore};
use hbm_units::Power;
use hbm_workload::TraceShape;

const SLOTS: u64 = 1440;

/// Paper default, the alternate (Google-like) shape, and a mean-utilization
/// override, on short traces.
fn configs() -> Vec<ColoConfig> {
    let base = ColoConfig::paper_default().with_trace_len(2 * 1440);
    let mut google = base.clone();
    google.trace.shape = TraceShape::Google;
    let busy = base.clone().with_mean_utilization(0.68);
    vec![base, google, busy]
}

fn policy(learning: bool, seed: u64) -> Policy {
    if learning {
        ForesightedPolicy::paper_default(14.0, seed).into()
    } else {
        MyopicPolicy::new(Power::from_kilowatts(7.4)).into()
    }
}

fn report_debug(mut sim: Simulation) -> String {
    format!("{:?}", sim.run(SLOTS))
}

#[test]
fn stored_trace_simulation_reports_like_a_fresh_one() {
    let store = TraceStore::new();
    for config in configs() {
        for seed in [1, 7] {
            for learning in [false, true] {
                let fresh = Simulation::new(config.clone(), policy(learning, seed), seed);
                let stored = store.simulation(config.clone(), policy(learning, seed), seed);
                assert_eq!(
                    report_debug(stored),
                    report_debug(fresh),
                    "shape {:?}, mean {}, seed {seed}, learning {learning}",
                    config.trace.shape,
                    config.trace.mean
                );
            }
        }
    }
    // Three configs at two seeds; the policy never changes the trace.
    assert_eq!(store.len(), 6);
}

#[test]
fn only_equal_effective_configs_share_a_trace() {
    let store = TraceStore::new();
    let base = ColoConfig::paper_default().with_trace_len(1440).trace;
    let mut variants = vec![(base, 1)];
    let mut mean = base;
    mean.mean = Power::from_kilowatts(5.0);
    variants.push((mean, 1));
    let mut shape = base;
    shape.shape = TraceShape::Google;
    variants.push((shape, 1));
    variants.push((base, 2));
    let mut trace_seed = base;
    trace_seed.seed += 5;
    variants.push((trace_seed, 1));
    variants.push((base.with_len(1441), 1));

    let traces: Vec<_> = variants
        .iter()
        .map(|(config, seed)| store.trace(config, *seed))
        .collect();
    for (i, a) in traces.iter().enumerate() {
        for (j, b) in traces.iter().enumerate().skip(i + 1) {
            assert!(
                !std::sync::Arc::ptr_eq(a, b),
                "variants {i} and {j} must not share a trace"
            );
        }
    }
    assert_eq!(store.len(), variants.len());

    // Asking again hands back the same allocation, and so does any config
    // whose trace seed plus simulation seed sums to the same effective seed.
    assert!(std::sync::Arc::ptr_eq(&store.trace(&base, 1), &traces[0]));
    let mut shifted = base;
    shifted.seed += 1;
    assert!(std::sync::Arc::ptr_eq(
        &store.trace(&shifted, 0),
        &traces[0]
    ));
    assert_eq!(store.len(), variants.len());

    // Simulations built through the store alias the stored trace.
    let a = store.simulation(
        ColoConfig::paper_default().with_trace_len(1440),
        policy(false, 1),
        1,
    );
    let b = store.simulation(
        ColoConfig::paper_default().with_trace_len(1440),
        policy(true, 1),
        1,
    );
    assert!(std::ptr::eq(a.trace(), b.trace()));
    assert!(std::ptr::eq(a.trace(), &*traces[0]));
}

#[test]
fn one_store_serves_parallel_workers_identically() {
    // Every config at two seeds, each twice, so workers race for the same
    // keys as well as for different ones.
    let jobs: Vec<(ColoConfig, u64, bool)> = configs()
        .into_iter()
        .flat_map(|config| {
            [(1, false), (1, true), (7, false), (7, true)]
                .map(|(seed, learning)| (config.clone(), seed, learning))
        })
        .collect();
    let run = |threads: usize| {
        hbm_par::configure_threads(threads);
        let store = TraceStore::new();
        let reports = hbm_par::par_map(jobs.clone(), |(config, seed, learning)| {
            report_debug(store.simulation(config, policy(learning, seed), seed))
        });
        (reports, store.len())
    };
    let (serial, serial_len) = run(1);
    let (parallel, parallel_len) = run(4);
    hbm_par::configure_threads(1);
    assert_eq!(serial, parallel, "reports differ between 1 and 4 threads");
    assert_eq!((serial_len, parallel_len), (6, 6));
    let fresh: Vec<String> = jobs
        .into_iter()
        .map(|(config, seed, learning)| {
            report_debug(Simulation::new(config, policy(learning, seed), seed))
        })
        .collect();
    assert_eq!(serial, fresh, "stored-trace reports differ from fresh ones");
}

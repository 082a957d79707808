//! End-to-end simulator benchmarks (Table I defaults; Figs. 8, 9, 11, 12,
//! 13): one simulated day per attack policy, plus the one-shot scenario.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use hbm_battery::BatterySpec;
use hbm_core::{
    ColoConfig, ForesightedPolicy, MyopicPolicy, OneShotPolicy, RandomPolicy, Simulation,
};
use hbm_units::Power;

const DAY: u64 = 1440;

fn sim_day(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_one_day");
    group.sample_size(20);

    group.bench_function("baseline_no_attack", |b| {
        b.iter_batched(
            || {
                let config = ColoConfig::paper_default().with_trace_len(2 * DAY as usize);
                Simulation::new(config, MyopicPolicy::new(Power::from_kilowatts(99.0)), 1)
            },
            |mut sim| black_box(sim.run(DAY)),
            BatchSize::SmallInput,
        );
    });

    group.bench_function("random_policy", |b| {
        b.iter_batched(
            || {
                let config = ColoConfig::paper_default().with_trace_len(2 * DAY as usize);
                let policy = RandomPolicy::new(0.08, config.attack_load, config.slot, 1);
                Simulation::new(config, policy, 1)
            },
            |mut sim| black_box(sim.run(DAY)),
            BatchSize::SmallInput,
        );
    });

    group.bench_function("myopic_policy", |b| {
        b.iter_batched(
            || {
                let config = ColoConfig::paper_default().with_trace_len(2 * DAY as usize);
                Simulation::new(config, MyopicPolicy::new(Power::from_kilowatts(7.4)), 1)
            },
            |mut sim| black_box(sim.run(DAY)),
            BatchSize::SmallInput,
        );
    });

    group.bench_function("foresighted_learning", |b| {
        b.iter_batched(
            || {
                let config = ColoConfig::paper_default().with_trace_len(2 * DAY as usize);
                Simulation::new(config, ForesightedPolicy::paper_default(14.0, 1), 1)
            },
            |mut sim| black_box(sim.run(DAY)),
            BatchSize::SmallInput,
        );
    });

    group.bench_function("one_shot_scenario", |b| {
        b.iter_batched(
            || {
                let mut config = ColoConfig::paper_default().with_trace_len(2 * DAY as usize);
                config.battery = BatterySpec::one_shot();
                config.attack_load = Power::from_kilowatts(3.0);
                Simulation::new(config, OneShotPolicy::new(Power::from_kilowatts(7.6)), 1)
            },
            |mut sim| black_box(sim.run(DAY)),
            BatchSize::SmallInput,
        );
    });

    group.finish();
}

criterion_group!(benches, sim_day);
criterion_main!(benches);

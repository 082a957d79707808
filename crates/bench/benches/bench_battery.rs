//! Battery-model benchmarks (Fig. 7b): charge/discharge stepping and the
//! UPS validation experiment.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use hbm_battery::{ups_experiment, Battery, BatterySpec, UpsExperiment};
use hbm_units::{Duration, Power};

fn battery(c: &mut Criterion) {
    c.bench_function("battery_full_cycle", |b| {
        b.iter_batched(
            || Battery::empty(BatterySpec::paper_default()),
            |mut battery| {
                let dt = Duration::from_minutes(1.0);
                for _ in 0..70 {
                    battery.charge(black_box(Power::from_kilowatts(0.2)), dt);
                }
                for _ in 0..15 {
                    battery.discharge(black_box(Power::from_kilowatts(1.0)), dt);
                }
                battery.stored()
            },
            BatchSize::SmallInput,
        );
    });

    c.bench_function("fig7b_ups_experiment", |b| {
        let exp = UpsExperiment::default();
        b.iter(|| ups_experiment(black_box(&exp)));
    });
}

criterion_group!(benches, battery);
criterion_main!(benches);

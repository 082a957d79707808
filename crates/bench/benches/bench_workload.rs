//! Workload-generation benchmarks (Figs. 6b, 13a): default and alternate
//! trace synthesis at day and month lengths. The full-year trace every
//! simulation pays for is pinned in `bench_thermal` (`trace_year_generation`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use hbm_workload::{generate, TraceConfig, TraceShape};

fn traces(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_generation");
    for shape in TraceShape::ALL {
        for (label, days) in [("day", 1usize), ("month", 30)] {
            group.bench_with_input(
                BenchmarkId::new(shape.to_string(), label),
                &days,
                |b, &days| {
                    let mut config = TraceConfig::paper_default_year(1);
                    config.shape = shape;
                    config.len = days * 1440;
                    b.iter(|| generate(black_box(&config)));
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, traces);
criterion_main!(benches);

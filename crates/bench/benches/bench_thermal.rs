//! Thermal-substrate benchmarks (Figs. 7a, 11a, 14a): the zone model, the
//! CFD-lite transient, heat-matrix extraction, year-long trace synthesis
//! (alone and as a batch's lockstep heads), and end-to-end simulator
//! throughput.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use hbm_bench::gather::GatherHeatMatrixModel;
use hbm_core::{
    BatchSim, ColoConfig, ForesightedPolicy, MyopicPolicy, Perturbation, Scenario, Simulation,
    StateTree,
};
use hbm_thermal::{extract_heat_matrix, CfdConfig, CfdModel, HeatMatrixModel, ZoneModel};
use hbm_units::{Duration, Power, Temperature};
use hbm_workload::{generate, generate_heads, TraceConfig};

fn zone_model(c: &mut Criterion) {
    c.bench_function("zone_step_one_minute", |b| {
        let mut zone = ZoneModel::paper_default();
        b.iter(|| {
            zone.step(
                black_box(Power::from_kilowatts(8.5)),
                Duration::from_minutes(1.0),
            )
        });
    });

    c.bench_function("zone_fig11a_overload_sweep", |b| {
        let zone = ZoneModel::paper_default();
        let t32 = Temperature::from_celsius(32.0);
        b.iter(|| {
            let mut total = Duration::ZERO;
            for kw in [0.25, 0.5, 1.0, 1.5, 2.0, 3.0] {
                total += zone.time_to_reach(t32, Power::from_kilowatts(black_box(kw)));
            }
            total
        });
    });

    c.bench_function("zone_fig14a_prototype_overload", |b| {
        b.iter_batched(
            ZoneModel::prototype,
            |mut zone| {
                let load = zone.cooling().capacity + Power::from_kilowatts(1.5);
                zone.step(black_box(load), Duration::from_minutes(5.0))
            },
            BatchSize::SmallInput,
        );
    });
}

fn cfd_model(c: &mut Criterion) {
    c.bench_function("cfd_step_one_minute_40_servers", |b| {
        let config = CfdConfig::paper_default();
        let mut cfd = CfdModel::new(config);
        let powers = vec![Power::from_watts(195.0); config.server_count()];
        b.iter(|| {
            cfd.step(black_box(&powers), Duration::from_minutes(1.0));
            cfd.mean_inlet()
        });
    });

    // Same kernel with the telemetry spans live: the delta against the run
    // above is the full cost of `--timings` instrumentation (one clock
    // read pair plus a mutex-guarded map update per step).
    c.bench_function("cfd_step_one_minute_40_servers_timed", |b| {
        let config = CfdConfig::paper_default();
        let mut cfd = CfdModel::new(config);
        let powers = vec![Power::from_watts(195.0); config.server_count()];
        hbm_telemetry::timing::set_timings_enabled(true);
        b.iter(|| {
            cfd.step(black_box(&powers), Duration::from_minutes(1.0));
            cfd.mean_inlet()
        });
        hbm_telemetry::timing::set_timings_enabled(false);
        hbm_telemetry::timing::reset_timings();
    });

    c.bench_function("heat_matrix_model_step_40_servers", |b| {
        let config = CfdConfig::paper_default();
        let n = config.server_count();
        let baseline = vec![Power::from_watts(150.0); n];
        let mut model = HeatMatrixModel::from_cfd(
            &config,
            &baseline,
            Power::from_watts(300.0),
            Duration::from_minutes(10.0),
            Duration::from_minutes(1.0),
        );
        let mut excursion = baseline.clone();
        excursion[3] = Power::from_watts(420.0);
        b.iter(|| model.step(black_box(&excursion)));
    });

    // Allocation-free entry point with a reused output buffer — the shape
    // hot loops are expected to use.
    c.bench_function("heat_matrix_model_step_into_40_servers", |b| {
        let config = CfdConfig::paper_default();
        let n = config.server_count();
        let baseline = vec![Power::from_watts(150.0); n];
        let mut model = HeatMatrixModel::from_cfd(
            &config,
            &baseline,
            Power::from_watts(300.0),
            Duration::from_minutes(10.0),
            Duration::from_minutes(1.0),
        );
        let mut excursion = baseline.clone();
        excursion[3] = Power::from_watts(420.0);
        let mut out = vec![0.0; n];
        b.iter(|| {
            model.step_into(black_box(&excursion), &mut out);
            out[0]
        });
    });

    // The pre-scatter gather kernel, same work as above: the baseline the
    // scatter-on-arrival HeatMatrixModel is measured against.
    c.bench_function("heat_matrix_model_step_40_servers_gather_baseline", |b| {
        let config = CfdConfig::paper_default();
        let n = config.server_count();
        let baseline = vec![Power::from_watts(150.0); n];
        let model = HeatMatrixModel::from_cfd(
            &config,
            &baseline,
            Power::from_watts(300.0),
            Duration::from_minutes(10.0),
            Duration::from_minutes(1.0),
        );
        let mut reference = GatherHeatMatrixModel::from_model(&model);
        let mut excursion = baseline.clone();
        excursion[3] = Power::from_watts(420.0);
        b.iter(|| reference.step(black_box(&excursion)));
    });

    let mut group = c.benchmark_group("matrix");
    group.sample_size(10);
    let small = CfdConfig {
        racks: 1,
        servers_per_rack: 4,
        ..CfdConfig::paper_default()
    };
    let baseline = vec![Power::from_watts(150.0); 4];
    let extract = |config: &CfdConfig| {
        extract_heat_matrix(
            black_box(config),
            &baseline,
            Power::from_watts(120.0),
            Duration::from_minutes(5.0),
            Duration::from_minutes(1.0),
        )
    };
    group.bench_function("heat_matrix_extraction_4_servers_cold", |b| {
        b.iter(|| extract(&small));
    });
    group.finish();
}

/// End-to-end steady-loop throughput: one simulated minute-slot per
/// iteration (median_ns → slots/sec is printed by
/// `scripts/bench_summary.sh`). The paper-default colocation (40 servers),
/// learning attacker, wrapping two-day trace.
fn sim_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_step_slots_per_sec");
    group.sample_size(20);

    group.bench_function("recorder_off", |b| {
        let config = ColoConfig::paper_default().with_trace_len(2 * 1440);
        let mut sim = Simulation::new(config, ForesightedPolicy::paper_default(14.0, 1), 1);
        sim.warmup(1440);
        b.iter(|| black_box(sim.step()));
    });

    // The `recorder_off` scenario as the only lane of a `BatchSim`: what a
    // `Simulation` built as a one-lane handle on the batch engine would pay
    // per slot.
    group.bench_function("one_lane_batch", |b| {
        let config = ColoConfig::paper_default().with_trace_len(2 * 1440);
        let mut sim = Simulation::new(config, ForesightedPolicy::paper_default(14.0, 1), 1);
        sim.warmup(1440);
        let mut batch = BatchSim::new(vec![sim]);
        b.iter(|| black_box(batch.step_all()));
    });

    group.finish();
}

/// Fleet-scale aggregate throughput: one iteration advances all 1000 sites
/// by one slot, so aggregate slots/sec = 1000 × 1e9 / median_ns (the
/// headline `scripts/bench_summary.sh` prints). The batched engine and the
/// independent baseline step identical fleets — one seed per site, the
/// myopic always-on attacker — so the ratio is pure engine speedup.
fn fleet_throughput(c: &mut Criterion) {
    const SITES: usize = 1000;
    let fleet = || -> Vec<Simulation> {
        let config = ColoConfig::paper_default().with_trace_len(2 * 1440);
        (0..SITES)
            .map(|i| {
                let seed = 1u64.wrapping_add(1 + i as u64 * 1299721);
                Simulation::new(
                    config.clone(),
                    MyopicPolicy::new(Power::from_kilowatts(7.4)),
                    seed,
                )
            })
            .collect()
    };

    let mut group = c.benchmark_group("fleet_slots_per_sec");
    group.sample_size(10);

    // Built and stepped through its first trace window once, outside the
    // per-sample closure: samples then time steady slots, with the window
    // refill paid once per `BatchSim::TRACE_WINDOW` slots as in a real run,
    // not a fresh batch's first steps.
    let mut batch = BatchSim::new(fleet());
    batch.run(BatchSim::TRACE_WINDOW as u64);
    group.bench_function("batched", |b| b.iter(|| black_box(batch.step_all())));

    let mut sims = fleet();
    group.bench_function("independent_baseline", |b| {
        b.iter(|| {
            let mut down = 0u32;
            for sim in &mut sims {
                down += u32::from(sim.step().outage);
            }
            black_box(down)
        });
    });

    group.finish();
}

/// Learning-fleet aggregate throughput: the same shape as
/// `fleet_slots_per_sec`, but every site runs the foresighted Q-learning
/// attacker with the teacher phase disabled, so each slot performs the
/// full learning step — ε/learning-rate schedule evaluation, ε-greedy
/// action selection, and the TD update. Both engines call the same
/// `Policy::decide`/`learn`; the independent baseline steps the identical
/// fleet one `Simulation` at a time, so the ratio is pure batch-engine
/// speedup.
fn learning_fleet_throughput(c: &mut Criterion) {
    const SITES: usize = 1000;
    let fleet = || -> Vec<Simulation> {
        let config = ColoConfig::paper_default().with_trace_len(2 * 1440);
        (0..SITES)
            .map(|i| {
                let seed = 1u64.wrapping_add(1 + i as u64 * 1299721);
                let mut policy = ForesightedPolicy::paper_default(14.0, seed);
                policy.set_teacher(Power::from_kilowatts(7.56), 0);
                Simulation::new(config.clone(), policy, seed)
            })
            .collect()
    };

    let mut group = c.benchmark_group("learning_fleet_slots_per_sec");
    group.sample_size(10);

    // Built and stepped through its first trace window once, outside the
    // per-sample closure: samples then time steady slots, with the window
    // refill paid once per `BatchSim::TRACE_WINDOW` slots as in a real run,
    // not a fresh batch's first steps.
    let mut batch = BatchSim::new(fleet());
    batch.run(BatchSim::TRACE_WINDOW as u64);
    group.bench_function("batched", |b| b.iter(|| black_box(batch.step_all())));

    let mut sims = fleet();
    group.bench_function("independent", |b| {
        b.iter(|| {
            let mut down = 0u32;
            for sim in &mut sims {
                down += u32::from(sim.step().outage);
            }
            black_box(down)
        });
    });

    group.finish();
}

/// One year of 1-minute default-shape benign power (525 600 slots): the
/// trace synthesis every simulator construction pays, and what a
/// `fork_vs_rerun/rerun` pays that a fork does not.
///
/// Then the traces of a served 8-site, one-day batch: 8 paper-default
/// years (seeds 1–8) synthesized in one lockstep pass, each keeping only
/// the 1440 slots the run reads.
///
/// Then a fleet lane's week (Figs. 6b, 13a draw from the same synthesis):
/// 10 080 default-shape slots, where the diurnal memo is still filling, so
/// the `sin`/`tanh` calls of its misses dominate.
fn trace_synthesis(c: &mut Criterion) {
    c.bench_function("trace_year_generation", |b| {
        let config = TraceConfig::paper_default_year(1);
        b.iter(|| generate(black_box(&config)).mean());
    });
    c.bench_function("trace_week_generation", |b| {
        let config = TraceConfig::paper_default_year(1).with_len(7 * 1440);
        b.iter(|| generate(black_box(&config)).mean());
    });
    c.bench_function("trace_heads_8_sites_one_day", |b| {
        let configs: Vec<TraceConfig> = (1..=8).map(TraceConfig::paper_default_year).collect();
        b.iter(|| generate_heads(black_box(&configs), 1440).len());
    });
}

/// What-if branching cost: answering "what if the attack intensifies at
/// slot 7200?" by forking the live run (`Simulation::fork` + a
/// [`StateTree`] branch stepped 60 slots) versus re-simulating the whole
/// 7200-slot prefix from slot 0 and then stepping the same 60 slots. The
/// ratio of the two medians is the fork speedup `scripts/perf_guard.sh`
/// gates (the fork must stay ≥ cheap relative to the rerun).
fn fork_vs_rerun(c: &mut Criterion) {
    const FORK_SLOT: u64 = 7200;
    const BRANCH_SLOTS: u64 = 60;
    let scenario = {
        let mut s = Scenario::new("myopic");
        s.days = 6;
        s.warmup_days = 0;
        s.seed = 1;
        s
    };
    let hotter = Perturbation {
        attack_load_kw: Some(3.0),
        battery_kwh: Some(1.0),
        ..Perturbation::default()
    };

    let mut group = c.benchmark_group("fork_vs_rerun");
    group.sample_size(10);

    // One trunk for every sample, like the fleets above: a sample times
    // forks of a live run, not the first fork after a fresh rebuild.
    let (mut trunk, _) = scenario.build_sim().expect("bench scenario builds");
    trunk.run(FORK_SLOT);
    group.bench_function("fork", |b| {
        b.iter(|| {
            let mut tree = StateTree::new(trunk.fork(), scenario.clone());
            tree.branch("hotter", &hotter).expect("branch applies");
            tree.run(BRANCH_SLOTS);
            black_box(tree.first_divergence())
        });
    });

    group.bench_function("rerun", |b| {
        b.iter(|| {
            let (mut sim, _) = scenario.build_sim().expect("bench scenario builds");
            sim.run(FORK_SLOT + BRANCH_SLOTS);
            black_box(sim.metrics().slots)
        });
    });

    group.finish();
}

criterion_group!(
    benches,
    zone_model,
    cfd_model,
    sim_throughput,
    fleet_throughput,
    learning_fleet_throughput,
    trace_synthesis,
    fork_vs_rerun
);
criterion_main!(benches);

//! Layer probes: the public functions each serve request class passes
//! through, timed from the benchmark's own code on the inputs the `serve`
//! sequence sends (spans inside the program are a separate concern).

use std::hint::black_box;
use std::io::Cursor;
use std::time::Instant;

use hbm_core::scenario::{metrics_json, run_scenarios_batch, BatchScenario};
use hbm_core::{ColoConfig, Scenario};
use hbm_serve::cache::ScenarioCache;
use hbm_serve::experiment::{Supervisor, SupervisorConfig};
use hbm_serve::http::read_request;
use hbm_serve::routes::route;

use crate::report::{Kind, Report};
use crate::seq::{self, Class, STEP_SLOTS};
use crate::stats::median;

/// Median milliseconds of `reps` calls of `f`.
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples).expect("reps > 0")
}

/// Median per-call milliseconds over `batches` batches of `per_batch`
/// calls — for calls too short to time one at a time.
fn time_batched_ms<T>(batches: usize, per_batch: usize, mut f: impl FnMut() -> T) -> f64 {
    time_ms(batches, || {
        for _ in 0..per_batch {
            black_box(f());
        }
    }) / per_batch as f64
}

/// Probe medians the serve classes are attributed from, milliseconds.
pub struct Layers {
    http_parse: f64,
    route: f64,
    scenario_parse: f64,
    cache_lookup: f64,
    metrics_json: f64,
    scenario_run: f64,
    run_batch: f64,
    supervisor_step: f64,
    supervisor_state: f64,
}

impl Layers {
    /// The summed layer medians one request of `class` passes through.
    pub fn class_layers_ms(&self, class: Class) -> f64 {
        let front = self.http_parse + self.route;
        front
            + match class {
                Class::Step => self.supervisor_step,
                Class::State => self.supervisor_state,
                Class::Hit => self.scenario_parse + self.cache_lookup,
                Class::Miss => {
                    self.scenario_parse + self.cache_lookup + self.scenario_run + self.metrics_json
                }
                Class::Batch => {
                    self.scenario_parse
                        + self.run_batch
                        + seq::BATCH_SITES as f64 * (self.cache_lookup + self.metrics_json)
                }
            }
    }
}

/// Runs every probe (spans off) and records it as a per-layer metric.
pub fn run(seed: u64, report: &mut Report) -> Layers {
    let warm = seq::warm_seeds(seed)[0];
    let body = seq::simulate_body(warm);
    let scenario = Scenario::from_flat_json(&body).expect("sequence bodies parse");
    let canonical = scenario.config_canonical();
    let bytes = seq::post("/v1/simulate", &body);

    let generate_ms = time_ms(5, || {
        hbm_workload::generate(&ColoConfig::paper_default().trace)
    });
    let build_sim_ms = time_ms(5, || scenario.build_sim().expect("builds"));
    let scenario_run_ms = time_ms(5, || scenario.run().expect("runs"));
    let batch = BatchScenario::from_flat_json(&seq::batch_body(warm)).expect("parses");
    let run_batch_ms = time_ms(3, || run_scenarios_batch(&batch.sites()).expect("runs"));

    let http_parse = time_ms(2000, || {
        read_request(&mut Cursor::new(&bytes)).expect("parses")
    });
    let route_ms = time_batched_ms(50, 1000, || {
        route("POST", "/v1/experiments/exp-000001/step")
    });
    let scenario_parse = time_ms(2000, || Scenario::from_flat_json(&body).expect("parses"));
    let cache = ScenarioCache::new(16);
    let metrics = scenario.run().expect("runs").metrics;
    let rendered = metrics_json(&canonical, &metrics);
    let _ = cache.get_or_compute(&canonical, || Ok(rendered.clone()));
    let cache_lookup = time_ms(2000, || {
        cache.get_or_compute(&canonical, || unreachable!("warm key"))
    });
    let metrics_json_ms = time_ms(2000, || metrics_json(&canonical, &metrics));

    let supervisor = Supervisor::new(SupervisorConfig::default(), None);
    let creates: Vec<f64> = seq::experiment_bodies(seed)
        .iter()
        .flat_map(|b| {
            let s = Scenario::from_flat_json(b).expect("parses");
            (0..3)
                .map(|_| {
                    let t = Instant::now();
                    supervisor.create(s.clone()).expect("creates");
                    t.elapsed().as_secs_f64() * 1e3
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let ids: Vec<String> = supervisor.list().into_iter().map(|(id, _)| id).collect();
    let mut k = 0;
    let supervisor_step = time_ms(20, || {
        k += 1;
        supervisor
            .step(&ids[k % ids.len()], STEP_SLOTS)
            .expect("steps")
    });
    let supervisor_state = time_ms(200, || supervisor.state_of(&ids[0]).expect("reads"));

    let (mut sim, warmup) = Scenario::from_flat_json(&seq::experiment_bodies(seed)[0])
        .expect("parses")
        .build_sim()
        .expect("builds");
    if warmup {
        sim.warmup(1440);
    }
    let snapshot_ms = time_ms(200, || sim.snapshot());
    let snap = sim.snapshot();
    let to_json_ms = time_ms(200, || snap.to_json());
    let mut step_ns = Vec::new();
    for body in seq::experiment_bodies(seed) {
        let (mut sim, _) = Scenario::from_flat_json(&body)
            .expect("parses")
            .build_sim()
            .expect("builds");
        step_ns.push(
            time_ms(5, || {
                for _ in 0..STEP_SLOTS {
                    black_box(sim.step());
                }
            }) * 1e6
                / STEP_SLOTS as f64,
        );
    }

    for (name, value, unit) in [
        ("workload.generate_ms", generate_ms, "ms"),
        ("core.build_sim_ms", build_sim_ms, "ms"),
        ("core.scenario_run_ms", scenario_run_ms, "ms"),
        ("core.run_scenarios_batch_ms", run_batch_ms, "ms"),
        ("core.sim_step_ns_foresighted", step_ns[0], "ns"),
        ("core.sim_step_ns_myopic", step_ns[1], "ns"),
        ("core.snapshot_us", snapshot_ms * 1e3, "us"),
        ("core.snapshot_to_json_us", to_json_ms * 1e3, "us"),
        ("serve.http_parse_us", http_parse * 1e3, "us"),
        ("serve.route_ns", route_ms * 1e6, "ns"),
        ("serve.scenario_parse_us", scenario_parse * 1e3, "us"),
        ("serve.cache_lookup_us", cache_lookup * 1e3, "us"),
        ("serve.metrics_json_us", metrics_json_ms * 1e3, "us"),
        (
            "serve.supervisor_create_ms",
            median(&creates).expect("creates ran"),
            "ms",
        ),
        ("serve.supervisor_step_ms", supervisor_step, "ms"),
        ("serve.supervisor_state_us", supervisor_state * 1e3, "us"),
    ] {
        report.metric(Kind::Layer, name, value, unit);
    }
    Layers {
        http_parse,
        route: route_ms,
        scenario_parse,
        cache_lookup,
        metrics_json: metrics_json_ms,
        scenario_run: scenario_run_ms,
        run_batch: run_batch_ms,
        supervisor_step,
        supervisor_state,
    }
}

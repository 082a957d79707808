//! `experiments` — regenerates every table and figure of *Heat Behind the
//! Meter* (HPCA 2021) from the workspace simulator.
//!
//! ```text
//! experiments <id>... [--days N] [--warmup-days N] [--seed N] [--out DIR] [--jobs N]
//!                     [--trace DIR] [--timings] [--timings-json FILE]
//! experiments all [--days N] ...
//! experiments simulate --policy NAME [--days N] [--warmup-days N] [--seed N]
//!                      [--util F] [--attack-load-kw F] [--battery-kwh F]
//!                      [--threshold-c F] [--cap-w F]
//! experiments client [--addr HOST:PORT] <create|list|step|perturb|state|metrics|delete> ...
//! experiments whatif --policy NAME [--fork-at SLOT] [--slots N] [--variant key=value[,...]]...
//! ```
//!
//! Each experiment prints a summary table and writes the full data series
//! to `<out>/<id>.csv`. `--days` shortens the measured horizon (the paper
//! uses a year; smoke runs are fine with 30–60 days).
//!
//! `simulate` runs a single declarative scenario through the shared
//! [`hbm_core::scenario`] code path and prints one flat-JSON metrics line —
//! byte-identical to the body `hbm-serve` returns for the same
//! configuration (see `docs/SERVICE.md`).
//!
//! `client` drives a running `hbm-serve` daemon's sessionful experiment
//! API over TCP — create, step, perturb, inspect, and delete long-lived
//! experiments without writing HTTP by hand (see [`client`]).
//!
//! `whatif` forks one scenario at a chosen slot into a control branch
//! plus per-`--variant` branches ([`hbm_core::StateTree`]) and prints a
//! lockstep comparison — where the futures diverge and how their
//! outcomes differ — without re-simulating the shared prefix (see
//! [`whatif`]).
//!
//! `--jobs N` runs independent experiments on up to `N` threads (0 = one
//! per core); sweeps inside an experiment parallelize too, all drawing
//! from the same thread budget. Every simulation is seeded per run, and
//! each experiment's console output is buffered and flushed in submission
//! order, so tables stay uninterleaved and CSVs are byte-identical
//! whatever `--jobs` is.
//!
//! `--trace DIR` additionally writes one JSONL telemetry trace per traced
//! run (currently fig8, fig9, and the defense residual detector) plus a
//! `manifest.json` run manifest; `--timings` aggregates wall-clock spans
//! around the hot kernels and prints a report (`--timings-json FILE` also
//! writes them as criterion-shaped JSON). See `docs/TELEMETRY.md`.

mod client;
mod common;
mod figs_attack;
mod figs_defense;
mod figs_extra;
mod figs_infra;
mod figs_perf;
mod figs_sense;
mod whatif;

use common::{Options, Sink};

type Runner = fn(&Options, &mut Sink);

const EXPERIMENTS: &[(&str, Runner)] = &[
    ("table1", figs_infra::table1),
    ("fig5b", figs_infra::fig5b),
    ("fig6b", figs_infra::fig6b),
    ("fig7a", figs_infra::fig7a),
    ("fig7b", figs_infra::fig7b),
    ("fig8", figs_attack::fig8),
    ("fig9", figs_attack::fig9),
    ("fig10", figs_attack::fig10),
    ("fig11a", figs_sense::fig11a),
    ("fig11bc", figs_attack::fig11bc),
    ("fig11d", figs_attack::fig11d),
    ("fig12a", figs_sense::fig12a),
    ("fig12b", figs_sense::fig12b),
    ("fig12c", figs_sense::fig12c),
    ("fig12d", figs_sense::fig12d),
    ("fig12e", figs_sense::fig12e),
    ("fig13a", figs_infra::fig13a),
    ("fig13b", figs_attack::fig13b),
    ("fig14a", figs_infra::fig14a),
    ("fig14b", figs_perf::fig14b),
    ("fig15", figs_perf::fig15),
    ("cost", figs_attack::cost),
    ("defense", figs_defense::defense),
    ("ablation", figs_extra::ablation),
    ("defense_roc", figs_extra::defense_roc),
    ("latency_validation", figs_extra::latency_validation),
    ("placement", figs_extra::placement),
    ("outlet_only", figs_extra::outlet_only),
    ("setpoint", figs_extra::setpoint),
];

fn usage() {
    eprintln!("usage: experiments <id>... | all   [--days N] [--warmup-days N] [--seed N] [--out DIR] [--jobs N] [--trace DIR] [--timings] [--timings-json FILE]");
    eprintln!("       experiments simulate --policy NAME [--days N] [--warmup-days N] [--seed N] [--util F] [--attack-load-kw F] [--battery-kwh F] [--threshold-c F] [--cap-w F]");
    eprintln!("       experiments client [--addr HOST:PORT] <create|list|step|perturb|state|metrics|delete> ...");
    eprintln!("       experiments whatif --policy NAME [--fork-at SLOT] [--slots N] [--variant key=value[,...]]...");
    eprintln!("available experiments:");
    for (name, _) in EXPERIMENTS {
        eprintln!("  {name}");
    }
}

/// `experiments simulate ...`: one declarative scenario, one flat-JSON
/// metrics line on stdout. The scenario is built, keyed, run, and
/// serialized by [`hbm_core::scenario`] — exactly the code path behind
/// `hbm-serve`'s `POST /v1/simulate`, so the printed line is
/// byte-identical to the served response body for the same configuration.
fn run_simulate(opts: &Options, args: &[String]) -> Result<(), String> {
    let mut scenario = opts.scenario();
    let mut overrides = hbm_core::Perturbation::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--policy" {
            scenario.policy = common::take_policy(&mut it)?;
        } else if !common::take_override(&mut overrides, arg, &mut it)? {
            return Err(format!("unknown simulate argument {arg:?}"));
        }
    }
    if scenario.policy.is_empty() {
        return Err("simulate requires --policy NAME".into());
    }
    let scenario = overrides.apply(&scenario);
    let report = scenario.run()?;
    println!(
        "{}",
        hbm_core::scenario::metrics_json(&scenario.config_canonical(), &report.metrics)
    );
    Ok(())
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (opts, ids) = match Options::parse(&raw) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            std::process::exit(2);
        }
    };
    if ids.is_empty() {
        usage();
        std::process::exit(2);
    }
    if ids[0] == "simulate" {
        // Same contract as whatif: simulate prints one JSON report to
        // stdout — it writes no CSVs, runs a single lane, and records no
        // spans, so silently accepting the harness-wide flags would look
        // like they worked. Fail loudly instead.
        const UNSUPPORTED: &[&str] = &["--out", "--jobs", "--trace", "--timings", "--timings-json"];
        if let Some(flag) = raw.iter().find(|a| UNSUPPORTED.contains(&a.as_str())) {
            eprintln!("error: simulate does not support {flag}");
            usage();
            std::process::exit(2);
        }
        if let Err(e) = run_simulate(&opts, &ids[1..]) {
            eprintln!("error: {e}");
            usage();
            std::process::exit(2);
        }
        return;
    }
    if ids[0] == "whatif" {
        // The shared option parser consumes the harness-wide output and
        // parallelism flags, but whatif writes no CSVs, runs serially,
        // and records no spans — silently accepting these would look
        // like they worked. Fail loudly instead (the convention since
        // output I/O errors became fatal).
        const UNSUPPORTED: &[&str] = &["--out", "--jobs", "--trace", "--timings", "--timings-json"];
        if let Some(flag) = raw.iter().find(|a| UNSUPPORTED.contains(&a.as_str())) {
            eprintln!("error: whatif does not support {flag}");
            eprintln!("{}", whatif::USAGE);
            std::process::exit(2);
        }
        if let Err(e) = whatif::run_whatif(&opts, &ids[1..]) {
            eprintln!("error: {e}");
            eprintln!("{}", whatif::USAGE);
            std::process::exit(2);
        }
        return;
    }
    if ids[0] == "client" {
        if let Err(e) = client::run_client(&opts, &ids[1..]) {
            eprintln!("error: {e}");
            eprintln!("{}", client::USAGE);
            std::process::exit(2);
        }
        return;
    }

    // Expand and validate up front so an unknown id fails before any work.
    let mut runs: Vec<(&str, Runner)> = Vec::new();
    for id in &ids {
        if id == "all" {
            runs.extend(EXPERIMENTS.iter().copied());
            continue;
        }
        match EXPERIMENTS.iter().find(|(name, _)| name == id) {
            Some(&entry) => runs.push(entry),
            None => {
                eprintln!("error: unknown experiment {id:?} (try `experiments` with no args for the list)");
                std::process::exit(2);
            }
        }
    }

    hbm_par::configure_threads(opts.jobs.max(1));
    if opts.timings {
        hbm_telemetry::timing::set_timings_enabled(true);
        // Pre-register the well-known kernel spans so the report always
        // names them, even for experiments that never enter a kernel
        // (e.g. fig9 uses the zone model, not the CFD model).
        for span in [
            "cfd.substep",
            "heat_matrix.convolve",
            "heat_matrix.extract",
            "matrix.scatter",
            "zone.step",
            "sim.step",
            "rl.batch_update",
            "rl.q_update",
        ] {
            hbm_telemetry::timing::declare_span(span);
        }
    }
    let start = std::time::Instant::now();
    let count = runs.len();
    let mut io_errors = 0;
    if opts.jobs <= 1 {
        // Serial path streams each experiment's output as it runs.
        let mut sink = Sink::new();
        for (_, f) in runs {
            f(&opts, &mut sink);
            sink.flush_to_stdout();
        }
        io_errors += sink.io_errors();
    } else {
        // Parallel path: run buffered, then flush whole experiments in
        // submission order so tables never interleave.
        let sinks = hbm_par::par_map(runs, |(_, f)| {
            let mut sink = Sink::new();
            f(&opts, &mut sink);
            sink
        });
        for mut sink in sinks {
            sink.flush_to_stdout();
            io_errors += sink.io_errors();
        }
    }
    if opts.timings {
        println!("\n=== kernel timing report ===");
        println!("{}", hbm_telemetry::timing::render_timing_report());
        if let Some(path) = &opts.timings_json {
            let json = hbm_telemetry::timing::timing_report_bench_json();
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                let _ = std::fs::create_dir_all(parent);
            }
            match std::fs::write(path, json + "\n") {
                Ok(()) => println!("  [json] {}", path.display()),
                Err(e) => {
                    io_errors += 1;
                    eprintln!("error: cannot write {}: {e}", path.display());
                }
            }
        }
    }
    io_errors += write_manifest(&opts, &ids, start.elapsed().as_millis() as u64);
    eprintln!(
        "\n[{count} experiment(s) in {:.1?}, --jobs {}]",
        start.elapsed(),
        opts.jobs
    );
    if io_errors > 0 {
        eprintln!("error: {io_errors} output file(s) could not be written");
        std::process::exit(1);
    }
}

/// Emits `manifest.json` alongside the CSVs (and into the trace directory,
/// when tracing) so every run records what produced it. Returns how many
/// of those files could not be written.
fn write_manifest(opts: &Options, ids: &[String], wall_clock_ms: u64) -> usize {
    let mut manifest = hbm_telemetry::RunManifest::new("experiments", opts.seed);
    manifest.hash_config(&opts.config_canonical(ids));
    manifest
        .param("ids", ids.join("+"))
        .param("days", opts.days.to_string())
        .param("warmup_days", opts.warmup_days.to_string())
        .param("timings", opts.timings.to_string())
        .param("trace", opts.trace.is_some().to_string());
    for (name, version) in [
        ("hbm-experiments", env!("CARGO_PKG_VERSION")),
        ("hbm-core", hbm_core::VERSION),
        ("hbm-telemetry", hbm_telemetry::VERSION),
    ] {
        manifest.crate_version(name, version);
    }
    manifest.jobs = opts.jobs as u64;
    manifest.wall_clock_ms = wall_clock_ms;
    let mut failed = 0;
    for dir in std::iter::once(&opts.out_dir).chain(opts.trace.as_ref()) {
        if let Err(e) = manifest.write_to_dir(dir) {
            failed += 1;
            eprintln!("error: cannot write manifest to {}: {e}", dir.display());
        }
    }
    failed
}

//! `hbm-perfbench` — the in-process half of the repository benchmark.
//!
//! ```text
//! hbm-perfbench fleet --seed N [--trace]
//! hbm-perfbench serve --seed N --serve-bin PATH [--trace]
//! ```
//!
//! Runs one workload on a thread budget of one and prints one JSON line:
//! its metrics (end-to-end, workload detail, and with `--trace` the
//! per-layer ones), per-class attempted/failed counts, and any failed
//! correctness check. `perfbench/run.py` builds this, runs it, and folds
//! the line into the benchmark's result; see `perfbench/NOTES.md`.

mod fleet;
mod probes;
mod report;
mod rss;
mod seq;
mod serve;
mod stats;

use std::path::PathBuf;

use report::{Kind, Report};

const USAGE: &str = "usage: hbm-perfbench <fleet|serve> --seed N [--serve-bin PATH] [--trace]";

/// Records every span in `names` as `span.<source>.<name>.count` and
/// `.total_ms` from the process span registry (zero when never entered).
pub(crate) fn record_spans(report: &mut Report, source: &str, names: &[&str]) {
    let spans = hbm_telemetry::timing::timing_report();
    for name in names {
        let (calls, total_ns) = spans
            .iter()
            .find(|s| s.name == *name)
            .map_or((0, 0), |s| (s.calls, s.total_ns));
        let prefix = format!("span.{source}.{name}");
        report.metric(
            Kind::Layer,
            format!("{prefix}.count"),
            calls as f64,
            "count",
        );
        report.metric(
            Kind::Layer,
            format!("{prefix}.total_ms"),
            total_ns as f64 / 1e6,
            "ms",
        );
    }
}

struct Args {
    workload: String,
    seed: u64,
    serve_bin: Option<PathBuf>,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut it = raw.iter();
    let workload = it.next().ok_or("missing workload")?.clone();
    let mut args = Args {
        workload,
        seed: 1,
        serve_bin: None,
        trace: false,
    };
    while let Some(arg) = it.next() {
        let mut take = |name: &str| it.next().cloned().ok_or(format!("{name} requires a value"));
        match arg.as_str() {
            "--seed" => {
                args.seed = take("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--serve-bin" => args.serve_bin = Some(PathBuf::from(take("--serve-bin")?)),
            "--trace" => args.trace = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    hbm_par::configure_threads(1);
    let result = match (args.workload.as_str(), &args.serve_bin) {
        ("fleet", _) => Ok(fleet::run(args.seed, args.trace)),
        ("serve", Some(bin)) => serve::run(args.seed, bin, args.trace),
        ("serve", None) => Err("serve needs --serve-bin PATH".to_string()),
        (other, _) => Err(format!("unknown workload {other:?}")),
    };
    match result {
        Ok(report) => println!("{}", report.to_json(&args.workload)),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

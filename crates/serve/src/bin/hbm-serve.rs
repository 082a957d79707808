//! `hbm-serve` — the simulation-as-a-service daemon.
//!
//! ```text
//! hbm-serve [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]
//!           [--threads N] [--manifest-dir DIR] [--state-dir DIR]
//!           [--max-experiments N] [--experiment-ttl SECS]
//!           [--max-step-slots N] [--max-branches N]
//!           [--max-branch-slots N] [--timings]
//! ```
//!
//! Runs until killed. See `docs/SERVICE.md` for the endpoint reference
//! and `docs/OPERATIONS.md` for deployment and crash recovery.

use std::path::PathBuf;

use hbm_serve::{declare_spans, ServeConfig, Server};

const USAGE: &str = "usage: hbm-serve [--addr HOST:PORT] [--workers N] [--queue N] [--cache N] \
[--threads N] [--manifest-dir DIR] [--state-dir DIR] [--max-experiments N] \
[--experiment-ttl SECS] [--max-step-slots N] [--max-branches N] [--max-branch-slots N] \
[--timings]
  --addr HOST:PORT      listen address (default 127.0.0.1:7070)
  --workers N           scenario worker threads (default: available cores - 1, min 1)
  --queue N             bounded request queue capacity (default 32)
  --cache N             scenario-result cache capacity (default 256)
  --threads N           hbm-par process thread budget (default: available cores)
  --manifest-dir DIR    write a RunManifest per computed scenario under DIR
  --state-dir DIR       checkpoint experiments under DIR and restore them at boot
  --max-experiments N   live-experiment capacity; creates beyond it answer 429 (default 64)
  --experiment-ttl SECS evict experiments idle longer than SECS (default: never)
  --max-step-slots N    largest slots one step request, or warm-up plus measured
                        horizon one simulate/batch site/create, may ask for
                        (default 1000000)
  --max-branches N      what-if branch capacity per experiment (default 16)
  --max-branch-slots N  largest slots one branch-step request may ask for (default 100000)
  --timings             enable kernel timing spans (reported via logs on exit)";

struct Args {
    addr: String,
    threads: usize,
    timings: bool,
    config: ServeConfig,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut args = Args {
        addr: "127.0.0.1:7070".into(),
        threads: cores,
        timings: false,
        config: ServeConfig {
            workers: cores.saturating_sub(1).max(1),
            ..ServeConfig::default()
        },
    };
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--addr" => args.addr = take("--addr")?,
            "--workers" => {
                args.config.workers = take("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--queue" => {
                args.config.queue_capacity = take("--queue")?
                    .parse()
                    .map_err(|e| format!("--queue: {e}"))?
            }
            "--cache" => {
                args.config.cache_capacity = take("--cache")?
                    .parse()
                    .map_err(|e| format!("--cache: {e}"))?
            }
            "--threads" => {
                args.threads = take("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--manifest-dir" => {
                args.config.manifest_dir = Some(PathBuf::from(take("--manifest-dir")?))
            }
            "--state-dir" => args.config.state_dir = Some(PathBuf::from(take("--state-dir")?)),
            "--max-experiments" => {
                args.config.max_experiments = take("--max-experiments")?
                    .parse()
                    .map_err(|e| format!("--max-experiments: {e}"))?
            }
            "--experiment-ttl" => {
                let secs: u64 = take("--experiment-ttl")?
                    .parse()
                    .map_err(|e| format!("--experiment-ttl: {e}"))?;
                args.config.experiment_ttl = Some(std::time::Duration::from_secs(secs));
            }
            "--max-step-slots" => {
                args.config.max_step_slots = take("--max-step-slots")?
                    .parse()
                    .map_err(|e| format!("--max-step-slots: {e}"))?
            }
            "--max-branches" => {
                args.config.max_branches = take("--max-branches")?
                    .parse()
                    .map_err(|e| format!("--max-branches: {e}"))?
            }
            "--max-branch-slots" => {
                args.config.max_branch_slots = take("--max-branch-slots")?
                    .parse()
                    .map_err(|e| format!("--max-branch-slots: {e}"))?
            }
            "--timings" => args.timings = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.config.workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    Ok(args)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };

    hbm_par::configure_threads(args.threads.max(1));
    if args.timings {
        hbm_telemetry::timing::set_timings_enabled(true);
        declare_spans();
    }
    let workers = args.config.workers;
    let queue = args.config.queue_capacity;
    let server = match Server::bind(args.addr.as_str(), args.config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", args.addr);
            std::process::exit(1);
        }
    };
    println!(
        "hbm-serve {} listening on http://{} ({workers} workers, queue {queue})",
        hbm_serve::VERSION,
        server.local_addr()
    );
    if let Err(e) = server.run() {
        eprintln!("error: server failed: {e}");
        std::process::exit(1);
    }
    if args.timings {
        println!("{}", hbm_telemetry::timing::render_timing_report());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(flags: &[&str]) -> Result<Args, String> {
        parse_args(&flags.iter().map(|f| f.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn removed_surrogate_flag_is_an_unknown_flag() {
        let err = parse(&["--surrogate", "m.json"]).err().unwrap();
        assert_eq!(err, r#"unknown flag "--surrogate""#);
    }

    #[test]
    fn removed_surrogate_tolerance_flag_is_an_unknown_flag() {
        let err = parse(&["--surrogate-tolerance-c", "0.25"]).err().unwrap();
        assert_eq!(err, r#"unknown flag "--surrogate-tolerance-c""#);
    }
}

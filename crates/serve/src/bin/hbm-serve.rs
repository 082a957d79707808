//! `hbm-serve` — the simulation-as-a-service daemon.
//!
//! ```text
//! hbm-serve [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]
//!           [--threads N] [--manifest-dir DIR] [--state-dir DIR]
//!           [--max-experiments N] [--experiment-ttl SECS]
//!           [--max-step-slots N] [--max-branches N]
//!           [--max-branch-slots N] [--surrogate FILE]
//!           [--surrogate-tolerance-c T] [--timings]
//! ```
//!
//! Runs until killed. See `docs/SERVICE.md` for the endpoint reference
//! and `docs/OPERATIONS.md` for deployment and crash recovery.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use hbm_serve::{declare_spans, ServeConfig, Server};
use hbm_surrogate::{SurrogateModel, TieredExtractor};

const USAGE: &str = "usage: hbm-serve [--addr HOST:PORT] [--workers N] [--queue N] [--cache N] \
[--threads N] [--manifest-dir DIR] [--state-dir DIR] [--max-experiments N] \
[--experiment-ttl SECS] [--max-step-slots N] [--max-branches N] [--max-branch-slots N] \
[--surrogate FILE] [--surrogate-tolerance-c T] [--timings]
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
  --surrogate FILE      load an hbm-surrogate-v1 artifact (from `experiments surrogate fit`)
                        and answer in-region thermal queries from it; simulate and fork
                        responses then carry an X-Thermal-Tier header and /v1/metrics
                        reports surrogate_hits/misses/fallbacks
  --surrogate-tolerance-c T
                        max inlet error bound (°C, finite, >= 0) a surrogate answer may
                        carry; models with a larger measured bound fall back to
                        extraction (default 0.5; requires --surrogate)
  --timings             enable kernel timing spans (reported via logs on exit)";

struct Args {
    addr: String,
    threads: usize,
    timings: bool,
    surrogate: Option<PathBuf>,
    surrogate_tolerance_c: Option<f64>,
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
        surrogate: None,
        surrogate_tolerance_c: None,
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
            "--surrogate" => args.surrogate = Some(PathBuf::from(take("--surrogate")?)),
            "--surrogate-tolerance-c" => {
                let t: f64 = take("--surrogate-tolerance-c")?
                    .parse()
                    .map_err(|e| format!("--surrogate-tolerance-c: {e}"))?;
                if !(t.is_finite() && t >= 0.0) {
                    return Err(format!(
                        "--surrogate-tolerance-c must be finite and >= 0, got {t}"
                    ));
                }
                args.surrogate_tolerance_c = Some(t);
            }
            "--timings" => args.timings = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.config.workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    if args.surrogate_tolerance_c.is_some() && args.surrogate.is_none() {
        return Err("--surrogate-tolerance-c requires --surrogate".into());
    }
    Ok(args)
}

/// Loads the surrogate artifact at `path` into a tier with `tolerance_c`.
fn load_tier(path: &Path, tolerance_c: f64) -> Result<TieredExtractor, String> {
    let line = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let model = SurrogateModel::from_flat_json(line.trim())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(TieredExtractor::with_model(model, tolerance_c))
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args = match parse_args(&raw) {
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
    if let Some(path) = &args.surrogate {
        let tolerance = args.surrogate_tolerance_c.unwrap_or(0.5);
        let tier = match load_tier(path, tolerance) {
            Ok(tier) => tier,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        };
        let bound = tier.bound_c();
        println!(
            "surrogate tier loaded from {} (inlet bound {bound:.3e} °C, tolerance {tolerance} °C{})",
            path.display(),
            if bound <= tolerance {
                ""
            } else {
                "; bound exceeds tolerance, all queries will fall back"
            },
        );
        args.config.surrogate = Some(Arc::new(tier));
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
    fn surrogate_tolerance_must_be_finite_and_non_negative() {
        for bad in ["nan", "inf", "-inf", "-0.1"] {
            let err = parse(&["--surrogate", "m.json", "--surrogate-tolerance-c", bad])
                .err()
                .unwrap_or_else(|| panic!("tolerance {bad} was accepted"));
            assert!(err.contains("--surrogate-tolerance-c"), "{err}");
        }
        let args = parse(&["--surrogate-tolerance-c", "0", "--surrogate", "m.json"]).unwrap();
        assert_eq!(args.surrogate_tolerance_c, Some(0.0));
        assert_eq!(args.surrogate, Some(PathBuf::from("m.json")));
    }

    #[test]
    fn surrogate_tolerance_without_surrogate_is_an_error() {
        let err = parse(&["--surrogate-tolerance-c", "0.25"]).err().unwrap();
        assert!(err.contains("requires --surrogate"), "{err}");
        let args = parse(&["--surrogate", "m.json"]).unwrap();
        assert_eq!(args.surrogate_tolerance_c, None);
    }
}

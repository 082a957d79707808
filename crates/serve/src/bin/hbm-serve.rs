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

use std::path::PathBuf;

use hbm_serve::{declare_spans, ServeConfig, Server};

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
                        max inlet error bound (°C) a surrogate answer may carry; models
                        with a larger measured bound fall back to extraction (default 0.5)
  --timings             enable kernel timing spans (reported via logs on exit)";

struct Args {
    addr: String,
    threads: usize,
    timings: bool,
    surrogate: Option<PathBuf>,
    surrogate_tolerance_c: f64,
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
        surrogate_tolerance_c: 0.5,
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
                args.surrogate_tolerance_c = take("--surrogate-tolerance-c")?
                    .parse()
                    .map_err(|e| format!("--surrogate-tolerance-c: {e}"))?
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
    if let Some(path) = &args.surrogate {
        let line = match std::fs::read_to_string(path) {
            Ok(line) => line,
            Err(e) => {
                eprintln!("error: cannot read {}: {e}", path.display());
                std::process::exit(1);
            }
        };
        let model = match hbm_surrogate::SurrogateModel::from_flat_json(line.trim()) {
            Ok(model) => model,
            Err(e) => {
                eprintln!("error: {}: {e}", path.display());
                std::process::exit(1);
            }
        };
        let bound = model.max_abs_err_inlet_c();
        let within = bound <= args.surrogate_tolerance_c;
        hbm_core::install_thermal_tier(Some(std::sync::Arc::new(
            hbm_surrogate::TieredExtractor::with_model(model, args.surrogate_tolerance_c),
        )));
        println!(
            "surrogate tier loaded from {} (inlet bound {bound:.3e} °C, tolerance {} °C{})",
            path.display(),
            args.surrogate_tolerance_c,
            if within {
                ""
            } else {
                "; bound exceeds tolerance, all queries will fall back"
            },
        );
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

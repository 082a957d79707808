//! `hbm-serve-bench` — load generator for the simulation daemon.
//!
//! ```text
//! hbm-serve-bench [--addr HOST:PORT] [--connections N] [--duration-secs S]
//!                 [--policy NAME] [--days N] [--warmup-days N] [--seed N]
//!                 [--distinct K] [--workers N] [--queue N] [--json FILE]
//!                 [--session-slots N] [--state-dir DIR]
//! ```
//!
//! Without `--addr` it boots an in-process server on an ephemeral port
//! (so `scripts/bench_summary.sh` and CI need no orchestration), warms
//! the scenario cache, then drives `--connections` concurrent clients in
//! closed loops for `--duration-secs` and reports throughput and latency
//! percentiles. `--distinct K` rotates the request seed over K values to
//! exercise cache misses. `--json FILE` writes the results in the
//! `BENCH_thermal.json` entry shape: a latency entry (`{name, median_ns,
//! mean_ns, min_ns, p99_ns, samples}` — each field meaning exactly what
//! its name says) plus one single-value entry (`requests_per_sec` or
//! `slot_ns`), which `scripts/bench_summary.sh` folds into the pinned
//! benchmark file and `scripts/perf_guard.sh` gates.
//!
//! `--session-slots N` switches to the sessionful load pattern: each
//! client creates one long-lived experiment and steps it `N` slots per
//! request for the whole run (stepping past the scenario horizon, which
//! the API supports) — the measured latency is the step round trip, and
//! throughput is reported in wall nanoseconds per simulated slot. Add
//! `--state-dir DIR` to include per-step checkpointing in the
//! measurement (the durable configuration `docs/OPERATIONS.md`
//! recommends).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hbm_serve::http::{request_bytes, roundtrip};
use hbm_serve::{ServeConfig, Server};
use hbm_telemetry::json::Fields;

const USAGE: &str = "usage: hbm-serve-bench [--addr HOST:PORT] [--connections N] [--duration-secs S] \
[--policy NAME] [--days N] [--warmup-days N] [--seed N] [--distinct K] [--workers N] [--queue N] [--json FILE] \
[--session-slots N] [--state-dir DIR]
  --addr HOST:PORT   target an already-running server (default: spawn one in-process)
  --connections N    concurrent closed-loop clients (default 4)
  --duration-secs S  measured duration after cache warm-up (default 5)
  --policy NAME      scenario policy (default myopic)
  --days N           measured horizon in days (default 1)
  --warmup-days N    learning warm-up days (default 0)
  --seed N           base seed (default 1)
  --distinct K       rotate over K distinct seeds (default 1 = fully cache-warm)
  --workers N        workers for the in-process server (default: cores - 1)
  --queue N          queue capacity for the in-process server (default 32)
  --json FILE        write results as BENCH_thermal.json-shaped entries
  --session-slots N  sessionful mode: step a live experiment N slots per request
  --state-dir DIR    in-process server checkpoints experiments under DIR";

struct Args {
    addr: Option<String>,
    connections: usize,
    duration: Duration,
    policy: String,
    days: u64,
    warmup_days: u64,
    seed: u64,
    distinct: u64,
    workers: usize,
    queue: usize,
    json: Option<String>,
    session_slots: u64,
    state_dir: Option<String>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut args = Args {
        addr: None,
        connections: 4,
        duration: Duration::from_secs(5),
        policy: "myopic".into(),
        days: 1,
        warmup_days: 0,
        seed: 1,
        distinct: 1,
        workers: cores.saturating_sub(1).max(1),
        queue: 32,
        json: None,
        session_slots: 0,
        state_dir: None,
    };
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        let parse = |name: &str, v: String| -> Result<u64, String> {
            v.parse().map_err(|e| format!("{name}: {e}"))
        };
        match arg.as_str() {
            "--addr" => args.addr = Some(take("--addr")?),
            "--connections" => {
                args.connections = parse("--connections", take("--connections")?)? as usize
            }
            "--duration-secs" => {
                args.duration =
                    Duration::from_secs(parse("--duration-secs", take("--duration-secs")?)?)
            }
            "--policy" => args.policy = take("--policy")?,
            "--days" => args.days = parse("--days", take("--days")?)?,
            "--warmup-days" => args.warmup_days = parse("--warmup-days", take("--warmup-days")?)?,
            "--seed" => args.seed = parse("--seed", take("--seed")?)?,
            "--distinct" => args.distinct = parse("--distinct", take("--distinct")?)?.max(1),
            "--workers" => args.workers = parse("--workers", take("--workers")?)?.max(1) as usize,
            "--queue" => args.queue = parse("--queue", take("--queue")?)? as usize,
            "--json" => args.json = Some(take("--json")?),
            "--session-slots" => {
                args.session_slots = parse("--session-slots", take("--session-slots")?)?
            }
            "--state-dir" => args.state_dir = Some(take("--state-dir")?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.connections == 0 {
        return Err("--connections must be at least 1".into());
    }
    Ok(args)
}

fn simulate_request(policy: &str, days: u64, warmup_days: u64, seed: u64) -> Vec<u8> {
    let body = format!(
        "{{\"policy\":\"{policy}\",\"days\":{days},\"warmup_days\":{warmup_days},\"seed\":{seed}}}"
    );
    request_bytes("POST", "/v1/simulate", Some(&body))
}

/// Everything one sessionful client thread needs: where to connect, the
/// scenario to create, how to rotate seeds, and the shared counters.
struct SessionClient {
    addr: String,
    policy: String,
    days: u64,
    warmup_days: u64,
    first_seed: u64,
    seed_stride: u64,
    session_slots: u64,
    deadline: Instant,
    ok: Arc<AtomicU64>,
    shed: Arc<AtomicU64>,
    errors: Arc<AtomicU64>,
    slots: Arc<AtomicU64>,
}

/// One sessionful closed loop: create one long-lived experiment, then
/// step it `session_slots` per request for the whole run. Stepping
/// continues past the scenario horizon (the API keeps simulating, see
/// `docs/SERVICE.md`), so the steady state measures the session stepping
/// path — not experiment create/delete churn. The experiment is only
/// recreated (at the next seed) after an error, and only step round
/// trips are sampled.
fn session_client(client: &SessionClient) -> Vec<u64> {
    let create = |seed: u64| -> Option<String> {
        let body = format!(
            "{{\"policy\":\"{}\",\"days\":{},\"warmup_days\":{},\"seed\":{seed}}}",
            client.policy, client.days, client.warmup_days
        );
        match roundtrip(
            &client.addr,
            &request_bytes("POST", "/v1/experiments", Some(&body)),
        ) {
            Ok((201, body)) => Fields::parse(body.trim())
                .and_then(|mut f| f.str("id"))
                .ok(),
            Ok((503, _)) => {
                client.shed.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(10));
                None
            }
            Ok(_) | Err(_) => {
                client.errors.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    };
    let retire = |id: &str| {
        let path = format!("/v1/experiments/{id}");
        let _ = roundtrip(&client.addr, &request_bytes("DELETE", &path, None));
    };

    let mut samples = Vec::new();
    let mut seed = client.first_seed;
    let mut live: Option<String> = None;
    while Instant::now() < client.deadline {
        let id = match &live {
            Some(id) => id.clone(),
            None => match create(seed) {
                Some(id) => {
                    seed += client.seed_stride;
                    live = Some(id.clone());
                    id
                }
                None => continue,
            },
        };
        let step = request_bytes(
            "POST",
            &format!("/v1/experiments/{id}/step"),
            Some(&format!("{{\"slots\":{}}}", client.session_slots)),
        );
        let sent = Instant::now();
        match roundtrip(&client.addr, &step) {
            Ok((200, body)) => {
                samples.push(sent.elapsed().as_nanos() as u64);
                client.ok.fetch_add(1, Ordering::Relaxed);
                let stepped = Fields::parse(body.trim())
                    .and_then(|mut f| f.u64("stepped"))
                    .unwrap_or(0);
                client.slots.fetch_add(stepped, Ordering::Relaxed);
            }
            Ok((503, _)) => {
                client.shed.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(10));
            }
            Ok(_) | Err(_) => {
                client.errors.fetch_add(1, Ordering::Relaxed);
                retire(&id);
                live = None;
            }
        }
    }
    if let Some(id) = live {
        retire(&id);
    }
    samples
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One latency entry in the `BENCH_thermal.json` shape, with every field
/// meaning what its name says (`median_ns` really is the median, `p99_ns`
/// really is the 99th percentile). The headline value (`median_ns`) sits
/// immediately after `name`, where `scripts/bench_summary.sh` and
/// `scripts/perf_guard.sh` read it.
fn latency_entry(name: &str, median: u64, mean: u64, min: u64, p99: u64, samples: u64) -> String {
    let mut o = hbm_telemetry::json::JsonObject::new();
    o.str("name", name)
        .u64("median_ns", median)
        .u64("mean_ns", mean)
        .u64("min_ns", min)
        .u64("p99_ns", p99)
        .u64("samples", samples);
    o.finish()
}

/// A single-value entry: the value field directly follows `name` so the
/// scripts' field-after-name readers find it.
fn value_entry(name: &str, key: &str, value: u64, samples_key: &str, samples: u64) -> String {
    let mut o = hbm_telemetry::json::JsonObject::new();
    o.str("name", name)
        .u64(key, value)
        .u64(samples_key, samples);
    o.finish()
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

    // Spawn an in-process server unless a target was given.
    let mut spawned = None;
    let addr = match &args.addr {
        Some(addr) => addr.clone(),
        None => {
            hbm_par::configure_threads(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
            );
            let config = ServeConfig {
                workers: args.workers,
                queue_capacity: args.queue,
                cache_capacity: (args.distinct as usize).max(256),
                state_dir: args.state_dir.as_ref().map(std::path::PathBuf::from),
                max_experiments: (args.connections * 2).max(64),
                ..ServeConfig::default()
            };
            let server = match Server::bind("127.0.0.1:0", config) {
                Ok(server) => server,
                Err(e) => {
                    eprintln!("error: cannot bind in-process server: {e}");
                    std::process::exit(1);
                }
            };
            let addr = server.local_addr().to_string();
            let handle = server.handle();
            let thread = std::thread::spawn(move || server.run());
            spawned = Some((handle, thread));
            addr
        }
    };

    // Warm the cache: one sequential request per distinct scenario, so the
    // measured window reflects cache-warm serving (use --distinct > the
    // cache capacity to measure cold-path throughput instead). Sessionful
    // runs skip this — experiments never touch the scenario cache.
    for k in 0..if args.session_slots > 0 {
        0
    } else {
        args.distinct
    } {
        let request = simulate_request(&args.policy, args.days, args.warmup_days, args.seed + k);
        match roundtrip(&addr, &request) {
            Ok((200, _)) => {}
            Ok((status, body)) => {
                eprintln!("error: warm-up request got {status}: {}", body.trim());
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("error: warm-up request failed: {e}");
                std::process::exit(1);
            }
        }
    }

    // Closed-loop clients: each thread sends, waits, repeats until the
    // deadline, recording one latency sample per completed request.
    let ok = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    let slots = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let deadline = started + args.duration;
    let latencies: Vec<u64> = {
        let handles: Vec<_> = (0..args.connections)
            .map(|c| {
                let addr = addr.clone();
                let (ok, shed, errors) = (Arc::clone(&ok), Arc::clone(&shed), Arc::clone(&errors));
                let slots = Arc::clone(&slots);
                let (policy, days, warmup_days) =
                    (args.policy.clone(), args.days, args.warmup_days);
                let (seed, distinct) = (args.seed, args.distinct);
                let (connections, session_slots) = (args.connections as u64, args.session_slots);
                std::thread::spawn(move || {
                    if session_slots > 0 {
                        session_client(&SessionClient {
                            addr,
                            policy,
                            days,
                            warmup_days,
                            first_seed: seed + c as u64,
                            seed_stride: connections,
                            session_slots,
                            deadline,
                            ok,
                            shed,
                            errors,
                            slots,
                        })
                    } else {
                        let mut samples = Vec::new();
                        let mut i = c as u64;
                        while Instant::now() < deadline {
                            let request =
                                simulate_request(&policy, days, warmup_days, seed + i % distinct);
                            i += 1;
                            let sent = Instant::now();
                            match roundtrip(&addr, &request) {
                                Ok((200, _)) => {
                                    samples.push(sent.elapsed().as_nanos() as u64);
                                    ok.fetch_add(1, Ordering::Relaxed);
                                }
                                Ok((503, _)) => {
                                    shed.fetch_add(1, Ordering::Relaxed);
                                    std::thread::sleep(Duration::from_millis(10));
                                }
                                Ok(_) | Err(_) => {
                                    errors.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                        samples
                    }
                })
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().expect("client thread panicked"));
        }
        all
    };
    let elapsed = started.elapsed();

    let server_metrics = roundtrip(&addr, &request_bytes("GET", "/v1/metrics", None))
        .map(|(_, body)| body.trim().to_string())
        .unwrap_or_default();
    if let Some((handle, thread)) = spawned {
        handle.stop();
        let _ = thread.join();
    }

    let (ok, shed, errors) = (
        ok.load(Ordering::Relaxed),
        shed.load(Ordering::Relaxed),
        errors.load(Ordering::Relaxed),
    );
    let mut sorted = latencies.clone();
    sorted.sort_unstable();
    let mean = if sorted.is_empty() {
        0
    } else {
        (sorted.iter().map(|&v| v as u128).sum::<u128>() / sorted.len() as u128) as u64
    };
    let (p50, p90, p99) = (
        percentile(&sorted, 0.50),
        percentile(&sorted, 0.90),
        percentile(&sorted, 0.99),
    );
    let rps = ok as f64 / elapsed.as_secs_f64();
    let stepped_slots = slots.load(Ordering::Relaxed);
    let slots_per_sec = stepped_slots as f64 / elapsed.as_secs_f64();

    if args.session_slots > 0 {
        println!(
            "hbm-serve-bench: {} sessionful connection(s) for {:.1?} against {addr} \
             (policy {}, {} day(s), {} slots/step{})",
            args.connections,
            elapsed,
            args.policy,
            args.days,
            args.session_slots,
            if args.state_dir.is_some() {
                ", checkpointing"
            } else {
                ""
            },
        );
    } else {
        println!(
            "hbm-serve-bench: {} connection(s) for {:.1?} against {addr} \
             (policy {}, {} day(s), {} distinct scenario(s))",
            args.connections, elapsed, args.policy, args.days, args.distinct
        );
    }
    println!("  requests: {ok} ok, {shed} shed (503), {errors} errors");
    println!("  throughput: {rps:.1} req/s");
    if args.session_slots > 0 {
        println!(
            "  stepped: {stepped_slots} slots ({:.2}M slots/s aggregate)",
            slots_per_sec / 1e6
        );
    }
    println!(
        "  latency: p50 {:.3} ms  p90 {:.3} ms  p99 {:.3} ms  max {:.3} ms",
        p50 as f64 / 1e6,
        p90 as f64 / 1e6,
        p99 as f64 / 1e6,
        sorted.last().copied().unwrap_or(0) as f64 / 1e6,
    );
    if !server_metrics.is_empty() {
        println!("  server metrics: {server_metrics}");
    }

    if let Some(path) = &args.json {
        // Latency entries carry the full honest distribution (median, mean,
        // min, p99, sample count); single-value entries carry one value
        // under a name that says what it is — `slot_ns` (wall nanoseconds
        // per simulated slot across the whole run) and `requests_per_sec`.
        // No field is repurposed to mean something its name does not say.
        let json = if args.session_slots > 0 {
            let slot_ns = if slots_per_sec > 0.0 {
                (1e9 / slots_per_sec) as u64
            } else {
                0
            };
            format!(
                "[{},\n{}]\n",
                latency_entry(
                    "serve/session_step_latency",
                    p50,
                    mean,
                    sorted.first().copied().unwrap_or(0),
                    p99,
                    ok
                ),
                value_entry(
                    "serve/session_slot_ns",
                    "slot_ns",
                    slot_ns,
                    "slots",
                    stepped_slots
                ),
            )
        } else {
            format!(
                "[{},\n{}]\n",
                latency_entry(
                    "serve/simulate_latency",
                    p50,
                    mean,
                    sorted.first().copied().unwrap_or(0),
                    p99,
                    ok
                ),
                value_entry(
                    "serve/throughput",
                    "requests_per_sec",
                    rps as u64,
                    "samples",
                    ok
                ),
            )
        };
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("  [json] {path}");
    }

    if ok == 0 || errors > 0 {
        eprintln!("error: load run unhealthy ({ok} ok, {errors} errors)");
        std::process::exit(1);
    }
}

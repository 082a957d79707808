//! The `serve` workload: the real `hbm-serve` binary (one worker, thread
//! budget one, experiments in memory) driven by one closed-loop client
//! over a seeded, fixed-count, interleaved sequence of five request
//! classes. See `seq` for the sequence.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use hbm_core::scenario::metrics_json;
use hbm_core::Scenario;
use hbm_serve::{ServeConfig, Server};
use hbm_telemetry::json::parse_flat_object;
use hbm_telemetry::timing;

use crate::report::{Kind, Report};
use crate::seq::{self, Class, Mix, Op, Rng, BATCH_SITES, STEP_SLOTS};
use crate::stats::{median, tail};
use crate::{probes, record_spans, rss};

/// Requests per round, by class.
pub const MIX: Mix = Mix {
    step: 40,
    state: 40,
    hit: 40,
    miss: 6,
    batch: 1,
};
/// Rounds per run. Host interference on a shared VM slows whole stretches
/// of a run, so `work_s` takes each request position at its median round
/// (see `seq::sequence`).
const ROUNDS: usize = 10;
/// Set-ups (boot, warm keys, create experiments) per run; `setup_s` is
/// the quickest and the last one serves the sequence.
const SETUP_REPS: usize = 9;
/// Batch sites per request re-simulated alone as a correctness check.
const BATCH_SAMPLES: usize = 2;
/// Scenario-cache capacity: far above the keys one run touches, so no
/// warmed key is ever evicted and the hit count is exact.
const CACHE: usize = 4096;
/// Spans a serving process records.
const SPANS: &[&str] = &[
    "serve.request",
    "serve.simulate",
    "serve.batch-simulate",
    "serve.experiment",
    "sim.step",
    "state.snapshot",
    "batch.step",
];

/// A running `hbm-serve` child, killed and reaped on drop.
struct Daemon {
    child: Child,
    addr: String,
    // Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn(bin: &Path, timings: bool) -> Result<Daemon, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1:0", "--workers", "1", "--threads", "1"])
            .args(["--cache", &CACHE.to_string()])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if timings {
            cmd.arg("--timings");
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let _ = stdout.read_line(&mut line);
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        match addr {
            Some(addr) => Ok(Daemon {
                child,
                addr,
                _stdout: stdout,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("hbm-serve did not report its address: {line:?}"))
            }
        }
    }

    fn peak_rss_mib(&self) -> Option<f64> {
        rss::peak_rss_mib(&self.child.id().to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Sends one request on a fresh connection (the server closes after each
/// response) and returns `(status, body)`.
fn roundtrip(addr: &str, request: &[u8]) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(request)
        .map_err(|e| format!("send: {e}"))?;
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .map_err(|e| format!("recv: {e}"))?;
    let response = String::from_utf8(response).map_err(|_| "response is not UTF-8")?;
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed response {response:?}"))?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

fn json_field(body: &str, key: &str) -> Option<hbm_telemetry::json::JsonValue> {
    parse_flat_object(body.trim())
        .ok()?
        .into_iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// What set-up leaves behind for the sequence.
struct Ready {
    experiments: [String; 2],
    /// First (computing) response body of each warm key, by seed.
    warm_bodies: Vec<(u64, String)>,
}

/// Warms the hit keys and creates the two experiments.
fn set_up(addr: &str, seed: u64, report: &mut Report) -> Result<Ready, String> {
    let mut warm_bodies = Vec::new();
    for s in seq::warm_seeds(seed) {
        match roundtrip(addr, &seq::post("/v1/simulate", &seq::simulate_body(s)))? {
            (200, body) => warm_bodies.push((s, body)),
            (status, body) => return Err(format!("warm-up got {status}: {}", body.trim())),
        }
    }
    let mut ids = Vec::new();
    for body in seq::experiment_bodies(seed) {
        match roundtrip(addr, &seq::post("/v1/experiments", &body))? {
            (201, reply) => ids.push(
                json_field(&reply, "id")
                    .and_then(|v| v.as_str().map(str::to_string))
                    .ok_or_else(|| format!("create reply without id: {reply:?}"))?,
            ),
            (status, reply) => return Err(format!("create got {status}: {}", reply.trim())),
        }
    }
    report.count("setup", (seq::WARM_KEYS + 2) as u64, 0);
    Ok(Ready {
        experiments: [ids[0].clone(), ids[1].clone()],
        warm_bodies,
    })
}

/// One request's outcome.
struct Outcome {
    ms: f64,
    status: u16,
    body: String,
}

/// Sends the rounds, one request at a time; returns per-op outcomes (in
/// sequence order) and each round's wall seconds.
fn drive(addr: &str, rounds: &[Vec<Op>], ready: &Ready) -> (Vec<Outcome>, Vec<f64>) {
    let mut outcomes = Vec::new();
    let mut round_s = Vec::new();
    for round in rounds {
        let started = Instant::now();
        for op in round {
            let request = seq::request_bytes(op, &ready.experiments);
            let t = Instant::now();
            let (status, body) = roundtrip(addr, &request).unwrap_or_else(|e| (0, e));
            outcomes.push(Outcome {
                ms: t.elapsed().as_secs_f64() * 1e3,
                status,
                body,
            });
        }
        round_s.push(started.elapsed().as_secs_f64());
    }
    (outcomes, round_s)
}

/// The server's `/v1/metrics` counters.
fn server_counters(addr: &str) -> Result<Vec<(String, f64)>, String> {
    let (status, body) = roundtrip(addr, &seq::get("/v1/metrics"))?;
    if status != 200 {
        return Err(format!("/v1/metrics answered {status}"));
    }
    Ok(parse_flat_object(body.trim())?
        .into_iter()
        .filter_map(|(k, v)| v.as_f64().map(|v| (k, v)))
        .collect())
}

fn counter(counters: &[(String, f64)], key: &str) -> f64 {
    counters
        .iter()
        .find(|(k, _)| k == key)
        .map_or(f64::NAN, |(_, v)| *v)
}

/// The body `/v1/simulate` must return for a one-day myopic scenario at
/// `seed`, computed in-process.
fn reference_body(seed: u64) -> String {
    let scenario =
        Scenario::from_flat_json(&seq::simulate_body(seed)).expect("sequence bodies parse");
    let report = scenario.run().expect("sequence scenarios run");
    metrics_json(&scenario.config_canonical(), &report.metrics) + "\n"
}

/// Splits a batch body `{"count":N,"sites":[{…},{…}]}` into site objects.
fn batch_sites(body: &str) -> Vec<String> {
    let Some(inner) = body
        .trim()
        .split_once("\"sites\":[")
        .and_then(|(_, rest)| rest.strip_suffix("]}"))
    else {
        return Vec::new();
    };
    inner
        .trim_start_matches('{')
        .trim_end_matches('}')
        .split("},{")
        .map(|site| format!("{{{site}}}"))
        .collect()
}

/// Checks every response of a pass; counts attempted/failed per class.
fn check_outcomes(seed: u64, ops: &[Op], outcomes: &[Outcome], ready: &Ready, report: &mut Report) {
    let mut rng = Rng::new(seed, 0xBA7C4);
    for class in Class::ALL {
        let mut failed = 0;
        let mut attempted = 0;
        for (op, out) in ops.iter().zip(outcomes).filter(|(op, _)| op.class == class) {
            attempted += 1;
            let ok = out.status == 200
                && match class {
                    Class::Step => {
                        json_field(&out.body, "stepped").and_then(|v| v.as_f64())
                            == Some(STEP_SLOTS as f64)
                    }
                    Class::State => out.body.starts_with('{'),
                    Class::Hit => ready
                        .warm_bodies
                        .iter()
                        .any(|(s, body)| *s == op.seed && *body == out.body),
                    Class::Miss => out.body == reference_body(op.seed),
                    Class::Batch => {
                        let sites = batch_sites(&out.body);
                        sites.len() == BATCH_SITES as usize
                            && rng
                                .distinct(BATCH_SAMPLES, sites.len())
                                .into_iter()
                                .all(|i| {
                                    format!("{}\n", sites[i]) == reference_body(op.seed + i as u64)
                                })
                    }
                };
            if !ok {
                failed += 1;
                if failed == 1 {
                    report.error(format!(
                        "{} request (seed {}) failed: status {}, body {:?}",
                        class.name(),
                        op.seed,
                        out.status,
                        out.body.chars().take(200).collect::<String>()
                    ));
                }
            }
        }
        report.count(class.name(), attempted, failed);
    }
}

/// Checks the server's counters against the designed sequence.
fn check_counters(counters: &[(String, f64)], report: &mut Report) {
    let hits = counter(counters, "cache_hits");
    let misses = counter(counters, "cache_misses");
    let (want_hits, want_misses) = (
        MIX.designed_cache_hits(ROUNDS),
        MIX.designed_cache_misses(ROUNDS),
    );
    report.check(
        hits == want_hits as f64 && misses == want_misses as f64,
        || format!("cache hits/misses {hits}/{misses}, designed {want_hits}/{want_misses}"),
    );
    for key in ["shed_total", "bad_requests"] {
        let v = counter(counters, key);
        report.check(v == 0.0, || format!("server counted {v} {key}"));
    }
}

/// Per-class latency samples of a pass, in milliseconds.
fn class_ms(ops: &[Op], outcomes: &[Outcome], class: Class) -> Vec<f64> {
    ops.iter()
        .zip(outcomes)
        .filter(|(op, _)| op.class == class)
        .map(|(_, out)| out.ms)
        .collect()
}

/// One full pass against a fresh `hbm-serve`: `reps` set-ups (the last
/// one kept), the sequence, the counters, and the server's peak RSS.
struct Pass {
    setup_s: Vec<f64>,
    ready: Ready,
    outcomes: Vec<Outcome>,
    round_s: Vec<f64>,
    counters: Vec<(String, f64)>,
    peak_rss_mib: f64,
}

fn binary_pass(
    bin: &Path,
    seed: u64,
    rounds: &[Vec<Op>],
    reps: usize,
    timings: bool,
    report: &mut Report,
) -> Result<Pass, String> {
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..reps {
        let t = Instant::now();
        let daemon = Daemon::spawn(bin, timings)?;
        let ready = set_up(&daemon.addr, seed, report)?;
        setup_s.push(t.elapsed().as_secs_f64());
        kept = Some((daemon, ready));
    }
    let (daemon, ready) = kept.expect("at least one set-up");
    let mut pass = measure(&daemon.addr, rounds, setup_s, ready)?;
    pass.peak_rss_mib = daemon.peak_rss_mib().unwrap_or(f64::NAN);
    Ok(pass)
}

/// Drives the rounds against a set-up server and reads its counters.
fn measure(
    addr: &str,
    rounds: &[Vec<Op>],
    setup_s: Vec<f64>,
    ready: Ready,
) -> Result<Pass, String> {
    let (outcomes, round_s) = drive(addr, rounds, &ready);
    Ok(Pass {
        setup_s,
        ready,
        outcomes,
        round_s,
        counters: server_counters(addr)?,
        peak_rss_mib: f64::NAN,
    })
}

/// The same set-up and sequence against an in-process server with spans
/// on (the binary prints its spans only on an orderly exit, which a
/// signal never gives it).
fn in_process_pass(seed: u64, rounds: &[Vec<Op>], report: &mut Report) -> Result<Pass, String> {
    let config = ServeConfig {
        workers: 1,
        cache_capacity: CACHE,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    hbm_serve::declare_spans();
    timing::reset_timings();
    timing::set_timings_enabled(true);
    let thread = std::thread::spawn(move || server.run());
    let result =
        set_up(&addr, seed, report).and_then(|ready| measure(&addr, rounds, Vec::new(), ready));
    handle.stop();
    let _ = thread.join();
    timing::set_timings_enabled(false);
    result
}

/// Fails the run unless `other` answered every request byte-identically
/// to `first`.
fn check_same_bodies(first: &Pass, other: &Pass, what: &str, report: &mut Report) {
    let differing = first
        .outcomes
        .iter()
        .zip(&other.outcomes)
        .filter(|(a, b)| a.status != b.status || a.body != b.body)
        .count();
    report.count(what, first.outcomes.len() as u64, differing as u64);
    report.check(differing == 0, || {
        format!("{differing} responses of the {what} differ from the untraced pass")
    });
}

/// The sequence's cost with every request position at its median round:
/// rounds × Σ over positions of the median latency there across rounds.
fn median_work_s(pass: &Pass) -> f64 {
    let per_round = pass.outcomes.len() / ROUNDS;
    let typical_ms: f64 = (0..per_round)
        .map(|k| {
            let at_position: Vec<f64> = (0..ROUNDS)
                .map(|r| pass.outcomes[r * per_round + k].ms)
                .collect();
            median(&at_position).expect("ROUNDS > 0")
        })
        .sum();
    ROUNDS as f64 * typical_ms / 1e3
}

pub fn run(seed: u64, bin: &Path, trace: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let rounds = seq::sequence(seed, &MIX, ROUNDS);
    let ops = rounds.concat();
    // A traced run reports no end-to-end metrics, so one set-up will do.
    let reps = if trace { 1 } else { SETUP_REPS };
    let first = binary_pass(bin, seed, &rounds, reps, false, &mut report)?;
    check_outcomes(seed, &ops, &first.outcomes, &first.ready, &mut report);
    check_counters(&first.counters, &mut report);

    report.metric(
        Kind::EndToEnd,
        "setup_s",
        first.setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        "s",
    );
    report.metric(Kind::EndToEnd, "peak_rss_mib", first.peak_rss_mib, "MiB");
    report.metric(Kind::EndToEnd, "work_s", median_work_s(&first), "s");
    report.metric(
        Kind::Detail,
        "sequence_wall_s",
        first.round_s.iter().sum(),
        "s",
    );
    let mut p50 = [0.0; 5];
    for (i, class) in Class::ALL.into_iter().enumerate() {
        let ms = class_ms(&ops, &first.outcomes, class);
        p50[i] = median(&ms).expect("every class is in the mix");
        report.metric(
            Kind::Detail,
            format!("{}_p50_ms", class.name()),
            p50[i],
            "ms",
        );
        if matches!(class, Class::Step | Class::Miss) {
            let t = tail(&ms).expect("tail classes have more than ten samples");
            report.metric(
                Kind::Detail,
                format!("{}_tail_ms", class.name()),
                t.value,
                "ms",
            );
            report.metric(
                Kind::Detail,
                format!("{}_tail_pct", class.name()),
                t.percentile,
                "%",
            );
            report.metric(
                Kind::Detail,
                format!("{}_samples", class.name()),
                t.samples as f64,
                "count",
            );
        }
    }

    if trace {
        let timed = binary_pass(bin, seed, &rounds, 1, true, &mut report)?;
        check_same_bodies(&first, &timed, "timings_pass", &mut report);
        report.metric(
            Kind::Layer,
            "serve.trace_overhead_frac",
            median_work_s(&timed) / median_work_s(&first) - 1.0,
            "ratio",
        );
        let spans = in_process_pass(seed, &rounds, &mut report)?;
        check_same_bodies(&first, &spans, "in_process_pass", &mut report);
        check_counters(&spans.counters, &mut report);
        record_spans(&mut report, "serve", SPANS);
        for (key, name) in [
            ("shed_total", "serve.shed"),
            ("bad_requests", "serve.bad_requests"),
            ("batch_lanes_simulated", "serve.batch_lanes_simulated"),
        ] {
            report.metric(Kind::Layer, name, counter(&first.counters, key), "count");
        }
        let hits = counter(&first.counters, "cache_hits");
        let misses = counter(&first.counters, "cache_misses");
        report.metric(
            Kind::Layer,
            "serve.cache_hit_ratio",
            hits / (hits + misses),
            "ratio",
        );

        let layers = probes::run(seed, &mut report);
        for (i, class) in Class::ALL.into_iter().enumerate() {
            let attributed: f64 = layers.class_layers_ms(class);
            report.metric(
                Kind::Layer,
                format!("serve.{}.unattributed_ms", class.name()),
                p50[i] - attributed,
                "ms",
            );
        }
    }
    Ok(report)
}

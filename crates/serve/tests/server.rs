//! End-to-end tests: boot the daemon on an ephemeral port and drive it
//! over real sockets — golden-scenario parity with the shared scenario
//! code path, cache behavior, input validation, and load shedding.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use hbm_serve::{ServeConfig, Server, ServerHandle};

/// Boots a server with `config` and returns its address, stop handle, and
/// run-thread join handle.
fn boot(config: ServeConfig) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run().expect("server runs"));
    (addr, handle, thread)
}

/// One raw HTTP exchange; returns `(status, headers, body)`.
fn exchange(addr: SocketAddr, raw: &str) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    stream.write_all(raw.as_bytes()).expect("send");
    let mut response = String::new();
    BufReader::new(stream)
        .read_to_string(&mut response)
        .expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("complete response");
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .expect("status line")
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_string(), v.trim().to_string()))
        .collect();
    (status, headers, body.to_string())
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

fn post_simulate(addr: SocketAddr, body: &str) -> (u16, Vec<(String, String)>, String) {
    exchange(
        addr,
        &format!(
            "POST /v1/simulate HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn post_batch_simulate(addr: SocketAddr, body: &str) -> (u16, Vec<(String, String)>, String) {
    exchange(
        addr,
        &format!(
            "POST /v1/batch-simulate HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn get(addr: SocketAddr, path: &str) -> (u16, Vec<(String, String)>, String) {
    exchange(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

/// An arbitrary-method request with an optional body.
fn req(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, Vec<(String, String)>, String) {
    exchange(
        addr,
        &format!(
            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn json_str(body: &str, key: &str) -> String {
    let fields = hbm_telemetry::json::parse_flat_object(body.trim()).expect("flat json");
    fields
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("missing {key} in {body}"))
        .1
        .as_str()
        .expect("string")
        .to_string()
}

fn json_u64(body: &str, key: &str) -> u64 {
    let fields = hbm_telemetry::json::parse_flat_object(body.trim()).expect("flat json");
    fields
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("missing {key} in {body}"))
        .1
        .as_f64()
        .expect("numeric") as u64
}

#[test]
fn golden_scenario_parity_cache_and_metrics() {
    let (addr, handle, thread) = boot(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });

    // Health first.
    let (status, _, body) = get(addr, "/v1/health");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "health said {body}");

    // The served response must be byte-identical to the shared scenario
    // code path (which `experiments simulate` prints verbatim).
    let mut scenario = hbm_core::Scenario::new("myopic");
    scenario.days = 1;
    scenario.warmup_days = 0;
    scenario.seed = 7;
    let expected = hbm_core::scenario::metrics_json(
        &scenario.config_canonical(),
        &scenario.run().expect("golden scenario runs").metrics,
    ) + "\n";

    let request = "{\"policy\":\"myopic\",\"days\":1,\"warmup_days\":0,\"seed\":7}";
    let (status, headers, body) = post_simulate(addr, request);
    assert_eq!(status, 200, "body: {body}");
    assert_eq!(header(&headers, "x-cache"), Some("miss"));
    assert_eq!(
        header(&headers, "x-config-hash"),
        Some(scenario.config_hash().as_str())
    );
    assert_eq!(body, expected);

    // Same canonical config again: cache hit, identical bytes.
    let (status, headers, cached) = post_simulate(addr, request);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-cache"), Some("hit"));
    assert_eq!(cached, body);

    // Counters saw all of it.
    let (status, _, metrics) = get(addr, "/v1/metrics");
    assert_eq!(status, 200);
    assert!(json_u64(&metrics, "cache_hits") >= 1, "metrics: {metrics}");
    assert_eq!(json_u64(&metrics, "cache_misses"), 1);
    assert!(json_u64(&metrics, "simulate_ok") >= 2);
    assert!(json_u64(&metrics, "requests_total") >= 3);
    // Thermal-tier observability keys are always present (process-global
    // counters, so only presence is asserted here).
    json_u64(&metrics, "heat_matrix_cache_hits");
    json_u64(&metrics, "heat_matrix_cache_misses");
    json_u64(&metrics, "surrogate_hits");
    json_u64(&metrics, "surrogate_misses");
    json_u64(&metrics, "surrogate_fallbacks");
    assert!(
        metrics.contains("\"surrogate_bound_c\":"),
        "metrics: {metrics}"
    );

    handle.stop();
    thread.join().unwrap();
}

#[test]
fn bad_requests_get_4xx_not_a_hang() {
    let (addr, handle, thread) = boot(ServeConfig::default());

    let (status, _, body) = post_simulate(addr, "not json at all");
    assert_eq!(status, 400, "body: {body}");
    let (status, _, _) = post_simulate(addr, "{\"policy\":\"zergling\",\"days\":1}");
    assert_eq!(status, 400);
    let (status, _, _) = post_simulate(addr, "{\"policy\":\"myopic\",\"bogus\":1}");
    assert_eq!(status, 400);
    let (status, _, _) = post_simulate(
        addr,
        "{\"policy\":\"myopic\",\"days\":1,\"utilization\":2.5}",
    );
    assert_eq!(status, 400);

    // Routing errors: a wrong method on a known path is 405 and names the
    // allowed set; an unknown path is 404.
    let (status, headers, _) = get(addr, "/v1/simulate");
    assert_eq!(status, 405);
    assert_eq!(header(&headers, "allow"), Some("POST"));
    let (status, headers, _) = req(addr, "DELETE", "/v1/batch-simulate", "");
    assert_eq!(status, 405);
    assert_eq!(header(&headers, "allow"), Some("POST"));
    let (status, headers, _) = req(addr, "PATCH", "/v1/health", "");
    assert_eq!(status, 405);
    assert_eq!(header(&headers, "allow"), Some("GET"));
    let (status, headers, _) = req(addr, "PUT", "/v1/experiments", "");
    assert_eq!(status, 405);
    assert_eq!(header(&headers, "allow"), Some("GET, POST"));
    let (status, _, _) = get(addr, "/nope");
    assert_eq!(status, 404);

    // Malformed HTTP straight off the socket.
    let (status, _, _) = exchange(addr, "GARBAGE\r\n\r\n");
    assert_eq!(status, 400);

    let (_, _, metrics) = get(addr, "/v1/metrics");
    assert!(
        json_u64(&metrics, "bad_requests") >= 7,
        "metrics: {metrics}"
    );

    handle.stop();
    thread.join().unwrap();
}

#[test]
fn oversized_horizons_fail_closed() {
    let (addr, handle, thread) = boot(ServeConfig {
        workers: 1,
        max_step_slots: 2 * 1440,
        ..ServeConfig::default()
    });

    // A slot count that overflows u64 is malformed: 400 on every
    // scenario-accepting route.
    let overflow = "{\"policy\":\"myopic\",\"days\":1e17}";
    let batch_overflow = "{\"policy\":\"myopic\",\"days\":1e17,\"count\":2}";
    assert_eq!(post_simulate(addr, overflow).0, 400);
    assert_eq!(post_batch_simulate(addr, batch_overflow).0, 400);
    assert_eq!(req(addr, "POST", "/v1/experiments", overflow).0, 400);

    // A horizon that fits but exceeds the step limit answers 413 before
    // any worker sees it: `{"days":1e12}` would otherwise run for hours.
    // The limit counts warm-up plus measured slots.
    for body in [
        "{\"policy\":\"myopic\",\"days\":1e12}",
        "{\"policy\":\"foresighted\",\"days\":2,\"warmup_days\":1}",
    ] {
        let (status, _, answer) = post_simulate(addr, body);
        assert_eq!(status, 413, "{body}: {answer}");
        assert!(answer.contains("step limit"), "{answer}");
        let batch = body.replace('}', ",\"count\":2}");
        assert_eq!(post_batch_simulate(addr, &batch).0, 413, "{batch}");
        assert_eq!(req(addr, "POST", "/v1/experiments", body).0, 413, "{body}");
    }

    // Exactly at the limit is accepted.
    let at_limit = "{\"policy\":\"myopic\",\"days\":1,\"warmup_days\":1}";
    let (status, _, body) = post_simulate(addr, at_limit);
    assert_eq!(status, 200, "body: {body}");

    let (_, _, metrics) = get(addr, "/v1/metrics");
    assert_eq!(json_u64(&metrics, "bad_requests"), 9, "metrics: {metrics}");
    assert_eq!(
        json_u64(&metrics, "simulate_accepted"),
        1,
        "metrics: {metrics}"
    );

    handle.stop();
    thread.join().unwrap();
}

#[test]
fn batch_simulate_parity_cache_reuse_and_bounds() {
    let (addr, handle, thread) = boot(ServeConfig {
        workers: 2,
        max_batch: 4,
        ..ServeConfig::default()
    });

    // Site i of a batch must be byte-identical to the shared scenario code
    // path at seed + i (which /v1/simulate and the CLI print verbatim).
    let mut template = hbm_core::Scenario::new("myopic");
    template.days = 1;
    template.warmup_days = 0;
    template.seed = 40;
    let expected_sites: Vec<String> = (0..3)
        .map(|i| {
            let site = template.site(i);
            hbm_core::scenario::metrics_json(
                &site.config_canonical(),
                &site.run().expect("site scenario runs").metrics,
            )
        })
        .collect();
    let expected = format!("{{\"count\":3,\"sites\":[{}]}}\n", expected_sites.join(","));

    let request = "{\"policy\":\"myopic\",\"days\":1,\"warmup_days\":0,\"seed\":40,\"count\":3}";
    let (status, headers, body) = post_batch_simulate(addr, request);
    assert_eq!(status, 200, "body: {body}");
    assert_eq!(header(&headers, "x-cache"), Some("miss"));
    assert_eq!(body, expected);

    // The per-site cache entries are the single-simulate entries: a single
    // request for site 1 (seed 41) must hit without computing anything.
    let single = "{\"policy\":\"myopic\",\"days\":1,\"warmup_days\":0,\"seed\":41}";
    let (status, headers, single_body) = post_simulate(addr, single);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-cache"), Some("hit"));
    assert_eq!(single_body.trim_end(), expected_sites[1]);

    // And the whole batch again is a pure hit, byte-identical.
    let (status, headers, again) = post_batch_simulate(addr, request);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-cache"), Some("hit"));
    assert_eq!(again, body);

    // A partially overlapping batch reuses the cached sites and computes
    // only the new ones (count 4 covers seeds 40..43; 40..42 are cached).
    let wider = "{\"policy\":\"myopic\",\"days\":1,\"warmup_days\":0,\"seed\":40,\"count\":4}";
    let (status, headers, wide_body) = post_batch_simulate(addr, wider);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-cache"), Some("miss"));
    assert!(wide_body.starts_with(&format!(
        "{{\"count\":4,\"sites\":[{}",
        expected_sites.join(",")
    )));

    // The daemon metrics count batch jobs and only the lanes that actually
    // simulated: 3 fresh + 0 (pure hit) + 1 (the one new site of the wider
    // batch).
    let (_, _, metrics) = get(addr, "/v1/metrics");
    assert_eq!(json_u64(&metrics, "batch_requests"), 3, "metrics: {metrics}");
    assert_eq!(
        json_u64(&metrics, "batch_lanes_simulated"),
        4,
        "metrics: {metrics}"
    );

    // Oversize batches are rejected up front with 413.
    let oversize = "{\"policy\":\"myopic\",\"days\":1,\"warmup_days\":0,\"seed\":40,\"count\":5}";
    let (status, _, body) = post_batch_simulate(addr, oversize);
    assert_eq!(status, 413, "body: {body}");

    // Malformed batch bodies fail fast like single ones.
    let (status, _, _) = post_batch_simulate(addr, "{\"policy\":\"myopic\",\"count\":0}");
    assert_eq!(status, 400);
    let (status, _, _) = post_batch_simulate(addr, "{\"policy\":\"zergling\",\"count\":2}");
    assert_eq!(status, 400);
    let (status, _, _) = get(addr, "/v1/batch-simulate");
    assert_eq!(status, 405);

    handle.stop();
    thread.join().unwrap();
}

#[test]
fn full_queue_sheds_with_503_and_retry_after() {
    // One worker, one queue slot: a burst of distinct scenarios must shed
    // rather than buffer. Each scenario is heavy enough (120 simulated
    // days) that the worker cannot drain the burst as fast as it arrives.
    let (addr, handle, thread) = boot(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    });

    let clients: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let body = format!(
                    "{{\"policy\":\"myopic\",\"days\":120,\"warmup_days\":0,\"seed\":{}}}",
                    100 + i
                );
                post_simulate(addr, &body)
            })
        })
        .collect();
    let results: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();

    let ok = results.iter().filter(|(s, _, _)| *s == 200).count();
    let shed: Vec<_> = results.iter().filter(|(s, _, _)| *s == 503).collect();
    assert!(ok >= 1, "at least the first request must be served");
    assert!(
        !shed.is_empty(),
        "an 8-request burst against workers=1/queue=1 must shed; statuses: {:?}",
        results.iter().map(|(s, _, _)| *s).collect::<Vec<_>>()
    );
    assert_eq!(ok + shed.len(), results.len(), "nothing may hang or error");
    for (_, headers, _) in &shed {
        assert_eq!(header(headers, "retry-after"), Some("1"));
    }

    let (_, _, metrics) = get(addr, "/v1/metrics");
    assert_eq!(json_u64(&metrics, "shed_total") as usize, shed.len());

    handle.stop();
    thread.join().unwrap();
}

#[test]
fn manifest_written_per_computed_scenario() {
    let dir = std::env::temp_dir().join(format!("hbm_serve_manifest_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (addr, handle, thread) = boot(ServeConfig {
        manifest_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });

    let request = "{\"policy\":\"random\",\"days\":1,\"warmup_days\":0,\"seed\":3}";
    let (status, headers, _) = post_simulate(addr, request);
    assert_eq!(status, 200);
    let hash = header(&headers, "x-config-hash")
        .expect("config hash")
        .to_string();

    let manifest_path = dir.join(&hash).join("manifest.json");
    let text = std::fs::read_to_string(&manifest_path).expect("manifest written");
    let fields = hbm_telemetry::deterministic_manifest_fields(&text).expect("parseable");
    assert!(fields
        .iter()
        .any(|(k, v)| k == "tool" && v.as_str() == Some("hbm-serve")));
    assert!(fields
        .iter()
        .any(|(k, v)| k == "config_hash" && v.as_str() == Some(hash.as_str())));

    // A cache hit must not rewrite the manifest.
    let modified = std::fs::metadata(&manifest_path)
        .unwrap()
        .modified()
        .unwrap();
    let (_, headers, _) = post_simulate(addr, request);
    assert_eq!(header(&headers, "x-cache"), Some("hit"));
    assert_eq!(
        std::fs::metadata(&manifest_path)
            .unwrap()
            .modified()
            .unwrap(),
        modified
    );

    handle.stop();
    thread.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A short experiment scenario shared by the lifecycle tests.
const EXP_SCENARIO: &str = "{\"policy\":\"myopic\",\"days\":2,\"warmup_days\":0,\"seed\":7}";

fn exp_scenario() -> hbm_core::Scenario {
    let mut s = hbm_core::Scenario::new("myopic");
    s.days = 2;
    s.warmup_days = 0;
    s.seed = 7;
    s
}

fn temp_state_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hbm_serve_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn experiment_lifecycle_over_http() {
    let (addr, handle, thread) = boot(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });

    // Create, step, inspect, perturb, delete — the whole arc.
    let (status, headers, body) = req(addr, "POST", "/v1/experiments", EXP_SCENARIO);
    assert_eq!(status, 201, "body: {body}");
    let id = json_str(&body, "id");
    assert_eq!(
        header(&headers, "location"),
        Some(format!("/v1/experiments/{id}").as_str())
    );
    assert_eq!(json_u64(&body, "warmup_slots"), 0);

    let (status, _, body) = req(
        addr,
        "POST",
        &format!("/v1/experiments/{id}/step"),
        "{\"slots\":500}",
    );
    assert_eq!(status, 200, "body: {body}");
    assert_eq!(json_u64(&body, "stepped"), 500);
    assert_eq!(json_u64(&body, "slots"), 500);

    let (status, _, listing) = get(addr, "/v1/experiments");
    assert_eq!(status, 200);
    assert_eq!(json_u64(&listing, "count"), 1);
    assert!(listing.contains(&format!("\"{id}\"")), "listing: {listing}");

    // State is the live checkpoint line.
    let (status, _, state) = get(addr, &format!("/v1/experiments/{id}/state"));
    assert_eq!(status, 200);
    assert!(state.contains(&format!("\"schema\":\"{}\"", hbm_core::SNAPSHOT_SCHEMA)));

    // Metrics carry the effective config hash.
    let (status, headers, metrics) = get(addr, &format!("/v1/experiments/{id}/metrics"));
    assert_eq!(status, 200);
    assert_eq!(json_u64(&metrics, "slots"), 500);
    assert_eq!(
        header(&headers, "x-config-hash"),
        Some(exp_scenario().config_hash().as_str())
    );

    // Perturbing returns the effective scenario and changes the hash.
    let (status, _, effective) = req(
        addr,
        "POST",
        &format!("/v1/experiments/{id}/perturb"),
        "{\"threshold_c\":30.5}",
    );
    assert_eq!(status, 200, "body: {effective}");
    assert!(
        effective.contains("\"threshold_c\":30.5"),
        "got {effective}"
    );
    let (_, headers, _) = get(addr, &format!("/v1/experiments/{id}/metrics"));
    assert_ne!(
        header(&headers, "x-config-hash"),
        Some(exp_scenario().config_hash().as_str())
    );

    // Bad inputs fail fast.
    let (status, _, _) = req(
        addr,
        "POST",
        &format!("/v1/experiments/{id}/step"),
        "{\"slots\":0}",
    );
    assert_eq!(status, 400);
    let (status, _, _) = req(addr, "POST", &format!("/v1/experiments/{id}/step"), "{}");
    assert_eq!(status, 400);
    let (status, _, _) = req(
        addr,
        "POST",
        &format!("/v1/experiments/{id}/step"),
        "{\"slots\":99999999}",
    );
    assert_eq!(status, 413);
    let (status, _, _) = req(addr, "POST", &format!("/v1/experiments/{id}/perturb"), "{}");
    assert_eq!(status, 400);
    let (status, _, _) = req(
        addr,
        "POST",
        &format!("/v1/experiments/{id}/perturb"),
        "{\"utilization\":5.0}",
    );
    assert_eq!(status, 400);
    let (status, _, _) = req(
        addr,
        "POST",
        "/v1/experiments/exp-999999/step",
        "{\"slots\":1}",
    );
    assert_eq!(status, 404);

    // Delete, and the id is gone.
    let (status, _, body) = req(addr, "DELETE", &format!("/v1/experiments/{id}"), "");
    assert_eq!(status, 200);
    assert_eq!(json_str(&body, "deleted"), id);
    let (status, _, _) = get(addr, &format!("/v1/experiments/{id}/state"));
    assert_eq!(status, 404);

    // The daemon metrics saw the lifecycle.
    let (_, _, metrics) = get(addr, "/v1/metrics");
    assert_eq!(json_u64(&metrics, "experiments_created"), 1);
    assert_eq!(json_u64(&metrics, "experiments_deleted"), 1);
    assert_eq!(json_u64(&metrics, "experiments_active"), 0);
    assert_eq!(json_u64(&metrics, "experiment_steps"), 1);
    assert_eq!(json_u64(&metrics, "experiment_slots"), 500);
    assert_eq!(json_u64(&metrics, "experiment_perturbs"), 1);

    handle.stop();
    thread.join().unwrap();
}

#[test]
fn fork_and_branch_endpoints_over_http() {
    let (addr, handle, thread) = boot(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });

    let (status, _, body) = req(addr, "POST", "/v1/experiments", EXP_SCENARIO);
    assert_eq!(status, 201, "body: {body}");
    let id = json_str(&body, "id");
    let (status, _, _) = req(
        addr,
        "POST",
        &format!("/v1/experiments/{id}/step"),
        "{\"slots\":300}",
    );
    assert_eq!(status, 200);

    // Before any fork: no branch report, and branch-stepping is a conflict.
    let (status, _, _) = get(addr, &format!("/v1/experiments/{id}/branches"));
    assert_eq!(status, 404);
    let (status, _, _) = req(
        addr,
        "POST",
        &format!("/v1/experiments/{id}/branches/step"),
        "{\"slots\":10}",
    );
    assert_eq!(status, 409);

    // An empty body forks a control branch at the current slot.
    let (status, _, body) = req(addr, "POST", &format!("/v1/experiments/{id}/fork"), "");
    assert_eq!(status, 200, "body: {body}");
    assert_eq!(json_u64(&body, "branch"), 0);
    assert_eq!(json_str(&body, "label"), "branch-0");
    assert_eq!(json_u64(&body, "fork_slot"), 300);
    assert_eq!(json_u64(&body, "branches"), 1);

    // A labeled variant branch forks from the same pinned slot.
    let (status, _, body) = req(
        addr,
        "POST",
        &format!("/v1/experiments/{id}/fork"),
        "{\"label\":\"hot\",\"attack_load_kw\":3.0,\"battery_kwh\":1.0}",
    );
    assert_eq!(status, 200, "body: {body}");
    assert_eq!(json_str(&body, "label"), "hot");
    assert_eq!(json_u64(&body, "fork_slot"), 300);
    assert_eq!(json_u64(&body, "branches"), 2);

    // Bad forks fail fast and do not disturb the tree.
    let (status, _, _) = req(
        addr,
        "POST",
        &format!("/v1/experiments/{id}/fork"),
        "{\"label\":\"no spaces!\"}",
    );
    assert_eq!(status, 400);
    let (status, _, _) = req(
        addr,
        "POST",
        &format!("/v1/experiments/{id}/fork"),
        "{\"bogus\":1}",
    );
    assert_eq!(status, 400);
    let (status, _, _) = req(addr, "POST", "/v1/experiments/exp-999999/fork", "");
    assert_eq!(status, 404);

    // Lockstep-step both branches a day; the variant must diverge.
    let (status, _, body) = req(
        addr,
        "POST",
        &format!("/v1/experiments/{id}/branches/step"),
        "{\"slots\":1440}",
    );
    assert_eq!(status, 200, "body: {body}");
    assert_eq!(json_u64(&body, "stepped"), 1440);
    assert_eq!(json_u64(&body, "branches"), 2);
    let diverged_at = json_u64(&body, "first_divergence");
    assert!(
        diverged_at >= 300,
        "divergence at/after the fork slot: {body}"
    );

    // The comparison report reads inline.
    let (status, _, report) = get(addr, &format!("/v1/experiments/{id}/branches"));
    assert_eq!(status, 200, "report: {report}");
    assert_eq!(json_u64(&report, "fork_slot"), 300);
    assert_eq!(json_u64(&report, "branches"), 2);
    assert_eq!(json_u64(&report, "slots_run"), 1440);
    assert_eq!(json_u64(&report, "first_divergence"), diverged_at);
    assert!(report.contains("\"labels\":[\"branch-0\",\"hot\"]"));
    assert!(report.contains("\"attack_slots\":["));
    assert!(report.contains("\"battery_soc\":["));

    // The trunk never moved.
    let (status, _, metrics) = get(addr, &format!("/v1/experiments/{id}/metrics"));
    assert_eq!(status, 200);
    assert_eq!(json_u64(&metrics, "slots"), 300);

    // Discarding branches frees the tree; a second delete is a 404.
    let (status, _, body) = req(
        addr,
        "DELETE",
        &format!("/v1/experiments/{id}/branches"),
        "",
    );
    assert_eq!(status, 200, "body: {body}");
    assert_eq!(json_u64(&body, "deleted_branches"), 2);
    let (status, _, _) = req(
        addr,
        "DELETE",
        &format!("/v1/experiments/{id}/branches"),
        "",
    );
    assert_eq!(status, 404);
    let (status, _, _) = get(addr, &format!("/v1/experiments/{id}/branches"));
    assert_eq!(status, 404);

    // The daemon counters saw the branch traffic.
    let (_, _, metrics) = get(addr, "/v1/metrics");
    assert_eq!(json_u64(&metrics, "experiment_forks"), 2);
    assert_eq!(json_u64(&metrics, "experiment_branch_steps"), 1);
    assert_eq!(json_u64(&metrics, "checkpoint_failures"), 0);

    handle.stop();
    thread.join().unwrap();
}

#[test]
fn kill_and_restore_continues_bit_identically() {
    // The tentpole guarantee: kill the daemon mid-experiment, reboot on
    // the same state dir, finish stepping — the final metrics body must be
    // byte-identical to an uninterrupted /v1/simulate of the same
    // scenario.
    let dir = temp_state_dir("kill_restore");
    let scenario = exp_scenario();
    let total_slots = scenario.slots();

    let (addr, handle, thread) = boot(ServeConfig {
        workers: 2,
        state_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let (status, _, body) = req(addr, "POST", "/v1/experiments", EXP_SCENARIO);
    assert_eq!(status, 201, "body: {body}");
    let id = json_str(&body, "id");
    let (status, _, _) = req(
        addr,
        "POST",
        &format!("/v1/experiments/{id}/step"),
        "{\"slots\":1000}",
    );
    assert_eq!(status, 200);

    // Kill.
    handle.stop();
    thread.join().unwrap();

    // Reboot on the same state dir: the experiment is back with its
    // progress, and its checkpoint is byte-stable across the restart.
    let (addr, handle, thread) = boot(ServeConfig {
        workers: 2,
        state_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let (status, _, listing) = get(addr, "/v1/experiments");
    assert_eq!(status, 200);
    assert_eq!(json_u64(&listing, "count"), 1, "listing: {listing}");
    assert!(listing.contains(&format!("\"{id}\"")));
    let (_, _, metrics) = get(addr, &format!("/v1/experiments/{id}/metrics"));
    assert_eq!(json_u64(&metrics, "slots"), 1000);
    let (_, _, daemon_metrics) = get(addr, "/v1/metrics");
    assert_eq!(json_u64(&daemon_metrics, "experiments_restored"), 1);

    // Step to the full horizon and compare against the uninterrupted run.
    let remaining = total_slots - 1000;
    let (status, _, _) = req(
        addr,
        "POST",
        &format!("/v1/experiments/{id}/step"),
        &format!("{{\"slots\":{remaining}}}"),
    );
    assert_eq!(status, 200);
    let (status, _, experiment_body) = get(addr, &format!("/v1/experiments/{id}/metrics"));
    assert_eq!(status, 200);
    let (status, _, simulate_body) = post_simulate(addr, EXP_SCENARIO);
    assert_eq!(status, 200);
    assert_eq!(
        experiment_body, simulate_body,
        "killed-and-restored experiment must match the uninterrupted run byte for byte"
    );

    handle.stop();
    thread.join().unwrap();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn every_route_is_documented_in_service_md() {
    // docs/SERVICE.md must document every route the router serves, as a
    // literal "METHOD /path" string — adding a route without documenting
    // it fails here.
    let doc = include_str!("../../../docs/SERVICE.md");
    for route in hbm_serve::routes::ROUTES {
        for method in route.methods {
            let needle = format!("{method} {}", route.pattern);
            assert!(
                doc.contains(&needle),
                "docs/SERVICE.md does not document {needle:?}"
            );
        }
    }
}

#[test]
fn surrogate_tier_labels_responses_and_metrics() {
    // Fit a tiny real surrogate whose trust region covers the paper
    // default's per-server operating point (~130 W) and install it
    // process-wide, exactly as `hbm-serve --surrogate` does.
    let settings = hbm_surrogate::ExtractionSettings {
        config: hbm_thermal::CfdConfig {
            racks: 1,
            servers_per_rack: 2,
            ..hbm_thermal::CfdConfig::paper_default()
        },
        spike: hbm_units::Power::from_watts(120.0),
        window: hbm_units::Duration::from_minutes(5.0),
        lag_step: hbm_units::Duration::from_minutes(1.0),
    };
    let model = hbm_surrogate::SurrogateModel::fit(
        settings,
        hbm_surrogate::SurrogateDomain {
            lo: [50.0, 25.0, 0.03],
            hi: [250.0, 29.0, 0.10],
        },
        hbm_surrogate::FitOptions {
            grid_points: 3,
            holdout_every: 3,
            lambda: 1e-8,
        },
    )
    .expect("surrogate fits");
    let bound = model.max_abs_err_inlet_c();
    hbm_core::install_thermal_tier(Some(std::sync::Arc::new(
        hbm_surrogate::TieredExtractor::with_model(model, f64::INFINITY),
    )));

    let (addr, handle, thread) = boot(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });

    // Simulate: in-region, so the response is labeled as surrogate-tier.
    let (status, headers, body) = post_simulate(
        addr,
        "{\"policy\":\"myopic\",\"days\":1,\"warmup_days\":0,\"seed\":3}",
    );
    assert_eq!(status, 200, "body: {body}");
    assert_eq!(header(&headers, "x-thermal-tier"), Some("surrogate"));

    // Fork: the branch scenario consults the tier too.
    let (status, _, body) = req(addr, "POST", "/v1/experiments", EXP_SCENARIO);
    assert_eq!(status, 201, "body: {body}");
    let id = json_str(&body, "id");
    let (status, _, _) = req(
        addr,
        "POST",
        &format!("/v1/experiments/{id}/step"),
        "{\"slots\":10}",
    );
    assert_eq!(status, 200);
    let (status, headers, body) = req(
        addr,
        "POST",
        &format!("/v1/experiments/{id}/fork"),
        "{\"label\":\"hot\",\"attack_load_kw\":2.0}",
    );
    assert_eq!(status, 200, "body: {body}");
    assert_eq!(header(&headers, "x-thermal-tier"), Some("surrogate"));

    // Metrics carry the tier counters and the model's bound. Counters are
    // process-global (other tests' simulations may consult the tier while
    // it is installed), so assert lower bounds, not exact values.
    let (_, _, metrics) = get(addr, "/v1/metrics");
    assert!(
        json_u64(&metrics, "surrogate_hits") >= 2,
        "metrics: {metrics}"
    );
    let bound_key = format!("\"surrogate_bound_c\":{bound}");
    assert!(metrics.contains(&bound_key), "metrics: {metrics}");

    // Uninstall: back to the tier-less default for the rest of the suite.
    hbm_core::install_thermal_tier(None);
    let (_, headers, _) = post_simulate(
        addr,
        "{\"policy\":\"myopic\",\"days\":1,\"warmup_days\":0,\"seed\":4}",
    );
    assert_eq!(header(&headers, "x-thermal-tier"), None);
    let (_, _, metrics) = get(addr, "/v1/metrics");
    assert_eq!(json_u64(&metrics, "surrogate_bound_c"), 0);

    handle.stop();
    thread.join().unwrap();
}

//! The acceptance bar for `hbm-serve`: for the same canonical
//! configuration, the daemon's response body and the CLI's
//! `experiments simulate` stdout must be byte-identical — the two front
//! ends share one code path in `hbm_core::scenario` and this test keeps
//! them from drifting.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::Command;

use hbm_serve::{ServeConfig, Server};

/// Runs `experiments simulate ...` and returns its stdout bytes.
fn cli_simulate(args: &[&str]) -> Vec<u8> {
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("simulate")
        .args(args)
        .output()
        .expect("experiments binary runs");
    assert!(
        output.status.success(),
        "experiments simulate failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    output.stdout
}

/// POSTs `body` to a freshly booted server and returns the response body
/// bytes (after asserting a 200).
fn served_simulate(body: &str) -> Vec<u8> {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run().expect("server runs"));

    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST /v1/simulate HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read");
    handle.stop();
    thread.join().unwrap();

    let response = String::from_utf8(response).expect("utf-8 response");
    let (head, payload) = response.split_once("\r\n\r\n").expect("complete response");
    assert!(
        head.starts_with("HTTP/1.1 200"),
        "expected 200, got: {head}\n{payload}"
    );
    payload.as_bytes().to_vec()
}

#[test]
fn served_body_matches_cli_stdout_byte_for_byte() {
    let cli = cli_simulate(&[
        "--policy",
        "myopic",
        "--days",
        "1",
        "--warmup-days",
        "0",
        "--seed",
        "7",
    ]);
    let served = served_simulate("{\"policy\":\"myopic\",\"days\":1,\"warmup_days\":0,\"seed\":7}");
    assert!(!cli.is_empty(), "CLI printed nothing");
    assert_eq!(
        cli,
        served,
        "CLI: {}\nserved: {}",
        String::from_utf8_lossy(&cli),
        String::from_utf8_lossy(&served)
    );
}

#[test]
fn parity_holds_with_overrides() {
    let cli = cli_simulate(&[
        "--policy",
        "random",
        "--days",
        "1",
        "--warmup-days",
        "0",
        "--seed",
        "3",
        "--util",
        "0.5",
        "--attack-load-kw",
        "2.5",
        "--threshold-c",
        "33.5",
    ]);
    let served = served_simulate(
        "{\"policy\":\"random\",\"days\":1,\"warmup_days\":0,\"seed\":3,\
         \"utilization\":0.5,\"attack_load_kw\":2.5,\"threshold_c\":33.5}",
    );
    assert_eq!(
        cli,
        served,
        "CLI: {}\nserved: {}",
        String::from_utf8_lossy(&cli),
        String::from_utf8_lossy(&served)
    );
}

#[test]
fn bad_simulate_flags_exit_nonzero_with_usage() {
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["simulate", "--policy", "myopic", "--bogus", "1"])
        .output()
        .expect("experiments binary runs");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("usage:"), "no usage in: {stderr}");

    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["simulate", "--days", "1"])
        .output()
        .expect("experiments binary runs");
    assert_eq!(output.status.code(), Some(2), "missing --policy must fail");
}

#[test]
fn unsupported_harness_flags_exit_two_with_usage() {
    // simulate prints one JSON report to stdout; the harness-wide output,
    // parallelism, and timing flags do nothing there, and silently
    // accepting them would look like they worked.
    for (flag, value) in [
        ("--out", Some("somewhere")),
        ("--jobs", Some("4")),
        ("--trace", Some("somewhere")),
        ("--timings", None),
        ("--timings-json", Some("t.json")),
    ] {
        let mut args = vec!["simulate", "--policy", "myopic", "--days", "1", flag];
        args.extend(value);
        let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(&args)
            .output()
            .expect("experiments binary runs");
        assert_eq!(output.status.code(), Some(2), "{flag} must be rejected");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("simulate does not support {flag}")),
            "{flag}: {stderr}"
        );
        assert!(stderr.contains("usage:"), "{flag}: no usage in: {stderr}");
    }
}

/// Runs `experiments client --addr ADDR ARGS…`, returning the exit code
/// and stdout.
fn client(addr: &str, args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["client", "--addr", addr])
        .args(args)
        .output()
        .expect("experiments binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    (output.status.code(), stdout)
}

#[test]
fn client_drives_an_experiment_lifecycle() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run().expect("server runs"));

    let (code, created) = client(
        &addr,
        &[
            "create",
            "--policy",
            "myopic",
            "--days",
            "2",
            "--warmup-days",
            "0",
            "--seed",
            "7",
        ],
    );
    assert_eq!(code, Some(0), "create printed {created}");
    assert_eq!(
        created,
        "{\"id\":\"exp-000001\",\"policy\":\"myopic\",\"warmup_slots\":0,\"slots\":0}\n"
    );
    let (code, stepped) = client(&addr, &["step", "exp-000001", "--slots", "90"]);
    assert_eq!(code, Some(0), "step printed {stepped}");
    assert_eq!(
        stepped,
        "{\"id\":\"exp-000001\",\"stepped\":90,\"slots\":90}\n"
    );

    // `state` prints the body of GET …/state verbatim.
    let (code, state) = client(&addr, &["state", "exp-000001"]);
    assert_eq!(code, Some(0));
    let (status, body) = hbm_serve::http::roundtrip(
        &addr,
        &hbm_serve::http::request_bytes("GET", "/v1/experiments/exp-000001/state", None),
    )
    .expect("state read");
    assert_eq!(status, 200);
    assert_eq!(state, body);

    let (code, metrics) = client(&addr, &["metrics", "exp-000001"]);
    assert_eq!(code, Some(0));
    assert!(
        metrics.contains("\"slots\":90"),
        "metrics printed {metrics}"
    );
    let (code, deleted) = client(&addr, &["delete", "exp-000001"]);
    assert_eq!(code, Some(0));
    assert_eq!(deleted, "{\"deleted\":\"exp-000001\"}\n");

    // An error answer exits 2 and prints nothing to stdout.
    assert_eq!(
        client(&addr, &["state", "exp-000001"]),
        (Some(2), String::new())
    );

    handle.stop();
    thread.join().unwrap();
}

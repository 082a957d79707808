//! Command-line values at the edge of their type: the harness must reject
//! them with usage or compute with them, never panic.

use std::path::Path;
use std::process::Command;

fn experiments(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .arg("--out")
        .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_inputs"))
        .output()
        .expect("experiments binary runs")
}

#[test]
fn overflowing_horizon_exits_two_with_usage() {
    let output = experiments(&["fig12a", "--days", "13000000000000000"]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("overflows"), "{stderr}");
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn largest_seed_derives_defense_roc_noise_seeds() {
    let output = experiments(&[
        "defense_roc",
        "--days",
        "1",
        "--seed",
        "18446744073709551615",
    ]);
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
}

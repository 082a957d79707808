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

#[test]
fn removed_surrogate_subcommand_is_an_unknown_experiment() {
    let output = experiments(&["surrogate", "fit", "--model", "m.json"]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("unknown experiment \"surrogate\""),
        "{stderr}"
    );
}

/// Runs a one-day fig8 traced into a fresh `dir`, after `plant` has put
/// something at `dir/fig8.jsonl`; the run must exit 1 and name the file.
fn assert_trace_failure_is_reported(dir: &str, plant: impl FnOnce(&Path)) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(dir);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    plant(&dir.join("fig8.jsonl"));
    let output = experiments(&[
        "fig8",
        "--days",
        "1",
        "--warmup-days",
        "0",
        "--trace",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(output.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("fig8.jsonl"), "{stdout}");
}

#[cfg(target_os = "linux")]
#[test]
fn unwritable_trace_names_the_file_and_exits_one() {
    assert_trace_failure_is_reported("cli_inputs_full_trace", |file| {
        std::os::unix::fs::symlink("/dev/full", file).unwrap();
    });
}

#[test]
fn uncreatable_trace_names_the_file_and_exits_one() {
    assert_trace_failure_is_reported("cli_inputs_dir_trace", |file| {
        std::fs::create_dir(file).unwrap();
    });
}

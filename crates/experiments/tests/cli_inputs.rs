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

#[test]
fn override_flags_reject_missing_and_non_numeric_values() {
    const FLAGS: [&str; 5] = [
        "--util",
        "--attack-load-kw",
        "--battery-kwh",
        "--threshold-c",
        "--cap-w",
    ];
    // Every command that takes the scenario overrides, with the arguments
    // that precede the flag. `client` fails on the flag before it dials.
    let commands: [&[&str]; 4] = [
        &["simulate", "--policy", "myopic"],
        &["whatif", "--policy", "myopic"],
        &["client", "create", "--policy", "myopic"],
        &["client", "perturb", "exp-1"],
    ];
    for command in commands {
        for flag in FLAGS {
            for (value, expected) in [
                (None, format!("{flag} requires a value")),
                (Some("warm"), format!("{flag}: invalid float literal")),
            ] {
                let mut args = command.to_vec();
                args.push(flag);
                args.extend(value);
                let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
                    .args(&args)
                    .output()
                    .expect("experiments binary runs");
                let stderr = String::from_utf8_lossy(&output.stderr);
                assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
                assert!(stderr.contains(&expected), "{args:?}: {stderr}");
            }
        }
    }
}

#[test]
fn policy_followed_by_a_flag_is_a_missing_value() {
    // Each command that takes `--policy`; `client` fails before it dials.
    let commands: [&[&str]; 3] = [&["simulate"], &["whatif"], &["client", "create"]];
    for command in commands {
        let mut args = command.to_vec();
        args.extend(["--policy", "--util", "0.5"]);
        let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(&args)
            .output()
            .expect("experiments binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("error: --policy requires a value"),
            "{args:?}: {stderr}"
        );
    }
}

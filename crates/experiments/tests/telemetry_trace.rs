//! Telemetry must be an observer, not a participant: tracing cannot change
//! any published CSV, the JSONL channels must agree with the CSV columns
//! they mirror, every trace's bytes are pinned, and the run manifest's
//! deterministic fields must not depend on `--jobs`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use hbm_telemetry::{deterministic_manifest_fields, fnv1a64, parse_jsonl_line, JsonValue};

fn base_dir(sub: &str) -> std::path::PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(sub);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run(ids: &[&str], out_dir: &Path, extra: &[&str]) {
    let status = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(ids)
        .args(["--days", "1", "--warmup-days", "0", "--seed", "42"])
        .arg("--out")
        .arg(out_dir)
        .args(extra)
        .status()
        .expect("experiments binary runs");
    assert!(status.success(), "experiments {ids:?} {extra:?} failed");
}

fn read_csvs(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("output dir exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "csv") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            out.insert(name, std::fs::read(&path).expect("csv readable"));
        }
    }
    out
}

/// Enabling `--trace` (and `--timings`) must leave every CSV byte-identical:
/// traces are written from the records a run returns anyway.
#[test]
fn tracing_does_not_perturb_csvs() {
    let base = base_dir("telemetry_golden");
    let plain_dir = base.join("plain");
    let traced_dir = base.join("traced");
    let trace_dir = base.join("trace");

    run(&["fig9"], &plain_dir, &[]);
    run(
        &["fig9"],
        &traced_dir,
        &["--trace", trace_dir.to_str().unwrap(), "--timings"],
    );

    let plain = read_csvs(&plain_dir);
    let traced = read_csvs(&traced_dir);
    assert!(!plain.is_empty(), "untraced run produced no CSVs");
    assert_eq!(
        plain.keys().collect::<Vec<_>>(),
        traced.keys().collect::<Vec<_>>(),
        "tracing changed the set of CSVs"
    );
    for (name, bytes) in &plain {
        assert_eq!(bytes, &traced[name], "{name} differs with tracing enabled");
    }
    for policy in ["random", "myopic", "foresighted"] {
        assert!(
            trace_dir.join(format!("fig9_{policy}.jsonl")).is_file(),
            "missing fig9_{policy}.jsonl"
        );
    }
    assert!(trace_dir.join("manifest.json").is_file());
    assert!(traced_dir.join("manifest.json").is_file());
}

fn channel_f64(channels: &[(String, JsonValue)], name: &str) -> f64 {
    channels
        .iter()
        .find(|(n, _)| n == name)
        .and_then(|(_, v)| v.as_f64())
        .unwrap_or_else(|| panic!("channel {name} missing or not a number"))
}

fn channel_bool(channels: &[(String, JsonValue)], name: &str) -> bool {
    channels
        .iter()
        .find(|(n, _)| n == name)
        .and_then(|(_, v)| v.as_bool())
        .unwrap_or_else(|| panic!("channel {name} missing or not a bool"))
}

/// Everything in a fig9 CSV row after the (window-relative) minute column,
/// rebuilt from a JSONL record with the CSV's own format strings. Equality
/// is therefore exact: both sides round-trip the same f64s.
fn csv_suffix_from_jsonl(channels: &[(String, JsonValue)]) -> String {
    format!(
        "{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.2},{},{}",
        channel_f64(channels, "benign_kw"),
        channel_f64(channels, "metered_kw"),
        channel_f64(channels, "actual_kw"),
        channel_f64(channels, "attack_kw"),
        channel_f64(channels, "soc"),
        channel_f64(channels, "est_kw"),
        channel_f64(channels, "inlet_c"),
        u8::from(channel_bool(channels, "capping")),
        u8::from(channel_bool(channels, "outage")),
    )
}

/// The JSONL trace records every simulated slot; the CSV publishes the most
/// interesting 4-hour window. Some contiguous slice of the trace must
/// reproduce the CSV exactly, column for column.
#[test]
fn jsonl_channels_match_csv_columns() {
    let base = base_dir("telemetry_match");
    let out_dir = base.join("csv");
    let trace_dir = base.join("trace");
    run(
        &["fig9"],
        &out_dir,
        &["--trace", trace_dir.to_str().unwrap()],
    );

    for policy in ["random", "myopic", "foresighted"] {
        let csv = std::fs::read_to_string(out_dir.join(format!("fig9_{policy}.csv")))
            .expect("csv readable");
        let csv_rows: Vec<&str> = csv.lines().skip(1).collect(); // drop header
        assert_eq!(csv_rows.len(), 240, "fig9 window is 4 h of minutes");
        let csv_suffixes: Vec<&str> = csv_rows
            .iter()
            .map(|row| row.split_once(',').expect("minute column").1)
            .collect();

        let jsonl = std::fs::read_to_string(trace_dir.join(format!("fig9_{policy}.jsonl")))
            .expect("jsonl readable");
        let records: Vec<(u64, Vec<(String, JsonValue)>)> = jsonl
            .lines()
            .map(|line| parse_jsonl_line(line).expect("valid JSONL record"))
            .collect();
        assert_eq!(records.len(), 4 * 1440, "one record per simulated slot");
        let trace_suffixes: Vec<String> = records
            .iter()
            .map(|(_, channels)| csv_suffix_from_jsonl(channels))
            .collect();

        // CSV minutes are window-relative; find the window in the trace.
        let window = (0..=trace_suffixes.len() - 240)
            .find(|&s| (0..240).all(|i| trace_suffixes[s + i] == csv_suffixes[i]));
        let start = window.unwrap_or_else(|| {
            panic!("fig9_{policy}: no 240-slot trace window reproduces the CSV")
        });
        // And the trace's absolute slot indices must be contiguous there.
        for i in 0..240 {
            assert_eq!(records[start + i].0, (start + i) as u64);
        }
    }
}

/// Every JSONL trace, byte for byte: the FNV-1a digests of fig8's, fig9's
/// three and the defense residual detector's traces at `--days 1
/// --warmup-days 0 --seed 42`. A change that alters any traced value or
/// its encoding must update these digests.
#[test]
fn trace_bytes_are_pinned() {
    let base = base_dir("telemetry_digests");
    let trace_dir = base.join("trace");
    run(
        &["fig8", "fig9", "defense"],
        &base.join("csv"),
        &["--trace", trace_dir.to_str().unwrap()],
    );
    let pinned: [(&str, u64); 5] = [
        ("fig8", 0x6021_4630_876b_3390),
        ("fig9_random", 0xcca4_037a_675e_ff6f),
        ("fig9_myopic", 0xbe8a_6851_5893_6a14),
        ("fig9_foresighted", 0x9413_edd2_e53d_4cdb),
        ("defense_residual", 0x91bb_7386_b2c7_2ce6),
    ];
    let digests = pinned.map(|(name, _)| {
        let path = trace_dir.join(format!("{name}.jsonl"));
        let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        (name, fnv1a64(&bytes))
    });
    assert_eq!(digests, pinned, "a pinned trace changed");
}

/// `--jobs` may only influence the manifest's volatile fields (jobs itself,
/// timestamps); seed, config hash, parameters, and versions must be stable.
#[test]
fn manifest_deterministic_fields_stable_across_jobs() {
    let base = base_dir("telemetry_manifest");
    let dir1 = base.join("jobs1");
    let dir4 = base.join("jobs4");
    run(&["fig9", "fig11a"], &dir1, &["--jobs", "1"]);
    run(&["fig9", "fig11a"], &dir4, &["--jobs", "4"]);

    let m1 = std::fs::read_to_string(dir1.join("manifest.json")).expect("manifest 1");
    let m4 = std::fs::read_to_string(dir4.join("manifest.json")).expect("manifest 4");
    assert_ne!(m1, m4, "volatile fields (jobs) should differ");
    let d1 = deterministic_manifest_fields(&m1).expect("manifest 1 parses");
    let d4 = deterministic_manifest_fields(&m4).expect("manifest 4 parses");
    assert_eq!(d1, d4, "deterministic manifest fields differ across --jobs");
    assert!(
        d1.iter().any(|(k, _)| k == "config_hash"),
        "manifest must carry a config hash"
    );
}

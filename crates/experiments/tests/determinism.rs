//! The parallel harness must be invisible in the results: the same
//! experiments, seed, and horizon must produce byte-identical CSVs
//! whatever `--jobs` is set to. The heaviest trace-sharing figures are
//! also pinned to FNV-1a digests of their CSVs, so a change to what the
//! binary writes fails here, not only when `results/` is regenerated.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// Reads every CSV in `dir` into a name → bytes map.
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

fn run(ids: &[&str], horizon: &[&str], jobs: usize, out_dir: &Path) {
    let status = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(ids)
        .args(horizon)
        .args(["--seed", "42"])
        .arg("--out")
        .arg(out_dir)
        .args(["--jobs", &jobs.to_string()])
        .status()
        .expect("experiments binary runs");
    assert!(status.success(), "experiments --jobs {jobs} failed");
}

/// Runs `ids` at `--jobs 1` and `--jobs 4`, asserts the two runs wrote
/// byte-identical CSVs, and returns them.
fn csvs_across_jobs(name: &str, ids: &[&str], horizon: &[&str]) -> BTreeMap<String, Vec<u8>> {
    let base = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let serial_dir = base.join("jobs1");
    let parallel_dir = base.join("jobs4");
    let _ = std::fs::remove_dir_all(&base);

    run(ids, horizon, 1, &serial_dir);
    run(ids, horizon, 4, &parallel_dir);

    let serial = read_csvs(&serial_dir);
    let parallel = read_csvs(&parallel_dir);
    assert!(!serial.is_empty(), "serial run produced no CSVs");
    assert_eq!(
        serial.keys().collect::<Vec<_>>(),
        parallel.keys().collect::<Vec<_>>(),
        "the two runs wrote different file sets"
    );
    for (name, bytes) in &serial {
        assert_eq!(
            bytes, &parallel[name],
            "{name} differs between --jobs 1 and --jobs 4"
        );
    }
    serial
}

#[test]
fn csvs_are_byte_identical_across_jobs() {
    // fig9 exercises the parallel multi-policy sweep, fig11a and fig14b are
    // cheap analytic figures mixed in so the driver-level fan-out across
    // experiments is exercised too.
    csvs_across_jobs(
        "determinism",
        &["fig9", "fig11a", "fig14b"],
        &["--days", "1", "--warmup-days", "0"],
    );
}

/// 64-bit FNV-1a over a file's bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &byte in bytes {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The figures that share one tenant trace most: fig11bc batches 18 lanes
/// over it (the shared-trace warm-up, then a ragged measured batch), and
/// fig12e builds its 36 scalar runs on it. A two-day horizon with one day
/// of warm-up keeps the debug build under a second per run.
#[test]
fn trace_sharing_figures_match_pinned_digests() {
    let csvs = csvs_across_jobs(
        "pinned_digests",
        &["fig11bc", "fig12e"],
        &["--days", "2", "--warmup-days", "1"],
    );
    let digests: Vec<(&str, u64)> = csvs
        .iter()
        .map(|(name, bytes)| (name.as_str(), fnv1a(bytes)))
        .collect();
    assert_eq!(digests, PINNED_DIGESTS, "a pinned figure's CSV changed");
}

/// Digests of the CSVs `experiments fig11bc fig12e --days 2 --warmup-days 1
/// --seed 42` writes. A change that alters them must update them and the
/// committed `results/` together, and say why.
const PINNED_DIGESTS: [(&str, u64); 2] = [
    ("fig11bc.csv", 0xd802_676a_b1c2_ed6c),
    ("fig12e.csv", 0x618c_6aaf_da9f_ab6d),
];

//! The parallel harness must be invisible in the results: the same
//! experiments, seed, and horizon must produce byte-identical CSVs
//! whatever `--jobs` is set to. The figures that ride the batch engine
//! (fig11bc, fig12a–e, setpoint, ablation) are also pinned to FNV-1a
//! digests of their CSVs, so a change to what the binary writes fails
//! here, not only when `results/` is regenerated.

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

/// Runs `ids` at `--days 2 --warmup-days 1 --seed 42` (at `--jobs 1` and
/// `--jobs 4`) and asserts the FNV-1a digests of their CSVs. A two-day
/// horizon with one day of warm-up keeps each debug run within seconds.
fn assert_pinned_digests(name: &str, ids: &[&str], pinned: &[(&str, u64)]) {
    let csvs = csvs_across_jobs(name, ids, &["--days", "2", "--warmup-days", "1"]);
    let digests: Vec<(&str, u64)> = csvs
        .iter()
        .map(|(name, bytes)| (name.as_str(), fnv1a(bytes)))
        .collect();
    assert_eq!(digests, pinned, "a pinned figure's CSV changed");
}

/// The figures that share one tenant trace most: fig11bc batches 18 lanes
/// over it (the shared-trace warm-up, then a ragged measured batch), and
/// fig12e batches its baseline and 35 headroom × battery lanes on it.
#[test]
fn trace_sharing_figures_match_pinned_digests() {
    assert_pinned_digests(
        "pinned_digests",
        &["fig11bc", "fig12e"],
        &TRACE_SHARING_DIGESTS,
    );
}

/// The batched sweeps: fig12a–d (a Myopic and a warmed-up Foresighted lane
/// per knob value; fig12d's utilizations give each value its own trace),
/// setpoint (four Myopic lanes) and ablation (both learning rules stepped
/// a fortnight at a time over its fixed 140-day horizon).
#[test]
fn batched_sweeps_match_pinned_digests() {
    assert_pinned_digests(
        "pinned_sweeps",
        &[
            "fig12a", "fig12b", "fig12c", "fig12d", "setpoint", "ablation",
        ],
        &SWEEP_DIGESTS,
    );
}

/// Digests of the CSVs `experiments fig11bc fig12e --days 2 --warmup-days 1
/// --seed 42` writes. A change that alters them must update them and the
/// committed `results/` together, and say why.
const TRACE_SHARING_DIGESTS: [(&str, u64); 2] = [
    ("fig11bc.csv", 0xd802_676a_b1c2_ed6c),
    ("fig12e.csv", 0x618c_6aaf_da9f_ab6d),
];

/// Digests of the CSVs `experiments fig12a fig12b fig12c fig12d setpoint
/// ablation --days 2 --warmup-days 1 --seed 42` writes, computed with the
/// scalar sweeps these figures ran before they moved onto the batch engine.
const SWEEP_DIGESTS: [(&str, u64); 6] = [
    ("ablation.csv", 0xa4ab_2ce4_8612_2d88),
    ("fig12a.csv", 0x95b8_eb9d_81f3_a21f),
    ("fig12b.csv", 0x9c50_bde4_3b78_78ee),
    ("fig12c.csv", 0x0ae7_7bd9_5d34_f17f),
    ("fig12d.csv", 0xe3f6_528e_5d35_c392),
    ("setpoint.csv", 0xe083_0872_ead9_f1d0),
];

//! On-disk experiment state: manifests and checkpoints.
//!
//! Layout under the daemon's `--state-dir`:
//!
//! ```text
//! <state-dir>/experiments/<id>/manifest.json    # meta line + scenario line
//! <state-dir>/experiments/<id>/checkpoint.json  # one hbm-checkpoint-v1 line
//! ```
//!
//! `manifest.json` holds two flat-JSON lines: experiment metadata (id,
//! warm-up length, op counters) and the *effective* scenario (base scenario
//! with every applied perturbation folded in, via
//! [`hbm_core::Scenario::to_flat_json`]). `checkpoint.json` is the latest
//! [`Snapshot::to_json`] line. Together they are one [`ExperimentRecord`],
//! enough to rebuild the experiment bit-exactly: rebuild from the scenario,
//! restore from the checkpoint.
//!
//! Each file is replaced through a temp file + `rename`, so a crash never
//! leaves a torn file. The pair is not replaced atomically: a crash
//! between the two renames leaves the new manifest beside the previous
//! checkpoint (see `docs/OPERATIONS.md`).

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use hbm_core::Snapshot;
use hbm_telemetry::json::{Fields, JsonObject};

/// Schema tag of the manifest meta line.
pub const MANIFEST_SCHEMA: &str = "hbm-experiment-v1";

/// One experiment as persisted: what the write-behind queue holds (with
/// the snapshot still binary, serialized by the writer thread) and what
/// crash recovery reads back.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRecord {
    /// Warm-up slots run at creation.
    pub warmup_slots: u64,
    /// Completed step operations.
    pub steps: u64,
    /// Applied perturbations.
    pub perturbs: u64,
    /// The effective scenario, one flat-JSON line (shared, not copied).
    pub scenario_json: Arc<String>,
    /// The dynamic state; `checkpoint.json` holds its JSON line.
    pub snapshot: Arc<Snapshot>,
}

/// The experiment directory of one state dir.
#[derive(Debug)]
pub struct ExperimentStore {
    root: PathBuf,
}

impl ExperimentStore {
    /// Opens (creating if needed) `<state_dir>/experiments`.
    ///
    /// # Errors
    ///
    /// Returns the underlying directory-creation error.
    pub fn open(state_dir: &Path) -> io::Result<ExperimentStore> {
        let root = state_dir.join("experiments");
        std::fs::create_dir_all(&root)?;
        Ok(ExperimentStore { root })
    }

    fn dir(&self, id: &str) -> PathBuf {
        self.root.join(id)
    }

    /// Writes the manifest, then the checkpoint, of `id`, each atomically.
    ///
    /// # Errors
    ///
    /// Returns the first underlying filesystem error.
    pub fn save(&self, id: &str, record: &ExperimentRecord) -> io::Result<()> {
        let dir = self.dir(id);
        std::fs::create_dir_all(&dir)?;
        let mut meta = JsonObject::new();
        meta.str("schema", MANIFEST_SCHEMA)
            .str("id", id)
            .u64("warmup_slots", record.warmup_slots)
            .u64("steps", record.steps)
            .u64("perturbs", record.perturbs);
        let manifest = format!("{}\n{}\n", meta.finish(), record.scenario_json);
        write_atomic(&dir.join("manifest.json"), manifest.as_bytes())?;
        let checkpoint = record.snapshot.to_json() + "\n";
        write_atomic(&dir.join("checkpoint.json"), checkpoint.as_bytes())
    }

    /// Removes `id`'s directory; absent is not an error.
    ///
    /// # Errors
    ///
    /// Returns the underlying removal error.
    pub fn remove(&self, id: &str) -> io::Result<()> {
        match std::fs::remove_dir_all(self.dir(id)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    /// Reads every recoverable experiment as `(id, record)`, in id order.
    /// Unreadable or malformed entries are skipped with a warning on
    /// stderr — recovery restores what it can rather than refusing to
    /// boot.
    pub fn load_all(&self) -> Vec<(String, ExperimentRecord)> {
        let mut out = Vec::new();
        let entries = match std::fs::read_dir(&self.root) {
            Ok(entries) => entries,
            Err(_) => return out,
        };
        let mut ids: Vec<String> = entries
            .filter_map(|e| e.ok())
            .filter(|e| e.path().is_dir())
            .filter_map(|e| e.file_name().into_string().ok())
            .collect();
        ids.sort();
        for id in ids {
            match self.load_one(&id) {
                Ok(record) => out.push((id, record)),
                Err(e) => eprintln!("warning: skipping experiment {id:?}: {e}"),
            }
        }
        out
    }

    fn load_one(&self, id: &str) -> Result<ExperimentRecord, String> {
        let dir = self.dir(id);
        let manifest = std::fs::read_to_string(dir.join("manifest.json"))
            .map_err(|e| format!("reading manifest.json: {e}"))?;
        let mut lines = manifest.lines();
        let meta_line = lines.next().ok_or("manifest.json is empty")?;
        let scenario_json = lines
            .next()
            .ok_or("manifest.json is missing the scenario line")?
            .to_string();
        let (warmup_slots, steps, perturbs) =
            read_meta(meta_line).map_err(|e| format!("manifest meta line: {e}"))?;
        let checkpoint = std::fs::read_to_string(dir.join("checkpoint.json"))
            .map_err(|e| format!("reading checkpoint.json: {e}"))?;
        let snapshot = Snapshot::from_json(checkpoint.trim_end())
            .map_err(|e| format!("checkpoint.json: {e}"))?;
        Ok(ExperimentRecord {
            warmup_slots,
            steps,
            perturbs,
            scenario_json: Arc::new(scenario_json),
            snapshot: Arc::new(snapshot),
        })
    }
}

/// Reads a manifest meta line: `(warmup_slots, steps, perturbs)`.
fn read_meta(line: &str) -> Result<(u64, u64, u64), String> {
    let mut meta = Fields::parse(line)?;
    let schema = meta.str("schema")?;
    if schema != MANIFEST_SCHEMA {
        return Err(format!("schema {schema:?} (expected {MANIFEST_SCHEMA:?})"));
    }
    // The directory name is the id; the copy in the line is informational.
    meta.str("id")?;
    let counters = (
        meta.u64("warmup_slots")?,
        meta.u64("steps")?,
        meta.u64("perturbs")?,
    );
    meta.finish()?;
    Ok(counters)
}

/// Writes `bytes` to `path` through a sibling temp file + rename, so
/// readers and crash recovery only ever see complete files.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hbm_core::Scenario;

    /// A real record: a one-day myopic run stepped `slots` slots, with
    /// `slots` as its step counter.
    pub(crate) fn record(slots: u64) -> ExperimentRecord {
        let mut s = Scenario::new("myopic");
        s.days = 1;
        s.warmup_days = 0;
        s.seed = 3;
        let (mut sim, _) = s.build_sim().unwrap();
        sim.run(slots);
        ExperimentRecord {
            warmup_slots: 0,
            steps: slots,
            perturbs: 0,
            scenario_json: Arc::new(s.to_flat_json()),
            snapshot: Arc::new(sim.snapshot()),
        }
    }

    fn temp_store(tag: &str) -> (PathBuf, ExperimentStore) {
        let dir = std::env::temp_dir().join(format!("hbm_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ExperimentStore::open(&dir).unwrap();
        (dir, store)
    }

    #[test]
    fn save_load_remove_round_trip() {
        let (dir, store) = temp_store("rt");
        let first = ExperimentRecord {
            warmup_slots: 10,
            perturbs: 1,
            ..record(3)
        };
        store.save("exp-000001", &first).unwrap();
        store.save("exp-000002", &record(0)).unwrap();
        let all = store.load_all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0], ("exp-000001".to_string(), first.clone()));
        let checkpoint =
            std::fs::read_to_string(dir.join("experiments/exp-000001/checkpoint.json")).unwrap();
        assert_eq!(checkpoint, first.snapshot.to_json() + "\n");

        store.remove("exp-000001").unwrap();
        store.remove("exp-000001").unwrap(); // absent is fine
        assert_eq!(store.load_all().len(), 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupt_entries_are_skipped_not_fatal() {
        let (dir, store) = temp_store("corrupt");
        store.save("exp-000001", &record(0)).unwrap();
        // A directory with a torn manifest, one with no checkpoint, and
        // one whose checkpoint is not a snapshot.
        std::fs::create_dir_all(dir.join("experiments/exp-000002")).unwrap();
        std::fs::write(dir.join("experiments/exp-000002/manifest.json"), "{bad").unwrap();
        std::fs::create_dir_all(dir.join("experiments/exp-000003")).unwrap();
        store.save("exp-000004", &record(0)).unwrap();
        std::fs::write(
            dir.join("experiments/exp-000004/checkpoint.json"),
            "{\"s\":1}\n",
        )
        .unwrap();
        let all = store.load_all();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].0, "exp-000001");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn malformed_counters_and_duplicates_are_skipped_not_restored() {
        let (dir, store) = temp_store("counters");
        for (id, meta) in [
            // A negative counter used to restore, saturated to 0.
            (
                "exp-000001",
                "\"warmup_slots\":0,\"steps\":-3,\"perturbs\":0",
            ),
            (
                "exp-000002",
                "\"warmup_slots\":0,\"steps\":1.5,\"perturbs\":0",
            ),
            (
                "exp-000003",
                "\"warmup_slots\":0,\"steps\":1,\"steps\":2,\"perturbs\":0",
            ),
            (
                "exp-000004",
                "\"warmup_slots\":0,\"steps\":1,\"perturbs\":0,\"extra\":1",
            ),
            (
                "exp-000005",
                "\"warmup_slots\":0,\"steps\":4,\"perturbs\":0",
            ),
        ] {
            store.save(id, &record(0)).unwrap();
            let manifest =
                format!("{{\"schema\":\"{MANIFEST_SCHEMA}\",\"id\":\"{id}\",{meta}}}\n{{}}\n");
            std::fs::write(
                dir.join("experiments").join(id).join("manifest.json"),
                manifest,
            )
            .unwrap();
        }
        let all = store.load_all();
        assert_eq!(all.len(), 1, "{all:?}");
        assert_eq!((all[0].0.as_str(), all[0].1.steps), ("exp-000005", 4));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn meta_reader_answers_every_single_byte_mutation_and_refuses_duplicates() {
        let valid = format!(
            "{{\"schema\":\"{MANIFEST_SCHEMA}\",\"id\":\"exp-000001\",\"warmup_slots\":10,\"steps\":3,\"perturbs\":1}}"
        );
        assert_eq!(read_meta(&valid), Ok((10, 3, 1)));
        for i in 0..valid.len() {
            for byte in 0..128u8 {
                let mut line = valid.clone().into_bytes();
                line[i] = byte;
                let _ = read_meta(std::str::from_utf8(&line).unwrap());
            }
        }
        for field in valid[1..valid.len() - 1].split(',') {
            let dup = format!("{{{field},{}", &valid[1..]);
            assert!(
                read_meta(&dup).unwrap_err().contains("duplicate field"),
                "{dup}"
            );
        }
    }

    #[test]
    fn rewrites_are_atomic_renames() {
        let (dir, store) = temp_store("atomic");
        store.save("exp-000001", &record(1)).unwrap();
        store.save("exp-000001", &record(2)).unwrap();
        let all = store.load_all();
        assert_eq!(all[0].1, record(2));
        // No temp litter left behind.
        let leftovers: Vec<_> = std::fs::read_dir(dir.join("experiments/exp-000001"))
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty());
        let _ = std::fs::remove_dir_all(dir);
    }
}

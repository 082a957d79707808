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
//! [`hbm_core::Simulation::snapshot_json`] line. Together they are enough
//! to rebuild the experiment bit-exactly: rebuild from the scenario,
//! restore from the checkpoint.
//!
//! Every write goes through a temp file + `rename`, so a crash mid-write
//! leaves the previous consistent pair in place, never a torn file.

use std::io;
use std::path::{Path, PathBuf};

use hbm_telemetry::json::{Fields, JsonObject};

/// Schema tag of the manifest meta line.
pub const MANIFEST_SCHEMA: &str = "hbm-experiment-v1";

/// One experiment as read back from disk during crash recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistedExperiment {
    /// Experiment id (the directory name).
    pub id: String,
    /// Warm-up slots run at creation.
    pub warmup_slots: u64,
    /// Completed step operations.
    pub steps: u64,
    /// Applied perturbations.
    pub perturbs: u64,
    /// The effective scenario, as one flat-JSON line.
    pub scenario_json: String,
    /// The latest checkpoint line.
    pub snapshot: String,
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

    /// Atomically writes the manifest and checkpoint for `id`.
    ///
    /// # Errors
    ///
    /// Returns the first underlying filesystem error.
    pub fn save(
        &self,
        id: &str,
        warmup_slots: u64,
        steps: u64,
        perturbs: u64,
        scenario_json: &str,
        snapshot: &str,
    ) -> io::Result<()> {
        let dir = self.dir(id);
        std::fs::create_dir_all(&dir)?;
        let mut meta = JsonObject::new();
        meta.str("schema", MANIFEST_SCHEMA)
            .str("id", id)
            .u64("warmup_slots", warmup_slots)
            .u64("steps", steps)
            .u64("perturbs", perturbs);
        let manifest = format!("{}\n{scenario_json}\n", meta.finish());
        write_atomic(&dir.join("manifest.json"), manifest.as_bytes())?;
        write_atomic(
            &dir.join("checkpoint.json"),
            format!("{snapshot}\n").as_bytes(),
        )
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

    /// Reads every recoverable experiment, in id order. Unreadable or
    /// malformed entries are skipped with a warning on stderr — recovery
    /// restores what it can rather than refusing to boot.
    pub fn load_all(&self) -> Vec<PersistedExperiment> {
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
                Ok(p) => out.push(p),
                Err(e) => eprintln!("warning: skipping experiment {id:?}: {e}"),
            }
        }
        out
    }

    fn load_one(&self, id: &str) -> Result<PersistedExperiment, String> {
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
        let snapshot = std::fs::read_to_string(dir.join("checkpoint.json"))
            .map_err(|e| format!("reading checkpoint.json: {e}"))?
            .trim_end()
            .to_string();
        if snapshot.is_empty() {
            return Err("checkpoint.json is empty".into());
        }
        Ok(PersistedExperiment {
            id: id.to_string(),
            warmup_slots,
            steps,
            perturbs,
            scenario_json,
            snapshot,
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
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> (PathBuf, ExperimentStore) {
        let dir = std::env::temp_dir().join(format!("hbm_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ExperimentStore::open(&dir).unwrap();
        (dir, store)
    }

    #[test]
    fn save_load_remove_round_trip() {
        let (dir, store) = temp_store("rt");
        store
            .save(
                "exp-000001",
                10,
                3,
                1,
                "{\"policy\":\"myopic\"}",
                "{\"s\":1}",
            )
            .unwrap();
        store
            .save(
                "exp-000002",
                0,
                0,
                0,
                "{\"policy\":\"random\"}",
                "{\"s\":2}",
            )
            .unwrap();
        let all = store.load_all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].id, "exp-000001");
        assert_eq!(all[0].warmup_slots, 10);
        assert_eq!(all[0].steps, 3);
        assert_eq!(all[0].perturbs, 1);
        assert_eq!(all[0].scenario_json, "{\"policy\":\"myopic\"}");
        assert_eq!(all[0].snapshot, "{\"s\":1}");

        store.remove("exp-000001").unwrap();
        store.remove("exp-000001").unwrap(); // absent is fine
        assert_eq!(store.load_all().len(), 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupt_entries_are_skipped_not_fatal() {
        let (dir, store) = temp_store("corrupt");
        store
            .save(
                "exp-000001",
                0,
                0,
                0,
                "{\"policy\":\"myopic\"}",
                "{\"s\":1}",
            )
            .unwrap();
        // A directory with a torn manifest and one with no checkpoint.
        std::fs::create_dir_all(dir.join("experiments/exp-000002")).unwrap();
        std::fs::write(dir.join("experiments/exp-000002/manifest.json"), "{bad").unwrap();
        std::fs::create_dir_all(dir.join("experiments/exp-000003")).unwrap();
        let all = store.load_all();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].id, "exp-000001");
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
            store.save(id, 0, 0, 0, "{}", "{\"s\":1}").unwrap();
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
        assert_eq!((all[0].id.as_str(), all[0].steps), ("exp-000005", 4));
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
        store
            .save("exp-000001", 0, 1, 0, "{}", "{\"v\":1}")
            .unwrap();
        store
            .save("exp-000001", 0, 2, 0, "{}", "{\"v\":2}")
            .unwrap();
        let all = store.load_all();
        assert_eq!(all[0].snapshot, "{\"v\":2}");
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

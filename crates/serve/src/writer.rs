//! Write-behind checkpointing: a dedicated thread turns in-memory
//! snapshots into on-disk checkpoints off the request path.
//!
//! A [`CheckpointWriter`] is a *latest-wins* queue: each enqueue coalesces
//! onto any still-pending save for the same experiment (only the newest
//! record matters — checkpoints are recovery points, not a journal), and a
//! single writer thread serializes the snapshot and writes both files. The
//! queue is bounded by construction: at most one pending save per live
//! experiment, so its size never exceeds the supervisor's experiment
//! capacity.
//!
//! Durability contract: [`CheckpointWriter::flush`] drains the queue and
//! any in-flight write; the server calls it before `run()` returns, and
//! dropping the writer flushes too — so an orderly shutdown always leaves
//! the newest state on disk (the kill-and-restore test proves the
//! round trip). [`CheckpointWriter::forget`] lets a delete discard the
//! pending save and wait out an in-flight one, so removal can never race
//! a write that would resurrect the directory. Write failures bump a
//! counter surfaced as `checkpoint_failures` in `GET /v1/metrics`; the
//! in-memory experiment stays authoritative.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::store::{ExperimentRecord, ExperimentStore};

struct WriterState {
    /// Latest pending save per experiment id (latest wins).
    pending: HashMap<String, ExperimentRecord>,
    /// The id whose save is being written right now, if any.
    writing: Option<String>,
    /// Set once on shutdown; the thread drains `pending` and exits.
    closing: bool,
}

struct Inner {
    store: Arc<ExperimentStore>,
    state: Mutex<WriterState>,
    /// Signals the writer (work/closing) and waiters (write finished).
    cond: Condvar,
    failures: AtomicU64,
}

/// The write-behind checkpoint queue plus its writer thread.
pub struct CheckpointWriter {
    inner: Arc<Inner>,
    thread: Option<JoinHandle<()>>,
}

impl CheckpointWriter {
    /// Starts the writer thread over `store`.
    pub fn new(store: Arc<ExperimentStore>) -> CheckpointWriter {
        let inner = Arc::new(Inner {
            store,
            state: Mutex::new(WriterState {
                pending: HashMap::new(),
                writing: None,
                closing: false,
            }),
            cond: Condvar::new(),
            failures: AtomicU64::new(0),
        });
        let thread = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("hbm-checkpoint-writer".into())
                .spawn(move || writer_loop(&inner))
                .expect("spawn checkpoint writer")
        };
        CheckpointWriter {
            inner,
            thread: Some(thread),
        }
    }

    /// Queues (or replaces) the save of `id` — latest wins.
    pub fn enqueue(&self, id: &str, record: ExperimentRecord) {
        let mut state = self.inner.state.lock().unwrap();
        state.pending.insert(id.to_string(), record);
        self.inner.cond.notify_all();
    }

    /// Drops any pending save for `id` and waits for an in-flight write of
    /// it to finish, so the caller can remove the directory without racing
    /// a write that would recreate it.
    ///
    /// Contract: when `forget` returns, no save of `id` is pending or in
    /// flight. A save the writer thread already took is *written*, not
    /// discarded; removing the directory after `forget` is what deletes
    /// it, and until `id` is enqueued again nothing can write it back.
    pub fn forget(&self, id: &str) {
        let mut state = self.inner.state.lock().unwrap();
        state.pending.remove(id);
        while state.writing.as_deref() == Some(id) {
            state = self.inner.cond.wait(state).unwrap();
        }
    }

    /// Blocks until every queued save (and any in-flight one) is on disk.
    pub fn flush(&self) {
        let mut state = self.inner.state.lock().unwrap();
        while !state.pending.is_empty() || state.writing.is_some() {
            state = self.inner.cond.wait(state).unwrap();
        }
    }

    /// Checkpoint writes that failed since boot (the
    /// `checkpoint_failures` counter of `GET /v1/metrics`).
    pub fn failures(&self) -> u64 {
        self.inner.failures.load(Ordering::Relaxed)
    }
}

impl Drop for CheckpointWriter {
    fn drop(&mut self) {
        {
            let mut state = self.inner.state.lock().unwrap();
            state.closing = true;
            self.inner.cond.notify_all();
        }
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn writer_loop(inner: &Inner) {
    loop {
        let (id, record) = {
            let mut state = inner.state.lock().unwrap();
            loop {
                if let Some(id) = state.pending.keys().next().cloned() {
                    let record = state.pending.remove(&id).expect("key just seen");
                    state.writing = Some(id.clone());
                    break (id, record);
                }
                if state.closing {
                    return;
                }
                state = inner.cond.wait(state).unwrap();
            }
        };
        // Serialize and write outside the lock: enqueues keep landing (and
        // coalescing) while the files go down.
        if let Err(e) = inner.store.save(&id, &record) {
            inner.failures.fetch_add(1, Ordering::Relaxed);
            eprintln!("warning: cannot checkpoint experiment {id}: {e}");
        }
        let mut state = inner.state.lock().unwrap();
        state.writing = None;
        inner.cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::tests::record;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hbm_writer_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn flush_makes_queued_saves_durable_and_coalesces() {
        let dir = temp_dir("flush");
        let store = Arc::new(ExperimentStore::open(&dir).unwrap());
        let writer = CheckpointWriter::new(Arc::clone(&store));
        let saved = record(50);
        // Many enqueues for one id: only the last must survive.
        for steps in 0..50 {
            writer.enqueue(
                "exp-000001",
                ExperimentRecord {
                    steps,
                    ..saved.clone()
                },
            );
        }
        writer.flush();
        let all = store.load_all();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].1.steps, 49);
        assert_eq!(all[0].1.snapshot, saved.snapshot);
        assert_eq!(writer.failures(), 0);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Mirrors a supervisor delete: forget, then remove the directory.
    /// Whether the writer took the second save before `forget` or not,
    /// only the first experiment may be on disk afterwards.
    #[test]
    fn drop_flushes_and_forget_discards() {
        let dir = temp_dir("drop");
        let store = Arc::new(ExperimentStore::open(&dir).unwrap());
        let (first, second) = (record(1), record(2));
        {
            let writer = CheckpointWriter::new(Arc::clone(&store));
            writer.enqueue("exp-000001", first);
            writer.enqueue("exp-000002", second);
            writer.forget("exp-000002");
            {
                let state = writer.inner.state.lock().unwrap();
                assert!(!state.pending.contains_key("exp-000002"), "still pending");
                assert_ne!(state.writing.as_deref(), Some("exp-000002"), "in flight");
            }
            store.remove("exp-000002").unwrap();
            // Dropping the writer drains exp-000001 (orderly shutdown).
        }
        let all = store.load_all();
        assert_eq!(all.len(), 1, "a forgotten save outlived its removal");
        assert_eq!(all[0].0, "exp-000001");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn failures_are_counted_not_fatal() {
        let dir = temp_dir("fail");
        let store = Arc::new(ExperimentStore::open(&dir).unwrap());
        let writer = CheckpointWriter::new(Arc::clone(&store));
        // Make the experiment's directory path unusable: a *file* where
        // the store wants a directory.
        std::fs::write(dir.join("experiments/exp-000009"), b"not a dir").unwrap();
        writer.enqueue("exp-000009", record(1));
        writer.flush();
        assert_eq!(writer.failures(), 1);
        let _ = std::fs::remove_dir_all(dir);
    }
}

//! Write-behind checkpointing: a dedicated thread turns in-memory
//! snapshots into on-disk checkpoints off the request path.
//!
//! A save writes two files (manifest and checkpoint), each through a
//! sibling temp file and a `rename`; nothing is `fsync`ed (see
//! `docs/OPERATIONS.md` for what that means after a crash). A
//! [`CheckpointWriter`] keeps those saves off the request path with a
//! *latest-wins* queue: each enqueue coalesces onto any still-pending save
//! for the same experiment (only the newest snapshot matters — checkpoints
//! are recovery points, not a journal), and a single writer thread
//! serializes the snapshot and writes both files. The queue is bounded by
//! construction: at most one
//! pending save per live experiment, so its size never exceeds the
//! supervisor's experiment capacity.
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

use hbm_core::Snapshot;

use crate::store::ExperimentStore;

/// One coalescable save: everything [`ExperimentStore::save`] needs, with
/// the snapshot still binary — the writer thread serializes it.
pub struct PendingSave {
    /// Warm-up slots run at creation.
    pub warmup_slots: u64,
    /// Completed step operations.
    pub steps: u64,
    /// Applied perturbations.
    pub perturbs: u64,
    /// The effective scenario, one flat-JSON line (shared, not copied).
    pub scenario_json: Arc<String>,
    /// The binary snapshot; serialized to `hbm-checkpoint-v1` JSON on the
    /// writer thread, not the caller's.
    pub snapshot: Arc<Snapshot>,
}

struct WriterState {
    /// Latest pending save per experiment id (latest wins).
    pending: HashMap<String, PendingSave>,
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

    /// Queues (or replaces) the save for `id` — latest wins.
    pub fn enqueue(&self, id: &str, save: PendingSave) {
        let mut state = self.inner.state.lock().unwrap();
        state.pending.insert(id.to_string(), save);
        self.inner.cond.notify_all();
    }

    /// Drops any pending save for `id` and waits for an in-flight write of
    /// it to finish, so the caller can remove the directory without racing
    /// a write that would recreate it.
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
        let (id, save) = {
            let mut state = inner.state.lock().unwrap();
            loop {
                if let Some(id) = state.pending.keys().next().cloned() {
                    let save = state.pending.remove(&id).expect("key just seen");
                    state.writing = Some(id.clone());
                    break (id, save);
                }
                if state.closing {
                    return;
                }
                state = inner.cond.wait(state).unwrap();
            }
        };
        // Serialize and write outside the lock: enqueues keep landing (and
        // coalescing) while the files go down.
        let snapshot_line = save.snapshot.to_json();
        if let Err(e) = inner.store.save(
            &id,
            save.warmup_slots,
            save.steps,
            save.perturbs,
            &save.scenario_json,
            &snapshot_line,
        ) {
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
    use hbm_core::Scenario;
    use std::path::PathBuf;

    fn snapshot_pair() -> (Arc<String>, Arc<Snapshot>) {
        let mut s = Scenario::new("myopic");
        s.days = 1;
        s.warmup_days = 0;
        s.seed = 3;
        let (mut sim, _) = s.build_sim().unwrap();
        sim.run(50);
        (Arc::new(s.to_flat_json()), Arc::new(sim.snapshot()))
    }

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
        let (scenario_json, snapshot) = snapshot_pair();
        // Many enqueues for one id: only the last must survive.
        for steps in 0..50 {
            writer.enqueue(
                "exp-000001",
                PendingSave {
                    warmup_slots: 0,
                    steps,
                    perturbs: 0,
                    scenario_json: Arc::clone(&scenario_json),
                    snapshot: Arc::clone(&snapshot),
                },
            );
        }
        writer.flush();
        let all = store.load_all();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].steps, 49);
        assert_eq!(all[0].snapshot, snapshot.to_json());
        assert_eq!(writer.failures(), 0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn drop_flushes_and_forget_discards() {
        let dir = temp_dir("drop");
        let store = Arc::new(ExperimentStore::open(&dir).unwrap());
        let (scenario_json, snapshot) = snapshot_pair();
        {
            let writer = CheckpointWriter::new(Arc::clone(&store));
            writer.enqueue(
                "exp-000001",
                PendingSave {
                    warmup_slots: 0,
                    steps: 1,
                    perturbs: 0,
                    scenario_json: Arc::clone(&scenario_json),
                    snapshot: Arc::clone(&snapshot),
                },
            );
            writer.enqueue(
                "exp-000002",
                PendingSave {
                    warmup_slots: 0,
                    steps: 2,
                    perturbs: 0,
                    scenario_json,
                    snapshot,
                },
            );
            writer.forget("exp-000002");
            // Dropping the writer drains exp-000001 (orderly shutdown).
        }
        let all = store.load_all();
        assert_eq!(all.len(), 1, "forgotten save must not be written");
        assert_eq!(all[0].id, "exp-000001");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn failures_are_counted_not_fatal() {
        let dir = temp_dir("fail");
        let store = Arc::new(ExperimentStore::open(&dir).unwrap());
        let writer = CheckpointWriter::new(Arc::clone(&store));
        let (scenario_json, snapshot) = snapshot_pair();
        // Make the experiment's directory path unusable: a *file* where
        // the store wants a directory.
        std::fs::write(dir.join("experiments/exp-000009"), b"not a dir").unwrap();
        writer.enqueue(
            "exp-000009",
            PendingSave {
                warmup_slots: 0,
                steps: 1,
                perturbs: 0,
                scenario_json,
                snapshot,
            },
        );
        writer.flush();
        assert_eq!(writer.failures(), 1);
        let _ = std::fs::remove_dir_all(dir);
    }
}

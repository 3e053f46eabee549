//! Generation-granular checkpoint stores.
//!
//! Stores are byte-oriented: the cluster layer serialises each rank's
//! `SimulationState` (population + RNG stream positions) through the vendored
//! serde codec and hands the bytes here, so the store stays ignorant of the
//! state's shape. Older checkpoints are retained — a supervisor resumes from
//! the newest generation *every* rank has, which may predate a faster rank's
//! latest snapshot.

use egd_core::error::{EgdError, EgdResult};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A store of per-rank, per-generation checkpoint snapshots.
pub trait CheckpointStore: Send + Sync {
    /// Persists `bytes` as rank `rank`'s snapshot at `generation`,
    /// overwriting any previous snapshot at the same coordinates.
    fn save(&self, rank: usize, generation: u64, bytes: &[u8]) -> EgdResult<()>;

    /// Loads rank `rank`'s snapshot at `generation`, if present.
    fn load(&self, rank: usize, generation: u64) -> EgdResult<Option<Vec<u8>>>;

    /// The generations rank `rank` has snapshots for, ascending.
    fn generations(&self, rank: usize) -> EgdResult<Vec<u64>>;

    /// The newest generation rank `rank` has a snapshot for.
    fn latest(&self, rank: usize) -> EgdResult<Option<u64>> {
        Ok(self.generations(rank)?.last().copied())
    }
}

/// In-memory checkpoint store — the default for tests and supervised runs
/// inside one process.
#[derive(Debug, Default)]
pub struct MemoryStore {
    inner: Mutex<HashMap<(usize, u64), Vec<u8>>>,
}

impl MemoryStore {
    /// An empty store.
    pub fn new() -> Self {
        MemoryStore::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<(usize, u64), Vec<u8>>> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }
}

impl CheckpointStore for MemoryStore {
    fn save(&self, rank: usize, generation: u64, bytes: &[u8]) -> EgdResult<()> {
        self.lock().insert((rank, generation), bytes.to_vec());
        Ok(())
    }

    fn load(&self, rank: usize, generation: u64) -> EgdResult<Option<Vec<u8>>> {
        Ok(self.lock().get(&(rank, generation)).cloned())
    }

    fn generations(&self, rank: usize) -> EgdResult<Vec<u64>> {
        let mut generations: Vec<u64> = self
            .lock()
            .keys()
            .filter(|(r, _)| *r == rank)
            .map(|(_, g)| *g)
            .collect();
        generations.sort_unstable();
        Ok(generations)
    }
}

/// On-disk checkpoint store: one file per `(rank, generation)` under a root
/// directory (`rank-<R>/gen-<G>.ckpt`). Survives the process, so a restart
/// can resume a run the previous process checkpointed.
#[derive(Debug)]
pub struct DirStore {
    root: PathBuf,
    /// Set when this store created its directory under the system temp dir;
    /// such directories are removed on drop.
    owns_root: bool,
}

fn io_err(context: &str, e: std::io::Error) -> EgdError {
    EgdError::Communication {
        reason: format!("checkpoint store: {context}: {e}"),
    }
}

impl DirStore {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> EgdResult<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)
            .map_err(|e| io_err(&format!("create {}", root.display()), e))?;
        Ok(DirStore {
            root,
            owns_root: false,
        })
    }

    /// Creates a store in a fresh process-unique directory under the system
    /// temp dir; the directory is removed when the store drops.
    pub fn tempdir() -> EgdResult<Self> {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let root = std::env::temp_dir().join(format!("egd-fault-ckpt-{}-{n}", std::process::id()));
        let mut store = DirStore::new(root)?;
        store.owns_root = true;
        Ok(store)
    }

    fn rank_dir(&self, rank: usize) -> PathBuf {
        self.root.join(format!("rank-{rank}"))
    }

    fn snapshot_path(&self, rank: usize, generation: u64) -> PathBuf {
        self.rank_dir(rank).join(format!("gen-{generation}.ckpt"))
    }
}

impl Drop for DirStore {
    fn drop(&mut self) {
        if self.owns_root {
            let _ = std::fs::remove_dir_all(&self.root);
        }
    }
}

impl CheckpointStore for DirStore {
    fn save(&self, rank: usize, generation: u64, bytes: &[u8]) -> EgdResult<()> {
        let dir = self.rank_dir(rank);
        std::fs::create_dir_all(&dir)
            .map_err(|e| io_err(&format!("create {}", dir.display()), e))?;
        let path = self.snapshot_path(rank, generation);
        // Write-then-rename so a crash mid-write never leaves a truncated
        // snapshot that a resume would try to parse.
        let tmp = path.with_extension("ckpt.tmp");
        std::fs::write(&tmp, bytes).map_err(|e| io_err(&format!("write {}", tmp.display()), e))?;
        std::fs::rename(&tmp, &path)
            .map_err(|e| io_err(&format!("rename to {}", path.display()), e))
    }

    fn load(&self, rank: usize, generation: u64) -> EgdResult<Option<Vec<u8>>> {
        let path = self.snapshot_path(rank, generation);
        match std::fs::read(&path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err(&format!("read {}", path.display()), e)),
        }
    }

    fn generations(&self, rank: usize) -> EgdResult<Vec<u64>> {
        let dir = self.rank_dir(rank);
        let entries = match std::fs::read_dir(&dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(io_err(&format!("list {}", dir.display()), e)),
        };
        let mut generations = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| io_err(&format!("list {}", dir.display()), e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(generation) = name
                .strip_prefix("gen-")
                .and_then(|rest| rest.strip_suffix(".ckpt"))
                .and_then(|g| g.parse::<u64>().ok())
            {
                generations.push(generation);
            }
        }
        generations.sort_unstable();
        Ok(generations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &dyn CheckpointStore) {
        assert_eq!(store.latest(0).unwrap(), None);
        store.save(0, 0, b"zero").unwrap();
        store.save(0, 4, b"four").unwrap();
        store.save(0, 2, b"two").unwrap();
        store.save(1, 2, b"other rank").unwrap();
        assert_eq!(store.generations(0).unwrap(), vec![0, 2, 4]);
        assert_eq!(store.latest(0).unwrap(), Some(4));
        assert_eq!(store.latest(1).unwrap(), Some(2));
        assert_eq!(store.latest(7).unwrap(), None);
        assert_eq!(store.load(0, 2).unwrap().as_deref(), Some(&b"two"[..]));
        assert_eq!(store.load(0, 3).unwrap(), None);
        // Overwrite at the same coordinates wins.
        store.save(0, 4, b"four v2").unwrap();
        assert_eq!(store.load(0, 4).unwrap().as_deref(), Some(&b"four v2"[..]));
    }

    #[test]
    fn memory_store_round_trips() {
        let store = MemoryStore::new();
        assert!(store.inner.lock().unwrap().is_empty());
        exercise(&store);
        assert_eq!(store.inner.lock().unwrap().len(), 4);
    }

    #[test]
    fn dir_store_round_trips_and_cleans_its_tempdir() {
        let store = DirStore::tempdir().unwrap();
        let root = store.root.clone();
        exercise(&store);
        assert!(root.exists());
        drop(store);
        assert!(!root.exists());
    }

    #[test]
    fn dir_store_persists_across_reopen() {
        let tempdir = DirStore::tempdir().unwrap();
        let root = tempdir.root.join("nested");
        {
            let store = DirStore::new(&root).unwrap();
            store.save(3, 10, b"snapshot").unwrap();
        }
        let reopened = DirStore::new(&root).unwrap();
        assert_eq!(reopened.latest(3).unwrap(), Some(10));
        assert_eq!(
            reopened.load(3, 10).unwrap().as_deref(),
            Some(&b"snapshot"[..])
        );
    }
}

//! The on-disk snapshot store: a directory of `.afs` files with
//! atomic writes, keep-last-3 retention, and corruption-tolerant
//! loading.
//!
//! Each snapshot is written as `snap-r{round:06}.afs` via a temp file
//! and a rename, so a crash mid-write can never clobber an existing good
//! snapshot — at worst it leaves a stale `.tmp` that the next save
//! overwrites. Loading validates magic, version and CRC;
//! [`SnapshotStore::latest_valid`] walks snapshots newest-first and
//! falls back past corrupt files to the newest one that still decodes.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use adaptivefl_core::checkpoint::{ServerSnapshot, SnapshotSink};
use adaptivefl_core::CoreError;

use crate::format::{decode_snapshot, encode_snapshot};

/// Snapshot file extension.
pub const EXTENSION: &str = "afs";

/// How many of the newest snapshots a store keeps; older ones are
/// deleted after each save.
const KEEP_LAST: usize = 3;

/// A directory of snapshots for one run.
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    dir: PathBuf,
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> CoreError {
    CoreError::Snapshot(format!("{what} {}: {e}", path.display()))
}

impl SnapshotStore {
    /// Opens (creating if needed) a snapshot directory. The store keeps
    /// the newest 3 snapshots.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, CoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err("creating", &dir, e))?;
        Ok(SnapshotStore { dir })
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, completed_rounds: usize) -> PathBuf {
        self.dir
            .join(format!("snap-r{completed_rounds:06}.{EXTENSION}"))
    }

    /// Writes one snapshot atomically (temp file + rename) and deletes
    /// all but the newest 3. Returns the final path.
    pub fn save_snapshot(&self, snap: &ServerSnapshot) -> Result<PathBuf, CoreError> {
        let bytes = encode_snapshot(snap);
        let path = self.path_for(snap.completed_rounds);
        let tmp = path.with_extension("tmp");
        {
            let mut f = fs::File::create(&tmp).map_err(|e| io_err("creating", &tmp, e))?;
            f.write_all(&bytes)
                .map_err(|e| io_err("writing", &tmp, e))?;
            f.sync_all().map_err(|e| io_err("syncing", &tmp, e))?;
        }
        fs::rename(&tmp, &path).map_err(|e| io_err("renaming", &tmp, e))?;
        self.prune()?;
        Ok(path)
    }

    /// Decodes one snapshot file, validating magic, version and CRC.
    pub fn load(&self, path: impl AsRef<Path>) -> Result<ServerSnapshot, CoreError> {
        let path = path.as_ref();
        let bytes = fs::read(path).map_err(|e| io_err("reading", path, e))?;
        decode_snapshot(&bytes)
    }

    /// All snapshot paths in the directory, ascending by round.
    pub fn snapshots(&self) -> Result<Vec<PathBuf>, CoreError> {
        let mut paths = Vec::new();
        let entries = fs::read_dir(&self.dir).map_err(|e| io_err("listing", &self.dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("listing", &self.dir, e))?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) == Some(EXTENSION) {
                paths.push(path);
            }
        }
        // The zero-padded round in the name makes lexicographic order
        // round order.
        paths.sort();
        Ok(paths)
    }

    /// The newest snapshot that still decodes cleanly, with its path.
    /// Corrupt or truncated files are skipped (not deleted — they may
    /// be evidence worth keeping); returns `Ok(None)` for an empty or
    /// fully corrupt directory.
    pub fn latest_valid(&self) -> Result<Option<(PathBuf, ServerSnapshot)>, CoreError> {
        for path in self.snapshots()?.into_iter().rev() {
            if let Ok(snap) = self.load(&path) {
                return Ok(Some((path, snap)));
            }
        }
        Ok(None)
    }

    fn prune(&self) -> Result<(), CoreError> {
        let paths = self.snapshots()?;
        let cutoff = paths.len().saturating_sub(KEEP_LAST);
        for path in &paths[..cutoff] {
            fs::remove_file(path).map_err(|e| io_err("pruning", path, e))?;
        }
        Ok(())
    }
}

impl SnapshotSink for SnapshotStore {
    fn save(&mut self, snap: &ServerSnapshot) -> Result<(), CoreError> {
        self.save_snapshot(snap).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptivefl_core::checkpoint::MethodState;
    use adaptivefl_core::methods::MethodKind;

    fn snap(completed_rounds: usize) -> ServerSnapshot {
        ServerSnapshot {
            kind: MethodKind::AdaptiveFl,
            method_name: "x".into(),
            completed_rounds,
            rng_words: vec![7; 33],
            method: MethodState::default(),
            rounds: Vec::new(),
            evals: Vec::new(),
            cfg_fingerprint: "cfg".into(),
            pool_p: 1,
            pool_params: vec![1],
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("afl-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_roundtrips() {
        let dir = temp_dir("roundtrip");
        let store = SnapshotStore::open(&dir).unwrap();
        let s = snap(3);
        let path = store.save_snapshot(&s).unwrap();
        assert_eq!(store.load(&path).unwrap(), s);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_keeps_newest_three() {
        let dir = temp_dir("retention");
        let store = SnapshotStore::open(&dir).unwrap();
        for r in 1..=12 {
            store.save_snapshot(&snap(r)).unwrap();
        }
        let newest: Vec<PathBuf> = [10, 11, 12].map(|r| store.path_for(r)).into();
        assert_eq!(store.snapshots().unwrap(), newest);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn latest_valid_skips_corrupt_newest() {
        let dir = temp_dir("fallback");
        let store = SnapshotStore::open(&dir).unwrap();
        store.save_snapshot(&snap(1)).unwrap();
        let newest = store.save_snapshot(&snap(2)).unwrap();
        // Corrupt the newest file in place.
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();

        let (path, loaded) = store.latest_valid().unwrap().expect("fallback exists");
        assert_eq!(loaded.completed_rounds, 1);
        assert!(path.to_string_lossy().contains("snap-r000001"));

        // Fully corrupt directory → None.
        let older = path;
        let mut bytes = fs::read(&older).unwrap();
        bytes.truncate(6);
        fs::write(&older, &bytes).unwrap();
        assert!(store.latest_valid().unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_mid_write_leaves_previous_snapshot_intact() {
        let dir = temp_dir("atomic");
        let store = SnapshotStore::open(&dir).unwrap();
        let good = snap(4);
        store.save_snapshot(&good).unwrap();
        // Simulate a crash mid-write: a partial temp file next to the
        // good snapshot. latest_valid must ignore it entirely.
        fs::write(dir.join("snap-r000005.tmp"), b"partial").unwrap();
        let (_, loaded) = store.latest_valid().unwrap().expect("good snapshot");
        assert_eq!(loaded, good);
        fs::remove_dir_all(&dir).unwrap();
    }
}

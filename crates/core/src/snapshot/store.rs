//! Pluggable snapshot storage: the [`RunStore`] trait and its two
//! built-in backends.
//!
//! A store maps content-derived keys (`step<step>-<hash>`, so
//! lexicographic order is chronological order) to encoded snapshots.
//! [`MemStore`] keeps the encoded bytes in memory — the warm-start grid
//! coordinator forks strategy cells from it without touching the disk.
//! [`DirStore`] persists one `<key>.snap` file per snapshot in a
//! directory, written atomically (temp file + rename) so a crash mid-write
//! never leaves a half-snapshot under a valid name; every read re-verifies
//! the frame's magic, version and content hash.

use super::{frame_key, Snapshot, SnapshotError};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Extension of on-disk snapshot files.
pub const SNAPSHOT_EXTENSION: &str = "snap";

/// A keyed store of encoded snapshots.
///
/// Implementations must round-trip snapshots bitwise: `get(put(s))` encodes
/// to exactly the bytes `s` encodes to (pinned by the `spec_fuzz` property
/// tests for both built-in backends).
pub trait RunStore {
    /// Persists a snapshot and returns its content-derived key. Storing
    /// the same snapshot twice is idempotent (same key, same bytes).
    fn put(&mut self, snapshot: &Snapshot) -> Result<String, SnapshotError>;

    /// Loads and decodes the snapshot stored under `key`, verifying
    /// integrity.
    fn get(&self, key: &str) -> Result<Snapshot, SnapshotError>;

    /// Every stored key, sorted ascending (chronological, thanks to the
    /// `step<step>-` prefix).
    fn keys(&self) -> Result<Vec<String>, SnapshotError>;

    /// The latest stored key, if any.
    fn latest(&self) -> Result<Option<String>, SnapshotError> {
        Ok(self.keys()?.pop())
    }
}

/// In-memory [`RunStore`]: encoded snapshots in a sorted map.
#[derive(Debug, Clone, Default)]
pub struct MemStore {
    entries: BTreeMap<String, Vec<u8>>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored snapshots.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store holds no snapshots.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl RunStore for MemStore {
    fn put(&mut self, snapshot: &Snapshot) -> Result<String, SnapshotError> {
        let bytes = snapshot.encode();
        let key = frame_key(snapshot.step(), &bytes);
        self.entries.insert(key.clone(), bytes);
        Ok(key)
    }

    fn get(&self, key: &str) -> Result<Snapshot, SnapshotError> {
        let bytes = self
            .entries
            .get(key)
            .ok_or_else(|| SnapshotError::NotFound(key.to_string()))?;
        Snapshot::decode(bytes)
    }

    fn keys(&self) -> Result<Vec<String>, SnapshotError> {
        Ok(self.entries.keys().cloned().collect())
    }
}

/// On-disk [`RunStore`]: one atomically written, integrity-checked
/// `<key>.snap` file per snapshot in a flat directory.
#[derive(Debug, Clone)]
pub struct DirStore {
    dir: PathBuf,
}

fn io_err(context: &str, path: &Path, error: std::io::Error) -> SnapshotError {
    SnapshotError::Io(format!("{context} {}: {error}", path.display()))
}

impl DirStore {
    /// Opens (creating if necessary) a snapshot directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, SnapshotError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| io_err("creating", &dir, e))?;
        Ok(Self { dir })
    }

    /// The directory the store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_of(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.{SNAPSHOT_EXTENSION}"))
    }
}

impl RunStore for DirStore {
    fn put(&mut self, snapshot: &Snapshot) -> Result<String, SnapshotError> {
        let bytes = snapshot.encode();
        let key = frame_key(snapshot.step(), &bytes);
        let path = self.path_of(&key);
        let tmp = self.dir.join(format!(".{key}.tmp"));
        std::fs::write(&tmp, &bytes).map_err(|e| io_err("writing", &tmp, e))?;
        std::fs::rename(&tmp, &path).map_err(|e| io_err("renaming into", &path, e))?;
        Ok(key)
    }

    fn get(&self, key: &str) -> Result<Snapshot, SnapshotError> {
        let path = self.path_of(key);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(error) if error.kind() == std::io::ErrorKind::NotFound => {
                return Err(SnapshotError::NotFound(key.to_string()))
            }
            Err(error) => return Err(io_err("reading", &path, error)),
        };
        Snapshot::decode(&bytes)
    }

    fn keys(&self) -> Result<Vec<String>, SnapshotError> {
        let mut keys = Vec::new();
        let entries = std::fs::read_dir(&self.dir).map_err(|e| io_err("listing", &self.dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("listing", &self.dir, e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(key) = name.strip_suffix(&format!(".{SNAPSHOT_EXTENSION}")) {
                if !key.starts_with('.') {
                    keys.push(key.to_string());
                }
            }
        }
        keys.sort();
        Ok(keys)
    }
}

/// Reads and decodes a snapshot from an arbitrary file path (the
/// `collabsim resume <snapshot>` entry point, which takes a file rather
/// than a store key).
pub fn read_snapshot_file(path: impl AsRef<Path>) -> Result<Snapshot, SnapshotError> {
    let path = path.as_ref();
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(error) if error.kind() == std::io::ErrorKind::NotFound => {
            return Err(SnapshotError::NotFound(path.display().to_string()))
        }
        Err(error) => return Err(io_err("reading", path, error)),
    };
    Snapshot::decode(&bytes)
}

/// Atomically writes a snapshot to an arbitrary file path (temp file +
/// rename in the destination directory).
pub fn write_snapshot_file(
    path: impl AsRef<Path>,
    snapshot: &Snapshot,
) -> Result<(), SnapshotError> {
    let path = path.as_ref();
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir).map_err(|e| io_err("creating", dir, e))?;
    }
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| SnapshotError::Io(format!("invalid path {}", path.display())))?;
    let tmp = match dir {
        Some(dir) => dir.join(format!(".{file_name}.tmp")),
        None => PathBuf::from(format!(".{file_name}.tmp")),
    };
    std::fs::write(&tmp, snapshot.encode()).map_err(|e| io_err("writing", &tmp, e))?;
    std::fs::rename(&tmp, path).map_err(|e| io_err("renaming into", path, e))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PhaseConfig, SimulationConfig};
    use crate::engine::Simulation;
    use crate::spec::ScenarioSpec;

    fn snapshot_at(steps: u64) -> Snapshot {
        let config = SimulationConfig {
            population: 12,
            initial_articles: 5,
            phases: PhaseConfig {
                training_steps: 40,
                evaluation_steps: 20,
                ..Default::default()
            },
            ..Default::default()
        };
        let spec = ScenarioSpec::from_config(config).unwrap();
        let mut sim = Simulation::from_spec(&spec).unwrap();
        for _ in 0..steps {
            sim.step(10_000.0);
        }
        sim.snapshot(&spec)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("collabsim-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn mem_store_round_trips_and_sorts_keys() {
        let mut store = MemStore::new();
        let early = snapshot_at(3);
        let late = snapshot_at(11);
        let late_key = store.put(&late).unwrap();
        let early_key = store.put(&early).unwrap();
        assert_eq!(
            store.keys().unwrap(),
            vec![early_key.clone(), late_key.clone()]
        );
        assert_eq!(store.latest().unwrap(), Some(late_key.clone()));
        // The key's hash is the stored frame's trailing content hash.
        let frame = &store.entries[&late_key];
        let trailer = u64::from_le_bytes(frame[frame.len() - 8..].try_into().unwrap());
        assert_eq!(
            late_key.rsplit('-').next(),
            Some(&*format!("{trailer:016x}"))
        );
        assert_eq!(late.key(), late_key);
        assert_eq!(store.get(&early_key).unwrap().encode(), early.encode());
        assert_eq!(store.get(&late_key).unwrap().encode(), late.encode());
        assert!(matches!(
            store.get("step0000000000-0000000000000000"),
            Err(SnapshotError::NotFound(_))
        ));
    }

    #[test]
    fn dir_store_round_trips_and_persists() {
        let dir = temp_dir("roundtrip");
        let mut store = DirStore::open(&dir).unwrap();
        let snapshot = snapshot_at(7);
        let key = store.put(&snapshot).unwrap();
        // A second open sees the same contents (persistence).
        let reopened = DirStore::open(&dir).unwrap();
        assert_eq!(reopened.keys().unwrap(), vec![key.clone()]);
        assert_eq!(reopened.get(&key).unwrap().encode(), snapshot.encode());
        assert!(matches!(
            reopened.get("stepmissing-key"),
            Err(SnapshotError::NotFound(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dir_store_detects_on_disk_corruption() {
        let dir = temp_dir("corrupt");
        let mut store = DirStore::open(&dir).unwrap();
        let snapshot = snapshot_at(5);
        let key = store.put(&snapshot).unwrap();
        let path = dir.join(format!("{key}.{SNAPSHOT_EXTENSION}"));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(store.get(&key), Err(SnapshotError::Corrupt(_))));
        // Truncation is detected too.
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        assert!(matches!(store.get(&key), Err(SnapshotError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_file_helpers_round_trip() {
        let dir = temp_dir("file");
        let path = dir.join("nested").join("checkpoint.snap");
        let snapshot = snapshot_at(9);
        write_snapshot_file(&path, &snapshot).unwrap();
        let read = read_snapshot_file(&path).unwrap();
        assert_eq!(read.encode(), snapshot.encode());
        assert!(matches!(
            read_snapshot_file(dir.join("absent.snap")),
            Err(SnapshotError::NotFound(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

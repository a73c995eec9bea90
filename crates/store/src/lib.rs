//! `skq-store` — the pluggable persistence tier.
//!
//! The framework indexes in this workspace are expensive to build
//! (`O(n log^{d-1} n)` preprocessing) but cheap to *walk*: every
//! structure is a flat arena plus sorted columns. This crate exploits
//! that by snapshotting built indexes into the paged on-disk format of
//! `skq_core::persist` (DESIGN.md §15) and reloading them with a
//! validation pass instead of a rebuild.
//!
//! The surface is one trait:
//!
//! * [`IndexBackend`] — byte-level `put`/`get`/`list` plus provided
//!   generic [`save`](IndexBackend::save) / [`load`](IndexBackend::load)
//!   wrappers that own the observability (spans `store.save` /
//!   `store.load`; counters `skq_store_bytes_written_total`,
//!   `skq_store_bytes_read_total`, `skq_store_load_total`,
//!   `skq_store_corruption_total`);
//! * [`MemBackend`] — a process-local map, the default for tests and
//!   single-process serving;
//! * [`FileBackend`] — one `<name>.skq` file per snapshot under a
//!   directory, written atomically (temp file + rename).
//!
//! Snapshots are schema-versioned ([`SCHEMA_VERSION`]) and
//! checksummed per page; a corrupt or future-versioned snapshot loads
//! as a typed [`SkqError`], never a panic.
//!
//! # Example
//!
//! ```
//! use skq_core::dataset::Dataset;
//! use skq_core::query::KwQuery;
//! use skq_core::suite::OrpKwSuite;
//! use skq_geom::{Point, Rect};
//! use skq_store::{IndexBackend, MemBackend};
//!
//! let data = Dataset::from_parts(vec![
//!     (Point::new2(1.0, 1.0), vec![0, 1]),
//!     (Point::new2(2.0, 2.0), vec![0]),
//! ]);
//! let suite = OrpKwSuite::build(&data, 2);
//! let store = MemBackend::new();
//! store.save("demo", &suite).unwrap();
//! let loaded: OrpKwSuite = store.load("demo").unwrap();
//! assert_eq!(loaded.count(&Rect::full(2), &[0, 1]).unwrap(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use skq_core::error::SkqError;
use skq_core::failpoints;

pub mod durable;
pub mod wal;

pub use durable::{CheckpointPolicy, DurabilityConfig, DurableDynamic, RecoveryReport};
pub use skq_core::persist::{Persist, SCHEMA_VERSION};
pub use wal::{SyncPolicy, Wal, WalConfig, WalOp, WalRecord};

/// File extension given to snapshots by [`FileBackend`].
pub const SNAPSHOT_EXT: &str = "skq";

/// Fsyncs an open file, consulting the `store::fsync` fail point
/// first so chaos tests can simulate a device that refuses to make
/// bytes durable. Shared by [`FileBackend::put`] and the WAL.
pub(crate) fn sync_file(f: &fs::File, what: &Path) -> Result<(), SkqError> {
    failpoints::check("store::fsync")?;
    f.sync_all()
        .map_err(|e| store_err("file", format!("fsyncing {}: {e}", what.display())))?;
    skq_obs::global().counter("skq_wal_fsyncs_total", &[]).inc();
    Ok(())
}

/// Fsyncs a directory, making a rename or unlink inside it durable
/// (POSIX: the rename itself lives in the directory's metadata, so a
/// crash after `rename` but before the directory sync can lose the
/// *name*, not just the bytes). Same fail point as [`sync_file`].
pub(crate) fn sync_dir(dir: &Path) -> Result<(), SkqError> {
    let d = fs::File::open(dir)
        .map_err(|e| store_err("file", format!("opening {} to fsync: {e}", dir.display())))?;
    sync_file(&d, dir)
}

fn store_err(backend: &str, message: String) -> SkqError {
    SkqError::Store {
        backend: backend.to_string(),
        message,
    }
}

/// Checks that `name` is safe to embed in a file name: non-empty
/// ASCII alphanumerics plus `-`, `_`, `.`, and not a dotfile. Shared
/// by every backend so snapshot names stay portable between them.
///
/// # Errors
///
/// [`SkqError::Store`] naming the offending name.
pub fn validate_name(name: &str) -> Result<(), SkqError> {
    let ok = !name.is_empty()
        && name.len() <= 128
        && !name.starts_with('.')
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.');
    if ok {
        Ok(())
    } else {
        Err(store_err(
            "name",
            format!(
                "invalid snapshot name {name:?}: use ASCII [A-Za-z0-9._-], not starting with '.'"
            ),
        ))
    }
}

/// A place snapshots live.
///
/// Implementors provide the byte-level operations; the provided
/// [`save`](Self::save) / [`load`](Self::load) wrappers layer the
/// codec, schema check, and observability on top, so every backend
/// reports the same metrics and errors the same way.
pub trait IndexBackend {
    /// A short label for metrics and error messages (`"mem"`,
    /// `"file"`).
    fn backend_name(&self) -> &'static str;

    /// Stores `bytes` under `name`, replacing any previous snapshot of
    /// that name.
    ///
    /// # Errors
    ///
    /// [`SkqError::Store`] on an invalid name or backend I/O failure.
    fn put(&self, name: &str, bytes: &[u8]) -> Result<(), SkqError>;

    /// Retrieves the snapshot stored under `name`.
    ///
    /// # Errors
    ///
    /// [`SkqError::Store`] if no snapshot of that name exists or the
    /// backend cannot read it.
    fn get(&self, name: &str) -> Result<Vec<u8>, SkqError>;

    /// Names of every stored snapshot, sorted.
    ///
    /// # Errors
    ///
    /// [`SkqError::Store`] if the backend cannot enumerate.
    fn list(&self) -> Result<Vec<String>, SkqError>;

    /// Encodes `value` with the paged codec and stores it under
    /// `name`. Records the `store.save` span and
    /// `skq_store_bytes_written_total`.
    ///
    /// # Errors
    ///
    /// Everything [`Persist::to_bytes`] and [`put`](Self::put) can
    /// return.
    fn save<T: Persist>(&self, name: &str, value: &T) -> Result<u64, SkqError> {
        let _span = skq_obs::Span::enter("store.save");
        let bytes = value.to_bytes()?;
        self.put(name, &bytes)?;
        let written = bytes.len() as u64;
        skq_obs::global()
            .counter(
                "skq_store_bytes_written_total",
                &[("backend", self.backend_name())],
            )
            .add(written);
        Ok(written)
    }

    /// Retrieves the snapshot under `name` and decodes it. Records the
    /// `store.load` span, `skq_store_bytes_read_total`, and
    /// `skq_store_load_total{backend}`; a decode failure additionally
    /// bumps `skq_store_corruption_total`.
    ///
    /// # Errors
    ///
    /// Everything [`get`](Self::get) and
    /// [`Persist::try_from_bytes`] can return — a missing snapshot or
    /// I/O failure is [`SkqError::Store`], malformed bytes are
    /// [`SkqError::Corrupted`].
    fn load<T: Persist>(&self, name: &str) -> Result<T, SkqError> {
        let _span = skq_obs::Span::enter("store.load");
        let backend = self.backend_name();
        let bytes = self.get(name)?;
        skq_obs::global()
            .counter("skq_store_bytes_read_total", &[("backend", backend)])
            .add(bytes.len() as u64);
        let value = T::try_from_bytes(&bytes).inspect_err(|e| {
            if matches!(e, SkqError::Corrupted { .. }) {
                skq_obs::global()
                    .counter("skq_store_corruption_total", &[("backend", backend)])
                    .inc();
            }
        })?;
        skq_obs::global()
            .counter("skq_store_load_total", &[("backend", backend)])
            .inc();
        Ok(value)
    }
}

/// An in-process snapshot store: a mutex-guarded name → bytes map.
///
/// The default backend — zero configuration, no filesystem footprint —
/// for tests and for serving setups that only need snapshot *rotation*
/// (publish bytes once, hand them to many readers) rather than
/// durability.
#[derive(Default)]
pub struct MemBackend {
    map: Mutex<HashMap<String, Vec<u8>>>,
}

impl MemBackend {
    /// An empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl IndexBackend for MemBackend {
    fn backend_name(&self) -> &'static str {
        "mem"
    }

    fn put(&self, name: &str, bytes: &[u8]) -> Result<(), SkqError> {
        validate_name(name)?;
        let mut map = self
            .map
            .lock()
            .map_err(|_| store_err("mem", "snapshot map mutex poisoned".to_string()))?;
        map.insert(name.to_string(), bytes.to_vec());
        Ok(())
    }

    fn get(&self, name: &str) -> Result<Vec<u8>, SkqError> {
        validate_name(name)?;
        let map = self
            .map
            .lock()
            .map_err(|_| store_err("mem", "snapshot map mutex poisoned".to_string()))?;
        map.get(name)
            .cloned()
            .ok_or_else(|| store_err("mem", format!("no snapshot named {name:?}")))
    }

    fn list(&self) -> Result<Vec<String>, SkqError> {
        let map = self
            .map
            .lock()
            .map_err(|_| store_err("mem", "snapshot map mutex poisoned".to_string()))?;
        let mut names: Vec<String> = map.keys().cloned().collect();
        names.sort();
        Ok(names)
    }
}

/// A directory of `<name>.skq` files, one per snapshot.
///
/// Writes are atomic: bytes land in a `.<name>.skq.tmp` sibling first
/// and are renamed into place, so a crashed writer never leaves a
/// half-written snapshot under the published name (the page checksums
/// catch torn reads from other causes).
pub struct FileBackend {
    dir: PathBuf,
}

impl FileBackend {
    /// A backend over `dir`, creating the directory if needed.
    ///
    /// # Errors
    ///
    /// [`SkqError::Store`] if the directory cannot be created.
    pub fn new(dir: impl AsRef<Path>) -> Result<Self, SkqError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)
            .map_err(|e| store_err("file", format!("creating {}: {e}", dir.display())))?;
        Ok(Self { dir })
    }

    /// The directory snapshots are stored in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The path a snapshot of `name` is (or would be) stored at.
    ///
    /// # Errors
    ///
    /// [`SkqError::Store`] on an invalid name.
    pub fn path_of(&self, name: &str) -> Result<PathBuf, SkqError> {
        validate_name(name)?;
        Ok(self.dir.join(format!("{name}.{SNAPSHOT_EXT}")))
    }
}

impl IndexBackend for FileBackend {
    fn backend_name(&self) -> &'static str {
        "file"
    }

    fn put(&self, name: &str, bytes: &[u8]) -> Result<(), SkqError> {
        let path = self.path_of(name)?;
        let tmp = self.dir.join(format!(".{name}.{SNAPSHOT_EXT}.tmp"));
        // Durable atomic write: the temp file's *bytes* are fsynced
        // before the rename publishes the name, and the parent
        // directory is fsynced after, so a power cut leaves either the
        // old snapshot or the complete new one — never a half-written
        // file under the published name and never a rename that
        // evaporates with the directory's unsynced metadata.
        let write = || -> Result<(), SkqError> {
            let io =
                |e: std::io::Error| store_err("file", format!("writing {}: {e}", path.display()));
            let mut f = fs::File::create(&tmp).map_err(io)?;
            f.write_all(bytes).map_err(io)?;
            sync_file(&f, &tmp)?;
            fs::rename(&tmp, &path).map_err(io)?;
            sync_dir(&self.dir)
        };
        write().inspect_err(|_| {
            let _ = fs::remove_file(&tmp);
        })
    }

    fn get(&self, name: &str) -> Result<Vec<u8>, SkqError> {
        let path = self.path_of(name)?;
        fs::read(&path).map_err(|e| store_err("file", format!("reading {}: {e}", path.display())))
    }

    fn list(&self) -> Result<Vec<String>, SkqError> {
        let mut names = Vec::new();
        let entries = fs::read_dir(&self.dir)
            .map_err(|e| store_err("file", format!("listing {}: {e}", self.dir.display())))?;
        for entry in entries {
            let entry = entry
                .map_err(|e| store_err("file", format!("listing {}: {e}", self.dir.display())))?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(SNAPSHOT_EXT) {
                continue;
            }
            if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                if validate_name(stem).is_ok() {
                    names.push(stem.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]

    use super::*;
    use skq_core::dataset::Dataset;
    use skq_core::query::KwQuery;
    use skq_core::suite::OrpKwSuite;
    use skq_geom::{Point, Rect};

    fn suite() -> OrpKwSuite {
        let data = Dataset::from_parts(
            (0..64)
                .map(|i| {
                    let p = Point::new2((i % 8) as f64, (i / 8) as f64);
                    (p, vec![0, 1 + (i % 3)])
                })
                .collect(),
        );
        OrpKwSuite::build(&data, 3)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("skq-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn mem_backend_round_trips() {
        let store = MemBackend::new();
        let s = suite();
        let written = store.save("a", &s).unwrap();
        assert!(written > 0);
        let loaded: OrpKwSuite = store.load("a").unwrap();
        let q = Rect::full(2);
        assert_eq!(
            loaded.query(&q, &[0, 1]).unwrap(),
            s.query(&q, &[0, 1]).unwrap()
        );
        assert_eq!(store.list().unwrap(), vec!["a".to_string()]);
    }

    #[test]
    fn mem_backend_missing_name_is_store_error() {
        let store = MemBackend::new();
        let err = store.load::<OrpKwSuite>("absent").err().unwrap();
        assert!(matches!(err, SkqError::Store { .. }), "{err}");
    }

    #[test]
    fn file_backend_round_trips_and_lists() {
        let dir = temp_dir("rt");
        let store = FileBackend::new(&dir).unwrap();
        let s = suite();
        store.save("snap-1", &s).unwrap();
        store.save("snap-2", &s).unwrap();
        assert_eq!(
            store.list().unwrap(),
            vec!["snap-1".to_string(), "snap-2".to_string()]
        );
        let loaded: OrpKwSuite = store.load("snap-1").unwrap();
        let q = Rect::new(&[1.0, 1.0], &[6.0, 6.0]);
        assert_eq!(
            loaded.query(&q, &[0, 1]).unwrap(),
            s.query(&q, &[0, 1]).unwrap()
        );
        assert!(store.path_of("snap-1").unwrap().exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backend_rejects_traversal_names() {
        let dir = temp_dir("names");
        let store = FileBackend::new(&dir).unwrap();
        for bad in ["../evil", "a/b", "", ".hidden", "a\0b"] {
            assert!(store.put(bad, b"x").is_err(), "accepted {bad:?}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_file_loads_as_typed_error_and_counts() {
        let dir = temp_dir("corrupt");
        let store = FileBackend::new(&dir).unwrap();
        let s = suite();
        store.save("ok", &s).unwrap();
        let path = store.path_of("ok").unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let before = skq_obs::global()
            .counter_value("skq_store_corruption_total", &[("backend", "file")])
            .unwrap_or(0);
        let err = store.load::<OrpKwSuite>("ok").err().unwrap();
        assert!(matches!(err, SkqError::Corrupted { .. }), "{err}");
        let after = skq_obs::global()
            .counter_value("skq_store_corruption_total", &[("backend", "file")])
            .unwrap_or(0);
        assert_eq!(after, before + 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_twice_is_byte_identical() {
        let s = suite();
        assert_eq!(s.to_bytes().unwrap(), s.to_bytes().unwrap());
    }
}

//! Crash recovery for the serving layer: a supervisor that owns the
//! durable dynamic index and keeps a [`Server`] publishing consistent
//! suites built from it.
//!
//! [`RecoverySupervisor::open`] runs the DESIGN §16 recovery state
//! machine (newest valid checkpoint, then WAL replay — both inside
//! [`DurableDynamic::open`]) and can then [`publish_to`] a server:
//! the live object set is frozen into an [`OrpKwSuite`] and rotated
//! in via the snapshot cell. If that publish fails — a poisoned
//! in-memory state that no longer builds — the supervisor falls back
//! to re-recovering from disk, which by construction reflects only
//! acknowledged, durable operations.
//!
//! [`publish_to`]: RecoverySupervisor::publish_to

use std::path::{Path, PathBuf};

use skq_core::dynamic::ObjectHandle;
use skq_core::suite::OrpKwSuite;
use skq_core::SkqError;
use skq_geom::Point;
use skq_invidx::Keyword;
use skq_store::{DurabilityConfig, DurableDynamic, RecoveryReport};

use crate::pool::Server;

/// Owns a [`DurableDynamic`] and mediates between its mutable world
/// and a [`Server`]'s immutable published snapshots.
pub struct RecoverySupervisor {
    durable: DurableDynamic,
    dir: PathBuf,
    dim: usize,
    k: usize,
    report: RecoveryReport,
}

impl RecoverySupervisor {
    /// Opens (or crash-recovers) the durable index in `dir`; see
    /// [`DurableDynamic::open`] for the recovery semantics.
    ///
    /// # Errors
    ///
    /// Whatever [`DurableDynamic::open`] returns.
    pub fn open(
        dir: &Path,
        dim: usize,
        k: usize,
        config: DurabilityConfig,
    ) -> Result<Self, SkqError> {
        let (durable, report) = DurableDynamic::open(dir, dim, k, config)?;
        Ok(Self {
            durable,
            dir: dir.to_path_buf(),
            dim,
            k,
            report,
        })
    }

    /// What the most recent open/recovery did.
    pub fn report(&self) -> &RecoveryReport {
        &self.report
    }

    /// The underlying durable index (for queries against the live,
    /// unpublished state).
    pub fn durable(&self) -> &DurableDynamic {
        &self.durable
    }

    /// Inserts durably; see [`DurableDynamic::insert`].
    ///
    /// # Errors
    ///
    /// Whatever [`DurableDynamic::insert`] returns.
    pub fn insert(
        &mut self,
        point: Point,
        keywords: Vec<Keyword>,
    ) -> Result<ObjectHandle, SkqError> {
        self.durable.insert(point, keywords)
    }

    /// Deletes durably; see [`DurableDynamic::delete`].
    ///
    /// # Errors
    ///
    /// Whatever [`DurableDynamic::delete`] returns.
    pub fn delete(&mut self, handle: ObjectHandle) -> Result<bool, SkqError> {
        self.durable.delete(handle)
    }

    /// Freezes the live object set into a static suite.
    ///
    /// Returns the suite plus the id map: the suite answers with dense
    /// `u32` object ids in insertion order, and `ids[i]` is the durable
    /// handle id that position corresponds to.
    ///
    /// # Errors
    ///
    /// `SkqError::InvalidDataset` when the live set is empty (a suite
    /// needs at least one object); otherwise whatever
    /// [`OrpKwSuite::try_build`] rejects.
    pub fn suite(&self) -> Result<(OrpKwSuite, Vec<u64>), SkqError> {
        let (dataset, ids) = self.durable.index().live_dataset()?;
        let suite = OrpKwSuite::try_build(&dataset, self.k)?;
        Ok((suite, ids))
    }

    /// Builds and publishes the current live set to `server`,
    /// returning the new generation and the id map (see
    /// [`suite`](Self::suite)).
    ///
    /// On a failed build the supervisor assumes its in-memory state is
    /// poisoned and re-recovers from disk — checkpoint plus WAL hold
    /// every acknowledged op — then retries the publish once. Only if
    /// the rebuilt-from-durable-state suite also fails does the error
    /// surface (and the server keeps serving its current generation).
    ///
    /// # Errors
    ///
    /// Whatever the post-recovery [`suite`](Self::suite) rejects.
    pub fn publish_to(&mut self, server: &Server) -> Result<(u64, Vec<u64>), SkqError> {
        let first = self.suite();
        let (suite, ids) = match first {
            Ok(ok) => ok,
            Err(_) => {
                skq_obs::global()
                    .counter("skq_recover_total", &[("outcome", "republish")])
                    .inc();
                let (durable, report) =
                    DurableDynamic::open(&self.dir, self.dim, self.k, *self.durable.config())?;
                self.durable = durable;
                self.report = report;
                self.suite()?
            }
        };
        Ok((server.publish(suite), ids))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{Request, ServerConfig};
    use skq_geom::Rect;
    use std::fs;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("skq-recover-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create tmpdir");
        dir
    }

    #[test]
    fn recovers_and_publishes_the_acknowledged_state() {
        let dir = tmpdir("publish");
        let config = DurabilityConfig::fast(32);
        {
            let mut sup = RecoverySupervisor::open(&dir, 2, 2, config).expect("open");
            let mut handles = Vec::new();
            for i in 0..120u64 {
                let p = Point::new2((i % 13) as f64, (i % 7) as f64);
                handles.push(sup.insert(p, vec![1, 2]).expect("insert"));
            }
            assert!(sup.delete(handles[17]).expect("delete"));
            assert!(sup.delete(handles[90]).expect("delete"));
        }
        // "Crash" (no clean shutdown), then recover and publish.
        let mut sup = RecoverySupervisor::open(&dir, 2, 2, config).expect("recover");
        assert_eq!(sup.report().skipped, 0);
        let dataset = skq_workload::scenarios::city(50, 5);
        let server = Server::start(
            OrpKwSuite::try_build(&dataset, 2).unwrap(),
            ServerConfig::default(),
        );
        let (generation, ids) = sup.publish_to(&server).expect("publish");
        assert_eq!(generation, 2);
        assert_eq!(ids.len(), 118);
        // Query the published generation: everything with keywords
        // {1, 2} — all 118 surviving objects — inside the full rect.
        let reply = server
            .query(Request::new(Rect::full(2), vec![1, 2]))
            .expect("query");
        assert_eq!(reply.generation, 2);
        assert_eq!(reply.ids.len(), 118);
        // The id map translates suite ids back to durable handles.
        for &sid in &reply.ids {
            assert!((sid as usize) < ids.len());
        }
        server.shutdown();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_live_set_is_a_typed_publish_error() {
        let dir = tmpdir("empty");
        let mut sup =
            RecoverySupervisor::open(&dir, 2, 2, DurabilityConfig::fast(8)).expect("open");
        let dataset = skq_workload::scenarios::city(50, 5);
        let server = Server::start(
            OrpKwSuite::try_build(&dataset, 2).unwrap(),
            ServerConfig::default(),
        );
        let err = sup.publish_to(&server).expect_err("empty must not publish");
        assert!(matches!(err, SkqError::InvalidDataset(_)), "{err:?}");
        assert_eq!(server.epoch(), 1, "failed publish must not rotate");
        server.shutdown();
        let _ = fs::remove_dir_all(&dir);
    }
}

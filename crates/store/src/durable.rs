//! Crash-safe wrapper around [`DynamicOrpKw`]: WAL + checkpoints +
//! recovery.
//!
//! [`DurableDynamic`] owns a live dynamic index, a [`Wal`], and an
//! [`IndexBackend`] holding checkpoints. Every acknowledged mutation
//! is durable in the WAL before (deletes) or atomically with (inserts)
//! the acknowledgement; a [`CheckpointPolicy`] periodically snapshots
//! the whole index through the paged [`Persist`](crate::Persist) codec and truncates
//! the log. [`DurableDynamic::open`] is the recovery state machine:
//! newest valid checkpoint, then WAL replay of the tail — see DESIGN
//! §16 for the normative description.
//!
//! [`DynamicOrpKw`]: skq_core::dynamic::DynamicOrpKw

use std::path::Path;

use skq_core::dynamic::{DynamicOrpKw, ObjectHandle};
use skq_core::error::SkqError;
use skq_core::failpoints;
use skq_geom::Point;
use skq_invidx::Keyword;

use crate::wal::{SyncPolicy, Wal, WalConfig, WalOp};
use crate::{FileBackend, IndexBackend};

/// Checkpoint name for the snapshot covering lsns ≤ `lsn`.
fn checkpoint_name(lsn: u64) -> String {
    format!("ckpt-{lsn:020}")
}

/// Parses a checkpoint name back to its covered lsn.
fn checkpoint_lsn(name: &str) -> Option<u64> {
    name.strip_prefix("ckpt-").and_then(|s| s.parse().ok())
}

/// When to cut a checkpoint and truncate the WAL.
#[derive(Clone, Copy, Debug)]
pub struct CheckpointPolicy {
    /// Checkpoint after this many logged ops since the last one.
    pub every_ops: u64,
    /// … or after this many WAL bytes, whichever comes first.
    pub every_bytes: u64,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy {
            every_ops: 1024,
            every_bytes: 1 << 20,
        }
    }
}

impl CheckpointPolicy {
    /// Whether `ops`/`bytes` accumulated since the last checkpoint
    /// trigger one now.
    pub fn due(&self, ops: u64, bytes: u64) -> bool {
        (self.every_ops > 0 && ops >= self.every_ops)
            || (self.every_bytes > 0 && bytes >= self.every_bytes)
    }
}

/// Durability knobs for [`DurableDynamic`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DurabilityConfig {
    /// WAL sync/rotation policy.
    pub wal: WalConfig,
    /// Checkpoint cadence.
    pub checkpoint: CheckpointPolicy,
}

impl DurabilityConfig {
    /// A configuration for tests: no fsync, tiny segments, checkpoint
    /// every `every_ops` ops.
    pub fn fast(every_ops: u64) -> Self {
        DurabilityConfig {
            wal: WalConfig {
                sync: SyncPolicy::Never,
                segment_bytes: 4096,
            },
            checkpoint: CheckpointPolicy {
                every_ops,
                every_bytes: u64::MAX,
            },
        }
    }
}

/// What [`DurableDynamic::open`] did to reach a published state.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryReport {
    /// Lsn covered by the checkpoint that seeded the state (0 = none).
    pub checkpoint_lsn: u64,
    /// Highest lsn seen anywhere (checkpoint or WAL); the index state
    /// reflects exactly the acknowledged ops `1..=last_lsn`.
    pub last_lsn: u64,
    /// WAL records replayed on top of the checkpoint.
    pub replayed: u64,
    /// Poisoned WAL records skipped during replay (each with a typed
    /// reason on `skq_wal_records_skipped_total`).
    pub skipped: u64,
    /// Whether the WAL had a torn tail truncated away.
    pub torn_tail: bool,
    /// Corrupt checkpoints discarded before a valid one loaded.
    pub checkpoints_discarded: u64,
}

/// A crash-safe [`DynamicOrpKw`]: write-ahead logged, periodically
/// checkpointed, recoverable via [`open`](DurableDynamic::open).
pub struct DurableDynamic {
    index: DynamicOrpKw,
    wal: Wal,
    backend: FileBackend,
    config: DurabilityConfig,
    /// Lsn covered by the newest durable checkpoint.
    ckpt_lsn: u64,
    /// Ops logged since that checkpoint.
    ops_since: u64,
    /// `wal.bytes_appended()` at that checkpoint.
    bytes_mark: u64,
}

impl DurableDynamic {
    /// Creates a fresh durable index in `dir` (`dim`, `k` as in
    /// [`DynamicOrpKw::new`]) or recovers the one already there.
    ///
    /// Recovery: load the newest checkpoint whose snapshot validates
    /// (corrupt ones are discarded and counted, falling back to older
    /// checkpoints and finally to an empty index), then replay every
    /// WAL record with lsn beyond the checkpoint. Poisoned records are
    /// skipped with a typed reason rather than aborting recovery —
    /// the WAL's per-record checksums make a decode-level tear stop
    /// the scan instead (see [`Wal::open`]). With `debug-invariants`
    /// the recovered index is deep-validated before being returned.
    ///
    /// # Errors
    ///
    /// `SkqError::Store` if the directory or WAL is unusable, or if
    /// `dim`/`k` conflict with a recovered checkpoint.
    pub fn open(
        dir: &Path,
        dim: usize,
        k: usize,
        config: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport), SkqError> {
        let _span = skq_obs::Span::enter("recover.replay");
        let result = Self::open_inner(dir, dim, k, config);
        let outcome = match &result {
            Ok(_) => "ok",
            Err(_) => "error",
        };
        skq_obs::global()
            .counter("skq_recover_total", &[("outcome", outcome)])
            .inc();
        result
    }

    fn open_inner(
        dir: &Path,
        dim: usize,
        k: usize,
        config: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport), SkqError> {
        let backend = FileBackend::new(dir)?;
        let mut report = RecoveryReport::default();

        // Newest-valid-checkpoint-wins: try each snapshot from newest
        // to oldest, discarding (and counting) any that fail the typed
        // load path.
        let mut ckpts: Vec<u64> = backend
            .list()?
            .iter()
            .filter_map(|n| checkpoint_lsn(n))
            .collect();
        ckpts.sort_unstable_by(|a, b| b.cmp(a));
        let mut index: Option<DynamicOrpKw> = None;
        for &lsn in &ckpts {
            match backend.load::<DynamicOrpKw>(&checkpoint_name(lsn)) {
                Ok(ix) => {
                    index = Some(ix);
                    report.checkpoint_lsn = lsn;
                    break;
                }
                Err(_) => {
                    report.checkpoints_discarded += 1;
                    skq_obs::global()
                        .counter("skq_recover_checkpoints_discarded_total", &[])
                        .inc();
                }
            }
        }
        let mut index = index.unwrap_or_else(|| DynamicOrpKw::new(dim, k));
        if index.dim() != dim || index.k() != k {
            return Err(SkqError::Store {
                backend: "file".to_string(),
                message: format!(
                    "recovered checkpoint has dim {}, k {} but dim {dim}, k {k} was requested",
                    index.dim(),
                    index.k()
                ),
            });
        }

        let (wal, scan) = Wal::open(&dir.join("wal"), config.wal)?;
        report.torn_tail = scan.torn_tail;
        report.last_lsn = report.checkpoint_lsn;
        for rec in &scan.records {
            if rec.lsn > report.last_lsn {
                report.last_lsn = rec.lsn;
            }
            if rec.lsn <= report.checkpoint_lsn {
                continue; // Already inside the checkpoint.
            }
            let outcome = match &rec.op {
                WalOp::Insert {
                    id,
                    point,
                    keywords,
                } => index
                    .try_insert_with_id(*id, *point, keywords.clone())
                    .map(|_| ()),
                WalOp::Delete { id } => {
                    // Deleting a dead or unknown id is an idempotent
                    // no-op, exactly what partially-truncated logs need.
                    index.delete_by_id(*id);
                    Ok(())
                }
            };
            match outcome {
                Ok(()) => {
                    report.replayed += 1;
                    skq_obs::global()
                        .counter("skq_recover_replayed_total", &[])
                        .inc();
                }
                Err(e) => {
                    report.skipped += 1;
                    skq_obs::global()
                        .counter("skq_wal_records_skipped_total", &[("reason", e.kind())])
                        .inc();
                }
            }
        }

        #[cfg(feature = "debug-invariants")]
        index.validate().map_err(|v| SkqError::Corrupted {
            section: "recovered_index".to_string(),
            detail: v.to_string(),
        })?;

        let bytes_mark = wal.bytes_appended();
        let mut durable = DurableDynamic {
            index,
            wal,
            backend,
            config,
            ckpt_lsn: report.checkpoint_lsn,
            ops_since: report.replayed,
            bytes_mark,
        };
        // A long replay means the pre-crash process died with a large
        // un-checkpointed tail; cut one now so the next recovery is
        // short again. Failure is tolerated — everything is in the WAL.
        durable.maybe_checkpoint();
        Ok((durable, report))
    }

    /// The live index, for queries.
    pub fn index(&self) -> &DynamicOrpKw {
        &self.index
    }

    /// The checkpoint/WAL cadence in force.
    pub fn config(&self) -> &DurabilityConfig {
        &self.config
    }

    /// Inserts an object durably: applied to the live index, then
    /// logged; only a logged insert is acknowledged.
    ///
    /// Apply-then-log keeps handle allocation and the WAL in lockstep:
    /// if the log append fails the freshly applied object is rolled
    /// back by deletion, and — because the consumed id is recorded
    /// nowhere — the explicit-id replay path tolerates the gap.
    ///
    /// # Errors
    ///
    /// Whatever [`DynamicOrpKw::try_insert`] rejects, or
    /// `SkqError::Store` if the WAL append failed (the index is left
    /// as if the insert never happened).
    pub fn insert(
        &mut self,
        point: Point,
        keywords: Vec<Keyword>,
    ) -> Result<ObjectHandle, SkqError> {
        let handle = self.index.try_insert(point, keywords.clone())?;
        let op = WalOp::Insert {
            id: handle.id(),
            point,
            keywords,
        };
        if let Err(e) = self.wal.append(&op) {
            self.index.delete_by_id(handle.id());
            return Err(e);
        }
        self.after_op();
        Ok(handle)
    }

    /// Deletes an object durably: logged, then applied. Returns
    /// whether the object was live.
    ///
    /// Log-then-apply is safe here because replaying a delete of an
    /// already-dead id is a no-op; a crash between log and apply
    /// re-deletes on recovery.
    ///
    /// # Errors
    ///
    /// `SkqError::Store` if the WAL append failed (the object stays
    /// live).
    pub fn delete(&mut self, handle: ObjectHandle) -> Result<bool, SkqError> {
        if !self.index.contains(handle.id()) {
            return Ok(false);
        }
        self.wal.append(&WalOp::Delete { id: handle.id() })?;
        let was_live = self.index.delete(handle);
        self.after_op();
        Ok(was_live)
    }

    fn after_op(&mut self) {
        self.ops_since += 1;
        self.maybe_checkpoint();
    }

    /// Cuts a checkpoint if the policy says one is due, swallowing
    /// failure — the ops are already durable in the WAL, so a failed
    /// checkpoint costs replay time, not data.
    pub fn maybe_checkpoint(&mut self) {
        let bytes = self.wal.bytes_appended().saturating_sub(self.bytes_mark);
        if self.ops_since == 0 || !self.config.checkpoint.due(self.ops_since, bytes) {
            return;
        }
        let status = match self.checkpoint() {
            Ok(()) => "ok",
            Err(_) => "error",
        };
        skq_obs::global()
            .counter("skq_store_checkpoints_total", &[("status", status)])
            .inc();
    }

    /// Snapshots the live index covering every op logged so far, then
    /// truncates the WAL and prunes old checkpoints (the latest two
    /// are kept — the newest plus one fallback).
    ///
    /// # Errors
    ///
    /// `SkqError::Store` on snapshot or I/O failure — the index and
    /// WAL are unchanged, so nothing acknowledged is at risk.
    pub fn checkpoint(&mut self) -> Result<(), SkqError> {
        let _span = skq_obs::Span::enter("store.checkpoint");
        failpoints::check("store::checkpoint")?;
        let covered = self.wal.next_lsn() - 1;
        if covered == self.ckpt_lsn {
            return Ok(());
        }
        self.backend.save(&checkpoint_name(covered), &self.index)?;
        let previous = self.ckpt_lsn;
        self.ckpt_lsn = covered;
        self.ops_since = 0;
        self.bytes_mark = self.wal.bytes_appended();
        // Truncate only through the *previous* checkpoint: the WAL
        // keeps covering everything after the fallback checkpoint, so
        // recovery still reaches the present if the newest snapshot
        // turns out corrupt. Cleanup is best-effort — a leftover
        // segment wastes disk, never correctness.
        let _ = self.wal.truncate_through(previous);
        self.prune_checkpoints();
        Ok(())
    }

    fn prune_checkpoints(&self) {
        let Ok(names) = self.backend.list() else {
            return;
        };
        let mut lsns: Vec<u64> = names.iter().filter_map(|n| checkpoint_lsn(n)).collect();
        lsns.sort_unstable_by(|a, b| b.cmp(a));
        for &old in lsns.iter().skip(2) {
            if let Ok(path) = self.backend.path_of(&checkpoint_name(old)) {
                let _ = std::fs::remove_file(path);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skq_geom::Rect;
    use std::fs;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("skq-durable-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create tmpdir");
        dir
    }

    fn pt(i: u64) -> Point {
        Point::new2((i % 97) as f64, (i % 89) as f64)
    }

    fn kws(i: u64) -> Vec<Keyword> {
        vec![(i % 5) as Keyword, 100 + (i % 3) as Keyword]
    }

    #[test]
    fn recovers_exactly_the_acknowledged_ops() {
        let dir = tmpdir("ack");
        let mut acked: Vec<(u64, Point, Vec<Keyword>)> = Vec::new();
        {
            let (mut d, report) =
                DurableDynamic::open(&dir, 2, 2, DurabilityConfig::fast(64)).expect("open");
            assert_eq!(report.last_lsn, 0);
            for i in 0..300u64 {
                let h = d.insert(pt(i), kws(i)).expect("insert");
                acked.push((h.id(), pt(i), kws(i)));
                if i % 7 == 6 {
                    let (id, _, _) = acked[(i as usize) / 2];
                    d.delete_id_for_test(id);
                    acked.retain(|(a, _, _)| *a != id);
                }
            }
            // Process "crashes" here: no clean shutdown, WAL not synced
            // — SyncPolicy::Never still leaves bytes in the fs cache of
            // the same running OS, so a drop models a process kill.
        }
        let (d, report) =
            DurableDynamic::open(&dir, 2, 2, DurabilityConfig::fast(64)).expect("recover");
        assert_eq!(report.skipped, 0);
        assert!(
            report.replayed <= 64 + 1,
            "replay {} > budget",
            report.replayed
        );
        let mut live = d.index().live_objects();
        live.sort_by_key(|(id, _, _)| *id);
        acked.sort_by_key(|(id, _, _)| *id);
        assert_eq!(live.len(), acked.len());
        for ((lid, lp, lkw), (aid, ap, akw)) in live.iter().zip(&acked) {
            assert_eq!(lid, aid);
            assert_eq!(lp.coords(), ap.coords());
            assert_eq!(lkw, akw);
        }
        // And the recovered index answers queries.
        let (hits, _) = d
            .index()
            .query(
                &Rect::new(&[0.0, 0.0], &[100.0, 100.0]),
                &[0, 100],
                &skq_core::QueryGuard::new(),
            )
            .unwrap();
        let expect = acked
            .iter()
            .filter(|(_, _, kw)| kw == &vec![0, 100])
            .count();
        assert_eq!(hits.len(), expect);
        let _ = fs::remove_dir_all(&dir);
    }

    impl DurableDynamic {
        fn delete_id_for_test(&mut self, id: u64) {
            // Round-trip through the public surface.
            let h = self
                .index
                .live_objects()
                .iter()
                .find(|(a, _, _)| *a == id)
                .map(|_| id)
                .expect("live id");
            let _ = self.wal.append(&WalOp::Delete { id: h });
            self.index.delete_by_id(h);
            self.after_op();
        }
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_to_older() {
        let dir = tmpdir("fallback");
        {
            let (mut d, _) =
                DurableDynamic::open(&dir, 2, 2, DurabilityConfig::fast(16)).expect("open");
            for i in 0..80u64 {
                d.insert(pt(i), kws(i)).expect("insert");
            }
        }
        // Trash the newest checkpoint's bytes.
        let names: Vec<String> = FileBackend::new(&dir)
            .expect("backend")
            .list()
            .expect("list")
            .into_iter()
            .filter(|n| n.starts_with("ckpt-"))
            .collect();
        let newest = names.iter().max().expect("a checkpoint");
        let path = FileBackend::new(&dir)
            .expect("b")
            .path_of(newest)
            .expect("p");
        let mut bytes = fs::read(&path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).expect("write");

        let (d, report) =
            DurableDynamic::open(&dir, 2, 2, DurabilityConfig::fast(16)).expect("recover");
        assert!(report.checkpoints_discarded >= 1);
        assert_eq!(d.index().live_objects().len(), 80);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_failure_is_tolerated_and_wal_covers() {
        let dir = tmpdir("ckptfail");
        {
            let (mut d, _) =
                DurableDynamic::open(&dir, 3, 2, DurabilityConfig::fast(8)).expect("open");
            // dim 3 routes block builds through the dim-reduction
            // engine whose index cannot snapshot yet: once a block
            // exists (past the 128-object buffer) checkpoints fail
            // typed, and the ops stay WAL-covered.
            for i in 0..200u64 {
                d.insert(Point::new3(i as f64, 1.0, 2.0), kws(i))
                    .expect("insert");
            }
            assert!(matches!(d.checkpoint(), Err(SkqError::Store { .. })));
        }
        let (d, report) =
            DurableDynamic::open(&dir, 3, 2, DurabilityConfig::fast(8)).expect("recover");
        // Buffer-only checkpoints (≤ 128 objects) may have succeeded;
        // everything after the first block build is replayed.
        assert!(report.checkpoint_lsn <= 128);
        assert_eq!(report.replayed, 200 - report.checkpoint_lsn);
        assert_eq!(d.index().live_objects().len(), 200);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dim_mismatch_with_checkpoint_is_typed() {
        let dir = tmpdir("mismatch");
        {
            let (mut d, _) =
                DurableDynamic::open(&dir, 2, 2, DurabilityConfig::fast(4)).expect("open");
            for i in 0..16u64 {
                d.insert(pt(i), kws(i)).expect("insert");
            }
        }
        let err = DurableDynamic::open(&dir, 2, 3, DurabilityConfig::fast(4))
            .err()
            .expect("mismatch must fail");
        assert!(matches!(err, SkqError::Store { .. }), "got {err:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}

//! Crash-safe store of the live objects: WAL + checkpoints +
//! recovery.
//!
//! [`DurableDynamic`] owns an [`ObjectTable`] (the live objects by id
//! and the id watermark), a [`Wal`], and an [`IndexBackend`] holding
//! checkpoints. Every acknowledged mutation is durable in the WAL
//! before (deletes) or atomically with (inserts) the acknowledgement;
//! a [`CheckpointPolicy`] periodically saves the table through the
//! paged [`Persist`](crate::Persist) codec and truncates the log.
//! Nothing here builds an index: a server builds its suite from
//! [`ObjectTable::live_dataset`]. [`DurableDynamic::open`] is the
//! recovery state machine: newest valid checkpoint, then WAL replay
//! of the tail — see DESIGN §16 for the normative description.

use std::path::Path;

use skq_core::dynamic::{ObjectHandle, ObjectTable};
use skq_core::error::SkqError;
use skq_core::failpoints;
use skq_geom::Point;
use skq_invidx::Keyword;

use crate::wal::{Wal, WalConfig, WalOp};
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

/// What [`DurableDynamic::open`] did to reach a published state.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryReport {
    /// Lsn covered by the checkpoint that seeded the state (0 = none).
    pub checkpoint_lsn: u64,
    /// Highest lsn seen anywhere (checkpoint or WAL); the table
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

/// A crash-safe [`ObjectTable`]: write-ahead logged, periodically
/// checkpointed, recoverable via [`open`](DurableDynamic::open).
pub struct DurableDynamic {
    table: ObjectTable,
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
    /// Creates a fresh durable store of `dim`-dimensional objects in
    /// `dir`, or recovers the one already there.
    ///
    /// Recovery: load the newest checkpoint that decodes (corrupt ones
    /// are discarded and counted, falling back to older checkpoints
    /// and finally to an empty table), then replay every WAL record
    /// with lsn beyond the checkpoint. Poisoned records are skipped
    /// with a typed reason rather than aborting recovery — the WAL's
    /// per-record checksums make a decode-level tear stop the scan
    /// instead (see [`Wal::open`]).
    ///
    /// # Errors
    ///
    /// `SkqError::Store` if the directory or WAL is unusable, a
    /// checkpoint is unreadable or in the pre-table `DYN_HEAD` format,
    /// `dim` conflicts with the checkpoint, or the WAL was truncated
    /// past the newest checkpoint that decodes (the ops in between are
    /// gone, so opening would silently lose them);
    /// `SkqError::InvalidDataset` if `dim` is outside `1..=MAX_DIM`
    /// (checked before `dir` is created).
    pub fn open(
        dir: &Path,
        dim: usize,
        config: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport), SkqError> {
        let _span = skq_obs::Span::enter("recover.replay");
        let result = Self::open_inner(dir, dim, config);
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
        config: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport), SkqError> {
        // Checked before anything is created: an invalid `dim` leaves
        // no directory behind.
        let empty = ObjectTable::try_new(dim)?;
        let backend = FileBackend::new(dir)?;
        let mut report = RecoveryReport::default();

        // Newest-valid-checkpoint-wins: try each from newest to oldest,
        // discarding (and counting) any that fail to decode. A `Store`
        // error (unreadable, or a format this build does not read) stops
        // recovery: skipping it could silently open an older state.
        let mut ckpts: Vec<u64> = backend
            .list()?
            .iter()
            .filter_map(|n| checkpoint_lsn(n))
            .collect();
        ckpts.sort_unstable_by(|a, b| b.cmp(a));
        let mut table: Option<ObjectTable> = None;
        for &lsn in &ckpts {
            let name = checkpoint_name(lsn);
            match backend.load::<ObjectTable>(&name) {
                Ok(t) => {
                    table = Some(t);
                    report.checkpoint_lsn = lsn;
                    break;
                }
                Err(SkqError::Store { backend, message }) => {
                    return Err(SkqError::Store {
                        backend,
                        message: format!("checkpoint {name}: {message}"),
                    });
                }
                Err(_) => {
                    report.checkpoints_discarded += 1;
                    skq_obs::global()
                        .counter("skq_recover_checkpoints_discarded_total", &[])
                        .inc();
                }
            }
        }
        let mut table = table.unwrap_or(empty);
        if table.dim() != dim {
            return Err(SkqError::Store {
                backend: "file".to_string(),
                message: format!(
                    "recovered checkpoint has dim {} but dim {dim} was requested",
                    table.dim()
                ),
            });
        }

        let (wal, scan) = Wal::open(&dir.join("wal"), config.wal)?;
        if let Some(first) = scan.records.first() {
            if first.lsn > report.checkpoint_lsn + 1 {
                return Err(SkqError::Store {
                    backend: "file".to_string(),
                    message: format!(
                        "lsns {}..={} are in no readable checkpoint and no longer in the WAL",
                        report.checkpoint_lsn + 1,
                        first.lsn - 1
                    ),
                });
            }
        }
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
                } => table
                    .try_insert_with_id(*id, *point, keywords.clone())
                    .map(|_| ()),
                WalOp::Delete { id } => {
                    // Deleting a dead or unknown id is an idempotent
                    // no-op, exactly what partially-truncated logs need.
                    table.delete(*id);
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

        let bytes_mark = wal.bytes_appended();
        let mut durable = DurableDynamic {
            table,
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

    /// The live-object table.
    pub fn index(&self) -> &ObjectTable {
        &self.table
    }

    /// The checkpoint/WAL cadence in force.
    pub fn config(&self) -> &DurabilityConfig {
        &self.config
    }

    /// Inserts an object durably: applied to the table, then logged;
    /// only a logged insert is acknowledged.
    ///
    /// Apply-then-log keeps id allocation and the WAL in lockstep: if
    /// the log append fails the freshly applied object is rolled back
    /// by deletion, and its id stays burned, so a later insert never
    /// shares it with a half-rolled-back record. The explicit-id
    /// replay path tolerates the gap.
    ///
    /// # Errors
    ///
    /// Whatever [`ObjectTable::try_insert`] rejects, or
    /// `SkqError::Store` if the WAL append failed (the object is not
    /// live).
    pub fn insert(
        &mut self,
        point: Point,
        keywords: Vec<Keyword>,
    ) -> Result<ObjectHandle, SkqError> {
        let handle = self.table.try_insert(point, keywords.clone())?;
        let op = WalOp::Insert {
            id: handle.id(),
            point,
            keywords,
        };
        if let Err(e) = self.wal.append(&op) {
            self.table.delete(handle.id());
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
        if !self.table.contains(handle.id()) {
            return Ok(false);
        }
        self.wal.append(&WalOp::Delete { id: handle.id() })?;
        let was_live = self.table.delete(handle.id());
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

    /// Saves the table covering every op logged so far, then truncates
    /// the WAL and prunes old checkpoints (the latest two are kept —
    /// the newest plus one fallback).
    ///
    /// # Errors
    ///
    /// `SkqError::Store` on I/O failure — the table and WAL are
    /// unchanged, so nothing acknowledged is at risk.
    pub fn checkpoint(&mut self) -> Result<(), SkqError> {
        let _span = skq_obs::Span::enter("store.checkpoint");
        failpoints::check("store::checkpoint")?;
        let covered = self.wal.next_lsn() - 1;
        if covered == self.ckpt_lsn {
            return Ok(());
        }
        self.backend.save(&checkpoint_name(covered), &self.table)?;
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
    use crate::wal::SyncPolicy;
    use skq_core::persist::kind;
    use skq_core::query::KwQuery;
    use skq_core::suite::OrpKwSuite;
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

    /// No fsync, tiny segments, a checkpoint every `every_ops` ops.
    fn fast(every_ops: u64) -> DurabilityConfig {
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

    /// The table's objects as `(id, point, keywords)`, ascending by id.
    fn live(d: &DurableDynamic) -> Vec<(u64, Point, Vec<Keyword>)> {
        d.index()
            .iter()
            .map(|(id, p, doc)| (id, *p, doc.keywords().to_vec()))
            .collect()
    }

    #[test]
    fn recovers_exactly_the_acknowledged_ops() {
        let dir = tmpdir("ack");
        let mut acked: Vec<(u64, Point, Vec<Keyword>)> = Vec::new();
        {
            let (mut d, report) = DurableDynamic::open(&dir, 2, fast(64)).expect("open");
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
        let (d, report) = DurableDynamic::open(&dir, 2, fast(64)).expect("recover");
        assert_eq!(report.skipped, 0);
        assert!(
            report.replayed <= 64 + 1,
            "replay {} > budget",
            report.replayed
        );
        acked.sort_by_key(|(id, _, _)| *id);
        let got = live(&d);
        assert_eq!(got.len(), acked.len());
        for ((lid, lp, lkw), (aid, ap, akw)) in got.iter().zip(&acked) {
            assert_eq!(lid, aid);
            assert_eq!(lp.coords(), ap.coords());
            assert_eq!(lkw, akw);
        }
        // And a suite built from the recovered table answers queries.
        let (dataset, ids) = d.index().live_dataset().unwrap();
        assert_eq!(ids, acked.iter().map(|(id, _, _)| *id).collect::<Vec<_>>());
        let suite = OrpKwSuite::try_build(&dataset, 2).unwrap();
        let hits = suite
            .query(&Rect::new(&[0.0, 0.0], &[100.0, 100.0]), &[0, 100])
            .unwrap();
        let expect = acked
            .iter()
            .filter(|(_, _, kw)| kw == &vec![0, 100])
            .count();
        assert_eq!(hits.len(), expect);
        let _ = fs::remove_dir_all(&dir);
    }

    impl DurableDynamic {
        /// Deletes by id, as `delete` does for a handle.
        fn delete_id_for_test(&mut self, id: u64) {
            assert!(self.table.contains(id), "live id");
            let _ = self.wal.append(&WalOp::Delete { id });
            self.table.delete(id);
            self.after_op();
        }
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_to_older() {
        let dir = tmpdir("fallback");
        {
            let (mut d, _) = DurableDynamic::open(&dir, 2, fast(16)).expect("open");
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

        let (d, report) = DurableDynamic::open(&dir, 2, fast(16)).expect("recover");
        assert!(report.checkpoints_discarded >= 1);
        assert_eq!(d.index().len(), 80);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Flips a byte in the middle of every checkpoint in `dir`.
    fn corrupt_every_checkpoint(dir: &Path) {
        let backend = FileBackend::new(dir).expect("backend");
        let names = backend.list().expect("list");
        let mut corrupted = 0;
        for name in names.iter().filter(|n| n.starts_with("ckpt-")) {
            let path = backend.path_of(name).expect("path");
            let mut bytes = fs::read(&path).expect("read");
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xff;
            fs::write(&path, &bytes).expect("write");
            corrupted += 1;
        }
        assert!(corrupted > 0, "no checkpoint to corrupt");
    }

    #[test]
    fn every_checkpoint_corrupt_after_truncation_fails_open_typed() {
        let dir = tmpdir("allcorrupt-truncated");
        {
            let (mut d, _) = DurableDynamic::open(&dir, 2, fast(16)).expect("open");
            for i in 0..200u64 {
                d.insert(pt(i), kws(i)).expect("insert");
            }
        }
        corrupt_every_checkpoint(&dir);
        let err = DurableDynamic::open(&dir, 2, fast(16))
            .err()
            .expect("a truncated WAL without a checkpoint must not open");
        let SkqError::Store { message, .. } = &err else {
            panic!("expected a Store error, got {err:?}");
        };
        assert!(message.starts_with("lsns 1..="), "{message}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_checkpoint_corrupt_with_the_whole_wal_opens_the_full_state() {
        let dir = tmpdir("allcorrupt-whole");
        {
            // Segments that never fill up: truncation deletes only
            // whole segments at or below the older kept checkpoint,
            // and the first one runs past it, so lsn 1 stays logged.
            let mut config = fast(16);
            config.wal.segment_bytes = u64::MAX;
            let (mut d, _) = DurableDynamic::open(&dir, 2, config).expect("open");
            for i in 0..40u64 {
                d.insert(pt(i), kws(i)).expect("insert");
            }
        }
        corrupt_every_checkpoint(&dir);
        let (d, report) = DurableDynamic::open(&dir, 2, fast(16)).expect("recover");
        assert!(report.checkpoints_discarded >= 1);
        assert_eq!(report.checkpoint_lsn, 0);
        assert_eq!(report.replayed, 40);
        assert_eq!(d.index().len(), 40);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_failure_is_tolerated_and_wal_covers() {
        let dir = tmpdir("ckptfail");
        // A directory squatting on every checkpoint's temp-file name
        // makes each checkpoint write fail with a real I/O error.
        for lsn in 1..=201u64 {
            fs::create_dir(dir.join(format!(".{}.skq.tmp", checkpoint_name(lsn)))).expect("squat");
        }
        {
            let (mut d, _) = DurableDynamic::open(&dir, 3, fast(8)).expect("open");
            for i in 0..200u64 {
                d.insert(Point::new3(i as f64, 1.0, 2.0), kws(i))
                    .expect("insert");
            }
            assert!(matches!(d.checkpoint(), Err(SkqError::Store { .. })));
        }
        let (d, report) = DurableDynamic::open(&dir, 3, fast(8)).expect("recover");
        assert_eq!(report.checkpoint_lsn, 0);
        assert_eq!(report.replayed, 200);
        assert_eq!(d.index().len(), 200);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dim_mismatch_with_checkpoint_is_typed() {
        let dir = tmpdir("mismatch");
        {
            let (mut d, _) = DurableDynamic::open(&dir, 2, fast(4)).expect("open");
            for i in 0..16u64 {
                d.insert(pt(i), kws(i)).expect("insert");
            }
        }
        let err = DurableDynamic::open(&dir, 3, fast(4))
            .err()
            .expect("mismatch must fail");
        assert!(matches!(err, SkqError::Store { .. }), "got {err:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_invalid_dim_creates_no_directory() {
        let dir = tmpdir("bad-dim").join("fresh");
        for dim in [0, skq_geom::MAX_DIM + 1] {
            let err = DurableDynamic::open(&dir, dim, fast(4))
                .err()
                .expect("an invalid dim must fail");
            assert!(matches!(err, SkqError::InvalidDataset(_)), "got {err:?}");
            assert!(!dir.exists(), "dim {dim} created {}", dir.display());
        }
        let _ = fs::remove_dir_all(dir.parent().unwrap());
    }

    /// The kind of every page of a snapshot, in file order.
    fn page_kinds(bytes: &[u8]) -> Vec<u16> {
        let mut kinds = Vec::new();
        let mut pos = skq_core::persist::FILE_HEADER_BYTES;
        while pos < bytes.len() {
            kinds.push(u16::from_le_bytes([bytes[pos + 4], bytes[pos + 5]]));
            let len = u32::from_le_bytes(bytes[pos + 8..pos + 12].try_into().unwrap());
            pos += skq_core::persist::PAGE_HEADER_BYTES + len as usize;
        }
        kinds
    }

    #[test]
    fn a_checkpoint_holds_only_the_table_head_and_object_pages() {
        let dir = tmpdir("pages");
        let (mut d, _) = DurableDynamic::open(&dir, 2, fast(u64::MAX)).expect("open");
        // More objects than one object page holds (4096).
        for i in 0..5_000u64 {
            d.insert(pt(i), kws(i)).expect("insert");
        }
        d.checkpoint().expect("checkpoint");
        let bytes = fs::read(d.backend.path_of(&checkpoint_name(5_000)).unwrap()).unwrap();
        assert_eq!(
            page_kinds(&bytes),
            vec![kind::OBJECTS_HEAD, kind::DYN_OBJECTS, kind::DYN_OBJECTS]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_deleted_top_id_is_not_reused_after_checkpoint_and_reopen() {
        let dir = tmpdir("topid");
        let config = fast(u64::MAX);
        {
            let (mut d, _) = DurableDynamic::open(&dir, 2, config).expect("open");
            let handles: Vec<ObjectHandle> = (0..10u64)
                .map(|i| d.insert(pt(i), kws(i)).expect("insert"))
                .collect();
            assert!(d.delete(handles[9]).expect("delete"));
            d.checkpoint().expect("checkpoint");
        }
        let (mut d, report) = DurableDynamic::open(&dir, 2, config).expect("reopen");
        assert_eq!(report.checkpoint_lsn, 11);
        assert_eq!(report.replayed, 0, "the checkpoint alone seeds the table");
        assert_eq!(d.index().len(), 9);
        assert_eq!(d.index().next_id(), 10);
        let h = d.insert(pt(10), kws(10)).expect("insert");
        assert_eq!(h.id(), 10, "id 9 was deleted, not freed for reuse");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_checkpoint_in_the_retired_dynamic_format_fails_open_typed() {
        let dir = tmpdir("retired");
        {
            let (mut d, _) = DurableDynamic::open(&dir, 2, fast(u64::MAX)).expect("open");
            for i in 0..4u64 {
                d.insert(pt(i), kws(i)).expect("insert");
            }
            d.checkpoint().expect("checkpoint");
        }
        // A newer checkpoint written by the pre-table format: a whole
        // `DynamicOrpKw` snapshot.
        let mut old = skq_core::dynamic::DynamicOrpKw::new(2, 2);
        for i in 0..4u64 {
            old.try_insert(pt(i), kws(i)).expect("insert");
        }
        FileBackend::new(&dir)
            .unwrap()
            .save(&checkpoint_name(9), &old)
            .unwrap();
        let err = DurableDynamic::open(&dir, 2, fast(u64::MAX))
            .err()
            .expect("the retired format must not open, nor fall back");
        assert!(matches!(err, SkqError::Store { .. }), "{err:?}");
        let msg = err.to_string();
        assert!(
            msg.contains("DYN_HEAD") && msg.contains(&checkpoint_name(9)),
            "{msg}"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

//! Write-ahead log for the durable store's mutations.
//!
//! Every acknowledged insert/delete is first made durable here so a
//! crash between checkpoints loses nothing: recovery loads the newest
//! checkpoint and replays the tail of this log (see
//! [`durable`](crate::durable) and DESIGN §16 for the normative format
//! and state machine).
//!
//! # Record format
//!
//! ```text
//! magic "SKWR" (4) | body_len u32 LE (4) | fnv1a64(body) u64 LE (8) | body
//! body := lsn uv | tag uv | payload
//! tag 1 (insert): id uv | dim uv | dim × f64 LE | kw_count uv | kw uv …
//! tag 2 (delete): id uv
//! ```
//!
//! `uv` is the same LEB128 varint the paged snapshot codec uses
//! ([`persist::put_uv`]), and the checksum is the same
//! [`persist::fnv1a64`] — one corruption model across the whole
//! persistence tier. Records are self-delimiting and checksummed
//! individually so a torn tail (the crash truncated the last record
//! mid-write) is distinguishable from interior corruption: replay
//! accepts every whole valid record and stops at the first damage.
//!
//! # Segments
//!
//! The log is a directory of segment files `wal-<first_lsn:020>.log`;
//! the highest-named segment is active and appends go to its end. A
//! segment rotates once it exceeds [`WalConfig::segment_bytes`], and
//! checkpointing deletes whole segments whose records are all covered
//! (see [`Wal::truncate_through`]) — truncation is never a byte-level
//! rewrite of a live file.

use std::fs;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use skq_core::error::SkqError;
use skq_core::failpoints;
use skq_core::persist::{self, fnv1a64};
use skq_geom::Point;
use skq_invidx::Keyword;

use crate::{store_err, sync_dir, sync_file};

/// Magic prefix of every WAL record.
pub const RECORD_MAGIC: &[u8; 4] = b"SKWR";

/// Fixed bytes before a record's body: magic, body length, checksum.
pub const RECORD_HEADER_BYTES: usize = 4 + 4 + 8;

/// Upper bound on a record body — a sanity check against interpreting
/// corrupt length bytes as a multi-gigabyte allocation.
const MAX_BODY_BYTES: u32 = 1 << 24;

/// Segment file name for the segment whose first record is `lsn`.
fn segment_name(first_lsn: u64) -> String {
    format!("wal-{first_lsn:020}.log")
}

fn wal_err(message: String) -> SkqError {
    store_err("wal", message)
}

fn wal_corrupt(detail: String) -> SkqError {
    SkqError::Corrupted {
        section: "wal_record".to_string(),
        detail,
    }
}

/// One logged mutation, the unit of replay.
#[derive(Clone, Debug, PartialEq)]
pub enum WalOp {
    /// An object insertion, carrying the id the object table assigned
    /// so replay reconstructs the identical handle.
    Insert {
        /// Handle id assigned by `ObjectTable`.
        id: u64,
        /// The object's point.
        point: Point,
        /// The object's keyword set (non-empty, sorted as given).
        keywords: Vec<Keyword>,
    },
    /// A deletion by handle id.
    Delete {
        /// Handle id of the deleted object.
        id: u64,
    },
}

impl WalOp {
    fn tag(&self) -> u64 {
        match self {
            WalOp::Insert { .. } => 1,
            WalOp::Delete { .. } => 2,
        }
    }
}

/// A decoded WAL record: its log sequence number and operation.
#[derive(Clone, Debug, PartialEq)]
pub struct WalRecord {
    /// Strictly increasing log sequence number (first record is 1).
    pub lsn: u64,
    /// The logged mutation.
    pub op: WalOp,
}

/// When appends are made durable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Fsync after every append — an acknowledged op survives any
    /// crash. The default, and the only policy under which the
    /// recovered-equals-acknowledged property is exact.
    Always,
    /// Never fsync from the WAL (the OS flushes when it pleases).
    /// For tests and throwaway indexes only.
    Never,
}

/// WAL tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct WalConfig {
    /// Durability policy for appends.
    pub sync: SyncPolicy,
    /// Rotate the active segment once it exceeds this many bytes.
    pub segment_bytes: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            sync: SyncPolicy::Always,
            segment_bytes: 4 << 20,
        }
    }
}

/// What [`Wal::open`] found on disk.
#[derive(Debug)]
pub struct WalScan {
    /// Every valid record, in lsn order.
    pub records: Vec<WalRecord>,
    /// Whether a torn tail (or interior damage) was truncated away.
    pub torn_tail: bool,
    /// Total valid bytes scanned across all segments.
    pub bytes: u64,
}

/// Result of decoding one segment's bytes (pure, for the corruption
/// battery as much as for [`Wal::open`]).
#[derive(Debug)]
pub struct SegmentScan {
    /// The whole valid records found, in order.
    pub records: Vec<WalRecord>,
    /// Byte offset of the end of the last valid record.
    pub valid_len: u64,
    /// The typed error that stopped the scan, if the segment did not
    /// end exactly on a record boundary.
    pub error: Option<SkqError>,
}

/// Encodes one record (header + body) for `lsn`.
pub fn encode_record(lsn: u64, op: &WalOp) -> Vec<u8> {
    let mut body = Vec::with_capacity(64);
    persist::put_uv(&mut body, lsn);
    persist::put_uv(&mut body, op.tag());
    match op {
        WalOp::Insert {
            id,
            point,
            keywords,
        } => {
            persist::put_uv(&mut body, *id);
            persist::put_uv(&mut body, point.dim() as u64);
            for d in 0..point.dim() {
                persist::put_f64(&mut body, point.get(d));
            }
            persist::put_uv(&mut body, keywords.len() as u64);
            for kw in keywords {
                persist::put_uv(&mut body, u64::from(*kw));
            }
        }
        WalOp::Delete { id } => persist::put_uv(&mut body, *id),
    }
    let mut out = Vec::with_capacity(RECORD_HEADER_BYTES + body.len());
    out.extend_from_slice(RECORD_MAGIC);
    out.extend_from_slice(&u32::try_from(body.len()).unwrap_or(u32::MAX).to_le_bytes());
    out.extend_from_slice(&fnv1a64(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// LEB128 decode, the read twin of [`persist::put_uv`]. Local because
/// the snapshot codec's `Dec` is page-scoped.
fn get_uv(bytes: &[u8], pos: &mut usize) -> Result<u64, SkqError> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &b = bytes
            .get(*pos)
            .ok_or_else(|| wal_corrupt("varint runs past the record body".to_string()))?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && b > 1) {
            return Err(wal_corrupt("varint overflows u64".to_string()));
        }
        value |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Decodes a record body (past the header) into its op.
fn decode_body(body: &[u8]) -> Result<WalRecord, SkqError> {
    let mut pos = 0usize;
    let lsn = get_uv(body, &mut pos)?;
    if lsn == 0 {
        return Err(wal_corrupt("lsn 0 is reserved".to_string()));
    }
    let tag = get_uv(body, &mut pos)?;
    let op = match tag {
        1 => {
            let id = get_uv(body, &mut pos)?;
            let dim = get_uv(body, &mut pos)?;
            if dim == 0 || dim > skq_geom::MAX_DIM as u64 {
                return Err(wal_corrupt(format!("insert dimension {dim} out of range")));
            }
            let dim = dim as usize;
            if body.len() - pos < dim * 8 {
                return Err(wal_corrupt("insert coordinates truncated".to_string()));
            }
            let mut coords = Vec::with_capacity(dim);
            for _ in 0..dim {
                let mut raw = [0u8; 8];
                raw.copy_from_slice(&body[pos..pos + 8]);
                pos += 8;
                let x = f64::from_le_bytes(raw);
                if !x.is_finite() {
                    return Err(wal_corrupt(format!("non-finite coordinate {x}")));
                }
                coords.push(x);
            }
            let kw_count = get_uv(body, &mut pos)?;
            if kw_count == 0 || kw_count > body.len() as u64 {
                return Err(wal_corrupt(format!(
                    "keyword count {kw_count} out of range"
                )));
            }
            let mut keywords = Vec::with_capacity(kw_count as usize);
            for _ in 0..kw_count {
                let kw = get_uv(body, &mut pos)?;
                let kw = u32::try_from(kw)
                    .map_err(|_| wal_corrupt(format!("keyword {kw} exceeds u32")))?;
                keywords.push(kw);
            }
            WalOp::Insert {
                id,
                point: Point::new(&coords),
                keywords,
            }
        }
        2 => WalOp::Delete {
            id: get_uv(body, &mut pos)?,
        },
        other => return Err(wal_corrupt(format!("unknown record tag {other}"))),
    };
    if pos != body.len() {
        return Err(wal_corrupt(format!(
            "{} trailing bytes after the record payload",
            body.len() - pos
        )));
    }
    Ok(WalRecord { lsn, op })
}

/// Decodes a segment's bytes into whole valid records.
///
/// Scanning stops at the first damage — a short header, bad magic, an
/// oversized length, a checksum mismatch, or an undecodable body — and
/// reports the typed error plus the byte offset where the valid prefix
/// ends. A segment ending exactly on a record boundary has
/// `error: None`. Never panics, whatever the bytes.
pub fn decode_segment(bytes: &[u8]) -> SegmentScan {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let error = loop {
        if pos == bytes.len() {
            break None;
        }
        let rest = &bytes[pos..];
        if rest.len() < RECORD_HEADER_BYTES {
            break Some(wal_corrupt(format!(
                "{}-byte tail is shorter than a record header",
                rest.len()
            )));
        }
        if &rest[..4] != RECORD_MAGIC {
            break Some(wal_corrupt("bad record magic".to_string()));
        }
        let body_len = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        if body_len == 0 || body_len > MAX_BODY_BYTES {
            break Some(wal_corrupt(format!("body length {body_len} out of range")));
        }
        let body_len = body_len as usize;
        if rest.len() - RECORD_HEADER_BYTES < body_len {
            break Some(wal_corrupt(format!(
                "record body truncated: need {body_len} bytes, have {}",
                rest.len() - RECORD_HEADER_BYTES
            )));
        }
        let want = u64::from_le_bytes([
            rest[8], rest[9], rest[10], rest[11], rest[12], rest[13], rest[14], rest[15],
        ]);
        let body = &rest[RECORD_HEADER_BYTES..RECORD_HEADER_BYTES + body_len];
        if fnv1a64(body) != want {
            break Some(wal_corrupt("record checksum mismatch".to_string()));
        }
        match decode_body(body) {
            Ok(rec) => {
                if let Some(prev) = records.last() {
                    let prev: &WalRecord = prev;
                    if rec.lsn <= prev.lsn {
                        break Some(wal_corrupt(format!(
                            "lsn {} does not advance past {}",
                            rec.lsn, prev.lsn
                        )));
                    }
                }
                records.push(rec);
                pos += RECORD_HEADER_BYTES + body_len;
            }
            Err(e) => break Some(e),
        }
    };
    SegmentScan {
        records,
        valid_len: pos as u64,
        error,
    }
}

/// The append-only, checksummed, segmented write-ahead log.
pub struct Wal {
    dir: PathBuf,
    config: WalConfig,
    /// Active segment file, positioned at its end.
    file: fs::File,
    /// First lsn of the active segment (its name).
    seg_start: u64,
    /// Bytes currently in the active segment.
    seg_bytes: u64,
    /// First lsns of the closed (rotated-out) segments, ascending.
    closed: Vec<u64>,
    /// Highest lsn of each closed segment, parallel to `closed`.
    closed_last: Vec<u64>,
    next_lsn: u64,
    /// Total bytes appended since open (checkpoint pacing input).
    appended: u64,
}

impl Wal {
    /// Opens (or creates) the log in `dir`, replay-scanning every
    /// segment.
    ///
    /// Torn tails are tolerated: the first damaged byte range in the
    /// highest segment is truncated away (`skq_wal_torn_tails_total`)
    /// and any later segments — which could only exist if the tear
    /// were interior damage — are deleted, so the log always reopens
    /// append-ready. The returned [`WalScan`] carries every surviving
    /// record for replay.
    ///
    /// # Errors
    ///
    /// `SkqError::Store` on I/O failure or an unparsable segment file
    /// name (damage to the directory itself is not self-healed).
    pub fn open(dir: &Path, config: WalConfig) -> Result<(Wal, WalScan), SkqError> {
        fs::create_dir_all(dir).map_err(|e| wal_err(format!("creating {}: {e}", dir.display())))?;
        let mut seg_starts: Vec<u64> = Vec::new();
        let entries =
            fs::read_dir(dir).map_err(|e| wal_err(format!("listing {}: {e}", dir.display())))?;
        for entry in entries {
            let entry = entry.map_err(|e| wal_err(format!("listing {}: {e}", dir.display())))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(stem) = name
                .strip_prefix("wal-")
                .and_then(|s| s.strip_suffix(".log"))
            {
                let first: u64 = stem
                    .parse()
                    .map_err(|_| wal_err(format!("unparsable segment name {name}")))?;
                seg_starts.push(first);
            }
        }
        seg_starts.sort_unstable();

        let mut records: Vec<WalRecord> = Vec::new();
        let mut torn_tail = false;
        let mut bytes = 0u64;
        let mut closed: Vec<u64> = Vec::new();
        let mut closed_last: Vec<u64> = Vec::new();
        let mut active: Option<(u64, u64)> = None; // (first_lsn, valid_len)
        for (i, &first) in seg_starts.iter().enumerate() {
            let path = dir.join(segment_name(first));
            let mut raw = Vec::new();
            fs::File::open(&path)
                .and_then(|mut f| f.read_to_end(&mut raw))
                .map_err(|e| wal_err(format!("reading {}: {e}", path.display())))?;
            let scan = decode_segment(&raw);
            bytes += scan.valid_len;
            if let Some(first_rec) = scan.records.first() {
                if first_rec.lsn != first {
                    return Err(wal_corrupt(format!(
                        "segment {} starts at lsn {}, not its named {first}",
                        path.display(),
                        first_rec.lsn
                    )));
                }
            }
            if let (Some(prev), Some(first_rec)) = (records.last(), scan.records.first()) {
                if first_rec.lsn <= prev.lsn {
                    return Err(wal_corrupt(format!(
                        "segment {} overlaps the previous segment (lsn {} ≤ {})",
                        path.display(),
                        first_rec.lsn,
                        prev.lsn
                    )));
                }
            }
            let last_lsn = scan.records.last().map(|r| r.lsn);
            records.extend(scan.records);
            if scan.error.is_some() {
                // Damage: truncate this segment to its valid prefix and
                // drop everything after it. (In the common case this IS
                // the last segment and the damage is a torn tail.)
                torn_tail = true;
                skq_obs::global()
                    .counter("skq_wal_torn_tails_total", &[])
                    .inc();
                let f = fs::OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| wal_err(format!("opening {}: {e}", path.display())))?;
                f.set_len(scan.valid_len)
                    .map_err(|e| wal_err(format!("truncating {}: {e}", path.display())))?;
                sync_file(&f, &path)?;
                for &later in &seg_starts[i + 1..] {
                    let p = dir.join(segment_name(later));
                    fs::remove_file(&p)
                        .map_err(|e| wal_err(format!("removing {}: {e}", p.display())))?;
                }
                sync_dir(dir)?;
                active = Some((first, scan.valid_len));
                break;
            }
            if i + 1 == seg_starts.len() {
                active = Some((first, scan.valid_len));
            } else {
                closed.push(first);
                // An empty closed segment can only arise from a crash
                // mid-rotation; record an impossible last-lsn of
                // `first - 1` so truncation treats it as fully covered.
                closed_last.push(last_lsn.unwrap_or(first.saturating_sub(1)));
            }
        }

        let next_lsn = records.last().map_or(1, |r| r.lsn + 1);
        let (seg_start, seg_bytes) = match active {
            Some(s) => s,
            None => (next_lsn, 0),
        };
        let path = dir.join(segment_name(seg_start));
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| wal_err(format!("opening {}: {e}", path.display())))?;
        // `append` positions at the (possibly truncated) end lazily on
        // write; make the offset explicit so rollback arithmetic holds.
        file.seek(SeekFrom::Start(seg_bytes))
            .map_err(|e| wal_err(format!("seeking {}: {e}", path.display())))?;
        sync_dir(dir)?;
        Ok((
            Wal {
                dir: dir.to_path_buf(),
                config,
                file,
                seg_start,
                seg_bytes,
                closed,
                closed_last,
                next_lsn,
                appended: 0,
            },
            WalScan {
                records,
                torn_tail,
                bytes,
            },
        ))
    }

    /// The lsn the next append will receive.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Total bytes appended since this `Wal` was opened.
    pub fn bytes_appended(&self) -> u64 {
        self.appended
    }

    /// Appends one op, returning its lsn.
    ///
    /// The append is all-or-nothing: on any failure — the
    /// `store::wal_append` fail point, a write error, or a failed
    /// fsync under [`SyncPolicy::Always`] — the segment is rolled back
    /// to its prior length, so a record the caller did not get an lsn
    /// for is never visible to recovery. That exactness is what lets
    /// the chaos battery assert recovered == acknowledged.
    ///
    /// # Errors
    ///
    /// `SkqError::Store` on I/O failure, `Internal` from the fail
    /// point.
    pub fn append(&mut self, op: &WalOp) -> Result<u64, SkqError> {
        let _span = skq_obs::Span::enter("wal.append");
        failpoints::check("store::wal_append")?;
        if self.seg_bytes >= self.config.segment_bytes {
            self.rotate()?;
        }
        let lsn = self.next_lsn;
        let bytes = encode_record(lsn, op);
        let prior = self.seg_bytes;
        let path = self.dir.join(segment_name(self.seg_start));
        let result = (|| -> Result<(), SkqError> {
            self.file
                .write_all(&bytes)
                .map_err(|e| wal_err(format!("appending to {}: {e}", path.display())))?;
            if self.config.sync == SyncPolicy::Always {
                sync_file(&self.file, &path)?;
            }
            Ok(())
        })();
        if let Err(e) = result {
            // Undo the (possibly partial, possibly unsynced) write so
            // the unacknowledged record cannot survive to replay.
            let _ = self.file.set_len(prior);
            let _ = self.file.seek(SeekFrom::Start(prior));
            return Err(e);
        }
        self.seg_bytes += bytes.len() as u64;
        self.appended += bytes.len() as u64;
        self.next_lsn = lsn + 1;
        skq_obs::global()
            .counter("skq_wal_appends_total", &[])
            .inc();
        skq_obs::global()
            .counter("skq_wal_bytes_written_total", &[])
            .add(bytes.len() as u64);
        Ok(lsn)
    }

    /// Forces an fsync of the active segment regardless of policy.
    ///
    /// # Errors
    ///
    /// `SkqError::Store` on I/O failure.
    pub fn sync(&self) -> Result<(), SkqError> {
        let path = self.dir.join(segment_name(self.seg_start));
        sync_file(&self.file, &path)
    }

    /// Closes the active segment and starts a fresh one at `next_lsn`.
    fn rotate(&mut self) -> Result<(), SkqError> {
        self.sync()?;
        self.closed.push(self.seg_start);
        self.closed_last.push(self.next_lsn - 1);
        self.seg_start = self.next_lsn;
        self.seg_bytes = 0;
        let path = self.dir.join(segment_name(self.seg_start));
        self.file = fs::OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)
            .map_err(|e| wal_err(format!("creating {}: {e}", path.display())))?;
        sync_dir(&self.dir)
    }

    /// Discards records with lsn ≤ `through` — called after a
    /// checkpoint at `through` makes them redundant.
    ///
    /// Truncation is segment-granular: the active segment is rotated
    /// out first, then every closed segment wholly covered by
    /// `through` is deleted. A crash mid-way leaves extra covered
    /// records behind, which recovery replays idempotently; it never
    /// loses uncovered ones.
    ///
    /// # Errors
    ///
    /// `SkqError::Store` on I/O failure.
    pub fn truncate_through(&mut self, through: u64) -> Result<(), SkqError> {
        // The active segment can contain covered records only if it
        // starts at or before `through`; rotate it out so those become
        // part of a deletable closed segment.
        if self.seg_bytes > 0 && self.seg_start <= through {
            self.rotate()?;
        }
        let mut kept = Vec::new();
        let mut kept_last = Vec::new();
        for (&first, &last) in self.closed.iter().zip(&self.closed_last) {
            if last <= through {
                let p = self.dir.join(segment_name(first));
                fs::remove_file(&p)
                    .map_err(|e| wal_err(format!("removing {}: {e}", p.display())))?;
            } else {
                kept.push(first);
                kept_last.push(last);
            }
        }
        self.closed = kept;
        self.closed_last = kept_last;
        sync_dir(&self.dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("skq-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create tmpdir");
        dir
    }

    fn ins(id: u64) -> WalOp {
        WalOp::Insert {
            id,
            point: Point::new2(id as f64, -(id as f64)),
            keywords: vec![1, 2, 3],
        }
    }

    #[test]
    fn round_trips_records_across_reopen() {
        let dir = tmpdir("roundtrip");
        let mut ops = Vec::new();
        {
            let (mut wal, scan) = Wal::open(&dir, WalConfig::default()).expect("open");
            assert!(scan.records.is_empty());
            for i in 0..20u64 {
                let op = if i % 3 == 2 {
                    WalOp::Delete { id: i / 3 }
                } else {
                    ins(i)
                };
                let lsn = wal.append(&op).expect("append");
                assert_eq!(lsn, i + 1);
                ops.push(op);
            }
        }
        let (_, scan) = Wal::open(&dir, WalConfig::default()).expect("reopen");
        assert!(!scan.torn_tail);
        assert_eq!(scan.records.len(), 20);
        for (i, rec) in scan.records.iter().enumerate() {
            assert_eq!(rec.lsn, i as u64 + 1);
            assert_eq!(rec.op, ops[i]);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_spreads_records_over_segments_and_truncates() {
        let dir = tmpdir("rotate");
        let config = WalConfig {
            sync: SyncPolicy::Never,
            segment_bytes: 128,
        };
        {
            let (mut wal, _) = Wal::open(&dir, config).expect("open");
            for i in 0..50u64 {
                wal.append(&ins(i)).expect("append");
            }
            wal.sync().expect("sync");
        }
        let segs = fs::read_dir(&dir).expect("list").count();
        assert!(segs > 1, "expected rotation, found {segs} segment(s)");
        let (mut wal, scan) = Wal::open(&dir, config).expect("reopen");
        assert_eq!(scan.records.len(), 50);
        wal.truncate_through(40).expect("truncate");
        drop(wal);
        let (_, scan) = Wal::open(&dir, config).expect("re-reopen");
        assert!(!scan.torn_tail);
        // Truncation is segment-granular: lsns > 40 all survive, and
        // what survives is a contiguous suffix ending at 50.
        let lsns: Vec<u64> = scan.records.iter().map(|r| r.lsn).collect();
        assert_eq!(*lsns.last().expect("tail"), 50);
        assert!(*lsns.first().expect("head") <= 41);
        for w in lsns.windows(2) {
            assert_eq!(w[1], w[0] + 1);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = tmpdir("torn");
        {
            let (mut wal, _) = Wal::open(&dir, WalConfig::default()).expect("open");
            for i in 0..5u64 {
                wal.append(&ins(i)).expect("append");
            }
        }
        let seg = dir.join(segment_name(1));
        let bytes = fs::read(&seg).expect("read");
        fs::write(&seg, &bytes[..bytes.len() - 3]).expect("tear");
        let (mut wal, scan) = Wal::open(&dir, WalConfig::default()).expect("reopen");
        assert!(scan.torn_tail);
        assert_eq!(scan.records.len(), 4);
        // The log is append-ready after healing.
        let lsn = wal.append(&ins(99)).expect("append after tear");
        assert_eq!(lsn, 5);
        drop(wal);
        let (_, scan) = Wal::open(&dir, WalConfig::default()).expect("re-reopen");
        assert!(!scan.torn_tail);
        assert_eq!(scan.records.len(), 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn decode_segment_flags_bit_flips_typed() {
        let mut bytes = Vec::new();
        for i in 0..4u64 {
            bytes.extend_from_slice(&encode_record(i + 1, &ins(i)));
        }
        let clean = decode_segment(&bytes);
        assert_eq!(clean.records.len(), 4);
        assert!(clean.error.is_none());
        for pos in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            let scan = decode_segment(&bad);
            if let Some(e) = scan.error {
                assert!(
                    matches!(e, SkqError::Corrupted { .. }),
                    "wanted Corrupted, got {e:?}"
                );
            }
            assert!(scan.records.len() <= 4);
        }
    }
}

//! Dynamic (insert/delete) ORP-KW via the logarithmic method.
//!
//! The paper's indexes are static. ORP-KW, however, is a *decomposable
//! search problem* — the answer over `A ∪ B` is the union of the
//! answers over `A` and `B` — so the classical Bentley–Saxe
//! logarithmic method applies: maintain static indexes over blocks of
//! doubling sizes, insert by "binary-counter carries" that rebuild a
//! prefix of blocks, and query every block. This multiplies query time
//! by `O(log n)` and amortizes insertion to `O(polylog · build/n)` —
//! the standard trade the paper leaves as engineering.
//!
//! Deletions are lazy: a live-handle set filters query output, and the
//! structure is rebuilt from live objects whenever at least half of it
//! is dead, so space stays `O(N_live)` and filtering stays `O(1)` per
//! reported object.

use std::ops::ControlFlow;
use std::sync::Arc;

use skq_geom::{Point, Rect};
use skq_invidx::{Document, Keyword};

use crate::dataset::Dataset;
use crate::error::{validate, SkqError};
use crate::failpoints;
use crate::fastmap::FxHashMap;
use crate::guard::{GuardedSink, QueryGuard};
use crate::orp::OrpKwIndex;
use crate::query::KwQuery;
use crate::sink::ResultSink;
use crate::stats::{QueryStats, TruncatedReason};
use crate::telemetry;

/// Handle returned by [`DynamicOrpKw::try_insert`], used for deletion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectHandle(u64);

impl ObjectHandle {
    /// The handle's stable numeric id — the value persisted in WAL
    /// records and snapshots, re-playable via
    /// [`DynamicOrpKw::try_insert_with_id`].
    pub fn id(self) -> u64 {
        self.0
    }
}

/// Objects buffered before the first block is formed.
const BASE_BLOCK: usize = 128;

/// A stored object: its point, document and handle.
type Entry = (Point, Document, ObjectHandle);

/// A stored object read in place: the document stays where it lives.
type EntryRef<'a> = (Point, &'a Document, ObjectHandle);

/// One static block. Its index is the only copy of the block's objects:
/// a merge reads each one back — the document from the index's shared
/// documents, the point from its rank-space columns.
struct Block {
    index: OrpKwIndex,
    /// Block-local id → handle.
    handles: Vec<ObjectHandle>,
}

impl Block {
    fn len(&self) -> usize {
        self.handles.len()
    }

    /// The block's objects in block-local id order.
    fn objects(&self) -> impl Iterator<Item = EntryRef<'_>> {
        self.handles
            .iter()
            .enumerate()
            .map(|(i, &h)| (self.index.point(i), self.index.doc(i), h))
    }
}

/// A dynamic ORP-KW index (insertions and lazy deletions).
///
/// # Example
///
/// ```
/// use skq_core::dynamic::DynamicOrpKw;
/// use skq_core::QueryGuard;
/// use skq_geom::{Point, Rect};
///
/// let mut index = DynamicOrpKw::new(2, 2);
/// let a = index.try_insert(Point::new2(1.0, 1.0), vec![0, 1])?;
/// let _b = index.try_insert(Point::new2(9.0, 9.0), vec![0, 1])?;
/// let q = Rect::new(&[0.0, 0.0], &[5.0, 5.0]);
/// let (hits, _stats) = index.query(&q, &[0, 1], &QueryGuard::new())?;
/// assert_eq!(hits, vec![a]);
/// index.delete(a);
/// assert!(index.query(&q, &[0, 1], &QueryGuard::new())?.0.is_empty());
/// # Ok::<(), skq_core::SkqError>(())
/// ```
pub struct DynamicOrpKw {
    k: usize,
    dim: usize,
    /// `blocks[i]` holds up to `BASE_BLOCK · 2^i` objects.
    blocks: Vec<Option<Block>>,
    /// Insertion buffer, scanned linearly by queries (≤ `BASE_BLOCK`).
    buffer: Vec<Entry>,
    /// The set of live handles: deletion removes from it, queries
    /// filter against it. `O(live)` space, and — unlike a tombstone
    /// set cleared on rebuild — re-deleting a long-dead handle stays a
    /// correct no-op.
    live_set: FxHashMap<u64, ()>,
    next_handle: u64,
}

impl DynamicOrpKw {
    /// Creates an empty dynamic index for `dim`-dimensional points and
    /// exactly-`k`-keyword queries.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` or `dim` is unsupported.
    pub fn new(dim: usize, k: usize) -> Self {
        assert!(k >= 2, "k must be at least 2");
        assert!((1..=skq_geom::MAX_DIM).contains(&dim));
        Self {
            k,
            dim,
            blocks: Vec::new(),
            buffer: Vec::new(),
            live_set: FxHashMap::default(),
            next_handle: 0,
        }
    }

    /// The number of live objects.
    pub fn len(&self) -> usize {
        self.live_set.len()
    }

    /// Whether no live objects remain.
    pub fn is_empty(&self) -> bool {
        self.live_set.is_empty()
    }

    /// Inserts an object, returning its handle. The keywords are kept as
    /// a [`Document`]: sorted, without duplicates. Amortized cost is one
    /// static rebuild of `O(log n)` blocks per `n` insertions. If the
    /// amortized block rebuild fails (e.g. an injected fail point), the insertion is
    /// rolled back and the index is left exactly as it was — no block
    /// is lost and subsequent operations behave normally.
    ///
    /// # Errors
    ///
    /// `SkqError::InvalidDataset` on a dimension mismatch, an empty
    /// document, or non-finite coordinates; any block-build error is
    /// propagated after rollback.
    pub fn try_insert(
        &mut self,
        point: Point,
        keywords: Vec<Keyword>,
    ) -> Result<ObjectHandle, SkqError> {
        if point.dim() != self.dim {
            return Err(SkqError::InvalidDataset(format!(
                "point dimension mismatch: point is {}-dimensional, index is {}-dimensional",
                point.dim(),
                self.dim
            )));
        }
        if keywords.is_empty() {
            return Err(SkqError::InvalidDataset(
                "documents must be non-empty".into(),
            ));
        }
        for i in 0..point.dim() {
            if !point.get(i).is_finite() {
                return Err(SkqError::InvalidDataset(format!(
                    "coordinates must be finite: inserted point has {} in dimension {i}",
                    point.get(i)
                )));
            }
        }
        let handle = ObjectHandle(self.next_handle);
        self.next_handle += 1;
        self.live_set.insert(handle.0, ());
        self.buffer.push((point, Document::new(keywords), handle));
        if self.buffer.len() >= BASE_BLOCK {
            if let Err(e) = self.try_carry() {
                // Roll back this insertion: the carry left all state
                // untouched, so popping the buffered item restores the
                // exact pre-insert index.
                self.buffer.pop();
                self.live_set.remove(&handle.0);
                self.next_handle -= 1;
                return Err(e);
            }
        }
        Ok(handle)
    }

    /// Inserts an object under a caller-chosen id. Ids must be fresh:
    /// inserting under an id that was ever allocated (by either insert
    /// surface) is rejected, because the handle may still be referenced
    /// by the live-set or by a deleted-object tombstone check.
    ///
    /// # Errors
    ///
    /// `SkqError::InvalidQuery` if `id` duplicates an already-allocated
    /// handle; otherwise the [`try_insert`](Self::try_insert) errors.
    pub fn try_insert_with_id(
        &mut self,
        id: u64,
        point: Point,
        keywords: Vec<Keyword>,
    ) -> Result<ObjectHandle, SkqError> {
        if id < self.next_handle {
            return Err(SkqError::InvalidQuery(format!(
                "duplicate object id {id}: ids up to {} are already allocated",
                self.next_handle - 1
            )));
        }
        let saved = self.next_handle;
        self.next_handle = id;
        match self.try_insert(point, keywords) {
            Ok(h) => Ok(h),
            Err(e) => {
                self.next_handle = saved;
                Err(e)
            }
        }
    }

    /// Deletes an object by numeric id — the by-id twin of
    /// [`delete`](Self::delete), used when the caller holds a
    /// persisted id (WAL replay, crash-recovery rollback) rather than
    /// a live [`ObjectHandle`]. Returns whether the object was live;
    /// deleting an unknown or already-dead id is a `false` no-op.
    pub fn delete_by_id(&mut self, id: u64) -> bool {
        self.delete(ObjectHandle(id))
    }

    /// Deletes an object by handle. Returns whether it was live.
    pub fn delete(&mut self, handle: ObjectHandle) -> bool {
        if self.live_set.remove(&handle.0).is_none() {
            return false;
        }
        // Global rebuild once at least half the stored objects are dead.
        let stored: usize = self.stored_count();
        if stored >= 2 * BASE_BLOCK && self.live_set.len() * 2 <= stored {
            self.rebuild();
        }
        true
    }

    fn stored_count(&self) -> usize {
        self.buffer.len() + self.blocks.iter().flatten().map(Block::len).sum::<usize>()
    }

    /// The buffered objects, in buffer order.
    fn buffered(&self) -> impl Iterator<Item = EntryRef<'_>> {
        self.buffer.iter().map(|(p, doc, h)| (*p, doc, *h))
    }

    /// Every stored object, live or dead: the buffer, then each block in
    /// slot order.
    fn stored(&self) -> impl Iterator<Item = EntryRef<'_>> {
        self.buffered()
            .chain(self.blocks.iter().flatten().flat_map(Block::objects))
    }

    /// Binary-counter carry: merge the buffer with the maximal run of
    /// occupied low blocks into the first free slot. The new block is
    /// built from the objects in place *before* any state is modified,
    /// so a build failure leaves the index untouched.
    fn try_carry(&mut self) -> Result<(), SkqError> {
        let slot = self
            .blocks
            .iter()
            .position(Option::is_none)
            .unwrap_or(self.blocks.len());
        let pool: Vec<EntryRef<'_>> = self
            .buffered()
            .chain(
                self.blocks[..slot]
                    .iter()
                    .flatten()
                    .flat_map(Block::objects),
            )
            .collect();
        let block = Self::try_build_block(&pool, self.k)?;
        // Commit: only after the build succeeded.
        self.buffer.clear();
        if slot == self.blocks.len() {
            self.blocks.push(None);
        }
        for s in 0..slot {
            self.blocks[s] = None;
        }
        self.blocks[slot] = Some(block);
        Ok(())
    }

    /// Rebuilds everything from live objects only. If the block build
    /// fails (e.g. an injected fail point), the live objects are parked
    /// in the insertion buffer instead — queries fall back to the
    /// linear scan, staying correct in a degraded (un-indexed) mode
    /// until the next successful carry re-indexes them.
    fn rebuild(&mut self) {
        let pool: Vec<EntryRef<'_>> = self
            .stored()
            .filter(|(_, _, h)| self.live_set.contains_key(&h.0))
            .collect();
        // Place everything in the appropriate single block, or park it
        // in the buffer if it is too small for one or the build fails.
        let slot = pool
            .len()
            .div_ceil(BASE_BLOCK)
            .next_power_of_two()
            .trailing_zeros() as usize;
        let built = if pool.len() < BASE_BLOCK {
            None
        } else {
            Self::try_build_block(&pool, self.k).ok()
        };
        self.buffer = match built {
            Some(_) => Vec::new(),
            None => pool
                .iter()
                .map(|&(p, doc, h)| (p, doc.clone(), h))
                .collect(),
        };
        self.blocks.clear();
        if let Some(block) = built {
            self.blocks.resize_with(slot + 1, || None);
            self.blocks[slot] = Some(block);
        }
    }

    fn try_build_block(pool: &[EntryRef<'_>], k: usize) -> Result<Block, SkqError> {
        failpoints::check("dynamic::build_block")?;
        let points = pool.iter().map(|&(p, _, _)| p).collect();
        let docs: Arc<[Document]> = pool.iter().map(|&(_, doc, _)| doc.clone()).collect();
        let dataset = Dataset::try_new(points, docs)?;
        Ok(Block {
            index: OrpKwIndex::try_build(&dataset, k)?,
            handles: pool.iter().map(|&(_, _, h)| h).collect(),
        })
    }

    /// Reports the handles of live objects in `q` whose documents
    /// contain all `keywords` (exactly `k` distinct), under `guard`,
    /// with statistics aggregated over the blocks. Each static block
    /// streams its hits through a handle-translating sink (no per-block
    /// staging vector), so a filled result budget stops every block
    /// traversal early; it is a successful, truncated answer with
    /// `QueryStats::truncated_reason` set.
    ///
    /// # Errors
    ///
    /// `SkqError::InvalidQuery` on a dimension mismatch, NaN bounds, or
    /// a wrong number of distinct keywords;
    /// `SkqError::DeadlineExceeded` / `SkqError::Cancelled` when the
    /// guard trips.
    pub fn query(
        &self,
        q: &Rect,
        keywords: &[Keyword],
        guard: &QueryGuard,
    ) -> Result<(Vec<ObjectHandle>, QueryStats), SkqError> {
        validate::rect_query(q, self.dim)?;
        validate::distinct_keywords(keywords, self.k)?;
        let span = skq_obs::Span::enter("orp.dynamic_query");
        let mut kws = keywords.to_vec();
        kws.sort_unstable();
        kws.dedup();
        let mut out = Vec::new();
        let mut stats = QueryStats::new();
        let mut reason: Option<TruncatedReason> = None;
        {
            // One guarded sink across every block, so the result budget
            // spans the whole answer; only the id→handle map changes.
            let handle_sink = HandleSink {
                handles: &[],
                live: &self.live_set,
                out: &mut out,
            };
            let mut sink = GuardedSink::new(handle_sink, guard);
            for block in self.blocks.iter().flatten() {
                // The guard is also consulted per emission inside the
                // traversal; this boundary check catches deadlines that
                // expire inside match-free subtrees.
                if let Err(e) = guard.check() {
                    reason = Some(Self::trip(&e));
                    break;
                }
                sink.inner_mut().handles = &block.handles;
                let mut s = QueryStats::new();
                let flow = block.index.query_sink(q, &kws, &mut sink, &mut s);
                stats.absorb(&s);
                if flow.is_break() {
                    break;
                }
            }
            reason = reason.or(sink.truncated_reason());
        }
        if reason.is_none() {
            match guard.check() {
                Err(e) => reason = Some(Self::trip(&e)),
                Ok(()) => {
                    let budget = guard.max_results().unwrap_or(u64::MAX);
                    for (p, doc, h) in &self.buffer {
                        stats.pivot_scans += 1;
                        if self.live_set.contains_key(&h.0)
                            && q.contains(p)
                            && doc.contains_all(&kws)
                        {
                            if out.len() as u64 >= budget {
                                reason = Some(TruncatedReason::Limit);
                                break;
                            }
                            stats.reported += 1;
                            out.push(*h);
                        }
                    }
                }
            }
        }
        stats.emitted = out.len() as u64;
        stats.truncated |= reason.is_some();
        stats.truncated_reason = reason;
        telemetry::record_query("orp_dynamic", self.k, None, &stats, span.elapsed());
        match reason {
            Some(TruncatedReason::DeadlineExceeded) => Err(SkqError::DeadlineExceeded),
            Some(TruncatedReason::Cancelled) => Err(SkqError::Cancelled),
            Some(TruncatedReason::Limit) | None => Ok((out, stats)),
        }
    }

    /// Maps a guard trip to its truncation reason, bumping the matching
    /// counter (mirrors `GuardedSink`'s accounting for trips that are
    /// detected at block boundaries rather than per emission).
    fn trip(e: &SkqError) -> TruncatedReason {
        match e {
            SkqError::Cancelled => {
                skq_obs::global().counter("skq_query_cancelled", &[]).inc();
                TruncatedReason::Cancelled
            }
            _ => {
                skq_obs::global()
                    .counter("skq_query_deadline_exceeded", &[])
                    .inc();
                TruncatedReason::DeadlineExceeded
            }
        }
    }

    /// The dimensionality this index was created with.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The exact keyword count (`k`) this index answers.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The handle-allocation watermark: the id the next plain
    /// [`try_insert`](Self::try_insert) would receive. Every id below it has
    /// been allocated (or burned) already.
    pub fn next_id(&self) -> u64 {
        self.next_handle
    }

    /// Whether the object with this id is currently live.
    pub fn contains(&self, id: u64) -> bool {
        self.live_set.contains_key(&id)
    }

    /// Every live object as `(id, point, keywords)`, sorted by id, with
    /// each document's keywords ascending and distinct.
    pub fn live_objects(&self) -> Vec<(u64, Point, Vec<Keyword>)> {
        self.live_sorted()
            .into_iter()
            .map(|(p, doc, h)| (h.0, p, doc.keywords().to_vec()))
            .collect()
    }

    /// Every live object as one dataset, sorted by id, plus the id of
    /// each dataset position — the deterministic export the recovery
    /// supervisor builds a static suite from. Points and documents go
    /// straight into the dataset's columns.
    ///
    /// # Errors
    ///
    /// `SkqError::InvalidDataset` when no object is live.
    pub fn live_dataset(&self) -> Result<(Dataset, Vec<u64>), SkqError> {
        let live = self.live_sorted();
        let ids = live.iter().map(|&(_, _, h)| h.0).collect();
        let points = live.iter().map(|&(p, _, _)| p).collect();
        let docs: Arc<[Document]> = live.iter().map(|&(_, doc, _)| doc.clone()).collect();
        Ok((Dataset::try_new(points, docs)?, ids))
    }

    /// The live objects in place, sorted by id.
    fn live_sorted(&self) -> Vec<EntryRef<'_>> {
        let mut live: Vec<EntryRef<'_>> = self
            .stored()
            .filter(|(_, _, h)| self.live_set.contains_key(&h.0))
            .collect();
        live.sort_unstable_by_key(|&(_, _, h)| h);
        live
    }

    /// Number of static blocks currently alive (the `O(log n)` factor).
    pub fn num_blocks(&self) -> usize {
        self.blocks.iter().flatten().count()
    }

    /// Approximate space in 64-bit words: each block's index plus one
    /// handle per object, and each buffered object in full.
    pub fn space_words(&self) -> usize {
        let blocks: usize = self
            .blocks
            .iter()
            .flatten()
            .map(|b| b.index.space_words() + b.len())
            .sum();
        blocks + self.buffer.len() * (self.dim + 4) + self.live_set.len() * 2
    }

    /// Deep structural validation (DESIGN.md §12): re-derives the
    /// logarithmic-method bookkeeping — buffer and block
    /// capacities, handle/index alignment per block, global handle
    /// uniqueness, and that every live handle is actually stored — then
    /// validates each block's static ORP-KW index.
    ///
    /// # Errors
    ///
    /// The first violated invariant, by name.
    pub fn validate(&self) -> Result<(), crate::invariants::InvariantViolation> {
        use crate::invariants::InvariantViolation as V;
        // After a failed rebuild the whole pool parks in the buffer with
        // every block slot empty (degraded mode) — only flag an oversized
        // buffer when an indexed block coexists with it.
        if self.buffer.len() > BASE_BLOCK && self.blocks.iter().any(Option::is_some) {
            return Err(V::new(
                "dynamic::buffer_bound",
                format!(
                    "insertion buffer holds {} objects (cap {BASE_BLOCK}) alongside built blocks",
                    self.buffer.len()
                ),
            ));
        }
        let mut seen: FxHashMap<u64, ()> = FxHashMap::default();
        let mut record = |h: ObjectHandle| -> Result<(), V> {
            if seen.insert(h.0, ()).is_some() {
                return Err(V::new(
                    "dynamic::handle_unique",
                    format!("handle {} stored twice", h.0),
                ));
            }
            Ok(())
        };
        for &(_, _, h) in &self.buffer {
            record(h)?;
        }
        for (slot, block) in self.blocks.iter().enumerate() {
            let Some(block) = block else { continue };
            let cap = BASE_BLOCK << slot;
            if block.len() > cap {
                return Err(V::new(
                    "dynamic::carry_bound",
                    format!("block {slot} holds {} objects, capacity {cap}", block.len()),
                ));
            }
            if block.len() != block.index.len() {
                return Err(V::new(
                    "dynamic::handle_alignment",
                    format!(
                        "block {slot}: id→handle map has {} entries, the index {} objects",
                        block.len(),
                        block.index.len()
                    ),
                ));
            }
            for &h in &block.handles {
                record(h)?;
            }
            block.index.validate()?;
        }
        if let Some(&lost) = self.live_set.keys().find(|h| !seen.contains_key(h)) {
            return Err(V::new(
                "dynamic::live_handles",
                format!("live handle {lost} is stored in no block or buffer"),
            ));
        }
        Ok(())
    }
}

/// Translates block-local ids to handles and filters dead objects,
/// inside the block's own traversal. `emitted` counts the whole
/// cross-block output, so a guard's result budget spans every block.
struct HandleSink<'a> {
    handles: &'a [ObjectHandle],
    live: &'a FxHashMap<u64, ()>,
    out: &'a mut Vec<ObjectHandle>,
}

impl ResultSink for HandleSink<'_> {
    fn emit(&mut self, id: u32) -> ControlFlow<()> {
        let h = self.handles[id as usize];
        if self.live.contains_key(&h.0) {
            self.out.push(h);
        }
        ControlFlow::Continue(())
    }
    fn emitted(&self) -> u64 {
        self.out.len() as u64
    }
}

// ------------------------------------------------------------ persist

use crate::persist::{self, Persist, SCHEMA_VERSION};

/// Objects per `DYN_OBJECTS` page.
const DYN_OBJECTS_PER_PAGE: usize = 4096;

fn dyn_corrupt(detail: impl Into<String>) -> SkqError {
    SkqError::Corrupted {
        section: "dynamic".to_string(),
        detail: detail.into(),
    }
}

/// Encodes `entries` (with their live flags) into `DYN_OBJECTS` pages.
fn put_object_pages<'a>(
    w: &mut persist::PageWriter,
    entries: impl Iterator<Item = EntryRef<'a>>,
    live: &FxHashMap<u64, ()>,
    dim: usize,
) {
    let mut buf = Vec::new();
    let mut in_page = 0;
    for (p, doc, h) in entries {
        persist::put_uv(&mut buf, h.0);
        persist::put_uv(&mut buf, u64::from(live.contains_key(&h.0)));
        for i in 0..dim {
            persist::put_f64(&mut buf, p.get(i));
        }
        persist::put_uv(&mut buf, doc.len() as u64);
        for &kw in doc.keywords() {
            persist::put_uv(&mut buf, u64::from(kw));
        }
        in_page += 1;
        if in_page == DYN_OBJECTS_PER_PAGE {
            w.page(
                persist::kind::DYN_OBJECTS,
                SCHEMA_VERSION,
                std::mem::take(&mut buf),
            );
            in_page = 0;
        }
    }
    if in_page > 0 {
        w.page(persist::kind::DYN_OBJECTS, SCHEMA_VERSION, buf);
    }
}

/// One decoded snapshot object: geometry, document, handle, live flag.
type SnapshotObject = (Point, Document, ObjectHandle, bool);

/// Decodes `n` objects written by [`put_object_pages`], returning each
/// with its live flag. Geometry and document contracts are re-checked
/// exactly as [`DynamicOrpKw::try_insert`] enforces them.
fn read_object_pages(
    r: &mut persist::PageReader<'_>,
    n: usize,
    dim: usize,
) -> Result<Vec<SnapshotObject>, SkqError> {
    let mut out = Vec::with_capacity(n.min(1 << 20));
    let mut coords = [0.0f64; skq_geom::MAX_DIM];
    let mut remaining = n;
    while remaining > 0 {
        let mut d = r.page(persist::kind::DYN_OBJECTS, SCHEMA_VERSION, "dynamic")?;
        let in_page = remaining.min(DYN_OBJECTS_PER_PAGE);
        for _ in 0..in_page {
            let id = d.uv()?;
            let live = match d.uv()? {
                0 => false,
                1 => true,
                other => return Err(dyn_corrupt(format!("live flag {other} is not 0/1"))),
            };
            for c in coords.iter_mut().take(dim) {
                *c = d.f64()?;
                if !c.is_finite() {
                    return Err(dyn_corrupt(format!("non-finite coordinate {c}")));
                }
            }
            let kw_count = d.len(1)?;
            if kw_count == 0 {
                return Err(dyn_corrupt(format!("object {id} has an empty document")));
            }
            let mut kws = Vec::with_capacity(kw_count);
            for _ in 0..kw_count {
                kws.push(d.u32v()?);
            }
            let doc = Document::new(kws);
            out.push((Point::new(&coords[..dim]), doc, ObjectHandle(id), live));
        }
        d.end()?;
        remaining -= in_page;
    }
    Ok(out)
}

/// Snapshot layout (DESIGN.md §15/§16): one `DYN_HEAD` page (`k`,
/// `dim`, handle watermark, buffer length, slot occupancy with
/// per-occupied-slot object counts), `DYN_OBJECTS` pages for the
/// insertion buffer, then — per occupied slot, ascending — that
/// block's `DYN_OBJECTS` pages followed by its static
/// [`OrpKwIndex`] pages. A block's objects are read back from its
/// index to be written, and on load must agree with the decoded
/// index object for object. Dead objects persist with a cleared live
/// flag, so the lazy-deletion state round-trips exactly: a loaded
/// index resumes with the same blocks, the same tombstones, and the
/// same rebuild trigger point as the one that was saved.
impl Persist for DynamicOrpKw {
    fn to_pages(&self, w: &mut persist::PageWriter) -> Result<(), SkqError> {
        let mut head = Vec::new();
        persist::put_uv(&mut head, self.k as u64);
        persist::put_uv(&mut head, self.dim as u64);
        persist::put_uv(&mut head, self.next_handle);
        persist::put_uv(&mut head, self.buffer.len() as u64);
        persist::put_uv(&mut head, self.blocks.len() as u64);
        for slot in &self.blocks {
            match slot {
                None => persist::put_uv(&mut head, 0),
                Some(b) => {
                    persist::put_uv(&mut head, 1);
                    persist::put_uv(&mut head, b.len() as u64);
                }
            }
        }
        w.page(persist::kind::DYN_HEAD, SCHEMA_VERSION, head);
        put_object_pages(w, self.buffered(), &self.live_set, self.dim);
        for block in self.blocks.iter().flatten() {
            put_object_pages(w, block.objects(), &self.live_set, self.dim);
            block.index.to_pages(w)?;
        }
        Ok(())
    }

    fn from_pages(r: &mut persist::PageReader<'_>) -> Result<Self, SkqError> {
        let mut head = r.page(persist::kind::DYN_HEAD, SCHEMA_VERSION, "dynamic")?;
        let k = head.usizev()?;
        let dim = head.usizev()?;
        let next_handle = head.uv()?;
        let buffer_len = head.usizev()?;
        let num_slots = head.len(1)?;
        if !(2..=16).contains(&k) {
            return Err(dyn_corrupt(format!("implausible k {k}")));
        }
        if !(1..=skq_geom::MAX_DIM).contains(&dim) {
            return Err(dyn_corrupt(format!(
                "dimensionality {dim} outside 1..={}",
                skq_geom::MAX_DIM
            )));
        }
        if num_slots > 64 {
            return Err(dyn_corrupt(format!("implausible slot count {num_slots}")));
        }
        let mut slot_lens: Vec<Option<usize>> = Vec::with_capacity(num_slots);
        for slot in 0..num_slots {
            match head.uv()? {
                0 => slot_lens.push(None),
                1 => {
                    let len = head.usizev()?;
                    let cap = BASE_BLOCK.checked_shl(slot as u32).unwrap_or(usize::MAX);
                    if len == 0 || len > cap {
                        return Err(dyn_corrupt(format!(
                            "block {slot} declares {len} objects, capacity {cap}"
                        )));
                    }
                    slot_lens.push(Some(len));
                }
                other => return Err(dyn_corrupt(format!("slot flag {other} is not 0/1"))),
            }
        }
        head.end()?;

        let mut live_set: FxHashMap<u64, ()> = FxHashMap::default();
        let mut seen: FxHashMap<u64, ()> = FxHashMap::default();
        let mut admit = |entries: &[SnapshotObject]| -> Result<(), SkqError> {
            for &(_, _, h, live) in entries {
                if h.0 >= next_handle {
                    return Err(dyn_corrupt(format!(
                        "handle {} at or above the watermark {next_handle}",
                        h.0
                    )));
                }
                if seen.insert(h.0, ()).is_some() {
                    return Err(dyn_corrupt(format!("handle {} stored twice", h.0)));
                }
                if live {
                    live_set.insert(h.0, ());
                }
            }
            Ok(())
        };

        let buffer_entries = read_object_pages(r, buffer_len, dim)?;
        admit(&buffer_entries)?;
        let mut blocks: Vec<Option<Block>> = Vec::with_capacity(num_slots);
        for (slot, len) in slot_lens.iter().enumerate() {
            let Some(len) = len else {
                blocks.push(None);
                continue;
            };
            let entries = read_object_pages(r, *len, dim)?;
            admit(&entries)?;
            let index = OrpKwIndex::from_pages(r)?;
            if index.k() != k {
                return Err(dyn_corrupt(format!(
                    "block {slot} index declares k = {}, expected {k}",
                    index.k()
                )));
            }
            if index.dim() != dim {
                return Err(dyn_corrupt(format!(
                    "block {slot} index is {}D, expected {dim}D",
                    index.dim()
                )));
            }
            if index.len() != *len {
                return Err(dyn_corrupt(format!(
                    "block {slot} index covers {:?} objects, the head declares {len}",
                    index.len()
                )));
            }
            if let Some(i) = entries
                .iter()
                .enumerate()
                .position(|(i, (p, doc, _, _))| index.point(i) != *p || index.doc(i) != doc)
            {
                return Err(dyn_corrupt(format!(
                    "block {slot} object {i} differs from its index"
                )));
            }
            blocks.push(Some(Block {
                index,
                handles: entries.iter().map(|&(_, _, h, _)| h).collect(),
            }));
        }
        Ok(Self {
            k,
            dim,
            blocks,
            buffer: buffer_entries
                .into_iter()
                .map(|(p, doc, h, _)| (p, doc, h))
                .collect(),
            live_set,
            next_handle,
        })
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]

    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::collections::{BTreeMap, HashMap};

    /// An unguarded query's handles.
    fn hits(idx: &DynamicOrpKw, q: &Rect, kws: &[Keyword]) -> Vec<ObjectHandle> {
        idx.query(q, kws, &QueryGuard::new()).unwrap().0
    }

    /// Naive mirror for differential testing.
    struct Mirror {
        objects: HashMap<u64, (Point, Vec<Keyword>)>,
    }

    impl Mirror {
        fn query(&self, q: &Rect, kws: &[Keyword]) -> Vec<ObjectHandle> {
            let mut out: Vec<ObjectHandle> = self
                .objects
                .iter()
                .filter(|(_, (p, doc))| q.contains(p) && kws.iter().all(|w| doc.contains(w)))
                .map(|(&h, _)| ObjectHandle(h))
                .collect();
            out.sort();
            out
        }
    }

    #[test]
    fn inserts_then_queries() {
        let mut idx = DynamicOrpKw::new(2, 2);
        let mut rng = StdRng::seed_from_u64(1);
        let mut mirror = Mirror {
            objects: HashMap::new(),
        };
        for _ in 0..700 {
            let p = Point::new2(rng.gen_range(0..50) as f64, rng.gen_range(0..50) as f64);
            let doc: Vec<Keyword> = (0..rng.gen_range(1..4))
                .map(|_| rng.gen_range(0..6))
                .collect();
            let h = idx.try_insert(p, doc.clone()).unwrap();
            mirror.objects.insert(h.0, (p, doc));
        }
        assert!(idx.num_blocks() >= 1);
        for _ in 0..40 {
            let x: f64 = rng.gen_range(0..50) as f64;
            let y: f64 = rng.gen_range(0..50) as f64;
            let q = Rect::new(&[x, y], &[x + 15.0, y + 15.0]);
            let w1 = rng.gen_range(0..6);
            let w2 = (w1 + 1 + rng.gen_range(0..5)) % 6;
            let mut got = hits(&idx, &q, &[w1, w2]);
            got.sort();
            assert_eq!(got, mirror.query(&q, &[w1, w2]));
        }
    }

    #[test]
    fn mixed_inserts_deletes_queries() {
        let mut idx = DynamicOrpKw::new(2, 2);
        let mut rng = StdRng::seed_from_u64(2);
        let mut mirror = Mirror {
            objects: HashMap::new(),
        };
        let mut handles: Vec<ObjectHandle> = Vec::new();
        for step in 0..2_000 {
            let action = rng.gen_range(0..10);
            if action < 6 || handles.is_empty() {
                let p = Point::new2(rng.gen_range(0..40) as f64, rng.gen_range(0..40) as f64);
                let doc: Vec<Keyword> = (0..rng.gen_range(1..4))
                    .map(|_| rng.gen_range(0..5))
                    .collect();
                let h = idx.try_insert(p, doc.clone()).unwrap();
                mirror.objects.insert(h.0, (p, doc));
                handles.push(h);
            } else if action < 9 {
                let i = rng.gen_range(0..handles.len());
                let h = handles.swap_remove(i);
                let was_live = mirror.objects.remove(&h.0).is_some();
                assert_eq!(idx.delete(h), was_live);
            } else {
                let x: f64 = rng.gen_range(0..40) as f64;
                let y: f64 = rng.gen_range(0..40) as f64;
                let q = Rect::new(&[x, y], &[x + 12.0, y + 12.0]);
                let w1 = rng.gen_range(0..5);
                let w2 = (w1 + 1 + rng.gen_range(0..4)) % 5;
                let mut got = hits(&idx, &q, &[w1, w2]);
                got.sort();
                assert_eq!(got, mirror.query(&q, &[w1, w2]), "step {step}");
            }
            assert_eq!(idx.len(), mirror.objects.len());
        }
    }

    #[test]
    fn live_objects_match_a_mirror_through_carries_and_rebuild() {
        let mut idx = DynamicOrpKw::new(2, 2);
        let mut rng = StdRng::seed_from_u64(12);
        // id → (point, keywords ascending and distinct).
        let mut mirror: BTreeMap<u64, (Point, Vec<Keyword>)> = BTreeMap::new();
        let insert = |idx: &mut DynamicOrpKw, rng: &mut StdRng, mirror: &mut BTreeMap<_, _>| {
            // Signed zeros and repeated coordinates must read back exactly.
            let zero = if rng.gen_range(0..2) == 0 { -0.0 } else { 0.0 };
            let p = Point::new2(zero, rng.gen_range(-20.0..20.0f64).round() / 4.0);
            // Unsorted, with duplicates: the index keeps a set.
            let kws: Vec<Keyword> = (0..rng.gen_range(1..5))
                .map(|_| rng.gen_range(0..6))
                .collect();
            let h = idx.try_insert(p, kws.clone()).unwrap();
            let mut canonical = kws;
            canonical.sort_unstable();
            canonical.dedup();
            mirror.insert(h.0, (p, canonical));
        };
        let check = |idx: &DynamicOrpKw, mirror: &BTreeMap<u64, (Point, Vec<Keyword>)>| {
            let want: Vec<(u64, Point, Vec<Keyword>)> = mirror
                .iter()
                .map(|(&id, (p, kws))| (id, *p, kws.clone()))
                .collect();
            let got = idx.live_objects();
            assert_eq!(got, want);
            let bits = |p: &Point| p.coords().iter().map(|c| c.to_bits()).collect::<Vec<_>>();
            for ((_, gp, _), (_, wp, _)) in got.iter().zip(&want) {
                assert_eq!(bits(gp), bits(wp));
            }
            let (dataset, ids) = idx.live_dataset().unwrap();
            assert_eq!(ids, mirror.keys().copied().collect::<Vec<_>>());
            for (i, (_, p, kws)) in want.iter().enumerate() {
                assert_eq!(bits(dataset.point(i)), bits(p));
                assert_eq!(dataset.doc(i).keywords(), kws.as_slice());
            }
        };
        for _ in 0..1_500 {
            insert(&mut idx, &mut rng, &mut mirror);
        }
        assert!(idx.num_blocks() >= 2, "several carries formed blocks");
        check(&idx, &mirror);
        // Delete past half of the stored objects: that triggers a rebuild.
        let stored_before = idx.stored_count();
        let ids: Vec<u64> = mirror.keys().copied().collect();
        for id in ids.into_iter().filter(|id| id % 3 != 0) {
            assert!(idx.delete_by_id(id));
            mirror.remove(&id);
        }
        assert!(idx.stored_count() < stored_before, "no rebuild happened");
        check(&idx, &mirror);
        // Carries after the rebuild merge the rebuilt block back in.
        for _ in 0..700 {
            insert(&mut idx, &mut rng, &mut mirror);
        }
        idx.validate().unwrap();
        check(&idx, &mirror);
    }

    #[test]
    fn limited_query_returns_live_subset() {
        let mut idx = DynamicOrpKw::new(2, 2);
        let mut rng = StdRng::seed_from_u64(9);
        let mut handles = Vec::new();
        for _ in 0..600 {
            let p = Point::new2(rng.gen_range(0..30) as f64, rng.gen_range(0..30) as f64);
            handles.push(idx.try_insert(p, vec![rng.gen_range(0..3), 3]).unwrap());
        }
        // Delete some so the live filter is exercised under the limit.
        for h in handles.iter().step_by(5) {
            idx.delete(*h);
        }
        let q = Rect::full(2);
        let full = hits(&idx, &q, &[0, 3]);
        assert!(full.len() > 7);
        let capped = QueryGuard::new().with_max_results(7);
        let (limited, stats) = idx.query(&q, &[0, 3], &capped).unwrap();
        assert_eq!(limited.len(), 7);
        assert_eq!(stats.emitted, 7);
        assert!(stats.truncated);
        assert!(limited.iter().all(|h| full.contains(h)));
        let (unlimited, stats) = idx.query(&q, &[0, 3], &QueryGuard::new()).unwrap();
        assert_eq!(unlimited.len(), full.len());
        assert!(!stats.truncated);
    }

    #[test]
    fn double_delete_is_noop() {
        let mut idx = DynamicOrpKw::new(1, 2);
        let h = idx.try_insert(Point::new1(0.0), vec![0, 1]).unwrap();
        assert!(idx.delete(h));
        assert!(!idx.delete(h));
        assert!(idx.is_empty());
        assert!(hits(&idx, &Rect::full(1), &[0, 1]).is_empty());
    }

    #[test]
    fn duplicate_id_insertion_rejected() {
        let mut idx = DynamicOrpKw::new(2, 2);
        let a = idx
            .try_insert_with_id(5, Point::new2(1.0, 1.0), vec![0, 1])
            .unwrap();
        assert_eq!(a, ObjectHandle(5));
        // Any id at or below the allocation watermark is a duplicate.
        for dup in [0, 4, 5] {
            assert!(matches!(
                idx.try_insert_with_id(dup, Point::new2(2.0, 2.0), vec![0, 1]),
                Err(SkqError::InvalidQuery(_))
            ));
        }
        // The failed inserts left no trace.
        assert_eq!(idx.len(), 1);
        assert_eq!(hits(&idx, &Rect::full(2), &[0, 1]), vec![a]);
        // Fresh ids still work, and plain inserts continue above them.
        let b = idx
            .try_insert_with_id(9, Point::new2(3.0, 3.0), vec![0, 1])
            .unwrap();
        assert_eq!(b, ObjectHandle(9));
        let c = idx.try_insert(Point::new2(4.0, 4.0), vec![0, 1]).unwrap();
        assert_eq!(c, ObjectHandle(10));
    }

    #[test]
    fn try_insert_validates_input() {
        let mut idx = DynamicOrpKw::new(2, 2);
        assert!(matches!(
            idx.try_insert(Point::new1(0.0), vec![0]),
            Err(SkqError::InvalidDataset(_))
        ));
        assert!(matches!(
            idx.try_insert(Point::new2(0.0, 0.0), vec![]),
            Err(SkqError::InvalidDataset(_))
        ));
        assert!(matches!(
            idx.try_insert(Point::new2(f64::NAN, 0.0), vec![0]),
            Err(SkqError::InvalidDataset(_))
        ));
        assert!(idx.is_empty());
    }

    #[test]
    fn guarded_query_respects_budget_and_cancel() {
        use crate::guard::CancelToken;
        use crate::stats::TruncatedReason;
        let mut idx = DynamicOrpKw::new(2, 2);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..500 {
            let p = Point::new2(rng.gen_range(0..30) as f64, rng.gen_range(0..30) as f64);
            idx.try_insert(p, vec![rng.gen_range(0..3), 3]).unwrap();
        }
        let q = Rect::full(2);
        let full = hits(&idx, &q, &[0, 3]);
        assert!(full.len() > 5);
        let guard = QueryGuard::new().with_max_results(5);
        let (limited, stats) = idx.query(&q, &[0, 3], &guard).unwrap();
        assert_eq!(limited.len(), 5);
        assert_eq!(stats.truncated_reason, Some(TruncatedReason::Limit));
        assert!(limited.iter().all(|h| full.contains(h)));
        // A pre-cancelled token is a typed error.
        let token = CancelToken::new();
        token.cancel();
        let guard = QueryGuard::new().with_cancel(token);
        assert_eq!(idx.query(&q, &[0, 3], &guard), Err(SkqError::Cancelled));
        // So is a malformed query.
        assert!(matches!(
            idx.query(&q, &[3, 3], &QueryGuard::new()),
            Err(SkqError::InvalidQuery(_))
        ));
    }

    #[test]
    fn result_budget_spans_every_block() {
        use crate::stats::TruncatedReason;
        // Sparse matches (every 40th object) spread across several
        // blocks, so no single block holds the whole budget.
        let mut idx = DynamicOrpKw::new(2, 2);
        for i in 0..2_000u32 {
            let kws = if i % 40 == 0 { vec![0, 1] } else { vec![0, 2] };
            idx.try_insert(Point::new2((i % 50) as f64, (i / 50) as f64), kws)
                .unwrap();
        }
        assert!(idx.num_blocks() >= 2);
        let q = Rect::full(2);
        assert_eq!(hits(&idx, &q, &[0, 1]).len(), 50);
        let guard = QueryGuard::new().with_max_results(30);
        let (capped, stats) = idx.query(&q, &[0, 1], &guard).unwrap();
        assert_eq!(capped.len(), 30, "the budget caps the whole answer");
        assert_eq!(stats.truncated_reason, Some(TruncatedReason::Limit));
    }

    #[test]
    fn block_structure_is_logarithmic() {
        let mut idx = DynamicOrpKw::new(2, 2);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..5_000 {
            let p = Point::new2(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
            idx.try_insert(p, vec![rng.gen_range(0..8), 8]).unwrap();
        }
        // 5000 / 128 ≈ 39 base blocks → at most ~6 block slots occupied.
        assert!(idx.num_blocks() <= 7, "{} blocks", idx.num_blocks());
    }

    #[test]
    fn heavy_deletion_triggers_compaction() {
        let mut idx = DynamicOrpKw::new(2, 2);
        let mut rng = StdRng::seed_from_u64(4);
        let mut handles = Vec::new();
        for _ in 0..2_000 {
            let p = Point::new2(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
            handles.push(idx.try_insert(p, vec![rng.gen_range(0..4), 4]).unwrap());
        }
        let before = idx.space_words();
        for h in handles.drain(..1900) {
            idx.delete(h);
        }
        assert_eq!(idx.len(), 100);
        assert!(
            idx.space_words() < before / 4,
            "space did not shrink: {} -> {}",
            before,
            idx.space_words()
        );
        // Survivors still queryable.
        assert_eq!(
            hits(&idx, &Rect::full(2), &[0, 4]).len()
                + hits(&idx, &Rect::full(2), &[1, 4]).len()
                + hits(&idx, &Rect::full(2), &[2, 4]).len()
                + hits(&idx, &Rect::full(2), &[3, 4]).len(),
            100
        );
    }

    #[test]
    fn persist_round_trips_blocks_buffer_and_tombstones() {
        let mut idx = DynamicOrpKw::new(2, 2);
        let mut rng = StdRng::seed_from_u64(11);
        let mut handles = Vec::new();
        for _ in 0..700 {
            let p = Point::new2(rng.gen_range(0..50) as f64, rng.gen_range(0..50) as f64);
            handles.push(idx.try_insert(p, vec![rng.gen_range(0..5), 5]).unwrap());
        }
        // Delete a few (below the rebuild threshold) so dead objects
        // and the live-set round-trip too.
        for h in handles.iter().step_by(9).take(40) {
            idx.delete(*h);
        }
        let bytes = idx.to_bytes().unwrap();
        assert_eq!(bytes, idx.to_bytes().unwrap(), "encoding not deterministic");
        let loaded = DynamicOrpKw::try_from_bytes(&bytes).unwrap();
        assert_eq!(loaded.len(), idx.len());
        assert_eq!(loaded.next_id(), idx.next_id());
        assert_eq!(loaded.num_blocks(), idx.num_blocks());
        assert_eq!(loaded.live_objects(), idx.live_objects());
        for w1 in 0..5u32 {
            let q = Rect::new(&[5.0, 5.0], &[40.0, 40.0]);
            let mut a = hits(&idx, &q, &[w1, 5]);
            let mut b = hits(&loaded, &q, &[w1, 5]);
            a.sort();
            b.sort();
            assert_eq!(a, b, "keyword {w1}");
        }
        loaded.validate().unwrap();
        // The loaded index keeps accepting writes where the old one
        // left off.
        let mut loaded = loaded;
        let h = loaded
            .try_insert(Point::new2(1.0, 1.0), vec![0, 5])
            .unwrap();
        assert_eq!(h.0, idx.next_id());
    }

    #[test]
    fn persist_rejects_tampered_bytes_typed() {
        let mut idx = DynamicOrpKw::new(2, 2);
        for i in 0..200 {
            idx.try_insert(Point::new2(i as f64, i as f64), vec![i % 4, 4])
                .unwrap();
        }
        let bytes = idx.to_bytes().unwrap();
        for pos in (0..bytes.len()).step_by(101) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x20;
            if let Err(e) = DynamicOrpKw::try_from_bytes(&bad) {
                assert!(
                    matches!(e, SkqError::Corrupted { .. } | SkqError::Store { .. }),
                    "byte {pos}: {e}"
                );
            }
        }
    }

    /// Deliberate corruption must be rejected with a descriptive
    /// invariant name (`debug-invariants` acceptance criterion).
    mod corruption {
        use super::*;

        fn filled() -> DynamicOrpKw {
            let mut idx = DynamicOrpKw::new(2, 2);
            let mut rng = StdRng::seed_from_u64(5);
            for _ in 0..400 {
                let p = Point::new2(rng.gen_range(0.0..50.0), rng.gen_range(0.0..50.0));
                idx.try_insert(p, vec![rng.gen_range(0..4), 4]).unwrap();
            }
            idx.validate().unwrap();
            idx
        }

        #[test]
        fn misaligned_handle_map_names_handle_alignment() {
            let mut idx = filled();
            let block = idx
                .blocks
                .iter_mut()
                .flatten()
                .next()
                .expect("400 inserts form at least one block");
            block.handles.pop();
            let err = idx.validate().unwrap_err();
            assert_eq!(err.invariant(), "dynamic::handle_alignment");
        }

        #[test]
        fn phantom_live_handle_names_live_handles() {
            let mut idx = filled();
            idx.live_set.insert(999_999, ());
            let err = idx.validate().unwrap_err();
            assert_eq!(err.invariant(), "dynamic::live_handles");
        }

        #[test]
        fn duplicated_handle_names_handle_unique() {
            let mut idx = filled();
            let dup = idx
                .blocks
                .iter()
                .flatten()
                .next()
                .expect("at least one block")
                .handles[0];
            idx.buffer
                .push((Point::new2(1.0, 1.0), Document::new(vec![0, 4]), dup));
            let err = idx.validate().unwrap_err();
            assert_eq!(err.invariant(), "dynamic::handle_unique");
        }
    }
}

//! Paged snapshot codec behind the `skq-store` persistence tier.
//!
//! A snapshot is a little-endian byte stream: one fixed 24-byte file
//! header followed by a sequence of *pages*, each a fixed 24-byte page
//! header plus a variable-length payload. Every page carries its kind,
//! the schema version it was written under, its position in the file,
//! and an FNV-1a checksum of its payload, so corruption — truncation,
//! bit flips, wrong magic, a future [`SCHEMA_VERSION`] — is detected
//! and surfaced as a typed [`SkqError::Corrupted`]. Loading never
//! panics on bad bytes.
//!
//! Types opt in by implementing [`Persist`]: `to_pages` appends pages
//! to a [`PageWriter`], `from_pages` consumes them from a
//! [`PageReader`] in the same order. The provided `to_bytes` and
//! `try_from_bytes` methods handle the file header and the end-of-file
//! check. The on-disk format is specified normatively in DESIGN.md §15.
//!
//! Integers are LEB128 varints; `f64` coordinates are the 8 raw
//! little-endian bytes of [`f64::to_bits`] (±∞ round-trips; rank-space
//! cells use infinite bounds). Encoding is deterministic — map-backed
//! sections are written in sorted key order — so saving the same index
//! twice yields identical bytes.

use std::sync::Arc;

use skq_geom::RankSpace;
use skq_invidx::{Document, InvertedIndex, Keyword, ObjectId};

use crate::error::SkqError;
use crate::failpoints;

/// Version of the on-disk snapshot format. Written into the file
/// header and into every page header; the loader rejects any other
/// value. Bump it whenever any serialized section changes shape
/// (DESIGN.md §15 records the policy; lint rule L13 ties every
/// serialized-section file to this constant).
pub const SCHEMA_VERSION: u16 = 1;

/// First eight bytes of every snapshot file.
pub const FILE_MAGIC: [u8; 8] = *b"SKQSNAP\0";

/// First four bytes of every page header (`"SKQP"` in the byte order
/// written — the bytes are also given normatively in DESIGN.md §15).
pub const PAGE_MAGIC: [u8; 4] = *b"SKQP";

/// Size of the file header, in bytes.
pub const FILE_HEADER_BYTES: usize = 24;

/// Size of every page header, in bytes.
pub const PAGE_HEADER_BYTES: usize = 24;

/// Page-kind discriminants (the `kind` field of each page header).
///
/// Kinds identify which section a page belongs to; the loader checks
/// that each page it reads carries the kind it expects next, so a
/// reordered or misassembled file fails loudly instead of decoding
/// into the wrong structure.
///
/// Retired kinds are never reused: 1–3 (the `Dataset` head, points and
/// documents, once a suite's own copy of its input) and 15–19 (the
/// RR-KW, SP-KW, SRP-KW and L∞-NN heads and the L∞-NN points, formats
/// no program loaded).
pub mod kind {
    /// `InvertedIndex` scalars: object count, list count, chunk count.
    pub const POSTINGS_HEAD: u16 = 4;
    /// A chunk of postings lists (delta-coded ascending object ids).
    pub const POSTINGS_CHUNK: u16 = 5;
    /// `RankSpace` scalars: dimensionality and length.
    pub const RANK_HEAD: u16 = 6;
    /// One sorted `RankSpace` column: `(coordinate, object id)` pairs,
    /// interleaved from the flat coordinate and id arrays.
    pub const RANK_COLUMN: u16 = 7;
    /// Framework-tree scalars: `k`, config, totals, chunk counts.
    pub const TREE_HEAD: u16 = 8;
    /// A chunk of the tree partitioner's points.
    pub const TREE_POINTS: u16 = 9;
    /// The tree partitioner's per-object weights.
    pub const TREE_WEIGHTS: u16 = 10;
    /// A chunk of the tree's documents.
    pub const TREE_DOCS: u16 = 11;
    /// A chunk of arena-flattened tree nodes: each node's geometry
    /// followed by its keyword table for the tree's lowest `k`.
    pub const TREE_NODES: u16 = 12;
    /// `OrpKwIndex` head: engine tag, dimensionality, `k`.
    pub const ORP_HEAD: u16 = 13;
    /// `OrpKwSuite` head: `k_max`.
    pub const SUITE_HEAD: u16 = 14;
    /// `DynamicOrpKw` head: `k`, `dim`, handle watermark, buffer
    /// length, and the logarithmic-method slot occupancy.
    pub const DYN_HEAD: u16 = 20;
    /// A chunk of objects: `(handle, live flag, point, keywords)`
    /// tuples — a `DynamicOrpKw`'s insertion buffer and each block's
    /// objects, or an `ObjectTable`'s live objects.
    pub const DYN_OBJECTS: u16 = 21;
    /// One further keyword layer of a multi-`k` framework tree: a head
    /// page (`k`, node count) followed by pages of per-node tables in
    /// the `TREE_NODES` table codec. Zero or more layers follow the
    /// `TREE_NODES` pages, each serving the previous layer's `k + 1`.
    pub const TREE_LAYER: u16 = 22;
    /// `ObjectTable` head (a durable checkpoint): `dim`, id watermark,
    /// object count. The objects follow as `DYN_OBJECTS` pages.
    pub const OBJECTS_HEAD: u16 = 23;
}

/// FNV-1a, 64-bit — the per-section checksum of DESIGN.md §15.
/// Std-only and byte-order-free; collision resistance is not a goal
/// (checksums here detect accidental corruption, not adversaries).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Appends `v` as an LEB128 varint (7 bits per byte, little-endian,
/// high bit = continuation).
pub fn put_uv(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Appends an `f64` as the 8 little-endian bytes of its bit pattern.
pub fn put_f64(buf: &mut Vec<u8>, x: f64) {
    buf.extend_from_slice(&x.to_bits().to_le_bytes());
}

/// Appends a document as `len` + delta-coded ascending keywords.
pub(crate) fn put_doc(buf: &mut Vec<u8>, doc: &Document) {
    let kws = doc.keywords();
    put_uv(buf, kws.len() as u64);
    let mut prev = 0u64;
    for (i, &w) in kws.iter().enumerate() {
        let w = u64::from(w);
        // Keywords are sorted, distinct, and non-empty: the first is
        // raw, the rest are stored as (gap - 1).
        if i == 0 {
            put_uv(buf, w);
        } else {
            put_uv(buf, w - prev - 1);
        }
        prev = w;
    }
}

struct Page {
    kind: u16,
    version: u16,
    payload: Vec<u8>,
}

/// Accumulates the pages of a snapshot; [`PageWriter::into_bytes`]
/// assembles the file (header, then every page in append order).
#[derive(Default)]
pub struct PageWriter {
    pages: Vec<Page>,
}

impl PageWriter {
    /// A writer with no pages.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one page. `version` is the schema version the payload
    /// was encoded under — implementations pass [`SCHEMA_VERSION`].
    pub fn page(&mut self, kind: u16, version: u16, payload: Vec<u8>) {
        self.pages.push(Page {
            kind,
            version,
            payload,
        });
    }

    /// Number of pages appended so far.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether no pages have been appended.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Assembles the snapshot bytes: file header, then each page as a
    /// 24-byte header plus payload.
    pub fn into_bytes(self) -> Result<Vec<u8>, SkqError> {
        let page_count = u32::try_from(self.pages.len()).map_err(|_| SkqError::Store {
            backend: "save".into(),
            message: format!(
                "snapshot has {} pages; the format caps at 2^32",
                self.pages.len()
            ),
        })?;
        let total: usize = FILE_HEADER_BYTES
            + self
                .pages
                .iter()
                .map(|p| PAGE_HEADER_BYTES + p.payload.len())
                .sum::<usize>();
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&FILE_MAGIC);
        out.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // reserved
        out.extend_from_slice(&page_count.to_le_bytes());
        let header_sum = fnv1a64(&out[..16]);
        out.extend_from_slice(&header_sum.to_le_bytes());
        for (i, p) in self.pages.iter().enumerate() {
            let len = u32::try_from(p.payload.len()).map_err(|_| SkqError::Store {
                backend: "save".into(),
                message: format!("page {i} payload exceeds 2^32 bytes"),
            })?;
            out.extend_from_slice(&PAGE_MAGIC);
            out.extend_from_slice(&p.kind.to_le_bytes());
            out.extend_from_slice(&p.version.to_le_bytes());
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(&(i as u32).to_le_bytes());
            out.extend_from_slice(&fnv1a64(&p.payload).to_le_bytes());
            out.extend_from_slice(&p.payload);
        }
        Ok(out)
    }
}

/// Walks the pages of a snapshot byte stream, validating the file
/// header on construction and every page header, kind, version,
/// position, and checksum as pages are consumed.
pub struct PageReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    next_index: u32,
    page_count: u32,
}

fn corrupt(section: &str, detail: impl Into<String>) -> SkqError {
    SkqError::Corrupted {
        section: section.into(),
        detail: detail.into(),
    }
}

impl<'a> PageReader<'a> {
    /// Validates the file header (length, magic, schema version,
    /// header checksum) and positions the reader at the first page.
    ///
    /// # Errors
    ///
    /// [`SkqError::Corrupted`] (section `header`) on a short file,
    /// wrong magic, a schema version other than [`SCHEMA_VERSION`], or
    /// a header checksum mismatch.
    pub fn new(bytes: &'a [u8]) -> Result<Self, SkqError> {
        if bytes.len() < FILE_HEADER_BYTES {
            return Err(corrupt(
                "header",
                format!(
                    "file is {} bytes, shorter than the {FILE_HEADER_BYTES}-byte header",
                    bytes.len()
                ),
            ));
        }
        if bytes[..8] != FILE_MAGIC {
            return Err(corrupt("header", "bad file magic (not a skq snapshot)"));
        }
        let schema = u16::from_le_bytes([bytes[8], bytes[9]]);
        if schema != SCHEMA_VERSION {
            return Err(corrupt(
                "header",
                format!(
                    "snapshot schema version {schema} is not the supported version {SCHEMA_VERSION}"
                ),
            ));
        }
        let page_count = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]);
        let stored_sum = u64::from_le_bytes(
            bytes[16..24]
                .try_into()
                .map_err(|_| corrupt("header", "unreachable: header slice is 8 bytes"))?,
        );
        if stored_sum != fnv1a64(&bytes[..16]) {
            return Err(corrupt("header", "file header checksum mismatch"));
        }
        Ok(Self {
            bytes,
            pos: FILE_HEADER_BYTES,
            next_index: 0,
            page_count,
        })
    }

    /// Kind of the next page, if a well-formed page header follows.
    /// Purely a peek: does not consume anything or validate payloads.
    pub fn peek_kind(&self) -> Option<u16> {
        let h = self.bytes.get(self.pos..self.pos + PAGE_HEADER_BYTES)?;
        if h[..4] != PAGE_MAGIC {
            return None;
        }
        Some(u16::from_le_bytes([h[4], h[5]]))
    }

    /// Consumes the next page, which must be of the given `kind` and
    /// `version`, returning a cursor over its payload. `section` names
    /// the logical section for error messages.
    ///
    /// # Errors
    ///
    /// [`SkqError::Corrupted`] on truncation, bad page magic, an
    /// unexpected kind/version/position, a payload checksum mismatch,
    /// or more pages than the file header declared.
    /// [`SkqError::Internal`] if the `store::read_page` fail point is
    /// armed (chaos tests).
    pub fn page(
        &mut self,
        kind: u16,
        version: u16,
        section: &'static str,
    ) -> Result<Dec<'a>, SkqError> {
        failpoints::check("store::read_page")?;
        if self.next_index >= self.page_count {
            return Err(corrupt(
                section,
                format!(
                    "expected a page of kind {kind}, but all {} declared pages are consumed",
                    self.page_count
                ),
            ));
        }
        let h = self
            .bytes
            .get(self.pos..self.pos + PAGE_HEADER_BYTES)
            .ok_or_else(|| corrupt(section, "file truncated inside a page header"))?;
        if h[..4] != PAGE_MAGIC {
            return Err(corrupt(section, "bad page magic"));
        }
        let got_kind = u16::from_le_bytes([h[4], h[5]]);
        if got_kind != kind {
            return Err(corrupt(
                section,
                format!("expected page kind {kind}, found {got_kind}"),
            ));
        }
        let got_version = u16::from_le_bytes([h[6], h[7]]);
        if got_version != version {
            return Err(corrupt(
                section,
                format!("page schema version {got_version} does not match expected {version}"),
            ));
        }
        let len = u32::from_le_bytes([h[8], h[9], h[10], h[11]]) as usize;
        let index = u32::from_le_bytes([h[12], h[13], h[14], h[15]]);
        if index != self.next_index {
            return Err(corrupt(
                section,
                format!(
                    "page declares position {index}, expected {}",
                    self.next_index
                ),
            ));
        }
        let stored_sum =
            u64::from_le_bytes([h[16], h[17], h[18], h[19], h[20], h[21], h[22], h[23]]);
        let start = self.pos + PAGE_HEADER_BYTES;
        let payload = self
            .bytes
            .get(start..start + len)
            .ok_or_else(|| corrupt(section, "file truncated inside a page payload"))?;
        if fnv1a64(payload) != stored_sum {
            return Err(corrupt(section, "page payload checksum mismatch"));
        }
        self.pos = start + len;
        self.next_index += 1;
        Ok(Dec {
            buf: payload,
            pos: 0,
            section,
        })
    }

    /// Asserts every declared page was consumed and no bytes trail the
    /// last one.
    ///
    /// # Errors
    ///
    /// [`SkqError::Corrupted`] (section `trailer`) if pages remain
    /// unread or trailing bytes follow the final page.
    pub fn finish(&self) -> Result<(), SkqError> {
        if self.next_index != self.page_count {
            return Err(corrupt(
                "trailer",
                format!(
                    "decoded {} of {} declared pages",
                    self.next_index, self.page_count
                ),
            ));
        }
        if self.pos != self.bytes.len() {
            return Err(corrupt(
                "trailer",
                format!(
                    "{} trailing bytes after the last page",
                    self.bytes.len() - self.pos
                ),
            ));
        }
        Ok(())
    }
}

/// Cursor over one page payload. Every accessor is bounds-checked and
/// returns [`SkqError::Corrupted`] tagged with the section name —
/// decoding never panics, whatever the bytes.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl Dec<'_> {
    fn fail(&self, detail: impl Into<String>) -> SkqError {
        corrupt(self.section, detail)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads one LEB128 varint.
    ///
    /// # Errors
    ///
    /// [`SkqError::Corrupted`] on truncation or a varint longer than
    /// 10 bytes / overflowing 64 bits.
    pub fn uv(&mut self) -> Result<u64, SkqError> {
        let mut v: u64 = 0;
        for i in 0..10 {
            let byte = *self
                .buf
                .get(self.pos)
                .ok_or_else(|| self.fail("payload truncated inside a varint"))?;
            self.pos += 1;
            let part = u64::from(byte & 0x7f);
            if i == 9 && part > 1 {
                return Err(self.fail("varint overflows 64 bits"));
            }
            v |= part << (7 * i);
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(self.fail("varint longer than 10 bytes"))
    }

    /// Reads a varint that must fit in `u32`.
    ///
    /// # Errors
    ///
    /// As [`Dec::uv`], plus values above `u32::MAX`.
    pub fn u32v(&mut self) -> Result<u32, SkqError> {
        let v = self.uv()?;
        u32::try_from(v).map_err(|_| self.fail(format!("value {v} does not fit in u32")))
    }

    /// Reads a varint as `usize`.
    ///
    /// # Errors
    ///
    /// As [`Dec::uv`], plus values above `usize::MAX`.
    pub fn usizev(&mut self) -> Result<usize, SkqError> {
        let v = self.uv()?;
        usize::try_from(v).map_err(|_| self.fail(format!("value {v} does not fit in usize")))
    }

    /// Reads an element count declared to precede elements of at least
    /// `min_elem_bytes` each, rejecting counts the remaining payload
    /// cannot possibly hold — the guard that keeps a bit-flipped
    /// length from driving a huge allocation.
    ///
    /// # Errors
    ///
    /// As [`Dec::uv`], plus implausibly large counts.
    pub fn len(&mut self, min_elem_bytes: usize) -> Result<usize, SkqError> {
        let n = self.usizev()?;
        let per = min_elem_bytes.max(1);
        if n > self.remaining() / per {
            return Err(self.fail(format!(
                "declared count {n} exceeds what {} remaining bytes can hold",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Reads a raw little-endian `u64` (8 bytes, no varint coding) —
    /// used for dense bitmap words.
    ///
    /// # Errors
    ///
    /// [`SkqError::Corrupted`] on truncation.
    pub fn u64_raw(&mut self) -> Result<u64, SkqError> {
        let b = self
            .buf
            .get(self.pos..self.pos + 8)
            .ok_or_else(|| self.fail("payload truncated inside a u64 word"))?;
        self.pos += 8;
        let arr: [u8; 8] = b
            .try_into()
            .map_err(|_| self.fail("unreachable: u64 slice is 8 bytes"))?;
        Ok(u64::from_le_bytes(arr))
    }

    /// Reads an `f64` (8 little-endian bytes of its bit pattern).
    ///
    /// # Errors
    ///
    /// [`SkqError::Corrupted`] on truncation.
    pub fn f64(&mut self) -> Result<f64, SkqError> {
        let b = self
            .buf
            .get(self.pos..self.pos + 8)
            .ok_or_else(|| self.fail("payload truncated inside an f64"))?;
        self.pos += 8;
        let arr: [u8; 8] = b
            .try_into()
            .map_err(|_| self.fail("unreachable: f64 slice is 8 bytes"))?;
        Ok(f64::from_bits(u64::from_le_bytes(arr)))
    }

    /// Reads a document written by `put_doc`, validating that it is
    /// non-empty and its keywords fit `u32`.
    ///
    /// # Errors
    ///
    /// [`SkqError::Corrupted`] on truncation, an empty document, or a
    /// keyword overflowing `u32`.
    pub(crate) fn doc(&mut self) -> Result<Document, SkqError> {
        let n = self.len(1)?;
        if n == 0 {
            return Err(self.fail("document has no keywords"));
        }
        let mut kws = Vec::with_capacity(n);
        let mut prev: u64 = 0;
        for i in 0..n {
            let delta = self.uv()?;
            let w = if i == 0 { delta } else { prev + delta + 1 };
            let kw = u32::try_from(w)
                .map_err(|_| self.fail(format!("keyword {w} does not fit in u32")))?;
            kws.push(kw);
            prev = w;
        }
        // Delta coding guarantees strictly ascending order, which is
        // exactly `Document::new`'s normal form — no panic possible.
        Ok(Document::new(kws))
    }

    /// Asserts the payload is fully consumed.
    ///
    /// # Errors
    ///
    /// [`SkqError::Corrupted`] if bytes remain.
    pub fn end(&self) -> Result<(), SkqError> {
        if self.pos != self.buf.len() {
            return Err(self.fail(format!(
                "{} unconsumed bytes at the end of the page",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// The snapshot surface: types that can write themselves as pages and
/// reconstruct themselves — with full validation — from pages.
///
/// Implementations must be deterministic (same value → same bytes) and
/// must never panic in `from_pages`, whatever the input: every decoded
/// quantity is validated before use, and violations surface as
/// [`SkqError::Corrupted`].
pub trait Persist: Sized {
    /// Appends this value's pages to `w`.
    ///
    /// # Errors
    ///
    /// [`SkqError::Store`] if the value contains a variant the paged
    /// format does not encode (e.g. a dimension-reduction tree).
    fn to_pages(&self, w: &mut PageWriter) -> Result<(), SkqError>;

    /// Reconstructs a value by consuming its pages from `r`.
    ///
    /// # Errors
    ///
    /// [`SkqError::Corrupted`] on any malformed or invariant-violating
    /// input.
    fn from_pages(r: &mut PageReader<'_>) -> Result<Self, SkqError>;

    /// Serializes to a complete snapshot byte vector.
    ///
    /// # Errors
    ///
    /// As [`Persist::to_pages`].
    fn to_bytes(&self) -> Result<Vec<u8>, SkqError> {
        let mut w = PageWriter::new();
        self.to_pages(&mut w)?;
        w.into_bytes()
    }

    /// Deserializes from complete snapshot bytes, requiring every page
    /// to be consumed.
    ///
    /// # Errors
    ///
    /// [`SkqError::Corrupted`] on any malformed input, including
    /// unconsumed trailing pages.
    fn try_from_bytes(bytes: &[u8]) -> Result<Self, SkqError> {
        let mut r = PageReader::new(bytes)?;
        let value = Self::from_pages(&mut r)?;
        r.finish()?;
        Ok(value)
    }
}

/// Points per `TREE_POINTS` page.
pub(crate) const POINTS_PER_PAGE: usize = 4096;
/// Documents per `TREE_DOCS` page.
pub(crate) const DOCS_PER_PAGE: usize = 4096;
/// Target payload bytes per `POSTINGS_CHUNK` page.
const POSTINGS_PAGE_BYTES: usize = 48 * 1024;

/// Encodes packed points (`dim` coordinates each, object-major) into
/// page payloads of the given kind, [`POINTS_PER_PAGE`] points a page.
pub(crate) fn put_point_pages(w: &mut PageWriter, kind: u16, coords: &[f64], dim: usize) {
    for chunk in coords.chunks((POINTS_PER_PAGE * dim).max(1)) {
        let mut buf = Vec::with_capacity(chunk.len() * 8);
        for &c in chunk {
            put_f64(&mut buf, c);
        }
        w.page(kind, SCHEMA_VERSION, buf);
    }
}

/// Decodes `n` points of dimension `dim` written by
/// [`put_point_pages`] into one packed array, without constraining
/// coordinate values (the caller validates finiteness where its
/// invariants require it).
pub(crate) fn read_point_pages(
    r: &mut PageReader<'_>,
    kind: u16,
    section: &'static str,
    n: usize,
    dim: usize,
) -> Result<Vec<f64>, SkqError> {
    if !(1..=skq_geom::MAX_DIM).contains(&dim) {
        return Err(corrupt(
            section,
            format!(
                "point dimensionality {dim} outside 1..={}",
                skq_geom::MAX_DIM
            ),
        ));
    }
    let mut coords = Vec::with_capacity(n.min(1 << 20) * dim);
    let mut remaining = n;
    while remaining > 0 {
        let mut d = r.page(kind, SCHEMA_VERSION, section)?;
        let in_page = remaining.min(POINTS_PER_PAGE);
        for _ in 0..in_page * dim {
            coords.push(d.f64()?);
        }
        d.end()?;
        remaining -= in_page;
    }
    Ok(coords)
}

/// Encodes `docs` into document pages of the given kind.
pub(crate) fn put_doc_pages(w: &mut PageWriter, kind: u16, docs: &[Document]) {
    for chunk in docs.chunks(DOCS_PER_PAGE.max(1)) {
        let mut buf = Vec::new();
        for doc in chunk {
            put_doc(&mut buf, doc);
        }
        w.page(kind, SCHEMA_VERSION, buf);
    }
}

/// Decodes `n` documents written by [`put_doc_pages`] into one shared
/// slice. They are gathered in a vector first, whose capacity is capped
/// until the pages prove `n`, so the slice's headers are copied once.
pub(crate) fn read_doc_pages(
    r: &mut PageReader<'_>,
    kind: u16,
    section: &'static str,
    n: usize,
) -> Result<Arc<[Document]>, SkqError> {
    let mut docs = Vec::with_capacity(n.min(1 << 20));
    let mut remaining = n;
    while remaining > 0 {
        let mut d = r.page(kind, SCHEMA_VERSION, section)?;
        let in_page = remaining.min(DOCS_PER_PAGE);
        for _ in 0..in_page {
            docs.push(d.doc()?);
        }
        d.end()?;
        remaining -= in_page;
    }
    Ok(docs.into())
}

impl Persist for InvertedIndex {
    fn to_pages(&self, w: &mut PageWriter) -> Result<(), SkqError> {
        // `entries()` iterates in ascending keyword order, so the
        // byte stream is independent of hash-map iteration order.
        let entries: Vec<(Keyword, &[ObjectId])> = self.entries().collect();
        let mut chunks: Vec<Vec<u8>> = Vec::new();
        let mut buf = Vec::new();
        let mut in_chunk = 0u64;
        for (kw, ids) in &entries {
            put_uv(&mut buf, u64::from(*kw));
            put_uv(&mut buf, ids.len() as u64);
            let mut prev = 0u64;
            for (i, &id) in ids.iter().enumerate() {
                let id = u64::from(id);
                if i == 0 {
                    put_uv(&mut buf, id);
                } else {
                    put_uv(&mut buf, id - prev - 1);
                }
                prev = id;
            }
            in_chunk += 1;
            if buf.len() >= POSTINGS_PAGE_BYTES {
                let mut page = Vec::with_capacity(buf.len() + 4);
                put_uv(&mut page, in_chunk);
                page.extend_from_slice(&buf);
                chunks.push(page);
                buf.clear();
                in_chunk = 0;
            }
        }
        if in_chunk > 0 || chunks.is_empty() {
            let mut page = Vec::with_capacity(buf.len() + 4);
            put_uv(&mut page, in_chunk);
            page.extend_from_slice(&buf);
            chunks.push(page);
        }
        let mut head = Vec::new();
        put_uv(&mut head, self.num_objects() as u64);
        put_uv(&mut head, entries.len() as u64);
        put_uv(&mut head, chunks.len() as u64);
        w.page(kind::POSTINGS_HEAD, SCHEMA_VERSION, head);
        for c in chunks {
            w.page(kind::POSTINGS_CHUNK, SCHEMA_VERSION, c);
        }
        Ok(())
    }

    fn from_pages(r: &mut PageReader<'_>) -> Result<Self, SkqError> {
        let mut head = r.page(kind::POSTINGS_HEAD, SCHEMA_VERSION, "postings")?;
        let num_objects = head.usizev()?;
        let num_lists = head.usizev()?;
        let num_chunks = head.usizev()?;
        head.end()?;
        let mut lists: Vec<(Keyword, Vec<ObjectId>)> = Vec::with_capacity(num_lists.min(1 << 20));
        for _ in 0..num_chunks {
            let mut d = r.page(kind::POSTINGS_CHUNK, SCHEMA_VERSION, "postings")?;
            let in_chunk = d.len(2)?;
            for _ in 0..in_chunk {
                let kw = d.u32v()?;
                if let Some((last, _)) = lists.last() {
                    if kw <= *last {
                        return Err(corrupt(
                            "postings",
                            format!("keyword {kw} out of ascending order"),
                        ));
                    }
                }
                let len = d.len(1)?;
                let mut ids = Vec::with_capacity(len);
                let mut prev = 0u64;
                for i in 0..len {
                    let delta = d.uv()?;
                    let id = if i == 0 { delta } else { prev + delta + 1 };
                    let id = u32::try_from(id).map_err(|_| {
                        corrupt("postings", format!("object id {id} does not fit in u32"))
                    })?;
                    ids.push(id);
                    prev = u64::from(id);
                }
                lists.push((kw, ids));
            }
            d.end()?;
        }
        if lists.len() != num_lists {
            return Err(corrupt(
                "postings",
                format!("decoded {} lists, head declared {num_lists}", lists.len()),
            ));
        }
        InvertedIndex::try_from_postings(lists, num_objects).map_err(|e| corrupt("postings", e))
    }
}

impl Persist for RankSpace {
    fn to_pages(&self, w: &mut PageWriter) -> Result<(), SkqError> {
        let mut head = Vec::new();
        put_uv(&mut head, self.dim() as u64);
        put_uv(&mut head, self.len() as u64);
        w.page(kind::RANK_HEAD, SCHEMA_VERSION, head);
        for d in 0..self.dim() {
            let (coords, ids) = self.column(d);
            let mut buf = Vec::with_capacity(coords.len() * 12);
            for (&coord, &id) in coords.iter().zip(ids) {
                put_f64(&mut buf, coord);
                put_uv(&mut buf, u64::from(id));
            }
            w.page(kind::RANK_COLUMN, SCHEMA_VERSION, buf);
        }
        Ok(())
    }

    fn from_pages(r: &mut PageReader<'_>) -> Result<Self, SkqError> {
        let mut head = r.page(kind::RANK_HEAD, SCHEMA_VERSION, "rank")?;
        let dim = head.usizev()?;
        let n = head.usizev()?;
        head.end()?;
        if !(1..=skq_geom::MAX_DIM).contains(&dim) {
            return Err(corrupt(
                "rank",
                format!(
                    "rank-space dimensionality {dim} outside 1..={}",
                    skq_geom::MAX_DIM
                ),
            ));
        }
        let (mut sorted, mut ids) = (Vec::new(), Vec::new());
        for col in 0..dim {
            let mut d = r.page(kind::RANK_COLUMN, SCHEMA_VERSION, "rank")?;
            if n > d.remaining() / 9 {
                return Err(corrupt(
                    "rank",
                    format!("column page too short for {n} entries"),
                ));
            }
            if col == 0 {
                // `n` is now bounded by the first page's length.
                sorted.reserve_exact(dim * n);
                ids.reserve_exact(dim * n);
            }
            for _ in 0..n {
                sorted.push(d.f64()?);
                ids.push(d.u32v()?);
            }
            d.end()?;
        }
        // `try_from_columns` re-validates the sort order, the id
        // permutation, and NaN-freeness, then samples the fences.
        RankSpace::try_from_columns(dim, sorted, ids).map_err(|e| corrupt("rank", e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_across_widths() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX];
        for &v in &values {
            put_uv(&mut buf, v);
        }
        let mut d = Dec {
            buf: &buf,
            pos: 0,
            section: "test",
        };
        for &v in &values {
            assert_eq!(d.uv().unwrap(), v);
        }
        d.end().unwrap();
    }

    #[test]
    fn f64_round_trips_including_infinities() {
        let mut buf = Vec::new();
        for x in [0.0, -1.5, f64::INFINITY, f64::NEG_INFINITY, 1e300] {
            put_f64(&mut buf, x);
        }
        let mut d = Dec {
            buf: &buf,
            pos: 0,
            section: "test",
        };
        for x in [0.0, -1.5, f64::INFINITY, f64::NEG_INFINITY, 1e300] {
            assert_eq!(d.f64().unwrap().to_bits(), x.to_bits());
        }
    }

    #[test]
    fn truncated_varint_is_corrupted_not_panic() {
        let buf = [0x80u8]; // continuation bit set, nothing follows
        let mut d = Dec {
            buf: &buf,
            pos: 0,
            section: "test",
        };
        assert!(matches!(d.uv(), Err(SkqError::Corrupted { .. })));
    }

    #[test]
    fn implausible_length_is_rejected() {
        let mut buf = Vec::new();
        put_uv(&mut buf, 1 << 40);
        let mut d = Dec {
            buf: &buf,
            pos: 0,
            section: "test",
        };
        assert!(matches!(d.len(1), Err(SkqError::Corrupted { .. })));
    }

    #[test]
    fn page_stream_round_trips() {
        let mut w = PageWriter::new();
        w.page(7, SCHEMA_VERSION, vec![1, 2, 3]);
        w.page(9, SCHEMA_VERSION, vec![]);
        let bytes = w.into_bytes().unwrap();
        let mut r = PageReader::new(&bytes).unwrap();
        assert_eq!(r.peek_kind(), Some(7));
        let mut d = r.page(7, SCHEMA_VERSION, "test").unwrap();
        assert_eq!(d.remaining(), 3);
        assert_eq!(d.uv().unwrap(), 1);
        assert_eq!(d.uv().unwrap(), 2);
        assert_eq!(d.uv().unwrap(), 3);
        d.end().unwrap();
        let d2 = r.page(9, SCHEMA_VERSION, "test").unwrap();
        d2.end().unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn wrong_magic_and_future_schema_are_typed_errors() {
        let bytes = PageWriter::new().into_bytes().unwrap();
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert!(matches!(
            PageReader::new(&bad_magic),
            Err(SkqError::Corrupted { .. })
        ));
        let mut future = bytes.clone();
        future[8..10].copy_from_slice(&(SCHEMA_VERSION + 1).to_le_bytes());
        // Re-stamp the header checksum so only the version is "wrong".
        let sum = fnv1a64(&future[..16]);
        future[16..24].copy_from_slice(&sum.to_le_bytes());
        let err = match PageReader::new(&future) {
            Err(e) => e,
            Ok(_) => panic!("future schema version accepted"),
        };
        assert!(err.to_string().contains("schema version"), "{err}");
    }

    #[test]
    fn flipped_payload_bit_fails_the_page_checksum() {
        let mut w = PageWriter::new();
        w.page(1, SCHEMA_VERSION, vec![42; 64]);
        let mut bytes = w.into_bytes().unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let mut r = PageReader::new(&bytes).unwrap();
        assert!(matches!(
            r.page(1, SCHEMA_VERSION, "test"),
            Err(SkqError::Corrupted { .. })
        ));
    }
}

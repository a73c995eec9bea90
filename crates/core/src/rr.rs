//! Rectangle reporting with keywords (RR-KW; Corollary 3).
//!
//! The data are `d`-rectangles; a query reports the data rectangles
//! intersecting a query `d`-rectangle whose documents contain all `k`
//! keywords. Corollary 3's reduction: the rectangle
//! `[a₁,b₁] × … × [a_d,b_d]` intersects `[x₁,y₁] × … × [x_d,y_d]` iff
//! the `2d`-dimensional point `(a₁, b₁, …, a_d, b_d)` lies in
//! `(−∞, y₁] × [x₁, ∞) × … × (−∞, y_d] × [x_d, ∞)` — so a
//! `2d`-dimensional ORP-KW index answers it. For `d = 1` (temporal
//! keyword search: documents with lifespan intervals) this lands in the
//! `O(N)`-space Theorem 1 regime.

use std::ops::ControlFlow;

use skq_geom::{Point, Rect};
use skq_invidx::{Document, Keyword};

use crate::dataset::Dataset;
use crate::error::{validate, SkqError};
use crate::failpoints;
use crate::orp::OrpKwIndex;
use crate::query::KwQuery;
use crate::sink::{DedupSink, ResultSink};
use crate::stats::QueryStats;

/// The RR-KW index over a set of `d`-rectangles with documents.
///
/// # Example
///
/// ```
/// use skq_core::query::KwQuery;
/// use skq_core::rr::RrKwIndex;
/// use skq_geom::Rect;
///
/// // Document versions with lifespans (days).
/// let versions = vec![
///     (Rect::new(&[0.0], &[10.0]), vec![0, 1]),
///     (Rect::new(&[20.0], &[30.0]), vec![0, 1]),
/// ];
/// let index = RrKwIndex::try_build(&versions, 2)?;
/// // Alive during days [5, 8] with both keywords:
/// assert_eq!(index.query(&Rect::new(&[5.0], &[8.0]), &[0, 1])?, vec![0]);
/// # Ok::<(), skq_core::SkqError>(())
/// ```
pub struct RrKwIndex {
    orp: OrpKwIndex,
    dim: usize,
    /// Number of data rectangles — the id universe for query-time
    /// deduplication.
    len: usize,
}

impl RrKwIndex {
    /// Builds the index from `(rectangle, keywords)` pairs.
    ///
    /// # Errors
    ///
    /// `SkqError::InvalidDataset` on empty input, inconsistent or
    /// unsupported dimensions, or invalid rectangle data;
    /// `SkqError::InvalidQuery` if `k` is outside `2..=16`.
    pub fn try_build(rects: &[(Rect, Vec<Keyword>)], k: usize) -> Result<Self, SkqError> {
        validate::build_k(k)?;
        failpoints::check("rr::build")?;
        let dataset = flatten_rects(rects)?;
        Ok(Self {
            orp: OrpKwIndex::try_build(&dataset, k)?,
            dim: rects[0].0.dim(),
            len: rects.len(),
        })
    }

    /// The rectangle dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The number of query keywords the index was built for.
    pub fn k(&self) -> usize {
        self.orp.k()
    }

    /// Index space in 64-bit words.
    pub fn space_words(&self) -> usize {
        self.orp.space_words()
    }

    /// Deep structural validation (DESIGN.md §12): the Corollary 3
    /// flattening must have doubled the dimension, and the inner ORP-KW
    /// index must itself validate.
    ///
    /// # Errors
    ///
    /// The first violated invariant, by name.
    pub fn validate(&self) -> Result<(), crate::invariants::InvariantViolation> {
        if self.orp.dim() != 2 * self.dim {
            return Err(crate::invariants::InvariantViolation::new(
                "rr::lifting",
                format!(
                    "inner index is {}D, expected {} for {}D rectangles",
                    self.orp.dim(),
                    2 * self.dim,
                    self.dim
                ),
            ));
        }
        self.orp.validate()
    }
}

impl KwQuery for RrKwIndex {
    type Shape = Rect;

    fn check(&self, q: &Rect, keywords: &[Keyword]) -> Result<(), SkqError> {
        validate::rect_query(q, self.dim)?;
        validate::distinct_keywords(keywords, self.k())
    }

    /// The `2d`-dimensional flattening maps each rectangle to a single
    /// point, so a correct ORP-KW backend reports each id at most once;
    /// a bitset [`DedupSink`] guards the reduction anyway (one bit per
    /// rectangle), keeping the set semantics of the composed index
    /// independent of backend internals.
    fn query_sink<S: ResultSink>(
        &self,
        q: &Rect,
        keywords: &[Keyword],
        sink: &mut S,
        stats: &mut QueryStats,
    ) -> ControlFlow<()> {
        assert_eq!(q.dim(), self.dim, "query dimension mismatch");
        let mut dedup = DedupSink::new(self.len, &mut *sink);
        self.orp
            .query_sink(&lift_query(q), keywords, &mut dedup, stats)
    }
}

/// Validates a rectangle input set and flattens it into the
/// `2d`-dimensional point dataset of Corollary 3's reduction.
fn flatten_rects(rects: &[(Rect, Vec<Keyword>)]) -> Result<Dataset, SkqError> {
    if rects.is_empty() {
        return Err(SkqError::InvalidDataset(
            "RR-KW needs data rectangles".into(),
        ));
    }
    let dim = rects[0].0.dim();
    if dim > 4 {
        return Err(SkqError::InvalidDataset(
            "flattened dimension 2d must be at most 8".into(),
        ));
    }
    let mut parts = Vec::with_capacity(rects.len());
    for (id, (r, kws)) in rects.iter().enumerate() {
        if r.dim() != dim {
            return Err(SkqError::InvalidDataset(format!(
                "inconsistent rectangle dimensions: rectangle {id} is {}-dimensional, rectangle 0 is {dim}-dimensional",
                r.dim()
            )));
        }
        parts.push((flatten(r), kws.clone()));
    }
    Dataset::try_from_parts(parts)
}

/// Flattens `[a₁,b₁] × …` to the point `(a₁, b₁, …)`.
fn flatten(r: &Rect) -> Point {
    let mut coords = Vec::with_capacity(2 * r.dim());
    for i in 0..r.dim() {
        let (a, b) = r.interval(i);
        coords.push(a);
        coords.push(b);
    }
    Point::new(&coords)
}

/// Maps the query `[x₁,y₁] × …` to `(−∞, y₁] × [x₁, ∞) × …`.
fn lift_query(q: &Rect) -> Rect {
    let mut lo = Vec::with_capacity(2 * q.dim());
    let mut hi = Vec::with_capacity(2 * q.dim());
    for i in 0..q.dim() {
        let (x, y) = q.interval(i);
        lo.push(f64::NEG_INFINITY); // a_i ≤ y_i
        hi.push(y);
        lo.push(x); // b_i ≥ x_i
        hi.push(f64::INFINITY);
    }
    Rect::new(&lo, &hi)
}

/// A convenience brute-force reference used by tests and the harness.
pub fn rr_bruteforce(rects: &[(Rect, Vec<Keyword>)], q: &Rect, keywords: &[Keyword]) -> Vec<u32> {
    rects
        .iter()
        .enumerate()
        .filter(|(_, (r, kws))| {
            r.intersects(q) && {
                let doc = Document::new(kws.clone());
                doc.contains_all(keywords)
            }
        })
        .map(|(i, _)| i as u32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_rects(n: usize, dim: usize, vocab: u32, seed: u64) -> Vec<(Rect, Vec<Keyword>)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut lo = Vec::new();
                let mut hi = Vec::new();
                for _ in 0..dim {
                    let a: f64 = rng.gen_range(0.0..100.0);
                    let len: f64 = rng.gen_range(0.0..15.0);
                    lo.push(a);
                    hi.push(a + len);
                }
                let doc: Vec<Keyword> = (0..rng.gen_range(1..5))
                    .map(|_| rng.gen_range(0..vocab))
                    .collect();
                (Rect::new(&lo, &hi), doc)
            })
            .collect()
    }

    #[test]
    fn intervals_1d_match_bruteforce() {
        // Temporal keyword search: document lifespans on a timeline.
        let rects = random_rects(300, 1, 8, 1);
        let index = RrKwIndex::try_build(&rects, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..80 {
            let a: f64 = rng.gen_range(-5.0..105.0);
            let b: f64 = a + rng.gen_range(0.0..30.0);
            let q = Rect::new(&[a], &[b]);
            let w1 = rng.gen_range(0..8);
            let w2 = (w1 + 1 + rng.gen_range(0..7)) % 8;
            let mut got = index.query(&q, &[w1, w2]).unwrap();
            got.sort_unstable();
            assert_eq!(got, rr_bruteforce(&rects, &q, &[w1, w2]));
        }
    }

    #[test]
    fn boxes_2d_match_bruteforce() {
        let rects = random_rects(250, 2, 8, 11);
        let index = RrKwIndex::try_build(&rects, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..50 {
            let mut lo = Vec::new();
            let mut hi = Vec::new();
            for _ in 0..2 {
                let a: f64 = rng.gen_range(-5.0..105.0);
                lo.push(a);
                hi.push(a + rng.gen_range(0.0..40.0));
            }
            let q = Rect::new(&lo, &hi);
            let w1 = rng.gen_range(0..8);
            let w2 = (w1 + 1 + rng.gen_range(0..7)) % 8;
            let mut got = index.query(&q, &[w1, w2]).unwrap();
            got.sort_unstable();
            assert_eq!(got, rr_bruteforce(&rects, &q, &[w1, w2]));
        }
    }

    #[test]
    fn limited_query_is_truncated_subset() {
        let rects = random_rects(250, 1, 4, 31);
        let index = RrKwIndex::try_build(&rects, 2).unwrap();
        let q = Rect::new(&[0.0], &[100.0]);
        let full = rr_bruteforce(&rects, &q, &[0, 1]);
        assert!(full.len() > 4, "need enough matches for the test");
        let mut out = Vec::new();
        let mut stats = QueryStats::new();
        let capped = crate::guard::QueryGuard::new().with_max_results(4);
        let _ = index
            .run(&q, &[0, 1], &capped, &mut out, &mut stats)
            .unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(stats.emitted, 4);
        assert!(stats.truncated);
        assert!(out.iter().all(|i| full.contains(i)));
    }

    #[test]
    fn touching_rectangles_count_as_intersecting() {
        let rects = vec![
            (Rect::new(&[0.0], &[1.0]), vec![0, 1]),
            (Rect::new(&[1.0], &[2.0]), vec![0, 1]),
            (Rect::new(&[2.5], &[3.0]), vec![0, 1]),
        ];
        let index = RrKwIndex::try_build(&rects, 2).unwrap();
        let q = Rect::new(&[1.0], &[1.0]); // degenerate point query
        let mut got = index.query(&q, &[0, 1]).unwrap();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1]);
    }

    #[test]
    fn invalid_input_is_a_typed_error() {
        assert!(matches!(
            RrKwIndex::try_build(&[], 2),
            Err(SkqError::InvalidDataset(_))
        ));
        let rects = random_rects(30, 1, 4, 43);
        assert!(matches!(
            RrKwIndex::try_build(&rects, 1),
            Err(SkqError::InvalidQuery(_))
        ));
        let index = RrKwIndex::try_build(&rects, 2).unwrap();
        // Duplicate keywords: only one distinct value.
        let dup = index.query(&Rect::new(&[0.0], &[1.0]), &[3, 3]);
        assert!(matches!(dup, Err(SkqError::InvalidQuery(ref m)) if m.contains("distinct")));
        // Wrong dimensionality.
        let wrong_dim = index.query(&Rect::new(&[0.0, 0.0], &[1.0, 1.0]), &[0, 1]);
        assert!(matches!(wrong_dim, Err(SkqError::InvalidQuery(_))));
    }

    #[test]
    fn keyword_filtering_applies() {
        let rects = vec![
            (Rect::new(&[0.0], &[10.0]), vec![0]),
            (Rect::new(&[0.0], &[10.0]), vec![0, 1]),
        ];
        let index = RrKwIndex::try_build(&rects, 2).unwrap();
        assert_eq!(
            index.query(&Rect::new(&[5.0], &[6.0]), &[0, 1]).unwrap(),
            vec![1]
        );
    }
}

//! Orthogonal range reporting with keywords (ORP-KW; Theorems 1–2).
//!
//! Given a `d`-rectangle `q` and keywords `w₁, …, w_k`, report
//! `q ∩ D(w₁, …, w_k)`. For `d ≤ 2` the index is the kd-tree
//! transformation of §3 built in *rank space* (Step 4), achieving
//! `O(N)` space and `O(N^{1−1/k}(1 + OUT^{1/k}))` query time
//! (Theorem 1). For `d ≥ 3` it is the dimension-reduction tree of §4,
//! with an `O(log log N)` space blow-up per extra dimension
//! (Theorem 2).

use std::ops::{ControlFlow, RangeInclusive};
use std::sync::Arc;

use skq_geom::{Point, RankSpace, Rect};
use skq_invidx::{Document, Keyword};

use crate::dataset::Dataset;
use crate::dimred::DimRedTree;
use crate::error::{validate, SkqError};
use crate::failpoints;
use crate::framework::{doc_weights, KdPartitioner, TransformedIndex};
use crate::persist::{self, Persist, SCHEMA_VERSION};
use crate::query::KwQuery;
use crate::sink::ResultSink;
use crate::stats::QueryStats;
use crate::telemetry;

enum Inner {
    /// Theorem 1: kd-tree framework over rank-space coordinates — one
    /// tree whose keyword layers serve every `k`.
    Kd {
        rank: RankSpace,
        tree: TransformedIndex<KdPartitioner>,
    },
    /// Theorem 2: dimension-reduction trees, one per `k` in ascending
    /// order (the fanout `2 · 2^{k^level}` shapes the tree itself).
    DimRed(Vec<DimRedTree>),
}

/// The ORP-KW index, serving queries of any number of distinct
/// keywords in its `k` range (a single `k` unless built for a suite).
pub struct OrpKwIndex {
    inner: Inner,
    dim: usize,
    ks: RangeInclusive<usize>,
}

impl OrpKwIndex {
    /// Builds the index for exactly-`k`-keyword queries.
    ///
    /// # Errors
    ///
    /// `SkqError::InvalidQuery` if `k` is outside `2..=16`.
    pub fn try_build(dataset: &Dataset, k: usize) -> Result<Self, SkqError> {
        Self::try_build_ks(dataset, k..=k)
    }

    /// Builds the index for every `k` in `ks` — the suite passes
    /// `2..=k_max`. For `d ≤ 2` the range shares one rank space and one
    /// kd tree, adding only a keyword layer per extra `k`.
    ///
    /// # Errors
    ///
    /// `SkqError::InvalidQuery` if `ks` is empty or leaves `2..=16`.
    pub(crate) fn try_build_ks(
        dataset: &Dataset,
        ks: RangeInclusive<usize>,
    ) -> Result<Self, SkqError> {
        validate::build_ks(&ks)?;
        failpoints::check("orp::build")?;
        let _span = skq_obs::Span::enter("orp.build");
        let start = std::time::Instant::now();
        let dim = dataset.dim();
        let inner = if dim <= 2 {
            let rank = RankSpace::build(dataset.points());
            let weights = doc_weights(dataset.docs());
            let partitioner = KdPartitioner::new(dim, rank.coords(), weights);
            let tree = TransformedIndex::try_build(
                partitioner,
                Arc::clone(dataset.shared_docs()),
                ks.clone(),
            )?;
            Inner::Kd { rank, tree }
        } else {
            Inner::DimRed(ks.clone().map(|k| DimRedTree::build(dataset, k)).collect())
        };
        let index = Self { inner, dim, ks };
        let (nodes, pivots) = match &index.inner {
            Inner::Kd { tree, .. } => (
                tree.num_nodes() as u64,
                tree.node_summaries(tree.k())
                    .map(|(_, _, p, _)| p as u64)
                    .sum(),
            ),
            Inner::DimRed(trees) => (trees.iter().map(|t| t.num_nodes() as u64).sum(), 0),
        };
        telemetry::record_build(
            "orp_kw",
            start.elapsed(),
            nodes,
            pivots,
            (index.space_words() * 8) as u64,
        );
        Ok(index)
    }

    /// The smallest number of query keywords served — the only one of
    /// a single-`k` build.
    pub fn k(&self) -> usize {
        *self.ks.start()
    }

    /// Every number of distinct query keywords the index serves.
    pub fn ks(&self) -> RangeInclusive<usize> {
        self.ks.clone()
    }

    /// The dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The number of indexed objects.
    pub(crate) fn len(&self) -> usize {
        match &self.inner {
            Inner::Kd { rank, .. } => rank.len(),
            Inner::DimRed(trees) => trees[0].dataset().len(),
        }
    }

    /// Object `i`'s document.
    pub(crate) fn doc(&self, i: usize) -> &Document {
        match &self.inner {
            Inner::Kd { tree, .. } => tree.doc(i),
            Inner::DimRed(trees) => trees[0].dataset().doc(i),
        }
    }

    /// Object `i`'s point, exactly as built: the kd engine looks its
    /// ranks up in the rank space's columns, the dimension-reduction
    /// engine reads its dataset.
    pub(crate) fn point(&self, i: usize) -> Point {
        match &self.inner {
            Inner::Kd { rank, tree } => rank.point_at(tree.partitioner().point_coords(i as u32)),
            Inner::DimRed(trees) => *trees[0].dataset().point(i),
        }
    }

    /// An exact test of whether object `o` lies in `q`, without the
    /// keyword filter: the kd engine tests the object's rank-space
    /// point against `q`'s rank-space image (which selects exactly what
    /// `q` selects), the dimension-reduction engine its point.
    pub(crate) fn contains_fn<'a>(&'a self, q: &Rect) -> impl Fn(u32) -> bool + 'a {
        // `None`: `q` hits no data coordinate.
        let rq = match &self.inner {
            Inner::Kd { rank, .. } => rank.rect(q),
            Inner::DimRed(_) => Some(*q),
        };
        move |o| {
            rq.as_ref().is_some_and(|rq| match &self.inner {
                Inner::Kd { tree, .. } => rq.contains_coords(tree.partitioner().point_coords(o)),
                Inner::DimRed(trees) => rq.contains(trees[0].dataset().point(o as usize)),
            })
        }
    }

    /// Index space in 64-bit words.
    pub fn space_words(&self) -> usize {
        match &self.inner {
            Inner::Kd { rank, tree } => {
                // Rank arrays: d sorted columns of (coord, id).
                let rank_words = rank.len() * rank.dim() * 2;
                rank_words + tree.space_words(2 * self.dim + 1)
            }
            Inner::DimRed(trees) => trees.iter().map(DimRedTree::space_words).sum(),
        }
    }

    /// Deep structural validation (DESIGN.md §12): checks that the kd
    /// tree partitions exactly the rank space's images, then delegates
    /// to the kd framework (every layer) or each dimension-reduction
    /// tree, each of which re-derives its invariants from the built
    /// structure.
    ///
    /// # Errors
    ///
    /// The first violated invariant, by name.
    pub fn validate(&self) -> Result<(), crate::invariants::InvariantViolation> {
        match &self.inner {
            Inner::Kd { rank, tree } => {
                if tree.partitioner().coords() != rank.coords() {
                    return Err(crate::invariants::InvariantViolation::new(
                        "orp::rank_points",
                        "kd tree points differ from the rank-space images",
                    ));
                }
                tree.validate()
            }
            Inner::DimRed(trees) => trees.iter().try_for_each(DimRedTree::validate),
        }
    }
}

impl KwQuery for OrpKwIndex {
    type Shape = Rect;

    fn check(&self, q: &Rect, keywords: &[Keyword]) -> Result<(), SkqError> {
        validate::rect_query(q, self.dim)?;
        validate::distinct_keywords_in(keywords, &self.ks)
    }

    fn query_sink<S: ResultSink>(
        &self,
        q: &Rect,
        keywords: &[Keyword],
        sink: &mut S,
        stats: &mut QueryStats,
    ) -> ControlFlow<()> {
        assert_eq!(q.dim(), self.dim, "query dimension mismatch");
        match &self.inner {
            Inner::Kd { rank, tree } => {
                let Some(rq) = rank.rect(q) else {
                    return ControlFlow::Continue(()); // hits no data coordinate
                };
                tree.query_sink(
                    keywords,
                    &|cell| rq.classify(cell),
                    &|o| rq.contains_coords(tree.partitioner().point_coords(o)),
                    sink,
                    stats,
                )
            }
            Inner::DimRed(trees) => {
                let k = validate::count_distinct(keywords);
                let Some(tree) = k.checked_sub(self.k()).and_then(|i| trees.get(i)) else {
                    panic!("{:?}", validate::distinct_keywords_in(keywords, &self.ks));
                };
                tree.query_sink(q, keywords, sink, stats)
            }
        }
    }
}

/// Exposes framework diagnostics for the harness (kd case only).
impl OrpKwIndex {
    /// `(level, weight, pivots, large)` summaries of the kd framework
    /// nodes in layer `k`, or `None` for the dimension-reduction
    /// variant or a `k` the index does not serve.
    pub fn kd_node_summaries(&self, k: usize) -> Option<Vec<(u32, u64, usize, usize)>> {
        match &self.inner {
            Inner::Kd { tree, .. } if self.ks.contains(&k) => {
                Some(tree.node_summaries(k).collect())
            }
            _ => None,
        }
    }
}

/// Engine tag written in the `ORP_HEAD` page: the kd/rank-space
/// engine. The dimension-reduction engine (`d ≥ 3`) has no snapshot
/// encoding; saving it returns [`SkqError::Store`].
const ORP_ENGINE_KD: u64 = 0;

/// `ORP_HEAD` declares the lowest `k`; further `k` travel as the
/// tree's `TREE_LAYER` sections, so a single-`k` index writes the
/// single-layer format.
impl Persist for OrpKwIndex {
    fn to_pages(&self, w: &mut persist::PageWriter) -> Result<(), SkqError> {
        match &self.inner {
            Inner::Kd { rank, tree } => {
                let mut head = Vec::new();
                persist::put_uv(&mut head, ORP_ENGINE_KD);
                persist::put_uv(&mut head, self.dim as u64);
                persist::put_uv(&mut head, self.k() as u64);
                w.page(persist::kind::ORP_HEAD, SCHEMA_VERSION, head);
                rank.to_pages(w)?;
                tree.to_pages(w)
            }
            Inner::DimRed(_) => Err(SkqError::Store {
                backend: "save".into(),
                message: "the dimension-reduction engine (d >= 3) has no snapshot encoding; \
                          rebuild it from the dataset"
                    .into(),
            }),
        }
    }

    fn from_pages(r: &mut persist::PageReader<'_>) -> Result<Self, SkqError> {
        let fail = |detail: String| SkqError::Corrupted {
            section: "orp".into(),
            detail,
        };
        let mut head = r.page(persist::kind::ORP_HEAD, SCHEMA_VERSION, "orp")?;
        let engine = head.uv()?;
        let dim = head.usizev()?;
        let k = head.usizev()?;
        head.end()?;
        if engine != ORP_ENGINE_KD {
            return Err(fail(format!("unknown orp engine tag {engine}")));
        }
        let rank = RankSpace::from_pages(r)?;
        let tree = TransformedIndex::<KdPartitioner>::from_pages(r)?;
        if rank.dim() != dim || tree.partitioner().dim() != dim {
            return Err(fail(format!(
                "dimensionality mismatch: head {dim}, rank {}, tree {}",
                rank.dim(),
                tree.partitioner().dim()
            )));
        }
        if tree.k() != k {
            return Err(fail(format!("head k = {k}, tree k = {}", tree.k())));
        }
        if rank.len() != tree.partitioner().len() {
            return Err(fail(format!(
                "rank space covers {} objects, tree {}",
                rank.len(),
                tree.partitioner().len()
            )));
        }
        Ok(Self {
            ks: tree.ks(),
            inner: Inner::Kd { rank, tree },
            dim,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::brute_rect as brute;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use skq_geom::Point;

    fn random_dataset(n: usize, dim: usize, vocab: u32, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        Dataset::from_parts(
            (0..n)
                .map(|_| {
                    let coords: Vec<f64> = (0..dim).map(|_| rng.gen_range(0..30) as f64).collect();
                    let len = rng.gen_range(1..6);
                    let doc: Vec<Keyword> = (0..len).map(|_| rng.gen_range(0..vocab)).collect();
                    (Point::new(&coords), doc)
                })
                .collect(),
        )
    }

    fn random_rect(rng: &mut StdRng, dim: usize) -> Rect {
        let mut lo = Vec::new();
        let mut hi = Vec::new();
        for _ in 0..dim {
            let a = rng.gen_range(-2..32) as f64;
            let b = rng.gen_range(-2..32) as f64;
            lo.push(a.min(b));
            hi.push(a.max(b));
        }
        Rect::new(&lo, &hi)
    }

    #[test]
    fn shares_the_dataset_documents() {
        for dim in [2, 3] {
            let dataset = random_dataset(300, dim, 8, 51);
            let index = OrpKwIndex::try_build(&dataset, 2).unwrap();
            for i in 0..dataset.len() {
                assert!(
                    std::ptr::eq(index.doc(i), dataset.doc(i)),
                    "{dim}D: doc {i} was copied"
                );
            }
        }
    }

    #[test]
    fn reads_each_point_back_exactly() {
        for dim in [2, 3] {
            let mut dataset = random_dataset(300, dim, 8, 52);
            // Signed zeros and repeated coordinates must round-trip bit
            // for bit.
            let zeros = [-0.0, 0.0, 0.0, -0.0];
            dataset = dataset.map_points(|i, p| match zeros.get(i) {
                Some(&z) => Point::new(&vec![z; dim]),
                None => *p,
            });
            let index = OrpKwIndex::try_build(&dataset, 2).unwrap();
            for i in 0..dataset.len() {
                let (got, want) = (index.point(i), *dataset.point(i));
                let bits = |p: &Point| p.coords().iter().map(|c| c.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{dim}D: point {i}");
            }
        }
    }

    #[test]
    fn matches_bruteforce_2d_k2() {
        let dataset = random_dataset(400, 2, 12, 11);
        let index = OrpKwIndex::try_build(&dataset, 2).unwrap();
        index.validate().unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..100 {
            let q = random_rect(&mut rng, 2);
            let w1 = rng.gen_range(0..12);
            let w2 = (w1 + 1 + rng.gen_range(0..11)) % 12;
            let mut got = index.query(&q, &[w1, w2]).unwrap();
            got.sort_unstable();
            assert_eq!(
                got,
                brute(&dataset, &q, &[w1, w2]),
                "q={q:?} kws=[{w1},{w2}]"
            );
        }
    }

    #[test]
    fn matches_bruteforce_1d_k3() {
        let dataset = random_dataset(300, 1, 8, 21);
        let index = OrpKwIndex::try_build(&dataset, 3).unwrap();
        index.validate().unwrap();
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..100 {
            let q = random_rect(&mut rng, 1);
            let mut ws = vec![0u32; 0];
            while ws.len() < 3 {
                let w = rng.gen_range(0..8);
                if !ws.contains(&w) {
                    ws.push(w);
                }
            }
            let mut got = index.query(&q, &ws).unwrap();
            got.sort_unstable();
            assert_eq!(got, brute(&dataset, &q, &ws));
        }
    }

    #[test]
    fn matches_bruteforce_3d_dimred() {
        let dataset = random_dataset(350, 3, 10, 31);
        let index = OrpKwIndex::try_build(&dataset, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(32);
        for _ in 0..60 {
            let q = random_rect(&mut rng, 3);
            let w1 = rng.gen_range(0..10);
            let w2 = (w1 + 1 + rng.gen_range(0..9)) % 10;
            let mut got = index.query(&q, &[w1, w2]).unwrap();
            got.sort_unstable();
            assert_eq!(got, brute(&dataset, &q, &[w1, w2]));
        }
    }

    #[test]
    fn matches_bruteforce_4d_dimred() {
        let dataset = random_dataset(200, 4, 8, 41);
        let index = OrpKwIndex::try_build(&dataset, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..40 {
            let q = random_rect(&mut rng, 4);
            let w1 = rng.gen_range(0..8);
            let w2 = (w1 + 1 + rng.gen_range(0..7)) % 8;
            let mut got = index.query(&q, &[w1, w2]).unwrap();
            got.sort_unstable();
            assert_eq!(got, brute(&dataset, &q, &[w1, w2]));
        }
    }

    #[test]
    fn full_space_query_equals_pure_keyword_search() {
        let dataset = random_dataset(250, 2, 6, 51);
        let index = OrpKwIndex::try_build(&dataset, 2).unwrap();
        let q = Rect::full(2);
        let mut got = index.query(&q, &[1, 4]).unwrap();
        got.sort_unstable();
        assert_eq!(got, brute(&dataset, &q, &[1, 4]));
    }

    #[test]
    fn limited_query_stops_early() {
        let dataset = random_dataset(500, 2, 4, 61);
        let index = OrpKwIndex::try_build(&dataset, 2).unwrap();
        let q = Rect::full(2);
        let full = brute(&dataset, &q, &[0, 1]);
        assert!(full.len() > 5, "need enough matches for the test");
        let mut out = Vec::new();
        let mut stats = QueryStats::new();
        let capped = crate::guard::QueryGuard::new().with_max_results(3);
        let _ = index
            .run(&q, &[0, 1], &capped, &mut out, &mut stats)
            .unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(stats.emitted, 3);
        assert!(stats.truncated);
        assert!(index.count_at_least(&q, &[0, 1], full.len()).unwrap());
        assert!(!index.count_at_least(&q, &[0, 1], full.len() + 1).unwrap());
        assert_eq!(index.count(&q, &[0, 1]).unwrap(), full.len() as u64);
    }

    #[test]
    fn count_matches_bruteforce_3d() {
        let dataset = random_dataset(200, 3, 8, 63);
        let index = OrpKwIndex::try_build(&dataset, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(64);
        for _ in 0..20 {
            let q = random_rect(&mut rng, 3);
            let w1 = rng.gen_range(0..8);
            let w2 = (w1 + 1 + rng.gen_range(0..7)) % 8;
            assert_eq!(
                index.count(&q, &[w1, w2]).unwrap(),
                brute(&dataset, &q, &[w1, w2]).len() as u64
            );
        }
    }

    #[test]
    fn unknown_keyword_yields_empty() {
        let dataset = random_dataset(100, 2, 5, 71);
        let index = OrpKwIndex::try_build(&dataset, 2).unwrap();
        assert!(index.query(&Rect::full(2), &[0, 999]).unwrap().is_empty());
    }

    #[test]
    fn invalid_input_is_a_typed_error() {
        let dataset = random_dataset(50, 2, 5, 102);
        assert!(matches!(
            OrpKwIndex::try_build(&dataset, 1),
            Err(SkqError::InvalidQuery(_))
        ));
        let index = OrpKwIndex::try_build(&dataset, 2).unwrap();
        // Duplicate keywords, wrong dimensionality.
        assert!(matches!(
            index.query(&Rect::full(2), &[3, 3]),
            Err(SkqError::InvalidQuery(ref m)) if m.contains("distinct keywords")
        ));
        let mut out = Vec::new();
        let guard = crate::guard::QueryGuard::new();
        let got = index.run(
            &Rect::full(3),
            &[0, 1],
            &guard,
            &mut out,
            &mut QueryStats::new(),
        );
        assert!(matches!(got, Err(SkqError::InvalidQuery(_))));
        assert!(out.is_empty(), "failed validation must not emit");
    }

    #[test]
    fn validate_catches_points_that_are_not_the_rank_images() {
        let dataset = random_dataset(120, 2, 6, 104);
        let mut index = OrpKwIndex::try_build(&dataset, 2).unwrap();
        index.validate().unwrap();
        // Same size, other coordinates: the images no longer match.
        let other = random_dataset(120, 2, 6, 105);
        let Inner::Kd { rank, .. } = &mut index.inner else {
            unreachable!("2-d data builds the kd engine");
        };
        *rank = RankSpace::build(other.points());
        let err = index.validate().unwrap_err();
        assert_eq!(err.invariant(), "orp::rank_points");
    }

    #[test]
    fn space_is_linear_ish() {
        let dataset = random_dataset(2000, 2, 40, 91);
        let index = OrpKwIndex::try_build(&dataset, 2).unwrap();
        let words = index.space_words();
        let n = dataset.input_size();
        assert!(
            words < 60 * n,
            "space {words} words for N = {n} exceeds the linear-space budget"
        );
    }
}

//! Simplex reporting with keywords (SP-KW; Theorem 12, Appendix D).
//!
//! Given a `d`-simplex (or, more generally, any conjunction of `O(1)`
//! halfspaces — LC-KW queries arrive that way and a simplex is exactly
//! `d + 1` of them) and keywords `w₁, …, w_k`, report the matching
//! objects inside the region. The index is the transformation framework
//! applied to a partition tree: in 2D, the Willard ham-sandwich tree
//! (see DESIGN.md §4 for the substitution of Chan's optimal partition
//! tree); in higher dimensions, kd cells (the paper notes in §3.5 that
//! the kd-tree yields `O(N^{1−1/max(k,d)} + N^{1−1/k}·OUT^{1/k})`
//! there).

use std::ops::ControlFlow;
use std::sync::Arc;

use skq_geom::{ConvexPolytope, Point};
use skq_invidx::Keyword;

use crate::dataset::Dataset;
use crate::error::{validate, SkqError};
use crate::failpoints;
use crate::framework::{doc_weights, KdPartitioner, TransformedIndex, WillardPartitioner};
use crate::query::KwQuery;
use crate::sink::ResultSink;
use crate::stats::QueryStats;

/// Which partitioner backs the index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpStrategy {
    /// Willard ham-sandwich partition tree (2D only): crossing number
    /// `O(N^{log₄3})`.
    Willard,
    /// kd-tree cells (any dimension): crossing number
    /// `O(N^{1−1/max(k,d)})` for simplex queries.
    Kd,
}

enum Inner {
    Willard(TransformedIndex<WillardPartitioner>),
    Kd(TransformedIndex<KdPartitioner>),
}

/// The SP-KW index.
///
/// # Example
///
/// ```
/// use skq_core::dataset::Dataset;
/// use skq_core::query::KwQuery;
/// use skq_core::sp::SpKwIndex;
/// use skq_geom::{Point, Simplex};
///
/// let data = Dataset::from_parts(vec![
///     (Point::new2(1.0, 1.0), vec![0, 1]),
///     (Point::new2(9.0, 9.0), vec![0, 1]),
///     (Point::new2(2.0, 1.0), vec![0]),
/// ]);
/// let index = SpKwIndex::try_build(&data, 2)?;
/// let triangle = Simplex::new(vec![
///     Point::new2(0.0, 0.0),
///     Point::new2(5.0, 0.0),
///     Point::new2(0.0, 5.0),
/// ]).unwrap();
/// assert_eq!(index.query(&triangle.to_polytope(), &[0, 1])?, vec![0]);
/// # Ok::<(), skq_core::SkqError>(())
/// ```
pub struct SpKwIndex {
    inner: Inner,
    points: Vec<Point>,
    dim: usize,
    k: usize,
}

impl SpKwIndex {
    /// Builds with the default strategy (Willard in 2D, kd otherwise).
    ///
    /// # Errors
    ///
    /// `SkqError::InvalidQuery` if `k` is outside `2..=16`.
    pub fn try_build(dataset: &Dataset, k: usize) -> Result<Self, SkqError> {
        let strategy = if dataset.dim() == 2 {
            SpStrategy::Willard
        } else {
            SpStrategy::Kd
        };
        Self::try_build_with_strategy(dataset, k, strategy)
    }

    /// Builds with an explicit strategy.
    ///
    /// # Errors
    ///
    /// `SkqError::InvalidQuery` if `k` is outside `2..=16`;
    /// `SkqError::InvalidDataset` if a 2D-only strategy is paired with
    /// non-2D data.
    pub fn try_build_with_strategy(
        dataset: &Dataset,
        k: usize,
        strategy: SpStrategy,
    ) -> Result<Self, SkqError> {
        validate::build_k(k)?;
        failpoints::check("sp::build")?;
        let points = dataset.points().to_vec();
        let weights: Vec<u64> = (0..dataset.len()).map(|i| dataset.weight(i)).collect();
        let docs = Arc::clone(dataset.shared_docs());
        let inner = match strategy {
            SpStrategy::Willard => {
                if dataset.dim() != 2 {
                    return Err(SkqError::InvalidDataset(
                        "the Willard partition tree is 2D".into(),
                    ));
                }
                let p = WillardPartitioner::new(points.clone(), weights);
                Inner::Willard(TransformedIndex::try_build(p, docs, k..=k)?)
            }
            SpStrategy::Kd => {
                let coords = points.iter().flat_map(|p| p.coords()).copied().collect();
                let p = KdPartitioner::new(dataset.dim(), coords, doc_weights(&docs));
                Inner::Kd(TransformedIndex::try_build(p, docs, k..=k)?)
            }
        };
        Ok(Self {
            inner,
            points,
            dim: dataset.dim(),
            k,
        })
    }

    /// The number of query keywords the index was built for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The strategy in use.
    pub fn strategy(&self) -> SpStrategy {
        match self.inner {
            Inner::Willard(_) => SpStrategy::Willard,
            Inner::Kd(_) => SpStrategy::Kd,
        }
    }

    /// Index space in 64-bit words (cells charged as a constant; the
    /// Willard polygons average `O(1)` vertices because each level adds
    /// at most two clips).
    pub fn space_words(&self) -> usize {
        let point_words = self.points.len() * self.dim;
        point_words
            + match &self.inner {
                Inner::Willard(t) => t.space_words(12),
                Inner::Kd(t) => t.space_words(2 * self.dim + 1),
            }
    }

    /// `(level, weight, pivots, large)` per framework node — tree-shape
    /// diagnostics for the harness.
    pub fn node_summaries(&self) -> Vec<(u32, u64, usize, usize)> {
        match &self.inner {
            Inner::Willard(t) => t.node_summaries(self.k).collect(),
            Inner::Kd(t) => t.node_summaries(self.k).collect(),
        }
    }

    /// The stored point set, exposed so lifting-based wrappers (SRP-KW)
    /// can cross-check their lifted coordinates during deep validation.
    pub(crate) fn validate_points(&self) -> &[Point] {
        &self.points
    }

    /// Deep structural validation (DESIGN.md §12).
    ///
    /// # Errors
    ///
    /// The first violated invariant, by name.
    pub fn validate(&self) -> Result<(), crate::invariants::InvariantViolation> {
        use crate::invariants::InvariantViolation as V;
        if let Some(p) = self.points.iter().find(|p| p.dim() != self.dim) {
            return Err(V::new(
                "sp::points",
                format!(
                    "stored point of dimension {}, index is {}D",
                    p.dim(),
                    self.dim
                ),
            ));
        }
        match &self.inner {
            Inner::Willard(t) => t.validate(),
            Inner::Kd(t) => t.validate(),
        }
    }
}

impl KwQuery for SpKwIndex {
    /// A conjunction of halfspaces; a simplex is exactly `d + 1` of
    /// them ([`Simplex::to_polytope`](skq_geom::Simplex::to_polytope)).
    type Shape = ConvexPolytope;

    fn check(&self, q: &ConvexPolytope, keywords: &[Keyword]) -> Result<(), SkqError> {
        validate::polytope_query(q, self.dim)?;
        validate::distinct_keywords(keywords, self.k)
    }

    fn query_sink<S: ResultSink>(
        &self,
        q: &ConvexPolytope,
        keywords: &[Keyword],
        sink: &mut S,
        stats: &mut QueryStats,
    ) -> ControlFlow<()> {
        if let Some(d) = q.dim() {
            assert_eq!(d, self.dim, "query dimension mismatch");
        }
        let accept = |o: u32| q.contains(&self.points[o as usize]);
        match &self.inner {
            Inner::Willard(tree) => tree.query_sink(
                keywords,
                &|cell| cell.classify(q.halfspaces()),
                &accept,
                sink,
                stats,
            ),
            Inner::Kd(tree) => tree.query_sink(
                keywords,
                &|cell| q.classify_rect(cell),
                &accept,
                sink,
                stats,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use skq_geom::{Halfspace, Simplex};

    fn random_dataset(n: usize, dim: usize, vocab: u32, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        Dataset::from_parts(
            (0..n)
                .map(|_| {
                    let coords: Vec<f64> = (0..dim).map(|_| rng.gen_range(-20.0..20.0)).collect();
                    let len = rng.gen_range(1..5);
                    let doc: Vec<Keyword> = (0..len).map(|_| rng.gen_range(0..vocab)).collect();
                    (Point::new(&coords), doc)
                })
                .collect(),
        )
    }

    fn brute(dataset: &Dataset, q: &ConvexPolytope, kws: &[Keyword]) -> Vec<u32> {
        (0..dataset.len() as u32)
            .filter(|&i| {
                dataset.doc(i as usize).contains_all(kws) && q.contains(dataset.point(i as usize))
            })
            .collect()
    }

    fn random_halfspaces(rng: &mut StdRng, dim: usize, s: usize) -> ConvexPolytope {
        let hs: Vec<Halfspace> = (0..s)
            .map(|_| {
                let coeffs: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
                Halfspace::new(&coeffs, rng.gen_range(-10.0..20.0))
            })
            .collect();
        ConvexPolytope::new(hs)
    }

    #[test]
    fn both_strategies_share_the_dataset_documents() {
        let dataset = random_dataset(300, 2, 8, 61);
        for strategy in [SpStrategy::Willard, SpStrategy::Kd] {
            let index = SpKwIndex::try_build_with_strategy(&dataset, 2, strategy).unwrap();
            for i in 0..dataset.len() {
                let doc = match &index.inner {
                    Inner::Willard(t) => t.doc(i),
                    Inner::Kd(t) => t.doc(i),
                };
                assert!(
                    std::ptr::eq(doc, dataset.doc(i)),
                    "{strategy:?}: doc {i} was copied"
                );
            }
        }
    }

    #[test]
    fn willard_matches_bruteforce() {
        let dataset = random_dataset(400, 2, 10, 1);
        let index = SpKwIndex::try_build(&dataset, 2).unwrap();
        assert_eq!(index.strategy(), SpStrategy::Willard);
        index.validate().unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..60 {
            let s = rng.gen_range(1..4);
            let q = random_halfspaces(&mut rng, 2, s);
            let w1 = rng.gen_range(0..10);
            let w2 = (w1 + 1 + rng.gen_range(0..9)) % 10;
            let mut got = index.query(&q, &[w1, w2]).unwrap();
            got.sort_unstable();
            assert_eq!(got, brute(&dataset, &q, &[w1, w2]));
        }
    }

    #[test]
    fn kd_strategy_matches_bruteforce_2d() {
        let dataset = random_dataset(300, 2, 8, 11);
        let index = SpKwIndex::try_build_with_strategy(&dataset, 2, SpStrategy::Kd).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..60 {
            let q = random_halfspaces(&mut rng, 2, 2);
            let w1 = rng.gen_range(0..8);
            let w2 = (w1 + 1 + rng.gen_range(0..7)) % 8;
            let mut got = index.query(&q, &[w1, w2]).unwrap();
            got.sort_unstable();
            assert_eq!(got, brute(&dataset, &q, &[w1, w2]));
        }
    }

    #[test]
    fn kd_strategy_3d_simplex() {
        let dataset = random_dataset(250, 3, 8, 21);
        let index = SpKwIndex::try_build(&dataset, 2).unwrap();
        assert_eq!(index.strategy(), SpStrategy::Kd);
        let simplex = Simplex::new(vec![
            Point::new3(-30.0, -30.0, -30.0),
            Point::new3(40.0, 0.0, 0.0),
            Point::new3(0.0, 40.0, 0.0),
            Point::new3(0.0, 0.0, 40.0),
        ])
        .unwrap();
        let mut got = index.query(&simplex.to_polytope(), &[0, 1]).unwrap();
        got.sort_unstable();
        assert_eq!(got, brute(&dataset, &simplex.to_polytope(), &[0, 1]));
    }

    #[test]
    fn triangle_query_2d() {
        let dataset = random_dataset(300, 2, 6, 31);
        let index = SpKwIndex::try_build(&dataset, 2).unwrap();
        let tri = Simplex::new(vec![
            Point::new2(-15.0, -15.0),
            Point::new2(15.0, -10.0),
            Point::new2(0.0, 18.0),
        ])
        .unwrap();
        let mut got = index.query(&tri.to_polytope(), &[0, 1]).unwrap();
        got.sort_unstable();
        assert_eq!(got, brute(&dataset, &tri.to_polytope(), &[0, 1]));
    }

    #[test]
    fn unconstrained_query_is_pure_keyword_search() {
        let dataset = random_dataset(200, 2, 5, 41);
        let index = SpKwIndex::try_build(&dataset, 2).unwrap();
        let q = ConvexPolytope::default();
        let mut got = index.query(&q, &[0, 2]).unwrap();
        got.sort_unstable();
        assert_eq!(got, brute(&dataset, &q, &[0, 2]));
    }

    #[test]
    fn invalid_input_is_a_typed_error() {
        let dataset = random_dataset(200, 2, 6, 61);
        let index = SpKwIndex::try_build(&dataset, 2).unwrap();
        // Invalid surfaces.
        assert!(matches!(
            SpKwIndex::try_build(&dataset, 1),
            Err(SkqError::InvalidQuery(_))
        ));
        let d3 = random_dataset(50, 3, 4, 63);
        assert!(matches!(
            SpKwIndex::try_build_with_strategy(&d3, 2, SpStrategy::Willard),
            Err(SkqError::InvalidDataset(_))
        ));
        let nan = ConvexPolytope::new(vec![Halfspace::new(&[f64::NAN, 0.0], 1.0)]);
        assert!(matches!(
            index.query(&nan, &[0, 1]),
            Err(SkqError::InvalidQuery(_))
        ));
    }

    #[test]
    fn k3_queries() {
        let dataset = random_dataset(350, 2, 6, 51);
        let index = SpKwIndex::try_build(&dataset, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(52);
        for _ in 0..40 {
            let q = random_halfspaces(&mut rng, 2, 2);
            let mut ws: Vec<u32> = Vec::new();
            while ws.len() < 3 {
                let w = rng.gen_range(0..6);
                if !ws.contains(&w) {
                    ws.push(w);
                }
            }
            let mut got = index.query(&q, &ws).unwrap();
            got.sort_unstable();
            assert_eq!(got, brute(&dataset, &q, &ws));
        }
    }
}

//! Simplex reporting and linear conjunction with keywords (SP-KW,
//! Theorem 12 and Appendix D; LC-KW, Theorem 5).
//!
//! Given a conjunction of `O(1)` halfspaces `Σᵢ cᵢ·x[i] ≤ c_{d+1}` and
//! keywords `w₁, …, w_k`, report the matching objects inside the
//! region. A `d`-simplex is exactly `d + 1` halfspaces, and an LC-KW
//! query is such a conjunction as given. The index is the
//! transformation framework applied to a partition tree, picked by the
//! dimension: in 2D, the Willard ham-sandwich tree (see DESIGN.md §4
//! for the substitution of Chan's optimal partition tree); in higher
//! dimensions, kd cells (the paper notes in §3.5 that the kd-tree
//! yields `O(N^{1−1/max(k,d)} + N^{1−1/k}·OUT^{1/k})` for rectangles;
//! for halfspaces kd cells have no sublinear crossing bound).
//!
//! The paper reduces LC-KW to SP-KW by partitioning the constraint
//! polyhedron into `O(1)` simplices. The framework only needs each
//! cell classified against the query region, and a cell is classified
//! against any halfspace conjunction as easily as against a simplex,
//! so the decomposition is unnecessary: the constraints pass through
//! unchanged, the same `O(1)` factor in one query instead of several.
//!
//! LC-KW also gives a linear-space ORP-KW index: a `d`-rectangle is `2d`
//! linear constraints ([`ConvexPolytope::from_rect`]), which realizes
//! Table 1's "`d ≤ k`, `O(N)` space" row.

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

/// The partitioner the dimension picks: Willard in 2D, kd cells
/// otherwise.
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
    dim: usize,
    k: usize,
}

impl SpKwIndex {
    /// Builds the index for exactly-`k`-keyword queries: on the
    /// Willard partition tree for 2D data, on kd cells otherwise.
    ///
    /// # Errors
    ///
    /// `SkqError::InvalidQuery` if `k` is outside `2..=16`.
    pub fn try_build(dataset: &Dataset, k: usize) -> Result<Self, SkqError> {
        validate::build_k(k)?;
        failpoints::check("sp::build")?;
        let points = dataset.points();
        let docs = Arc::clone(dataset.shared_docs());
        let inner = if dataset.dim() == 2 {
            let weights = (0..dataset.len()).map(|i| dataset.weight(i)).collect();
            let p = WillardPartitioner::new(points.to_vec(), weights);
            Inner::Willard(TransformedIndex::try_build(p, docs, k..=k)?)
        } else {
            let coords = points.iter().flat_map(|p| p.coords()).copied().collect();
            let p = KdPartitioner::new(dataset.dim(), coords, doc_weights(&docs));
            Inner::Kd(TransformedIndex::try_build(p, docs, k..=k)?)
        };
        Ok(Self {
            inner,
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

    /// Index space in 64-bit words: the partitioner's coordinates plus
    /// the framework (cells charged as a constant; the Willard polygons
    /// average `O(1)` vertices because each level adds at most two
    /// clips).
    pub fn space_words(&self) -> usize {
        let point_words = self.len() * self.dim;
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

    /// The number of indexed objects.
    pub(crate) fn len(&self) -> usize {
        match &self.inner {
            Inner::Willard(t) => t.partitioner().coords().len(),
            Inner::Kd(t) => t.partitioner().len(),
        }
    }

    /// Object `o`'s point, read bit for bit from the partitioner's
    /// coordinates: the index keeps no other copy.
    pub(crate) fn point(&self, o: u32) -> Point {
        match &self.inner {
            Inner::Willard(t) => {
                let (x, y) = t.partitioner().coords()[o as usize];
                Point::new2(x, y)
            }
            Inner::Kd(t) => Point::new(t.partitioner().point_coords(o)),
        }
    }

    /// Deep structural validation (DESIGN.md §12): the framework
    /// checks.
    ///
    /// # Errors
    ///
    /// The first violated invariant, by name.
    pub fn validate(&self) -> Result<(), crate::invariants::InvariantViolation> {
        match &self.inner {
            Inner::Willard(t) => t.validate(),
            Inner::Kd(t) => t.validate(),
        }
    }
}

impl KwQuery for SpKwIndex {
    /// A conjunction of halfspaces `Σᵢ cᵢ·x[i] ≤ c_{d+1}`; a simplex is
    /// exactly `d + 1` of them
    /// ([`Simplex::to_polytope`](skq_geom::Simplex::to_polytope)) and a
    /// rectangle `2d` ([`ConvexPolytope::from_rect`]).
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
        let accept = |o: u32| q.contains(&self.point(o));
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
    fn both_partitioners_share_the_dataset_documents() {
        for dim in [2, 3] {
            let dataset = random_dataset(300, dim, 8, 61);
            let index = SpKwIndex::try_build(&dataset, 2).unwrap();
            for i in 0..dataset.len() {
                let doc = match &index.inner {
                    Inner::Willard(t) => t.doc(i),
                    Inner::Kd(t) => t.doc(i),
                };
                assert!(
                    std::ptr::eq(doc, dataset.doc(i)),
                    "{dim}D: doc {i} was copied"
                );
            }
        }
    }

    #[test]
    fn willard_matches_bruteforce() {
        let dataset = random_dataset(400, 2, 10, 1);
        let index = SpKwIndex::try_build(&dataset, 2).unwrap();
        assert!(matches!(index.inner, Inner::Willard(_)));
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
    fn kd_cells_match_bruteforce_3d() {
        let dataset = random_dataset(300, 3, 8, 11);
        let index = SpKwIndex::try_build(&dataset, 2).unwrap();
        assert!(matches!(index.inner, Inner::Kd(_)));
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..60 {
            let q = random_halfspaces(&mut rng, 3, 2);
            let w1 = rng.gen_range(0..8);
            let w2 = (w1 + 1 + rng.gen_range(0..7)) % 8;
            let mut got = index.query(&q, &[w1, w2]).unwrap();
            got.sort_unstable();
            assert_eq!(got, brute(&dataset, &q, &[w1, w2]));
        }
    }

    #[test]
    fn kd_cells_3d_simplex() {
        let dataset = random_dataset(250, 3, 8, 21);
        let index = SpKwIndex::try_build(&dataset, 2).unwrap();
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

    /// The paper's introductory example: hotels with price, rating, and
    /// feature tags; condition C2 is `c₁·price + c₂·(10 − rating) ≤ c₃`.
    #[test]
    fn intro_example_condition_c2() {
        const POOL: u32 = 0;
        const PARKING: u32 = 1;
        const PETS: u32 = 2;
        let hotels = Dataset::from_parts(vec![
            (Point::new2(100.0, 9.0), vec![POOL, PARKING, PETS]),
            (Point::new2(250.0, 9.5), vec![POOL, PARKING, PETS]),
            (Point::new2(120.0, 6.0), vec![POOL, PARKING, PETS]),
            (Point::new2(110.0, 8.5), vec![POOL]),
        ]);
        let index = SpKwIndex::try_build(&hotels, 3).unwrap();
        // price + 50·(10 − rating) ≤ 200  ⇔  price − 50·rating ≤ −300.
        let c2 = ConvexPolytope::new(vec![Halfspace::new(&[1.0, -50.0], -300.0)]);
        let mut got = index.query(&c2, &[POOL, PARKING, PETS]).unwrap();
        got.sort_unstable();
        // Hotel 0: 100 − 450 = −350 ✓; hotel 1: 250 − 475 = −225 ✗;
        // hotel 2: 120 − 300 = −180 ✗; hotel 3: keywords missing.
        assert_eq!(got, vec![0]);
    }

    /// A rectangle as `2d` linear constraints answers like ORP-KW.
    #[test]
    fn rect_as_constraints_matches_orp() {
        use crate::orp::OrpKwIndex;
        use skq_geom::Rect;
        let dataset = random_dataset(300, 2, 8, 7);
        let sp = SpKwIndex::try_build(&dataset, 2).unwrap();
        let orp = OrpKwIndex::try_build(&dataset, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..40 {
            let x0: f64 = rng.gen_range(-25.0..25.0);
            let x1: f64 = rng.gen_range(-25.0..25.0);
            let y0: f64 = rng.gen_range(-25.0..25.0);
            let y1: f64 = rng.gen_range(-25.0..25.0);
            let q = Rect::new(&[x0.min(x1), y0.min(y1)], &[x0.max(x1), y0.max(y1)]);
            let w1 = rng.gen_range(0..8);
            let w2 = (w1 + 1 + rng.gen_range(0..7)) % 8;
            let mut a = sp.query(&ConvexPolytope::from_rect(&q), &[w1, w2]).unwrap();
            let mut b = orp.query(&q, &[w1, w2]).unwrap();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn higher_dimensional_constraints() {
        let dataset = random_dataset(200, 4, 6, 17);
        let index = SpKwIndex::try_build(&dataset, 2).unwrap();
        let q = ConvexPolytope::new(vec![
            Halfspace::new(&[1.0, 1.0, 1.0, 1.0], 5.0),
            Halfspace::new(&[-1.0, 0.5, 0.0, 0.0], 3.0),
        ]);
        let mut got = index.query(&q, &[0, 1]).unwrap();
        got.sort_unstable();
        assert_eq!(got, brute(&dataset, &q, &[0, 1]));
    }
}

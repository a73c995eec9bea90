//! Spherical range reporting with keywords (SRP-KW; Corollary 6).
//!
//! Given a Euclidean ball and `k` keywords, report the matching objects
//! inside the ball ("boolean range query with keywords"). Corollary 6
//! lifts each point `p ∈ R^d` to `(p, |p|²) ∈ R^{d+1}`, turning the ball
//! into a single halfspace — a 1-constraint LC-KW query on the lifted
//! set, answered by the partition-tree index.

use std::ops::ControlFlow;

use skq_geom::{lift_point, Ball, ConvexPolytope, Halfspace, Point};
use skq_invidx::Keyword;

use crate::dataset::Dataset;
use crate::error::{validate, SkqError};
use crate::failpoints;
use crate::query::KwQuery;
use crate::sink::ResultSink;
use crate::sp::SpKwIndex;
use crate::stats::QueryStats;
use crate::telemetry;

/// The SRP-KW index.
///
/// # Example
///
/// ```
/// use skq_core::dataset::Dataset;
/// use skq_core::query::KwQuery;
/// use skq_core::srp::SrpKwIndex;
/// use skq_geom::{Ball, Point};
///
/// let data = Dataset::from_parts(vec![
///     (Point::new2(0.0, 0.0), vec![0, 1]),
///     (Point::new2(3.0, 4.0), vec![0, 1]), // distance exactly 5
///     (Point::new2(9.0, 9.0), vec![0, 1]),
/// ]);
/// let index = SrpKwIndex::try_build(&data, 2)?;
/// let ball = Ball::new(Point::new2(0.0, 0.0), 5.0);
/// let mut hits = index.query(&ball, &[0, 1])?;
/// hits.sort_unstable();
/// assert_eq!(hits, vec![0, 1]);
/// # Ok::<(), skq_core::SkqError>(())
/// ```
pub struct SrpKwIndex {
    /// SP-KW index over the lifted `(d+1)`-dimensional point set.
    sp: SpKwIndex,
    dim: usize,
}

impl SrpKwIndex {
    /// Builds the index for exactly-`k`-keyword queries.
    ///
    /// # Errors
    ///
    /// `SkqError::InvalidQuery` if `k` is outside `2..=16`;
    /// `SkqError::InvalidDataset` if the lifted dimension `d + 1`
    /// exceeds the supported 8 dimensions.
    pub fn try_build(dataset: &Dataset, k: usize) -> Result<Self, SkqError> {
        validate::build_k(k)?;
        failpoints::check("srp::build")?;
        let _span = skq_obs::Span::enter("srp.build");
        let start = std::time::Instant::now();
        let dim = dataset.dim();
        if dim + 1 > skq_geom::MAX_DIM {
            return Err(SkqError::InvalidDataset(format!(
                "lifted dimension {} exceeds the supported {} dimensions",
                dim + 1,
                skq_geom::MAX_DIM
            )));
        }
        let lifted = dataset.map_points(|_, p| lift_point(p));
        let index = Self {
            sp: SpKwIndex::try_build(&lifted, k)?,
            dim,
        };
        let summaries = index.node_summaries();
        telemetry::record_build(
            "srp_kw",
            start.elapsed(),
            summaries.len() as u64,
            summaries.iter().map(|&(_, _, p, _)| p as u64).sum(),
            (index.space_words() * 8) as u64,
        );
        Ok(index)
    }

    /// The point dimensionality `d` (queries are `d`-dimensional balls).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The number of query keywords the index was built for.
    pub fn k(&self) -> usize {
        self.sp.k()
    }

    /// Streaming query by *squared* radius — exact for integer
    /// coordinates, and the primitive the L2-NN binary search
    /// (Corollary 7) probes. Unchecked, like
    /// [`KwQuery::query_sink`].
    pub(crate) fn query_sq_sink<S: ResultSink>(
        &self,
        center: &Point,
        radius_sq: f64,
        keywords: &[Keyword],
        sink: &mut S,
        stats: &mut QueryStats,
    ) -> ControlFlow<()> {
        assert_eq!(center.dim(), self.dim, "query dimension mismatch");
        assert!(radius_sq >= 0.0);
        let hs = lifted_halfspace(center, radius_sq);
        self.sp
            .query_sink(&ConvexPolytope::from_halfspace(hs), keywords, sink, stats)
    }

    /// The number of indexed objects.
    pub(crate) fn len(&self) -> usize {
        self.sp.len()
    }

    /// Object `o`'s point: the first `d` coordinates of its lifted
    /// image, which [`lift_point`] copies bit for bit.
    pub(crate) fn point(&self, o: u32) -> Point {
        Point::new(&self.sp.point(o).coords()[..self.dim])
    }

    /// Index space in 64-bit words.
    pub fn space_words(&self) -> usize {
        self.sp.space_words()
    }

    /// `(level, weight, pivots, large)` per node of the lifted
    /// partition tree.
    pub fn node_summaries(&self) -> Vec<(u32, u64, usize, usize)> {
        self.sp.node_summaries()
    }

    /// Deep structural validation (DESIGN.md §12): re-derives the
    /// Lemma 10 lifting — every stored point's last
    /// coordinate must equal the squared norm of its first `d` — then
    /// recurses into the inner SP-KW index.
    ///
    /// # Errors
    ///
    /// The first violated invariant, by name.
    pub fn validate(&self) -> Result<(), crate::invariants::InvariantViolation> {
        use crate::invariants::InvariantViolation as V;
        if self.sp.dim() != self.dim + 1 {
            return Err(V::new(
                "srp::lifting",
                format!(
                    "inner index is {}D, expected {} for {}D data",
                    self.sp.dim(),
                    self.dim + 1,
                    self.dim
                ),
            ));
        }
        for i in 0..self.sp.len() {
            let p = self.sp.point(i as u32);
            let norm: f64 = (0..self.dim).map(|j| p.get(j) * p.get(j)).sum();
            let stored = p.get(self.dim);
            if (stored - norm).abs() > 1e-9 * norm.max(1.0) {
                return Err(V::new(
                    "srp::lifting",
                    format!("point {i}: lifted coordinate {stored} ≠ |p|² = {norm}"),
                ));
            }
        }
        self.sp.validate()
    }
}

impl KwQuery for SrpKwIndex {
    type Shape = Ball;

    fn check(&self, ball: &Ball, keywords: &[Keyword]) -> Result<(), SkqError> {
        validate::point_query(ball.center(), self.dim)?;
        if !ball.radius().is_finite() {
            return Err(SkqError::InvalidQuery(format!(
                "ball radius must be finite, got {}",
                ball.radius()
            )));
        }
        validate::distinct_keywords(keywords, self.k())
    }

    fn query_sink<S: ResultSink>(
        &self,
        ball: &Ball,
        keywords: &[Keyword],
        sink: &mut S,
        stats: &mut QueryStats,
    ) -> ControlFlow<()> {
        let radius_sq = ball.radius() * ball.radius();
        self.query_sq_sink(ball.center(), radius_sq, keywords, sink, stats)
    }
}

/// The lifted halfspace for squared radius `r²`:
/// `(−2c, 1) · p' ≤ r² − |c|²`.
fn lifted_halfspace(center: &Point, radius_sq: f64) -> Halfspace {
    let d = center.dim();
    let mut coeffs = Vec::with_capacity(d + 1);
    for i in 0..d {
        coeffs.push(-2.0 * center.get(i));
    }
    coeffs.push(1.0);
    Halfspace::new(&coeffs, radius_sq - center.norm_sq())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Integer coordinates keep the lifted arithmetic exact, matching
    /// the paper's `N^d` (integer-grid) setting for distance problems.
    fn integer_dataset(n: usize, dim: usize, vocab: u32, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        Dataset::from_parts(
            (0..n)
                .map(|_| {
                    let coords: Vec<f64> =
                        (0..dim).map(|_| rng.gen_range(-40..40) as f64).collect();
                    let doc: Vec<Keyword> = (0..rng.gen_range(1..5))
                        .map(|_| rng.gen_range(0..vocab))
                        .collect();
                    (Point::new(&coords), doc)
                })
                .collect(),
        )
    }

    fn brute(dataset: &Dataset, ball: &Ball, kws: &[Keyword]) -> Vec<u32> {
        (0..dataset.len() as u32)
            .filter(|&i| {
                dataset.doc(i as usize).contains_all(kws)
                    && ball.contains(dataset.point(i as usize))
            })
            .collect()
    }

    #[test]
    fn matches_bruteforce_1d() {
        let dataset = integer_dataset(250, 1, 8, 1);
        let index = SrpKwIndex::try_build(&dataset, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..60 {
            let ball = Ball::new(
                Point::new1(rng.gen_range(-45..45) as f64),
                rng.gen_range(0..30) as f64,
            );
            let w1 = rng.gen_range(0..8);
            let w2 = (w1 + 1 + rng.gen_range(0..7)) % 8;
            let mut got = index.query(&ball, &[w1, w2]).unwrap();
            got.sort_unstable();
            assert_eq!(got, brute(&dataset, &ball, &[w1, w2]));
        }
    }

    #[test]
    fn matches_bruteforce_2d() {
        let dataset = integer_dataset(300, 2, 10, 11);
        let index = SrpKwIndex::try_build(&dataset, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..60 {
            let ball = Ball::new(
                Point::new2(rng.gen_range(-45..45) as f64, rng.gen_range(-45..45) as f64),
                rng.gen_range(0..40) as f64,
            );
            let w1 = rng.gen_range(0..10);
            let w2 = (w1 + 1 + rng.gen_range(0..9)) % 10;
            let mut got = index.query(&ball, &[w1, w2]).unwrap();
            got.sort_unstable();
            assert_eq!(got, brute(&dataset, &ball, &[w1, w2]));
        }
    }

    #[test]
    fn matches_bruteforce_3d_k3() {
        let dataset = integer_dataset(250, 3, 6, 21);
        let index = SrpKwIndex::try_build(&dataset, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..40 {
            let ball = Ball::new(
                Point::new3(
                    rng.gen_range(-45..45) as f64,
                    rng.gen_range(-45..45) as f64,
                    rng.gen_range(-45..45) as f64,
                ),
                rng.gen_range(0..50) as f64,
            );
            let mut ws: Vec<u32> = Vec::new();
            while ws.len() < 3 {
                let w = rng.gen_range(0..6);
                if !ws.contains(&w) {
                    ws.push(w);
                }
            }
            let mut got = index.query(&ball, &ws).unwrap();
            got.sort_unstable();
            assert_eq!(got, brute(&dataset, &ball, &ws));
        }
    }

    #[test]
    fn boundary_points_included() {
        let dataset = Dataset::from_parts(vec![
            (Point::new2(3.0, 4.0), vec![0, 1]), // distance exactly 5
            (Point::new2(3.0, 5.0), vec![0, 1]),
            (Point::new2(0.0, 0.0), vec![0, 1]),
        ]);
        let index = SrpKwIndex::try_build(&dataset, 2).unwrap();
        let ball = Ball::new(Point::new2(0.0, 0.0), 5.0);
        let mut got = index.query(&ball, &[0, 1]).unwrap();
        got.sort_unstable();
        assert_eq!(got, vec![0, 2]);
    }

    #[test]
    fn invalid_input_is_a_typed_error() {
        let dataset = integer_dataset(150, 2, 6, 71);
        let index = SrpKwIndex::try_build(&dataset, 2).unwrap();
        let nan_center = Ball::new(Point::new2(f64::NAN, 0.0), 1.0);
        assert!(matches!(
            index.query(&nan_center, &[0, 1]),
            Err(SkqError::InvalidQuery(_))
        ));
        let infinite = Ball::new(Point::new2(0.0, 0.0), f64::INFINITY);
        assert!(matches!(
            index.query(&infinite, &[0, 1]),
            Err(SkqError::InvalidQuery(_))
        ));
        assert!(matches!(
            index.query(&Ball::new(Point::new1(0.0), 1.0), &[0, 1]),
            Err(SkqError::InvalidQuery(_))
        ));
        assert!(matches!(
            SrpKwIndex::try_build(&dataset, 1),
            Err(SkqError::InvalidQuery(_))
        ));
        let d8 = Dataset::from_parts(vec![(Point::new(&[0.0; 8]), vec![0, 1])]);
        assert!(matches!(
            SrpKwIndex::try_build(&d8, 2),
            Err(SkqError::InvalidDataset(_))
        ));
    }

    #[test]
    fn zero_radius_ball() {
        let dataset = Dataset::from_parts(vec![
            (Point::new2(1.0, 1.0), vec![0, 1]),
            (Point::new2(2.0, 2.0), vec![0, 1]),
        ]);
        let index = SrpKwIndex::try_build(&dataset, 2).unwrap();
        assert_eq!(
            index
                .query(&Ball::new(Point::new2(1.0, 1.0), 0.0), &[0, 1])
                .unwrap(),
            vec![0]
        );
    }
}

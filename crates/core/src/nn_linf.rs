//! `L∞` nearest neighbours with keywords (L∞NN-KW; Corollary 4).
//!
//! Given a point `q`, an integer `t ≥ 1`, and `k` keywords, return `t`
//! matching objects closest to `q` under the `L∞` distance. Corollary
//! 4's algorithm: the `L∞`-ball `B(q, r)` is a `d`-rectangle, so an
//! ORP-KW query with output limit `t` decides "are there ≥ t matches
//! within radius `r`?" in `O(N^{1−1/k}·t^{1/k})` time; binary-searching
//! `r` over the `O(N)` *candidate radii* — per-dimension coordinate
//! differences `|q[i] − e[i]|`, one of which must be the `t`-th NN
//! distance — takes `O(log N)` such tests.

use skq_geom::{Point, Rect};
use skq_invidx::Keyword;

use crate::dataset::Dataset;
use crate::error::{validate, SkqError};
use crate::failpoints;
use crate::nn::{self, RadiusSearch};
use crate::orp::OrpKwIndex;
use crate::query::KwQuery;
use crate::sink::ResultSink;
use crate::stats::QueryStats;
use crate::telemetry;

/// The L∞NN-KW index.
///
/// # Example
///
/// ```
/// use skq_core::dataset::Dataset;
/// use skq_core::nn_linf::LinfNnIndex;
/// use skq_geom::Point;
///
/// let data = Dataset::from_parts(vec![
///     (Point::new2(1.0, 0.0), vec![0, 1]),
///     (Point::new2(5.0, 0.0), vec![0, 1]),
///     (Point::new2(2.0, 0.0), vec![0]), // missing keyword 1
/// ]);
/// let index = LinfNnIndex::try_build(&data, 2)?;
/// // Nearest matching object to the origin.
/// let (nearest, _stats) = index.query(&Point::new2(0.0, 0.0), 1, &[0, 1])?;
/// assert_eq!(nearest, vec![0]);
/// # Ok::<(), skq_core::SkqError>(())
/// ```
pub struct LinfNnIndex {
    /// The ORP-KW engine behind the threshold queries (Theorems 1–2).
    orp: OrpKwIndex,
    /// Per-dimension sorted coordinates — the paper's "d binary search
    /// trees, each created on the coordinates of a different dimension",
    /// used to select candidate radii by rank.
    sorted_coords: Vec<Vec<f64>>,
}

impl LinfNnIndex {
    /// Builds the index for exactly-`k`-keyword queries (ORP-KW
    /// threshold engine — Corollary 4 as stated).
    ///
    /// # Errors
    ///
    /// `SkqError::InvalidQuery` if `k` is outside `2..=16`.
    pub fn try_build(dataset: &Dataset, k: usize) -> Result<Self, SkqError> {
        failpoints::check("nn_linf::build")?;
        let orp = OrpKwIndex::try_build(dataset, k)?;
        let _span = skq_obs::Span::enter("nn_linf.build");
        let start = std::time::Instant::now();
        let index = Self {
            sorted_coords: sorted_columns(&orp),
            orp,
        };
        let (nodes, pivots) = index
            .orp
            .kd_node_summaries(index.orp.k())
            .map(|s| (s.len() as u64, s.iter().map(|&(_, _, p, _)| p as u64).sum()))
            .unwrap_or((0, 0));
        telemetry::record_build(
            "nn_linf",
            start.elapsed(),
            nodes,
            pivots,
            (index.space_words() * 8) as u64,
        );
        Ok(index)
    }

    /// The number of query keywords the index was built for.
    pub fn k(&self) -> usize {
        self.orp.k()
    }

    /// Returns up to `t ≥ 1` matching objects nearest to `q` under
    /// `L∞` distance, sorted by `(distance, id)`, with aggregate
    /// statistics over all the internal threshold queries. Fewer than
    /// `t` are returned only when fewer objects match the keywords at
    /// all.
    ///
    /// # Errors
    ///
    /// `SkqError::InvalidQuery` on a dimension mismatch, a non-finite
    /// query point, `t = 0`, or a keyword set that is not exactly `k`
    /// distinct keywords.
    pub fn query(
        &self,
        q: &Point,
        t: usize,
        keywords: &[Keyword],
    ) -> Result<(Vec<u32>, QueryStats), SkqError> {
        validate::point_query(q, self.orp.dim())?;
        validate::result_count(t)?;
        validate::distinct_keywords(keywords, self.k())?;
        let mut stats = QueryStats::new();
        let search = LinfSearch {
            index: self,
            q,
            keywords,
        };
        let radii = (self.orp.dim() * self.orp.len()) as u64;
        let out = nn::nearest(radii, t, &search, &mut stats);
        Ok((out, stats))
    }

    /// The `L∞`-ball `B(q, r)` as the rectangle that selects exactly the
    /// objects within distance `r` of `q` — each dimension's
    /// [`run_within`] spans it — or `None` when no object is within `r`.
    /// The candidate radii are counted over the same runs, so the ball
    /// and the radii agree to the last bit.
    fn ball(&self, q: &Point, r: f64) -> Option<Rect> {
        let mut lo = [0.0; skq_geom::MAX_DIM];
        let mut hi = [0.0; skq_geom::MAX_DIM];
        for (d, col) in self.sorted_coords.iter().enumerate() {
            let run = &col[run_within(col, q.get(d), r)];
            (lo[d], hi[d]) = (*run.first()?, *run.last()?);
        }
        Some(Rect::new(&lo[..self.orp.dim()], &hi[..self.orp.dim()]))
    }

    /// The `rank`-th smallest candidate radius (0-based), i.e. the
    /// `rank`-th smallest value of `|q[i] − x|` over all dimensions `i`
    /// and stored coordinates `x`. Binary search over the (monotone)
    /// bit representation of non-negative `f64`s, counting with the
    /// same `|q[i] − x|` arithmetic used everywhere else, so the result
    /// is an exactly attained candidate value.
    fn candidate_by_rank(&self, q: &Point, rank: usize) -> f64 {
        let mut lo_bits = 0u64;
        let mut hi_bits = f64::INFINITY.to_bits();
        while lo_bits < hi_bits {
            let mid = lo_bits + (hi_bits - lo_bits) / 2;
            let r = f64::from_bits(mid);
            if self.count_candidates_le(q, r) > rank {
                hi_bits = mid;
            } else {
                lo_bits = mid + 1;
            }
        }
        f64::from_bits(lo_bits)
    }

    /// Number of candidate radii `≤ r`.
    fn count_candidates_le(&self, q: &Point, r: f64) -> usize {
        (self.sorted_coords.iter().enumerate())
            .map(|(d, col)| run_within(col, q.get(d), r).len())
            .sum()
    }

    /// Index space in 64-bit words.
    pub fn space_words(&self) -> usize {
        self.orp.space_words() + self.orp.dim() * self.orp.len()
    }

    /// Deep structural validation (DESIGN.md §12): the candidate-radius
    /// columns must be the engine's coordinates, sorted (the
    /// binary-search step of Corollary 4 silently returns wrong
    /// neighbors otherwise), and the rectangle engine must itself
    /// validate.
    ///
    /// # Errors
    ///
    /// The first violated invariant, by name.
    pub fn validate(&self) -> Result<(), crate::invariants::InvariantViolation> {
        if self.sorted_coords != sorted_columns(&self.orp) {
            return Err(crate::invariants::InvariantViolation::new(
                "nn_linf::sorted_coords",
                "the candidate-radius columns are not the engine's coordinates, sorted",
            ));
        }
        self.orp.validate()
    }
}

/// Each dimension's coordinates over the engine's points, sorted.
fn sorted_columns(orp: &OrpKwIndex) -> Vec<Vec<f64>> {
    (0..orp.dim())
        .map(|d| {
            let mut col: Vec<f64> = (0..orp.len()).map(|i| orp.point(i).get(d)).collect();
            col.sort_by(f64::total_cmp);
            col
        })
        .collect()
}

/// The positions of the sorted column `col` whose values `x` satisfy
/// `|qc − x| ≤ r`. They form one run: below `qc` the rounded distance
/// `qc − x` falls as `x` grows, and at or above `qc` the distance
/// `x − qc` grows with `x`.
fn run_within(col: &[f64], qc: f64, r: f64) -> std::ops::Range<usize> {
    let split = col.partition_point(|&x| x < qc);
    let first = col[..split].partition_point(|&x| (qc - x).abs() > r);
    let end = split + col[split..].partition_point(|&x| (qc - x).abs() <= r);
    first..end
}

/// One L∞NN-KW query: candidate radius `i` is the `i`-th smallest
/// `|q[j] − x|` over every dimension `j` and stored coordinate `x`.
struct LinfSearch<'a> {
    index: &'a LinfNnIndex,
    q: &'a Point,
    keywords: &'a [Keyword],
}

impl RadiusSearch for LinfSearch<'_> {
    fn within<S: ResultSink>(&self, i: u64, sink: &mut S, stats: &mut QueryStats) {
        let r = self.index.candidate_by_rank(self.q, i as usize);
        if let Some(ball) = self.index.ball(self.q, r) {
            let _ = self.index.orp.query_sink(&ball, self.keywords, sink, stats);
        }
    }

    fn distance(&self, o: u32) -> f64 {
        self.index.orp.point(o as usize).linf(self.q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::FullScan;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_dataset(n: usize, dim: usize, vocab: u32, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        Dataset::from_parts(
            (0..n)
                .map(|_| {
                    let coords: Vec<f64> = (0..dim).map(|_| rng.gen_range(-50.0..50.0)).collect();
                    let doc: Vec<Keyword> = (0..rng.gen_range(1..5))
                        .map(|_| rng.gen_range(0..vocab))
                        .collect();
                    (Point::new(&coords), doc)
                })
                .collect(),
        )
    }

    #[test]
    fn matches_bruteforce_2d() {
        let dataset = random_dataset(300, 2, 8, 1);
        let index = LinfNnIndex::try_build(&dataset, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..40 {
            let q = Point::new2(rng.gen_range(-60.0..60.0), rng.gen_range(-60.0..60.0));
            let t = rng.gen_range(1..8);
            let w1 = rng.gen_range(0..8);
            let w2 = (w1 + 1 + rng.gen_range(0..7)) % 8;
            let (got, _) = index.query(&q, t, &[w1, w2]).unwrap();
            let expected = FullScan::new(&dataset).nn_linf(&q, t, &[w1, w2]);
            // Sets of distances must agree (ties at the boundary may pick
            // different ids only if distances tie — with the (dist, id)
            // order both sides are deterministic).
            assert_eq!(got, expected, "q={q:?} t={t} kws=[{w1},{w2}]");
        }
    }

    #[test]
    fn matches_bruteforce_3d() {
        let dataset = random_dataset(200, 3, 6, 11);
        let index = LinfNnIndex::try_build(&dataset, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..25 {
            let q = Point::new3(
                rng.gen_range(-60.0..60.0),
                rng.gen_range(-60.0..60.0),
                rng.gen_range(-60.0..60.0),
            );
            let t = rng.gen_range(1..6);
            let w1 = rng.gen_range(0..6);
            let w2 = (w1 + 1 + rng.gen_range(0..5)) % 6;
            assert_eq!(
                index.query(&q, t, &[w1, w2]).unwrap().0,
                FullScan::new(&dataset).nn_linf(&q, t, &[w1, w2])
            );
        }
    }

    #[test]
    fn t_exceeding_matches_returns_all() {
        let dataset = Dataset::from_parts(vec![
            (Point::new2(0.0, 0.0), vec![0, 1]),
            (Point::new2(1.0, 0.0), vec![0, 1]),
            (Point::new2(5.0, 0.0), vec![0]),
        ]);
        let index = LinfNnIndex::try_build(&dataset, 2).unwrap();
        let (got, _) = index.query(&Point::new2(0.0, 0.0), 10, &[0, 1]).unwrap();
        assert_eq!(got, vec![0, 1]);
    }

    #[test]
    fn invalid_input_is_a_typed_error() {
        let dataset = random_dataset(120, 2, 6, 61);
        let index = LinfNnIndex::try_build(&dataset, 2).unwrap();
        let q = Point::new2(1.0, -3.0);
        for (p, t, kws) in [
            (Point::new1(0.0), 1, vec![0, 1]),
            (Point::new2(f64::NAN, 0.0), 1, vec![0, 1]),
            (q, 1, vec![0]),
            (q, 0, vec![0, 1]),
        ] {
            assert!(matches!(
                index.query(&p, t, &kws),
                Err(SkqError::InvalidQuery(_))
            ));
        }
        assert!(matches!(
            LinfNnIndex::try_build(&dataset, 17),
            Err(SkqError::InvalidQuery(_))
        ));
    }

    #[test]
    fn exact_tie_distances() {
        // Two objects at identical distance; (dist, id) order breaks it.
        let dataset = Dataset::from_parts(vec![
            (Point::new2(2.0, 0.0), vec![0, 1]),
            (Point::new2(-2.0, 0.0), vec![0, 1]),
            (Point::new2(0.0, 7.0), vec![0, 1]),
        ]);
        let index = LinfNnIndex::try_build(&dataset, 2).unwrap();
        let origin = Point::new2(0.0, 0.0);
        assert_eq!(index.query(&origin, 1, &[0, 1]).unwrap().0, vec![0]);
        assert_eq!(index.query(&origin, 2, &[0, 1]).unwrap().0, vec![0, 1]);
        // Mirrored: the lower id now lies below the query.
        let flipped = Dataset::from_parts(vec![
            (Point::new2(-2.0, 0.0), vec![0, 1]),
            (Point::new2(2.0, 0.0), vec![0, 1]),
        ]);
        let index = LinfNnIndex::try_build(&flipped, 2).unwrap();
        assert_eq!(index.query(&origin, 1, &[0, 1]).unwrap().0, vec![0]);
    }

    #[test]
    fn ball_reaches_objects_past_a_rounded_bound() {
        // |0.1 − (−0.4)| rounds to exactly 0.5, but −0.4 + 0.5 rounds
        // to below 0.1: a ball bounded by q ± r would miss the object.
        let dataset = Dataset::from_parts(vec![(Point::new1(0.1), vec![0, 1])]);
        let index = LinfNnIndex::try_build(&dataset, 2).unwrap();
        let (got, _) = index.query(&Point::new1(-0.4), 1, &[0, 1]).unwrap();
        assert_eq!(got, vec![0]);
    }

    #[test]
    fn scrambled_radius_column_names_sorted_coords() {
        let dataset = random_dataset(80, 2, 4, 71);
        let mut index = LinfNnIndex::try_build(&dataset, 2).unwrap();
        index.validate().unwrap();
        // Corrupt the rank structure: swap the extremes of one column.
        let last = index.sorted_coords[1].len() - 1;
        index.sorted_coords[1].swap(0, last);
        let err = index.validate().unwrap_err();
        assert_eq!(err.invariant(), "nn_linf::sorted_coords");
    }

    #[test]
    fn candidate_rank_selection_is_exact() {
        let dataset = random_dataset(60, 2, 4, 31);
        let index = LinfNnIndex::try_build(&dataset, 2).unwrap();
        let q = Point::new2(3.25, -7.5);
        // All candidate radii, brute force.
        let mut cands: Vec<f64> = Vec::new();
        for d in 0..2 {
            for p in dataset.points() {
                cands.push((q.get(d) - p.get(d)).abs());
            }
        }
        cands.sort_by(f64::total_cmp);
        for rank in [0, 1, 17, 59, cands.len() - 1] {
            assert_eq!(
                index.candidate_by_rank(&q, rank).to_bits(),
                cands[rank].to_bits(),
                "rank {rank}"
            );
        }
    }
}

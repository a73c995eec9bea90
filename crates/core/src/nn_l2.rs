//! `L2` nearest neighbours with keywords (L2NN-KW; Corollary 7).
//!
//! Given a point `q ∈ N^d` (integer coordinates, as the paper's problem
//! statement requires), an integer `t ≥ 1`, and `k` keywords, return
//! `t` matching objects closest to `q` in Euclidean distance. Corollary
//! 7's algorithm: squared distances between integer points take `N^O(1)`
//! integer values, so binary search over the squared radius — with an
//! early-terminating SRP-KW threshold query per probe — finds the
//! minimal ball holding `t` matches in `O(log N)` probes.

use skq_geom::Point;
use skq_invidx::Keyword;

use crate::dataset::Dataset;
use crate::error::{validate, SkqError};
use crate::failpoints;
use crate::nn::{self, RadiusSearch};
use crate::sink::ResultSink;
use crate::srp::SrpKwIndex;
use crate::stats::QueryStats;

/// The L2NN-KW index.
///
/// # Example
///
/// ```
/// use skq_core::dataset::Dataset;
/// use skq_core::nn_l2::L2NnIndex;
/// use skq_geom::Point;
///
/// // Integer coordinates, as Corollary 7 requires.
/// let data = Dataset::from_parts(vec![
///     (Point::new2(3.0, 4.0), vec![0, 1]),
///     (Point::new2(6.0, 8.0), vec![0, 1]),
/// ]);
/// let index = L2NnIndex::try_build(&data, 2)?;
/// let (nearest, _stats) = index.query(&Point::new2(0.0, 0.0), 1, &[0, 1])?;
/// assert_eq!(nearest, vec![0]);
/// # Ok::<(), skq_core::SkqError>(())
/// ```
pub struct L2NnIndex {
    srp: SrpKwIndex,
    /// Per-dimension coordinate extremes, for the initial radius bound.
    extremes: Vec<(f64, f64)>,
}

impl L2NnIndex {
    /// Builds the index for exactly-`k`-keyword queries. Coordinates
    /// must be integers of magnitude at most `2^25` — the bound under
    /// which all squared distances are exact in `f64` (the paper's
    /// model: coordinates are `O(log N)`-bit integers).
    ///
    /// # Errors
    ///
    /// `SkqError::InvalidDataset` on non-integer or oversized
    /// coordinates; `SkqError::InvalidQuery` if `k` is outside `2..=16`.
    pub fn try_build(dataset: &Dataset, k: usize) -> Result<Self, SkqError> {
        validate::build_k(k)?;
        failpoints::check("nn_l2::build")?;
        for p in dataset.points() {
            for &c in p.coords() {
                if c.fract() != 0.0 || c.abs() > (1 << 25) as f64 {
                    return Err(SkqError::InvalidDataset(format!(
                        "L2NN-KW requires integer coordinates with |c| <= 2^25, got {c}"
                    )));
                }
            }
        }
        let srp = SrpKwIndex::try_build(dataset, k)?;
        Ok(Self {
            extremes: extremes(&srp),
            srp,
        })
    }

    /// The number of query keywords the index was built for.
    pub fn k(&self) -> usize {
        self.srp.k()
    }

    /// Returns up to `t ≥ 1` matching objects nearest to `q` in `L2`
    /// distance, sorted by `(distance, id)`, with aggregate statistics
    /// over the internal threshold probes. Fewer than `t` are returned
    /// only when fewer objects match the keywords at all.
    ///
    /// # Errors
    ///
    /// `SkqError::InvalidQuery` on a dimension mismatch, non-integer or
    /// oversized query coordinates, `t = 0`, or a keyword set that is
    /// not exactly `k` distinct keywords.
    pub fn query(
        &self,
        q: &Point,
        t: usize,
        keywords: &[Keyword],
    ) -> Result<(Vec<u32>, QueryStats), SkqError> {
        validate::point_query(q, self.srp.dim())?;
        for &c in q.coords() {
            if c.fract() != 0.0 || c.abs() > (1 << 25) as f64 {
                return Err(SkqError::InvalidQuery(format!(
                    "query coordinates must be integers with |c| <= 2^25, got {c}"
                )));
            }
        }
        validate::result_count(t)?;
        validate::distinct_keywords(keywords, self.k())?;
        let mut stats = QueryStats::new();

        // Max possible squared distance to any stored point: exact
        // integer arithmetic in u64.
        let max_sq: u64 = (0..self.srp.dim())
            .map(|d| {
                let qc = q.get(d) as i64;
                let (lo, hi) = self.extremes[d];
                let a = (qc - lo as i64).unsigned_abs();
                let b = (qc - hi as i64).unsigned_abs();
                let m = a.max(b);
                m * m
            })
            .sum();

        let search = L2Search {
            srp: &self.srp,
            q,
            keywords,
        };
        let out = nn::nearest(max_sq + 1, t, &search, &mut stats);
        Ok((out, stats))
    }

    /// Index space in 64-bit words.
    pub fn space_words(&self) -> usize {
        self.srp.space_words()
    }

    /// Deep structural validation (DESIGN.md §12): the per-dimension
    /// extremes (the initial radius bound) must be the
    /// exact min/max of the stored coordinates, and the inner SRP-KW
    /// index must itself validate.
    ///
    /// # Errors
    ///
    /// The first violated invariant, by name.
    pub fn validate(&self) -> Result<(), crate::invariants::InvariantViolation> {
        let actual = extremes(&self.srp);
        if self.extremes != actual {
            return Err(crate::invariants::InvariantViolation::new(
                "nn_l2::extremes",
                format!("stored extremes {:?} ≠ actual {actual:?}", self.extremes),
            ));
        }
        self.srp.validate()
    }
}

/// Each dimension's `(min, max)` coordinate over the indexed points.
fn extremes(srp: &SrpKwIndex) -> Vec<(f64, f64)> {
    (0..srp.dim())
        .map(|d| {
            (0..srp.len() as u32)
                .map(|o| srp.point(o).get(d))
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), c| {
                    (lo.min(c), hi.max(c))
                })
        })
        .collect()
}

/// One L2NN-KW query: candidate radius `i` is the squared radius `i`,
/// exact for integer coordinates.
struct L2Search<'a> {
    srp: &'a SrpKwIndex,
    q: &'a Point,
    keywords: &'a [Keyword],
}

impl RadiusSearch for L2Search<'_> {
    fn within<S: ResultSink>(&self, i: u64, sink: &mut S, stats: &mut QueryStats) {
        let _ = self
            .srp
            .query_sq_sink(self.q, i as f64, self.keywords, sink, stats);
    }

    fn distance(&self, o: u32) -> f64 {
        self.srp.point(o).l2_sq(self.q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::FullScan;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn integer_dataset(n: usize, dim: usize, vocab: u32, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        Dataset::from_parts(
            (0..n)
                .map(|_| {
                    let coords: Vec<f64> =
                        (0..dim).map(|_| rng.gen_range(-100..100) as f64).collect();
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
        let dataset = integer_dataset(300, 2, 8, 1);
        let index = L2NnIndex::try_build(&dataset, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..30 {
            let q = Point::new2(
                rng.gen_range(-120..120) as f64,
                rng.gen_range(-120..120) as f64,
            );
            let t = rng.gen_range(1..8);
            let w1 = rng.gen_range(0..8);
            let w2 = (w1 + 1 + rng.gen_range(0..7)) % 8;
            assert_eq!(
                index.query(&q, t, &[w1, w2]).unwrap().0,
                FullScan::new(&dataset).nn_l2(&q, t, &[w1, w2]),
                "q={q:?} t={t}"
            );
        }
    }

    #[test]
    fn matches_bruteforce_3d() {
        let dataset = integer_dataset(200, 3, 6, 11);
        let index = L2NnIndex::try_build(&dataset, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..20 {
            let q = Point::new3(
                rng.gen_range(-120..120) as f64,
                rng.gen_range(-120..120) as f64,
                rng.gen_range(-120..120) as f64,
            );
            let t = rng.gen_range(1..5);
            let w1 = rng.gen_range(0..6);
            let w2 = (w1 + 1 + rng.gen_range(0..5)) % 6;
            assert_eq!(
                index.query(&q, t, &[w1, w2]).unwrap().0,
                FullScan::new(&dataset).nn_l2(&q, t, &[w1, w2])
            );
        }
    }

    #[test]
    fn exact_tie_distances_break_by_id() {
        let dataset = Dataset::from_parts(vec![
            (Point::new2(3.0, 4.0), vec![0, 1]),  // dist 5
            (Point::new2(-3.0, 4.0), vec![0, 1]), // dist 5
            (Point::new2(0.0, 6.0), vec![0, 1]),  // dist 6
        ]);
        let index = L2NnIndex::try_build(&dataset, 2).unwrap();
        let q = Point::new2(0.0, 0.0);
        assert_eq!(index.query(&q, 1, &[0, 1]).unwrap().0, vec![0]);
        assert_eq!(index.query(&q, 2, &[0, 1]).unwrap().0, vec![0, 1]);
        assert_eq!(index.query(&q, 3, &[0, 1]).unwrap().0, vec![0, 1, 2]);
    }

    #[test]
    fn t_exceeding_matches_returns_all_matches() {
        let dataset = integer_dataset(60, 2, 4, 21);
        let index = L2NnIndex::try_build(&dataset, 2).unwrap();
        let q = Point::new2(0.0, 0.0);
        let (got, _) = index.query(&q, 1000, &[0, 1]).unwrap();
        let expected = FullScan::new(&dataset).nn_l2(&q, usize::MAX, &[0, 1]);
        assert_eq!(got, expected);
    }

    #[test]
    fn invalid_input_is_a_typed_error() {
        let dataset = integer_dataset(120, 2, 6, 31);
        let index = L2NnIndex::try_build(&dataset, 2).unwrap();
        let q = Point::new2(5.0, -7.0);
        // Validation surfaces.
        let bad = Dataset::from_parts(vec![(Point::new2(0.5, 0.0), vec![0, 1])]);
        assert!(matches!(
            L2NnIndex::try_build(&bad, 2),
            Err(SkqError::InvalidDataset(_))
        ));
        for (p, t, kws) in [
            (Point::new2(0.5, 0.0), 1, vec![0, 1]),
            (Point::new2(f64::NAN, 0.0), 1, vec![0, 1]),
            (q, 1, vec![0, 1, 2]),
            (q, 0, vec![0, 1]),
        ] {
            assert!(matches!(
                index.query(&p, t, &kws),
                Err(SkqError::InvalidQuery(_))
            ));
        }
    }
}

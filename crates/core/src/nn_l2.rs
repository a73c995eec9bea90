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
use crate::sink::{CountSink, LimitSink, ResultSink};
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
    points: Vec<Point>,
    /// Per-dimension coordinate extremes, for the initial radius bound.
    extremes: Vec<(f64, f64)>,
    dim: usize,
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
        let dim = dataset.dim();
        let extremes = (0..dim)
            .map(|d| {
                let lo = dataset
                    .points()
                    .iter()
                    .map(|p| p.get(d))
                    .fold(f64::INFINITY, f64::min);
                let hi = dataset
                    .points()
                    .iter()
                    .map(|p| p.get(d))
                    .fold(f64::NEG_INFINITY, f64::max);
                (lo, hi)
            })
            .collect();
        Ok(Self {
            srp: SrpKwIndex::try_build(dataset, k)?,
            points: dataset.points().to_vec(),
            extremes,
            dim,
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
        validate::point_query(q, self.dim)?;
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
        let max_sq: u64 = (0..self.dim)
            .map(|d| {
                let qc = q.get(d) as i64;
                let (lo, hi) = self.extremes[d];
                let a = (qc - lo as i64).unsigned_abs();
                let b = (qc - hi as i64).unsigned_abs();
                let m = a.max(b);
                m * m
            })
            .sum();

        if !self.threshold(q, max_sq, keywords, t, &mut stats) {
            // Fewer than t matches exist: return all of them.
            let mut all = Vec::new();
            let _ = self
                .srp
                .query_sq_sink(q, max_sq as f64, keywords, &mut all, &mut stats);
            let ranked = self.rank_by_distance(q, all, usize::MAX);
            stats.emitted = ranked.len() as u64;
            return Ok((ranked, stats));
        }

        // Binary search the integer squared radius.
        let mut lo = 0u64;
        let mut hi = max_sq;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.threshold(q, mid, keywords, t, &mut stats) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }

        let mut hits = Vec::new();
        let _ = self
            .srp
            .query_sq_sink(q, lo as f64, keywords, &mut hits, &mut stats);
        let out = self.rank_by_distance(q, hits, t);
        stats.emitted = out.len() as u64;
        Ok((out, stats))
    }

    /// "Are there at least `t` matches within squared radius `r²`?" —
    /// a counting probe; no result vector is built.
    fn threshold(
        &self,
        q: &Point,
        radius_sq: u64,
        keywords: &[Keyword],
        t: usize,
        stats: &mut QueryStats,
    ) -> bool {
        let mut probe = LimitSink::new(CountSink::new(), t);
        let _ = self
            .srp
            .query_sq_sink(q, radius_sq as f64, keywords, &mut probe, stats);
        probe.emitted() >= t as u64
    }

    /// Sorts by `(squared L2 distance, id)` — exact for integer inputs —
    /// and truncates to `t`.
    fn rank_by_distance(&self, q: &Point, mut ids: Vec<u32>, t: usize) -> Vec<u32> {
        ids.sort_unstable_by(|&a, &b| {
            self.points[a as usize]
                .l2_sq(q)
                .total_cmp(&self.points[b as usize].l2_sq(q))
                .then(a.cmp(&b))
        });
        ids.truncate(t);
        ids
    }

    /// Index space in 64-bit words.
    pub fn space_words(&self) -> usize {
        self.srp.space_words() + self.dim * self.points.len()
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
        use crate::invariants::InvariantViolation as V;
        if self.extremes.len() != self.dim {
            return Err(V::new(
                "nn_l2::extremes",
                format!(
                    "{} extreme pairs for a {}D index",
                    self.extremes.len(),
                    self.dim
                ),
            ));
        }
        for (d, &(lo, hi)) in self.extremes.iter().enumerate() {
            let (want_lo, want_hi) = self
                .points
                .iter()
                .map(|p| p.get(d))
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), c| {
                    (l.min(c), h.max(c))
                });
            if lo != want_lo || hi != want_hi {
                return Err(V::new(
                    "nn_l2::extremes",
                    format!(
                        "dimension {d}: stored extremes ({lo}, {hi}) ≠ actual ({want_lo}, {want_hi})"
                    ),
                ));
            }
        }
        self.srp.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn brute(dataset: &Dataset, q: &Point, t: usize, kws: &[Keyword]) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..dataset.len() as u32)
            .filter(|&i| dataset.doc(i as usize).contains_all(kws))
            .collect();
        ids.sort_unstable_by(|&a, &b| {
            dataset
                .point(a as usize)
                .l2_sq(q)
                .total_cmp(&dataset.point(b as usize).l2_sq(q))
                .then(a.cmp(&b))
        });
        ids.truncate(t);
        ids
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
                brute(&dataset, &q, t, &[w1, w2]),
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
                brute(&dataset, &q, t, &[w1, w2])
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
        let expected = brute(&dataset, &q, usize::MAX, &[0, 1]);
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

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
use crate::orp::OrpKwIndex;
use crate::persist::{self, Persist, SCHEMA_VERSION};
use crate::query::KwQuery;
use crate::sink::{CountSink, LimitSink, ResultSink};
use crate::stats::QueryStats;
use crate::telemetry;

/// The `L∞`-ball `B(q, r)` as a rectangle, rounded *outward* by one
/// ulp per side: candidate radii are computed as `|q[i] − x|`, whose
/// rounding need not agree with `q[i] ± r`, and an inward-rounded
/// rectangle could exclude the very boundary object that defines the
/// radius. Outward rounding only admits boundary-adjacent extras, which
/// the final re-ranking by true distance discards.
fn outward_ball(q: &Point, r: f64) -> Rect {
    let lo: Vec<f64> = q.coords().iter().map(|c| (c - r).next_down()).collect();
    let hi: Vec<f64> = q.coords().iter().map(|c| (c + r).next_up()).collect();
    Rect::new(&lo, &hi)
}

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
    points: Vec<Point>,
    dim: usize,
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
        let dim = dataset.dim();
        let mut sorted_coords = Vec::with_capacity(dim);
        for d in 0..dim {
            let mut col: Vec<f64> = dataset.points().iter().map(|p| p.get(d)).collect();
            col.sort_by(f64::total_cmp);
            sorted_coords.push(col);
        }
        let index = Self {
            orp,
            sorted_coords,
            points: dataset.points().to_vec(),
            dim,
        };
        let (nodes, pivots) = index
            .orp
            .kd_node_summaries(index.orp.k())
            .map(|s| (s.len() as u64, s.iter().map(|&(_, _, p, _)| p as u64).sum()))
            .unwrap_or((0, 0));
        // Engine plus the candidate-radius columns and the point copies.
        let words = index.orp.space_words() + 2 * index.dim * index.points.len();
        telemetry::record_build(
            "nn_linf",
            start.elapsed(),
            nodes,
            pivots,
            (words * 8) as u64,
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
        validate::point_query(q, self.dim)?;
        validate::result_count(t)?;
        validate::distinct_keywords(keywords, self.k())?;
        let mut stats = QueryStats::new();

        // Are there t matches at all? Probe with the maximal radius.
        let n = self.points.len();
        let total_candidates = self.dim * n;
        let r_max = self.candidate_by_rank(q, total_candidates - 1);
        if !self.threshold(q, r_max, keywords, t, &mut stats) {
            // Fewer than t matches exist: return all of them.
            let ball = outward_ball(q, r_max);
            let mut all = Vec::new();
            let _ = self.orp.query_sink(&ball, keywords, &mut all, &mut stats);
            let ranked = self.rank_by_distance(q, all, usize::MAX);
            stats.emitted = ranked.len() as u64;
            return Ok((ranked, stats));
        }

        // Binary search the candidate-radius rank for the minimal radius
        // admitting ≥ t matches.
        let mut lo = 0usize;
        let mut hi = total_candidates - 1;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let r = self.candidate_by_rank(q, mid);
            if self.threshold(q, r, keywords, t, &mut stats) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let r_star = self.candidate_by_rank(q, lo);

        // Collect everything within r* and rank by true distance.
        let ball = outward_ball(q, r_star);
        let mut hits = Vec::new();
        let _ = self.orp.query_sink(&ball, keywords, &mut hits, &mut stats);
        let ranked = self.rank_by_distance(q, hits, t);

        // Closure pass: re-collect at the t-th hit's actual distance
        // (nudged up a few ulps). This pins down boundary cases where
        // the rectangle arithmetic of the threshold ball and the
        // distance arithmetic of the ranking disagree by an ulp.
        let d_t = self.points[*ranked.last().expect("t >= 1 hits") as usize].linf(q);
        let ball = outward_ball(q, f64::from_bits(d_t.to_bits() + 4));
        let mut hits = Vec::new();
        let _ = self.orp.query_sink(&ball, keywords, &mut hits, &mut stats);
        let out = self.rank_by_distance(q, hits, t);
        stats.emitted = out.len() as u64;
        Ok((out, stats))
    }

    /// "Are there at least `t` matches within radius `r`?" — the
    /// early-terminating ORP-KW threshold query of Corollary 4, run
    /// through a counting probe so no result vector is ever built.
    fn threshold(
        &self,
        q: &Point,
        r: f64,
        keywords: &[Keyword],
        t: usize,
        stats: &mut QueryStats,
    ) -> bool {
        let ball = outward_ball(q, r);
        let mut probe = LimitSink::new(CountSink::new(), t);
        let _ = self.orp.query_sink(&ball, keywords, &mut probe, stats);
        probe.emitted() >= t as u64
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
        let mut total = 0usize;
        for d in 0..self.dim {
            let col = &self.sorted_coords[d];
            let qc = q.get(d);
            // Coordinates below q: distance qc − x decreases with x.
            let split = col.partition_point(|&x| x < qc);
            let left_far = col[..split].partition_point(|&x| (qc - x).abs() > r);
            total += split - left_far;
            // Coordinates at or above q: distance x − qc increases.
            let right_near = col[split..].partition_point(|&x| (qc - x).abs() <= r);
            total += right_near;
        }
        total
    }

    /// Sorts `ids` by `(L∞ distance to q, id)` and truncates to `t`.
    fn rank_by_distance(&self, q: &Point, mut ids: Vec<u32>, t: usize) -> Vec<u32> {
        ids.sort_unstable_by(|&a, &b| {
            self.points[a as usize]
                .linf(q)
                .total_cmp(&self.points[b as usize].linf(q))
                .then(a.cmp(&b))
        });
        ids.truncate(t);
        ids
    }

    /// Index space in 64-bit words.
    pub fn space_words(&self) -> usize {
        self.orp.space_words() + self.dim * self.points.len()
    }

    /// Deep structural validation (DESIGN.md §12): the candidate-radius
    /// columns must be sorted permutations of the
    /// stored coordinates (the binary-search step of Corollary 4 silently
    /// returns wrong neighbors otherwise), and the rectangle engine must
    /// itself validate.
    ///
    /// # Errors
    ///
    /// The first violated invariant, by name.
    pub fn validate(&self) -> Result<(), crate::invariants::InvariantViolation> {
        use crate::invariants::InvariantViolation as V;
        if self.sorted_coords.len() != self.dim {
            return Err(V::new(
                "nn_linf::sorted_coords",
                format!(
                    "{} coordinate columns for a {}D index",
                    self.sorted_coords.len(),
                    self.dim
                ),
            ));
        }
        for (d, col) in self.sorted_coords.iter().enumerate() {
            if col.len() != self.points.len() {
                return Err(V::new(
                    "nn_linf::sorted_coords",
                    format!(
                        "dimension {d}: column of {} entries for {} points",
                        col.len(),
                        self.points.len()
                    ),
                ));
            }
            if col.windows(2).any(|w| w[0].total_cmp(&w[1]).is_gt()) {
                return Err(V::new(
                    "nn_linf::sorted_coords",
                    format!("dimension {d}: candidate-radius column not sorted"),
                ));
            }
            let mut expected: Vec<f64> = self.points.iter().map(|p| p.get(d)).collect();
            expected.sort_by(f64::total_cmp);
            if col
                .iter()
                .zip(&expected)
                .any(|(a, b)| a.total_cmp(b).is_ne())
            {
                return Err(V::new(
                    "nn_linf::sorted_coords",
                    format!("dimension {d}: column is not a permutation of the stored coordinates"),
                ));
            }
        }
        self.orp.validate()
    }
}

/// Engine tag written in the `NN_HEAD` page: the ORP-KW threshold
/// engine, the only one there is. The loader rejects any other tag.
const NN_ENGINE_ORP: u64 = 0;

impl Persist for LinfNnIndex {
    fn to_pages(&self, w: &mut persist::PageWriter) -> Result<(), SkqError> {
        let mut head = Vec::new();
        persist::put_uv(&mut head, NN_ENGINE_ORP);
        persist::put_uv(&mut head, self.dim as u64);
        persist::put_uv(&mut head, self.points.len() as u64);
        w.page(persist::kind::NN_HEAD, SCHEMA_VERSION, head);
        // The sorted candidate-radius columns are derived data: the
        // loader re-sorts them from the points, so only the points
        // travel.
        let coords: Vec<f64> = self
            .points
            .iter()
            .flat_map(|p| p.coords())
            .copied()
            .collect();
        persist::put_point_pages(w, persist::kind::NN_POINTS, &coords, self.dim);
        self.orp.to_pages(w)
    }

    fn from_pages(r: &mut persist::PageReader<'_>) -> Result<Self, SkqError> {
        let fail = |detail: String| SkqError::Corrupted {
            section: "nn_linf".into(),
            detail,
        };
        let mut head = r.page(persist::kind::NN_HEAD, SCHEMA_VERSION, "nn_linf")?;
        let engine = head.uv()?;
        let dim = head.usizev()?;
        let n = head.usizev()?;
        head.end()?;
        if engine != NN_ENGINE_ORP {
            return Err(fail(format!("unknown nn_linf engine tag {engine}")));
        }
        if n == 0 {
            return Err(fail("index stores zero points".into()));
        }
        let coords = persist::read_point_pages(r, persist::kind::NN_POINTS, "nn_linf", n, dim)?;
        if let Some(i) = coords.iter().position(|c| !c.is_finite()) {
            let i = i / dim;
            return Err(fail(format!("point {i} has a non-finite coordinate")));
        }
        let points: Vec<Point> = coords.chunks(dim).map(Point::new).collect();
        let orp = OrpKwIndex::from_pages(r)?;
        if orp.dim() != dim {
            return Err(fail(format!(
                "head declares {dim}D, inner index is {}D",
                orp.dim()
            )));
        }
        if orp.len() != n {
            return Err(fail(format!(
                "head declares {n} points, inner index holds {:?}",
                orp.len()
            )));
        }
        // Rebuild the per-dimension candidate-radius columns exactly as
        // `try_build` does — deterministic total-order sorts.
        let mut sorted_coords = Vec::with_capacity(dim);
        for d in 0..dim {
            let mut col: Vec<f64> = points.iter().map(|p| p.get(d)).collect();
            col.sort_by(f64::total_cmp);
            sorted_coords.push(col);
        }
        Ok(Self {
            orp,
            sorted_coords,
            points,
            dim,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Brute-force t-NN: all matching objects sorted by (L∞, id).
    fn brute(dataset: &Dataset, q: &Point, t: usize, kws: &[Keyword]) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..dataset.len() as u32)
            .filter(|&i| dataset.doc(i as usize).contains_all(kws))
            .collect();
        ids.sort_unstable_by(|&a, &b| {
            dataset
                .point(a as usize)
                .linf(q)
                .total_cmp(&dataset.point(b as usize).linf(q))
                .then(a.cmp(&b))
        });
        ids.truncate(t);
        ids
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
            let expected = brute(&dataset, &q, t, &[w1, w2]);
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
                brute(&dataset, &q, t, &[w1, w2])
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

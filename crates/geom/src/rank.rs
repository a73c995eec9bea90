//! Rank-space normalization (Step 4 of the framework, §3.4).
//!
//! The kd-tree conversion assumes *general position* — no two objects
//! share a coordinate on any dimension. §3.4 removes the assumption by
//! sorting the objects on each dimension (ties broken by object id) and
//! replacing coordinates with their ranks; a query rectangle is converted
//! to rank space in `O(log N)` by binary search without affecting the
//! result.
//!
//! The search is fenced: every `FENCE`-th coordinate of a column is
//! copied into a small array that stays cache-resident, so a lookup
//! binary-searches the fences and then one `FENCE`-entry block of the
//! column instead of walking `log N` cold levels of it.

use crate::{Point, Rect, MAX_DIM};

/// Column entries per fence. At 64 the fences of a 200k-object 2-D set
/// take 50 KB and stay cache-resident between queries, and the last step
/// reads one 512-byte block. Blocks of 16 to 128 entries measured alike
/// (a query conversion at about half the time of a whole-column binary
/// search when the columns are out of cache): smaller blocks outgrow the
/// cache with fewer objects, larger ones add cache lines to the last
/// step.
const FENCE: usize = 64;

/// A per-dimension rank mapping over a fixed point set.
#[derive(Clone, Debug)]
pub struct RankSpace {
    /// Every column's coordinates, sorted lexicographically by
    /// `(coordinate, object id)`: dimension `d`, rank `r` at `d·n + r`.
    /// The rank of an object on a dimension is its position in this
    /// order.
    sorted: Vec<f64>,
    /// The object ids in the same order as `sorted`.
    ids: Vec<u32>,
    /// Every `FENCE`-th coordinate of each column: dimension `d`, fence
    /// `j` (the coordinate at rank `j·FENCE`) at `d·n.div_ceil(FENCE) + j`.
    fences: Vec<f64>,
    dim: usize,
    n: usize,
}

impl RankSpace {
    /// Builds the rank mapping for `points` (object `i` = `points[i]`).
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty, dimensions are inconsistent, or any
    /// coordinate is NaN.
    pub fn build(points: &[Point]) -> Self {
        let dim = points.first().expect("rank space needs points").dim();
        assert!(points.iter().all(|p| p.dim() == dim));
        assert!(
            points
                .iter()
                .all(|p| p.coords().iter().all(|c| !c.is_nan())),
            "NaN coordinates are not orderable"
        );
        let n = points.len();
        let mut sorted = Vec::with_capacity(dim * n);
        let mut ids = Vec::with_capacity(dim * n);
        for d in 0..dim {
            // Sort the column's ids by the coordinates, laid out in
            // object order where the column will go, then overwrite them
            // in rank order: no scratch buffer beyond the columns.
            let span = d * n..(d + 1) * n;
            sorted.extend(points.iter().map(|p| p.get(d)));
            ids.extend(0..n as u32);
            let (keys, col) = (&sorted[span.clone()], &mut ids[span.clone()]);
            // Ids are distinct, so no two keys tie and an unstable sort
            // gives the one lexicographic order.
            col.sort_unstable_by(|&a, &b| {
                keys[a as usize]
                    .total_cmp(&keys[b as usize])
                    .then(a.cmp(&b))
            });
            for (slot, &i) in sorted[span.clone()].iter_mut().zip(&ids[span]) {
                *slot = points[i as usize].get(d);
            }
        }
        Self::with_fences(dim, n, sorted, ids)
    }

    /// Completes a mapping from its sorted columns by sampling the
    /// fences.
    fn with_fences(dim: usize, n: usize, sorted: Vec<f64>, ids: Vec<u32>) -> Self {
        let mut fences = Vec::with_capacity(dim * n.div_ceil(FENCE));
        for col in sorted.chunks_exact(n) {
            fences.extend(col.iter().step_by(FENCE));
        }
        Self {
            sorted,
            ids,
            fences,
            dim,
            n,
        }
    }

    /// The dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The number of objects.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the mapping is over an empty set (never true; kept for API
    /// completeness).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The rank-space images of every object, in object order, derived
    /// from the columns (the mapping stores no copy of them).
    ///
    /// All images have pairwise-distinct coordinates on every dimension —
    /// the general-position property the kd framework needs.
    pub fn points(&self) -> Vec<Point> {
        self.coords().chunks(self.dim).map(Point::new).collect()
    }

    /// The rank-space images packed into one array: object `i`'s `dim`
    /// ranks at `[i·dim..(i+1)·dim]`.
    pub fn coords(&self) -> Vec<f64> {
        let mut coords = vec![0.0f64; self.n * self.dim];
        for (d, col) in self.ids.chunks_exact(self.n).enumerate() {
            for (rank, &idx) in col.iter().enumerate() {
                coords[idx as usize * self.dim + d] = rank as f64;
            }
        }
        coords
    }

    /// The original point whose rank-space image is `ranks` (one rank
    /// per dimension, as [`coords`](Self::coords) gives them): each
    /// coordinate is read back bit for bit from its column.
    ///
    /// # Panics
    ///
    /// Panics if `ranks` has the wrong length or a rank is out of range.
    pub fn point_at(&self, ranks: &[f64]) -> Point {
        assert_eq!(ranks.len(), self.dim, "rank dimension mismatch");
        let mut coords = [0.0; MAX_DIM];
        for (d, &r) in ranks.iter().enumerate() {
            coords[d] = self.column(d).0[r as usize];
        }
        Point::new(&coords[..self.dim])
    }

    /// Dimension `d`'s sorted column as parallel `(coordinates, object
    /// ids)` slices — with the other columns, the complete ground truth
    /// of the mapping (ranks and fences are derived), exposed for the
    /// snapshot encoder.
    ///
    /// # Panics
    ///
    /// Panics if `d` is not below the dimensionality.
    pub fn column(&self, d: usize) -> (&[f64], &[u32]) {
        assert!(d < self.dim, "dimension {d} out of range");
        let span = d * self.n..(d + 1) * self.n;
        (&self.sorted[span.clone()], &self.ids[span])
    }

    /// Reassembles a mapping from decoded columns laid out as
    /// [`column`](Self::column) gives them — `dim` columns of equal
    /// length packed back to back in `sorted` and in `ids` — validating
    /// every property [`RankSpace::build`] guarantees: the snapshot-load
    /// counterpart of `build`.
    ///
    /// # Errors
    ///
    /// A description of the first violation: a dimensionality outside
    /// `1..=MAX_DIM`, empty or unequal-length columns, a NaN coordinate,
    /// a column not sorted lexicographically by `(coordinate, id)`, or a
    /// column whose ids are not a permutation of `0..len`.
    pub fn try_from_columns(dim: usize, sorted: Vec<f64>, ids: Vec<u32>) -> Result<Self, String> {
        if dim == 0 {
            return Err("rank space needs at least one dimension".into());
        }
        if dim > crate::MAX_DIM {
            return Err(format!(
                "rank space dimensionality {dim} exceeds MAX_DIM {}",
                crate::MAX_DIM
            ));
        }
        if sorted.len() != ids.len() || !sorted.len().is_multiple_of(dim) {
            return Err(format!(
                "{} coordinates and {} ids do not form {dim} equal columns",
                sorted.len(),
                ids.len()
            ));
        }
        let n = sorted.len() / dim;
        if n == 0 {
            return Err("rank space needs at least one object".into());
        }
        let mut seen = vec![false; n];
        for (d, (col, col_ids)) in sorted.chunks_exact(n).zip(ids.chunks_exact(n)).enumerate() {
            seen.fill(false);
            for (rank, (&coord, &idx)) in col.iter().zip(col_ids).enumerate() {
                if coord.is_nan() {
                    return Err(format!("dimension {d}: NaN coordinate at rank {rank}"));
                }
                let i = idx as usize;
                if i >= n {
                    return Err(format!(
                        "dimension {d}: object index {idx} out of range for {n} objects"
                    ));
                }
                if seen[i] {
                    return Err(format!("dimension {d}: object index {idx} appears twice"));
                }
                seen[i] = true;
                if rank > 0 {
                    let (pc, pi) = (col[rank - 1], col_ids[rank - 1]);
                    if !matches!(
                        pc.total_cmp(&coord).then(pi.cmp(&idx)),
                        std::cmp::Ordering::Less
                    ) {
                        return Err(format!(
                            "dimension {d}: column not sorted by (coordinate, id) at rank {rank}"
                        ));
                    }
                }
            }
        }
        Ok(Self::with_fences(dim, n, sorted, ids))
    }

    /// The number of leading ranks on dimension `d` whose coordinate
    /// satisfies `pred` — `partition_point` over the column, for a
    /// `pred` that holds on a prefix of it. The fences locate the one
    /// block where `pred` stops holding; only that block is searched.
    fn partition_point(&self, d: usize, pred: impl Fn(f64) -> bool) -> usize {
        let per_col = self.n.div_ceil(FENCE);
        let fences = &self.fences[d * per_col..(d + 1) * per_col];
        // Fence j is rank j·FENCE: the first failing fence bounds the
        // block, and a failing first fence means an empty prefix.
        let Some(block) = fences.partition_point(|&c| pred(c)).checked_sub(1) else {
            return 0;
        };
        let start = block * FENCE;
        let end = (start + FENCE).min(self.n);
        let col = &self.sorted[d * self.n..(d + 1) * self.n];
        start + col[start..end].partition_point(|&c| pred(c))
    }

    /// Converts an original-space query rectangle into rank space.
    ///
    /// Returns `None` when the query provably selects nothing (its
    /// interval on some dimension contains no data coordinate);
    /// otherwise the returned rectangle selects exactly the objects the
    /// original rectangle selects. `O(d log N)`.
    pub fn rect(&self, q: &Rect) -> Option<Rect> {
        assert_eq!(q.dim(), self.dim, "query dimension mismatch");
        let mut lo = [0.0; MAX_DIM];
        let mut hi = [0.0; MAX_DIM];
        for d in 0..self.dim {
            let (qlo, qhi) = q.interval(d);
            // Infinite endpoints stay infinite: an unbounded query side
            // must keep covering the (unbounded) outer tree cells, or
            // covered/crossing classification degrades at the boundary.
            let l = if qlo == f64::NEG_INFINITY {
                f64::NEG_INFINITY
            } else {
                // First rank with coordinate ≥ qlo.
                self.partition_point(d, |c| c < qlo) as f64
            };
            let h = if qhi == f64::INFINITY {
                f64::INFINITY
            } else {
                // Last rank with coordinate ≤ qhi (exclusive bound, minus
                // one).
                self.partition_point(d, |c| c <= qhi) as f64 - 1.0
            };
            lo[d] = l;
            hi[d] = h;
        }
        let (lo, hi) = (&lo[..self.dim], &hi[..self.dim]);
        if lo.iter().zip(hi).any(|(a, b)| a > b) {
            None
        } else {
            Some(Rect::new(lo, hi))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(raw: &[(f64, f64)]) -> Vec<Point> {
        raw.iter().map(|&(x, y)| Point::new2(x, y)).collect()
    }

    #[test]
    fn ranks_are_distinct_despite_ties() {
        let points = pts(&[(1.0, 5.0), (1.0, 5.0), (2.0, 5.0), (1.0, 3.0)]);
        let images = RankSpace::build(&points).points();
        for d in 0..2 {
            let mut seen: Vec<f64> = images.iter().map(|p| p.get(d)).collect();
            seen.sort_by(f64::total_cmp);
            for w in seen.windows(2) {
                assert!(w[0] < w[1], "duplicate rank on dim {d}");
            }
        }
    }

    #[test]
    fn query_selects_same_objects() {
        let points = pts(&[(1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (3.0, 3.0), (2.0, 2.0)]);
        let rs = RankSpace::build(&points);
        let q = Rect::new(&[1.0, 1.0], &[2.0, 2.0]);
        let rq = rs.rect(&q).expect("non-empty");
        for (i, (p, image)) in points.iter().zip(rs.points()).enumerate() {
            assert_eq!(
                q.contains(p),
                rq.contains(&image),
                "object {i} disagreement"
            );
        }
    }

    #[test]
    fn boundary_coordinates_included() {
        let points = pts(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]);
        let rs = RankSpace::build(&points);
        // Query whose endpoints coincide with data coordinates.
        let q = Rect::new(&[1.0, 0.0], &[2.0, 1.0]);
        let rq = rs.rect(&q).expect("non-empty");
        let images = rs.points();
        assert!(!rq.contains(&images[0]));
        assert!(rq.contains(&images[1]));
        assert!(!rq.contains(&images[2])); // y = 2 > 1
    }

    #[test]
    fn empty_query_maps_to_empty() {
        let points = pts(&[(0.0, 0.0), (1.0, 1.0)]);
        let rs = RankSpace::build(&points);
        let q = Rect::new(&[5.0, 5.0], &[6.0, 6.0]);
        assert!(rs.rect(&q).is_none(), "provably empty");
    }

    #[test]
    fn infinite_query_covers_all() {
        let points = pts(&[(0.0, 0.0), (-5.0, 3.0), (7.0, -2.0)]);
        let rs = RankSpace::build(&points);
        let rq = rs.rect(&Rect::full(2)).expect("non-empty");
        for image in rs.points() {
            assert!(rq.contains(&image));
        }
    }

    #[test]
    fn randomized_equivalence() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        // Coordinates drawn from a tiny domain to force many ties.
        let points: Vec<Point> = (0..60)
            .map(|_| Point::new2(rng.gen_range(0..5) as f64, rng.gen_range(0..5) as f64))
            .collect();
        let rs = RankSpace::build(&points);
        let images = rs.points();
        for _ in 0..100 {
            let x0 = rng.gen_range(-1..6) as f64;
            let x1 = rng.gen_range(-1..6) as f64;
            let y0 = rng.gen_range(-1..6) as f64;
            let y1 = rng.gen_range(-1..6) as f64;
            let q = Rect::new(&[x0.min(x1), y0.min(y1)], &[x0.max(x1), y0.max(y1)]);
            match rs.rect(&q) {
                Some(rq) => {
                    for (p, image) in points.iter().zip(&images) {
                        assert_eq!(q.contains(p), rq.contains(image));
                    }
                }
                None => {
                    for p in &points {
                        assert!(!q.contains(p));
                    }
                }
            }
        }
    }

    /// `rect`'s answer computed the plain way: one `partition_point`
    /// over each whole column.
    fn plain_rect(rs: &RankSpace, q: &Rect) -> Option<Rect> {
        let (mut lo, mut hi) = (Vec::new(), Vec::new());
        for d in 0..rs.dim() {
            let (col, _) = rs.column(d);
            let (qlo, qhi) = q.interval(d);
            lo.push(if qlo == f64::NEG_INFINITY {
                qlo
            } else {
                col.partition_point(|&c| c < qlo) as f64
            });
            hi.push(if qhi == f64::INFINITY {
                qhi
            } else {
                col.partition_point(|&c| c <= qhi) as f64 - 1.0
            });
        }
        if lo.iter().zip(&hi).any(|(a, b)| a > b) {
            None
        } else {
            Some(Rect::new(&lo, &hi))
        }
    }

    /// Query endpoints for one column: every fence value, a value just
    /// past each, the values beyond both ends, and both infinities.
    fn probes(col: &[f64]) -> Vec<f64> {
        let mut out = vec![f64::NEG_INFINITY, f64::INFINITY];
        out.push(col[0] - 1.0);
        out.push(col[col.len() - 1] + 1.0);
        for &c in col.iter().step_by(FENCE) {
            out.extend([c, c + 0.5]);
        }
        out
    }

    /// Asserts `rect` equals the plain search for every probe rectangle
    /// and returns how many of them selected nothing.
    fn assert_matches_plain(rs: &RankSpace, reference: &RankSpace) -> usize {
        let (xs, ys) = (probes(rs.column(0).0), probes(rs.column(1).0));
        let mut empty = 0;
        for (&x0, &x1) in xs.iter().flat_map(|a| xs.iter().map(move |b| (a, b))) {
            for (&y0, &y1) in ys.iter().flat_map(|a| ys.iter().map(move |b| (a, b))) {
                if x0 > x1 || y0 > y1 {
                    continue;
                }
                let q = Rect::new(&[x0, y0], &[x1, y1]);
                let got = rs.rect(&q);
                assert!(got == plain_rect(reference, &q), "{x0}..{x1} × {y0}..{y1}");
                empty += usize::from(got.is_none());
            }
        }
        empty
    }

    /// Tie-heavy integer points: `x` repeats each value twice, `y`
    /// cycles through five values.
    fn tied(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new2(((i * 7) % n / 2) as f64, ((i * 13) % 5) as f64))
            .collect()
    }

    #[test]
    fn fenced_search_equals_plain_partition_point() {
        for n in [1, FENCE - 1, FENCE, FENCE + 1, 3 * FENCE] {
            let rs = RankSpace::build(&tied(n));
            let empty = assert_matches_plain(&rs, &rs);
            // Probes just past a data coordinate select no coordinate
            // on that axis: the `None` side of the equivalence.
            assert!(empty > 0, "n = {n}: no empty probe");
        }
    }

    #[test]
    fn loaded_columns_search_like_built_ones() {
        for n in [1, FENCE - 1, FENCE, FENCE + 1, 3 * FENCE] {
            let built = RankSpace::build(&tied(n));
            let (mut sorted, mut ids) = (Vec::new(), Vec::new());
            for d in 0..built.dim() {
                let (c, i) = built.column(d);
                sorted.extend_from_slice(c);
                ids.extend_from_slice(i);
            }
            let loaded = RankSpace::try_from_columns(built.dim(), sorted, ids).expect("valid");
            assert_eq!(loaded.coords(), built.coords());
            assert_matches_plain(&loaded, &built);
        }
    }

    #[test]
    fn try_from_columns_rejects_ragged_columns() {
        let err = RankSpace::try_from_columns(2, vec![0.0, 1.0, 2.0], vec![0, 1, 0]);
        assert!(err.is_err());
        let err = RankSpace::try_from_columns(1, vec![0.0, 1.0], vec![0]);
        assert!(err.is_err());
    }
}

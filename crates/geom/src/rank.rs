//! Rank-space normalization (Step 4 of the framework, §3.4).
//!
//! The kd-tree conversion assumes *general position* — no two objects
//! share a coordinate on any dimension. §3.4 removes the assumption by
//! sorting the objects on each dimension (ties broken by object id) and
//! replacing coordinates with their ranks; a query rectangle is converted
//! to rank space in `O(log N)` by binary search without affecting the
//! result.

use crate::{Point, Rect, MAX_DIM};

/// A per-dimension rank mapping over a fixed point set.
#[derive(Clone, Debug)]
pub struct RankSpace {
    /// For each dimension: `(coordinate, object index)` sorted
    /// lexicographically. The rank of an object on a dimension is its
    /// position in this order.
    sorted: Vec<Vec<(f64, u32)>>,
    dim: usize,
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
        let sorted = (0..dim)
            .map(|d| {
                let mut order: Vec<(f64, u32)> = points
                    .iter()
                    .enumerate()
                    .map(|(i, p)| (p.get(d), i as u32))
                    .collect();
                order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                order
            })
            .collect();
        Self { sorted, dim }
    }

    /// The dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The number of objects.
    pub fn len(&self) -> usize {
        self.sorted[0].len()
    }

    /// Whether the mapping is over an empty set (never true; kept for API
    /// completeness).
    pub fn is_empty(&self) -> bool {
        self.sorted[0].is_empty()
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
        let mut coords = vec![0.0f64; self.len() * self.dim];
        for (d, col) in self.sorted.iter().enumerate() {
            for (rank, &(_, idx)) in col.iter().enumerate() {
                coords[idx as usize * self.dim + d] = rank as f64;
            }
        }
        coords
    }

    /// The per-dimension sorted `(coordinate, object index)` columns —
    /// the complete ground truth of the mapping (ranks are derived),
    /// exposed for the snapshot encoder.
    pub fn columns(&self) -> &[Vec<(f64, u32)>] {
        &self.sorted
    }

    /// Reassembles a mapping from decoded columns, validating every
    /// property [`RankSpace::build`] guarantees — the snapshot-load
    /// counterpart of `build`.
    ///
    /// # Errors
    ///
    /// A description of the first violation: no columns, empty or
    /// unequal-length columns, a NaN coordinate, a column not sorted
    /// lexicographically by `(coordinate, id)`, or a column whose ids
    /// are not a permutation of `0..len`.
    pub fn try_from_columns(sorted: Vec<Vec<(f64, u32)>>) -> Result<Self, String> {
        let dim = sorted.len();
        if dim == 0 {
            return Err("rank space needs at least one dimension".into());
        }
        if dim > crate::MAX_DIM {
            return Err(format!(
                "rank space dimensionality {dim} exceeds MAX_DIM {}",
                crate::MAX_DIM
            ));
        }
        let n = sorted[0].len();
        if n == 0 {
            return Err("rank space needs at least one object".into());
        }
        for (d, col) in sorted.iter().enumerate() {
            if col.len() != n {
                return Err(format!(
                    "dimension {d}: column has {} entries, expected {n}",
                    col.len()
                ));
            }
            let mut seen = vec![false; n];
            for (rank, &(coord, idx)) in col.iter().enumerate() {
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
                    let (pc, pi) = col[rank - 1];
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
        Ok(Self { sorted, dim })
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
            let col = &self.sorted[d];
            // Infinite endpoints stay infinite: an unbounded query side
            // must keep covering the (unbounded) outer tree cells, or
            // covered/crossing classification degrades at the boundary.
            let l = if qlo == f64::NEG_INFINITY {
                f64::NEG_INFINITY
            } else {
                // First rank with coordinate ≥ qlo.
                col.partition_point(|&(c, _)| c < qlo) as f64
            };
            let h = if qhi == f64::INFINITY {
                f64::INFINITY
            } else {
                // Last rank with coordinate ≤ qhi (exclusive bound, minus
                // one).
                col.partition_point(|&(c, _)| c <= qhi) as f64 - 1.0
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
}

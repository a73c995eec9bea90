//! The kd-tree partitioner (§3.1–§3.2).
//!
//! Splits alternate axes by level; the split coordinate is the *weighted
//! median* of the active objects (weight = `|e.Doc|`), which builds the
//! kd-tree over the verbose set `P` of §3.2 without materializing it.
//! Objects lying exactly on the split hyperplane are the node's pivot
//! set (they are "on the boundary of `Δ_v1` or `Δ_v2`"); ties in the
//! median selection are broken lexicographically by object id, the
//! implementation counterpart of the paper's rank-space Step 4.

use skq_geom::{Point, Rect};

use super::partitioner::{Partitioner, SplitOutcome};

/// Weighted kd-tree splits with rectangle cells.
#[derive(Debug)]
pub struct KdPartitioner {
    points: Vec<Point>,
    weights: Vec<u64>,
    dim: usize,
}

impl KdPartitioner {
    /// Creates a partitioner over `points` with verbose weights
    /// (`weights[i] = |docs[i]|`).
    ///
    /// # Panics
    ///
    /// Panics on empty input, mismatched lengths, inconsistent
    /// dimensions, or zero weights.
    pub fn new(points: Vec<Point>, weights: Vec<u64>) -> Self {
        assert!(!points.is_empty(), "kd partitioner needs points");
        assert_eq!(points.len(), weights.len());
        let dim = points[0].dim();
        assert!(points.iter().all(|p| p.dim() == dim));
        assert!(weights.iter().all(|&w| w > 0), "documents are non-empty");
        Self {
            points,
            weights,
            dim,
        }
    }

    /// The indexed points.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The point of object `i`.
    pub fn point(&self, i: u32) -> &Point {
        &self.points[i as usize]
    }

    /// The dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The per-object weights (exposed for the snapshot encoder).
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }
}

impl Partitioner for KdPartitioner {
    type Cell = Rect;

    fn root_cell(&self) -> Rect {
        Rect::full(self.dim)
    }

    fn split(&self, cell: &Rect, objects: &[u32], depth: usize) -> Option<SplitOutcome<Rect>> {
        if objects.len() < 2 {
            return None;
        }
        // Prefer the level's axis; if every object sits on the split
        // hyperplane there, fall through the remaining axes (degenerate
        // inputs such as duplicated points).
        (0..self.dim).find_map(|alt| self.try_axis(cell, objects, (depth + alt) % self.dim))
    }

    fn weight(&self, obj: u32) -> u64 {
        self.weights[obj as usize]
    }

    fn cell_nested(parent: &Rect, child: &Rect) -> Option<bool> {
        Some(
            parent.dim() == child.dim()
                && (0..parent.dim())
                    .all(|i| parent.lo(i) <= child.lo(i) && child.hi(i) <= parent.hi(i)),
        )
    }
}

impl KdPartitioner {
    fn try_axis(&self, cell: &Rect, objects: &[u32], axis: usize) -> Option<SplitOutcome<Rect>> {
        // Sort (coordinate, id) pairs: ties on the coordinate fall back
        // to the object id, and the comparator reads no point.
        let mut keyed: Vec<(f64, u32)> = objects
            .iter()
            .map(|&o| (self.points[o as usize].get(axis), o))
            .collect();
        keyed.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        // Weighted median: the minimal prefix reaching half the weight.
        let total: u64 = objects.iter().map(|&o| self.weights[o as usize]).sum();
        let mut cum = 0u64;
        let median_pos = keyed
            .iter()
            .position(|&(_, o)| {
                cum += self.weights[o as usize];
                2 * cum >= total
            })
            .unwrap_or(0);
        let split_coord = keyed[median_pos].0;

        // Pivot set: every object on the split hyperplane (§3.2 — the
        // objects on the child-cell boundary). In rank space this is a
        // single object; with raw duplicated coordinates it may be more.
        let below = keyed.iter().filter(|&&(c, _)| c < split_coord).count();
        let above = keyed.iter().filter(|&&(c, _)| c > split_coord).count();
        if below + above == 0 {
            return None; // everything on the hyperplane — try another axis
        }
        // Sized exactly: the sorted pairs already cost 16 bytes an object.
        let mut pivots = Vec::with_capacity(keyed.len() - below - above);
        let mut left = Vec::with_capacity(below);
        let mut right = Vec::with_capacity(above);
        for &(c, o) in &keyed {
            if c < split_coord {
                left.push(o);
            } else if c > split_coord {
                right.push(o);
            } else {
                pivots.push(o);
            }
        }
        let (lcell, rcell) = cell.split(axis, split_coord);
        let mut children = Vec::with_capacity(2);
        if !left.is_empty() {
            children.push((lcell, left));
        }
        if !right.is_empty() {
            children.push((rcell, right));
        }
        Some(SplitOutcome { pivots, children })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(raw: &[(f64, f64)]) -> Vec<Point> {
        raw.iter().map(|&(x, y)| Point::new2(x, y)).collect()
    }

    #[test]
    fn split_balances_weight() {
        let points = pts(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)]);
        let weights = vec![1, 1, 1, 1, 1];
        let p = KdPartitioner::new(points, weights);
        let out = p
            .split(&p.root_cell(), &[0, 1, 2, 3, 4], 0)
            .expect("splittable");
        // Median x = 2 → pivot {2}, left {0,1}, right {3,4}.
        assert_eq!(out.pivots, vec![2]);
        assert_eq!(out.children.len(), 2);
        assert_eq!(out.children[0].1, vec![0, 1]);
        assert_eq!(out.children[1].1, vec![3, 4]);
        // Cells share the boundary x = 2.
        assert_eq!(out.children[0].0.hi(0), 2.0);
        assert_eq!(out.children[1].0.lo(0), 2.0);
    }

    #[test]
    fn heavy_object_respects_weighted_median() {
        // Object 3 carries most of the verbose weight; the median must
        // land on or before it so no child exceeds half the weight.
        let points = pts(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]);
        let weights = vec![1, 1, 1, 10];
        let p = KdPartitioner::new(points.clone(), weights.clone());
        let out = p.split(&p.root_cell(), &[0, 1, 2, 3], 0).unwrap();
        let total: u64 = weights.iter().sum();
        for (_, objs) in &out.children {
            let w: u64 = objs.iter().map(|&o| weights[o as usize]).sum();
            assert!(2 * w <= total, "child weight {w} of {total}");
        }
    }

    #[test]
    fn heavy_median_object_on_duplicate_coordinates_ties_by_id() {
        // x = 2 is shared by objects 1, 2 (heavy) and 3; x = 1 by 0 and
        // 5; x = 3 by 4 and 6. The weighted median lands on the heavy
        // object, the whole x = 2 run becomes the pivot set, and every
        // run lists its objects by ascending id whatever the input order.
        let points = pts(&[
            (1.0, 4.0),
            (2.0, 5.0),
            (2.0, 1.0),
            (2.0, 9.0),
            (3.0, 0.0),
            (1.0, 7.0),
            (3.0, 3.0),
        ]);
        let p = KdPartitioner::new(points, vec![1, 1, 9, 1, 1, 1, 1]);
        let out = p.split(&p.root_cell(), &[6, 5, 4, 3, 2, 1, 0], 0).unwrap();
        assert_eq!(out.pivots, vec![1, 2, 3]);
        assert_eq!(out.children.len(), 2);
        assert_eq!(out.children[0].1, vec![0, 5]);
        assert_eq!(out.children[1].1, vec![4, 6]);
        assert_eq!(out.children[0].0.hi(0), 2.0);
    }

    #[test]
    fn duplicate_axis_coordinates_become_pivots() {
        let points = pts(&[(1.0, 0.0), (1.0, 1.0), (1.0, 2.0), (2.0, 3.0)]);
        let p = KdPartitioner::new(points, vec![1; 4]);
        let out = p.split(&p.root_cell(), &[0, 1, 2, 3], 0).unwrap();
        // Median x = 1 → the three x=1 objects are boundary pivots.
        assert_eq!(out.pivots, vec![0, 1, 2]);
        assert_eq!(out.children.len(), 1);
        assert_eq!(out.children[0].1, vec![3]);
    }

    #[test]
    fn fully_duplicated_points_fall_back_to_other_axis() {
        // All x equal; the y axis still separates.
        let points = pts(&[(1.0, 0.0), (1.0, 1.0), (1.0, 2.0)]);
        let p = KdPartitioner::new(points, vec![1; 3]);
        let out = p.split(&p.root_cell(), &[0, 1, 2], 0).unwrap();
        assert!(!out.children.is_empty());
    }

    #[test]
    fn identical_points_unsplittable() {
        let points = pts(&[(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)]);
        let p = KdPartitioner::new(points, vec![1; 3]);
        assert!(p.split(&p.root_cell(), &[0, 1, 2], 0).is_none());
    }

    #[test]
    fn alternating_axes() {
        let points = pts(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]);
        let p = KdPartitioner::new(points, vec![1; 3]);
        let out = p.split(&p.root_cell(), &[0, 1, 2], 1).unwrap();
        // Depth 1 splits on y.
        assert_eq!(out.children[0].0.hi(1), 1.0);
        assert!(out.children[0].0.hi(0).is_infinite());
    }
}

//! The kd-tree partitioner (§3.1–§3.2).
//!
//! Splits alternate axes by level; the split coordinate is the *weighted
//! median* of the active objects (weight = `|e.Doc|`), which builds the
//! kd-tree over the verbose set `P` of §3.2 without materializing it.
//! Objects lying exactly on the split hyperplane are the node's pivot
//! set (they are "on the boundary of `Δ_v1` or `Δ_v2`"); ties in the
//! median selection are broken lexicographically by object id, the
//! implementation counterpart of the paper's rank-space Step 4.

use std::borrow::Cow;

use skq_geom::Rect;
use skq_invidx::Document;

use super::partitioner::{CellStore, Partitioner, SplitOutcome};

/// Weighted kd-tree splits with rectangle cells.
///
/// Coordinates are one packed array, object `i`'s `dim` values at
/// `coords[i·dim..(i+1)·dim]`, and weights are narrowed to `u32` (a
/// weight is a document length, and the framework indexes fewer than
/// 2³¹ keyword occurrences).
#[derive(Debug)]
pub struct KdPartitioner {
    coords: Vec<f64>,
    weights: Vec<u32>,
    dim: usize,
}

impl KdPartitioner {
    /// Creates a partitioner over packed `coords` (object `i`'s `dim`
    /// values at `coords[i·dim..(i+1)·dim]`) with verbose weights
    /// (`weights[i] = |docs[i]|`, see [`doc_weights`]).
    ///
    /// # Panics
    ///
    /// Panics on empty input, a `dim` outside `1..=MAX_DIM`, a
    /// coordinate count that is not `dim` per weight, or zero weights.
    pub fn new(dim: usize, coords: Vec<f64>, weights: Vec<u32>) -> Self {
        assert!(!weights.is_empty(), "kd partitioner needs points");
        assert!(
            (1..=skq_geom::MAX_DIM).contains(&dim),
            "unsupported dimension {dim}"
        );
        assert_eq!(coords.len(), weights.len() * dim);
        assert!(weights.iter().all(|&w| w > 0), "documents are non-empty");
        Self {
            coords,
            weights,
            dim,
        }
    }

    /// The number of indexed objects.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether no object is indexed (never true: construction rejects
    /// empty input).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// The packed coordinates of every object, in object order.
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// Object `i`'s coordinates.
    pub fn point_coords(&self, i: u32) -> &[f64] {
        &self.coords[i as usize * self.dim..][..self.dim]
    }

    /// The dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The per-object weights (exposed for the snapshot encoder).
    pub fn weights(&self) -> &[u32] {
        &self.weights
    }
}

/// The verbose weights `|docs[i]|`, narrowed to `u32`. A length past
/// `u32` saturates, and the framework then rejects the input's
/// keyword-occurrence total.
pub fn doc_weights(docs: &[Document]) -> Vec<u32> {
    docs.iter()
        .map(|d| u32::try_from(d.len()).unwrap_or(u32::MAX))
        .collect()
}

/// A kd tree's cells, packed: node `i`'s `dim` lower bounds then its
/// `dim` upper bounds at `bounds[2·dim·i..2·dim·(i+1)]`.
#[derive(Debug, Default)]
pub struct PackedRects {
    dim: usize,
    bounds: Vec<f64>,
}

impl PackedRects {
    /// Node `i`'s `2·dim` bounds, lower bounds first.
    pub(crate) fn bounds(&self, i: usize) -> &[f64] {
        &self.bounds[2 * self.dim * i..][..2 * self.dim]
    }

    /// Node `i`'s bounds, for the deep validator's corruption tests.
    #[cfg(test)]
    pub(crate) fn bounds_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.bounds[2 * self.dim * i..][..2 * self.dim]
    }

    /// Appends a cell of `dim = bounds.len() / 2` given as lower bounds
    /// then upper bounds, which the caller has checked to be ordered.
    pub(crate) fn push_bounds(&mut self, bounds: &[f64]) {
        self.dim = bounds.len() / 2;
        self.bounds.extend_from_slice(bounds);
    }
}

impl CellStore<Rect> for PackedRects {
    fn push(&mut self, cell: Rect) {
        self.dim = cell.dim();
        self.bounds.extend((0..self.dim).map(|i| cell.lo(i)));
        self.bounds.extend((0..self.dim).map(|i| cell.hi(i)));
    }

    fn cell(&self, i: usize) -> Cow<'_, Rect> {
        let (lo, hi) = self.bounds(i).split_at(self.dim);
        Cow::Owned(Rect::new(lo, hi))
    }

    fn shrink_to_fit(&mut self) {
        self.bounds.shrink_to_fit();
    }
}

impl Partitioner for KdPartitioner {
    type Cell = Rect;
    type Cells = PackedRects;

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
        u64::from(self.weights[obj as usize])
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
            .map(|&o| (self.coords[o as usize * self.dim + axis], o))
            .collect();
        keyed.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        // Weighted median: the minimal prefix reaching half the weight.
        let total: u64 = objects.iter().map(|&o| self.weight(o)).sum();
        let mut cum = 0u64;
        let median_pos = keyed
            .iter()
            .position(|&(_, o)| {
                cum += self.weight(o);
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

    /// A 2-D partitioner over `raw` points with `weights`.
    fn part(raw: &[(f64, f64)], weights: Vec<u32>) -> KdPartitioner {
        let coords = raw.iter().flat_map(|&(x, y)| [x, y]).collect();
        KdPartitioner::new(2, coords, weights)
    }

    #[test]
    fn split_balances_weight() {
        let points = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)];
        let p = part(&points, vec![1; 5]);
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
        let points = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)];
        let weights = vec![1, 1, 1, 10];
        let p = part(&points, weights.clone());
        let out = p.split(&p.root_cell(), &[0, 1, 2, 3], 0).unwrap();
        let total: u32 = weights.iter().sum();
        for (_, objs) in &out.children {
            let w: u32 = objs.iter().map(|&o| weights[o as usize]).sum();
            assert!(2 * w <= total, "child weight {w} of {total}");
        }
    }

    #[test]
    fn heavy_median_object_on_duplicate_coordinates_ties_by_id() {
        // x = 2 is shared by objects 1, 2 (heavy) and 3; x = 1 by 0 and
        // 5; x = 3 by 4 and 6. The weighted median lands on the heavy
        // object, the whole x = 2 run becomes the pivot set, and every
        // run lists its objects by ascending id whatever the input order.
        let points = [
            (1.0, 4.0),
            (2.0, 5.0),
            (2.0, 1.0),
            (2.0, 9.0),
            (3.0, 0.0),
            (1.0, 7.0),
            (3.0, 3.0),
        ];
        let p = part(&points, vec![1, 1, 9, 1, 1, 1, 1]);
        let out = p.split(&p.root_cell(), &[6, 5, 4, 3, 2, 1, 0], 0).unwrap();
        assert_eq!(out.pivots, vec![1, 2, 3]);
        assert_eq!(out.children.len(), 2);
        assert_eq!(out.children[0].1, vec![0, 5]);
        assert_eq!(out.children[1].1, vec![4, 6]);
        assert_eq!(out.children[0].0.hi(0), 2.0);
    }

    #[test]
    fn duplicate_axis_coordinates_become_pivots() {
        let points = [(1.0, 0.0), (1.0, 1.0), (1.0, 2.0), (2.0, 3.0)];
        let p = part(&points, vec![1; 4]);
        let out = p.split(&p.root_cell(), &[0, 1, 2, 3], 0).unwrap();
        // Median x = 1 → the three x=1 objects are boundary pivots.
        assert_eq!(out.pivots, vec![0, 1, 2]);
        assert_eq!(out.children.len(), 1);
        assert_eq!(out.children[0].1, vec![3]);
    }

    #[test]
    fn fully_duplicated_points_fall_back_to_other_axis() {
        // All x equal; the y axis still separates.
        let points = [(1.0, 0.0), (1.0, 1.0), (1.0, 2.0)];
        let p = part(&points, vec![1; 3]);
        let out = p.split(&p.root_cell(), &[0, 1, 2], 0).unwrap();
        assert!(!out.children.is_empty());
    }

    #[test]
    fn identical_points_unsplittable() {
        let points = [(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)];
        let p = part(&points, vec![1; 3]);
        assert!(p.split(&p.root_cell(), &[0, 1, 2], 0).is_none());
    }

    #[test]
    fn alternating_axes() {
        let points = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)];
        let p = part(&points, vec![1; 3]);
        let out = p.split(&p.root_cell(), &[0, 1, 2], 1).unwrap();
        // Depth 1 splits on y.
        assert_eq!(out.children[0].0.hi(1), 1.0);
        assert!(out.children[0].0.hi(0).is_infinite());
    }
}

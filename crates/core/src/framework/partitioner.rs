//! The space-partitioning abstraction (Step 1 of the framework).
//!
//! §3.1 characterizes the geometric indexes the framework applies to:
//! trees in which every node `u` has a cell `Δ_u` covering the points in
//! its subtree, the root cell is the whole space, and sibling cells are
//! interior-disjoint with union `Δ_u`. [`Partitioner`] captures exactly
//! the build-time behaviour the transformation needs: a root cell and a
//! rule that splits a node's *active* objects into child cells plus the
//! boundary objects that become the node's *pivot set* (§3.2).

/// The result of splitting one node.
#[derive(Debug)]
pub struct SplitOutcome<C> {
    /// Objects lying on the boundary of the child cells — they stay at
    /// this node as its pivot set `D_u^pvt`.
    pub pivots: Vec<u32>,
    /// Child cells with their active sets `D_v^act` (objects strictly
    /// assigned to the child; each child's closed cell contains all its
    /// objects). Children with empty active sets are omitted.
    pub children: Vec<(C, Vec<u32>)>,
}

/// A space-partitioning strategy: the geometry that Step 1 of the
/// framework plugs in.
///
/// Implementations own the point coordinates (in whatever space the
/// caller prepared: rank space for the kd-tree used by ORP-KW, raw
/// coordinates for the partition tree used by SP-KW) and the per-object
/// weights `|e.Doc|`, so that splits follow the *verbose set* of §3.2
/// without materializing it.
pub trait Partitioner {
    /// The cell type `Δ_u` (a rectangle for kd-trees, a convex polygon
    /// for the 2D partition tree).
    type Cell: Clone;

    /// The root cell — covers the entire space.
    fn root_cell(&self) -> Self::Cell;

    /// Splits a node.
    ///
    /// `objects` is the node's active set, `cell` its cell, `depth` its
    /// level (the kd-tree alternates split axes by level). Returns
    /// `None` when the node cannot be split (degenerate active set), in
    /// which case the framework makes it a leaf holding all objects as
    /// pivots.
    ///
    /// Contract: the returned pivot and child active sets partition
    /// `objects`; each child's closed cell must contain all its objects
    /// and be contained in `cell`; each child's total weight must be at
    /// most half the node's weight (this yields the `O(log N)` height
    /// the paper's `|P_u| = O(N / 2^{level})` invariant rests on).
    fn split(
        &self,
        cell: &Self::Cell,
        objects: &[u32],
        depth: usize,
    ) -> Option<SplitOutcome<Self::Cell>>;

    /// Per-object weight `|e.Doc|` (the object's multiplicity in the
    /// verbose set).
    fn weight(&self, obj: u32) -> u64;

    /// Whether `child`'s cell is contained in `parent`'s — the §3.1
    /// nesting requirement, consulted by the deep validator. `None` (the default) means the cell type cannot
    /// answer cheaply and the nesting check is skipped for this
    /// partitioner.
    fn cell_nested(parent: &Self::Cell, child: &Self::Cell) -> Option<bool> {
        let _ = (parent, child);
        None
    }

    /// Total weight of a set of objects.
    fn total_weight(&self, objects: &[u32]) -> u64 {
        objects.iter().map(|&o| self.weight(o)).sum()
    }
}

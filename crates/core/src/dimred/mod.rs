//! The dimension-reduction technique (Theorem 2, §4).
//!
//! To index `R^{λ+1}` given an `R^λ` index, §4 builds a tree over the
//! x-dimension with *doubly-exponentially growing fanouts*
//! `f_u = 2 · 2^{k^{level(u)}}`, realized by `f`-balanced cuts
//! ([`cut::f_balanced_cut`]). Each node stores its pivot objects
//! explicitly and a *secondary* `λ`-dimensional index on its active set
//! (ignoring the x-dimension). The tree has `O(log log N)` levels
//! (Proposition 1), so each added dimension multiplies space by only
//! `O(log log N)`.
//!
//! A query walks down the x-range: nodes whose x-extent `σ(u)` is
//! contained in the query's x-interval are **type-1** (answered wholly
//! by their secondary index); the at-most-two-per-level boundary nodes
//! are **type-2** (pivots scanned, children recursed) — Figure 2.

pub mod cut;

use std::ops::ControlFlow;

use skq_geom::Rect;
use skq_invidx::Keyword;

use crate::dataset::Dataset;
use crate::orp::OrpKwIndex;
use crate::query::KwQuery;
use crate::sink::{MapSink, ResultSink};
use crate::stats::QueryStats;

use cut::f_balanced_cut;

struct DrNode {
    level: u32,
    /// Tightest interval of active-set x-coordinates (`σ(u)` in §4).
    sigma: (f64, f64),
    /// Pivot objects `e*ᵢ` (global ids).
    pivots: Vec<u32>,
    children: Vec<u32>,
    /// Secondary `λ`-dimensional index over the active set with the
    /// x-coordinate dropped; object `j` of the secondary corresponds to
    /// global object `local[j]`.
    secondary: OrpKwIndex,
    local: Vec<u32>,
}

/// The §4 tree for ORP-KW in `d ≥ 3` dimensions.
pub struct DimRedTree {
    nodes: Vec<DrNode>,
    dataset: Dataset,
    k: usize,
}

impl DimRedTree {
    /// Builds the tree for exactly-`k`-keyword queries.
    ///
    /// # Panics
    ///
    /// Panics if `dataset.dim() < 3` (use the kd framework directly) or
    /// `k < 2`.
    pub fn build(dataset: &Dataset, k: usize) -> Self {
        assert!(dataset.dim() >= 3, "dimension reduction applies for d >= 3");
        assert!(k >= 2);
        let mut tree = Self {
            nodes: Vec::new(),
            dataset: dataset.clone(),
            k,
        };
        let mut all: Vec<u32> = (0..dataset.len() as u32).collect();
        // Sort by (x, id) once; recursion preserves x-contiguous slices.
        all.sort_unstable_by(|&a, &b| {
            dataset
                .point(a as usize)
                .get(0)
                .total_cmp(&dataset.point(b as usize).get(0))
                .then(a.cmp(&b))
        });
        tree.build_node(all, 0);
        tree.nodes.shrink_to_fit();
        tree
    }

    /// The fanout `f_u = 2 · 2^{k^{level}}`, saturating (a saturated
    /// fanout forces a leaf, which the doubly-exponential growth reaches
    /// after `O(log log N)` levels).
    fn fanout(k: usize, level: u32) -> u64 {
        let mut exp: u64 = 1;
        for _ in 0..level {
            exp = exp.saturating_mul(k as u64);
            if exp >= 63 {
                return u64::MAX;
            }
        }
        2u64.saturating_mul(1u64 << exp)
    }

    fn build_node(&mut self, sorted: Vec<u32>, level: u32) -> u32 {
        let id = self.nodes.len() as u32;
        let sigma = (
            self.dataset.point(sorted[0] as usize).get(0),
            self.dataset.point(*sorted.last().unwrap() as usize).get(0),
        );

        // Secondary λ-dimensional index on the active set, x dropped.
        let (sub, local) = self.dataset.subset(&sorted);
        let sub = sub.map_points(|_, p| p.drop_first());
        let secondary =
            OrpKwIndex::try_build(&sub, self.k).expect("the enclosing ORP-KW build validated k");

        self.nodes.push(DrNode {
            level,
            sigma,
            pivots: Vec::new(),
            children: Vec::new(),
            secondary,
            local,
        });

        let f = Self::fanout(self.k, level);
        let cut = f_balanced_cut(&sorted, f, |o| self.dataset.weight(o as usize));
        if cut.groups.is_empty() {
            // All objects became pivots: a leaf.
            self.nodes[id as usize].pivots = sorted;
            return id;
        }
        self.nodes[id as usize].pivots = cut.pivots;
        let children: Vec<u32> = cut
            .groups
            .into_iter()
            .map(|g| self.build_node(g, level + 1))
            .collect();
        self.nodes[id as usize].children = children;
        id
    }

    /// The number of levels (Proposition 1 bounds this by
    /// `O(log log N)`).
    pub fn num_levels(&self) -> usize {
        self.nodes.iter().map(|n| n.level).max().unwrap_or(0) as usize + 1
    }

    /// The number of tree nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The indexed dataset.
    pub(crate) fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// Index space in words (tree skeleton + pivots + id maps +
    /// secondary structures).
    pub fn space_words(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| {
                8 + n.pivots.len() + n.children.len() + n.local.len() + n.secondary.space_words()
            })
            .sum()
    }

    /// Answers a query: global object ids are emitted into `sink`; type-1 secondary-index hits stream through
    /// the node's local→global map with no intermediate vector.
    pub fn query_sink<S: ResultSink>(
        &self,
        q: &Rect,
        keywords: &[Keyword],
        sink: &mut S,
        stats: &mut QueryStats,
    ) -> ControlFlow<()> {
        assert_eq!(q.dim(), self.dataset.dim(), "query dimension mismatch");
        if sink.is_full() {
            return ControlFlow::Break(());
        }
        let (qlo, qhi) = q.interval(0);
        let root = &self.nodes[0];
        if root.sigma.1 < qlo || qhi < root.sigma.0 {
            return ControlFlow::Continue(());
        }
        self.visit(0, q, (qlo, qhi), keywords, sink, stats)
    }

    fn visit<S: ResultSink>(
        &self,
        node_id: u32,
        q: &Rect,
        qx: (f64, f64),
        keywords: &[Keyword],
        sink: &mut S,
        stats: &mut QueryStats,
    ) -> ControlFlow<()> {
        let node = &self.nodes[node_id as usize];
        stats.nodes_visited += 1;
        if qx.0 <= node.sigma.0 && node.sigma.1 <= qx.1 {
            // Type 1: the x-extent is inside the query's x-interval —
            // answer with the secondary index, ignoring x.
            QueryStats::bump(&mut stats.type1_by_level, node.level as usize);
            let sub_q = q.drop_first();
            let mut sub_stats = QueryStats::new();
            let mut remap = MapSink::new(&mut *sink, |l| node.local[l as usize]);
            // Erase the adapter type before recursing: the secondary is
            // itself dimension-reduced for d ≥ 4, and a concrete
            // `MapSink` per level would monomorphize without bound.
            let mut erased: &mut dyn ResultSink = &mut remap;
            let flow = node
                .secondary
                .query_sink(&sub_q, keywords, &mut erased, &mut sub_stats);
            stats.absorb(&sub_stats);
            return flow;
        }

        // Type 2: boundary node — scan pivots, recurse into children
        // whose x-extent meets the query.
        QueryStats::bump(&mut stats.type2_by_level, node.level as usize);
        for &e in &node.pivots {
            stats.pivot_scans += 1;
            if self.dataset.doc(e as usize).contains_all(keywords)
                && q.contains(self.dataset.point(e as usize))
            {
                stats.reported += 1;
                sink.emit(e)?;
            }
        }
        for &c in &node.children {
            let cs = self.nodes[c as usize].sigma;
            if cs.0 <= qx.1 && qx.0 <= cs.1 {
                self.visit(c, q, qx, keywords, sink, stats)?;
            }
        }
        ControlFlow::Continue(())
    }
}

impl DimRedTree {
    /// Deep structural validation (DESIGN.md §12): checks §4's x-extent ordering and nesting, level progression,
    /// the pivot partition across the tree, the local→global id maps,
    /// and recursively every node's secondary index.
    pub fn validate(&self) -> Result<(), crate::invariants::InvariantViolation> {
        use crate::invariants::InvariantViolation as V;
        let n = self.dataset.len();
        let mut is_pivot = vec![false; n];
        for (i, node) in self.nodes.iter().enumerate() {
            if node.sigma.0 > node.sigma.1 {
                return Err(V::new(
                    "dimred::sigma",
                    format!(
                        "node {i}: inverted x-extent ({}, {})",
                        node.sigma.0, node.sigma.1
                    ),
                ));
            }
            for &c in &node.children {
                let Some(child) = self.nodes.get(c as usize) else {
                    return Err(V::new(
                        "dimred::tree_shape",
                        format!("node {i} references child {c}, out of range"),
                    ));
                };
                if child.level != node.level + 1 {
                    return Err(V::new(
                        "dimred::tree_shape",
                        format!(
                            "child {c} at level {} under node {i} at level {}",
                            child.level, node.level
                        ),
                    ));
                }
                if child.sigma.0 < node.sigma.0 || child.sigma.1 > node.sigma.1 {
                    return Err(V::new(
                        "dimred::sigma",
                        format!("x-extent of child {c} escapes its parent node {i}"),
                    ));
                }
            }
            for &e in &node.pivots {
                if e as usize >= n {
                    return Err(V::new(
                        "dimred::pivot_partition",
                        format!("node {i} stores pivot {e}, out of range"),
                    ));
                }
                if std::mem::replace(&mut is_pivot[e as usize], true) {
                    return Err(V::new(
                        "dimred::pivot_partition",
                        format!("object {e} is a pivot at two nodes"),
                    ));
                }
            }
            for &g in &node.local {
                if g as usize >= n {
                    return Err(V::new(
                        "dimred::local_map",
                        format!("node {i}: local→global entry {g} out of range"),
                    ));
                }
            }
            node.secondary.validate()?;
        }
        if let Some(orphan) = is_pivot.iter().position(|&stored| !stored) {
            return Err(V::new(
                "dimred::pivot_partition",
                format!("object {orphan} is a pivot at no node"),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skq_geom::Point;

    #[test]
    fn fanout_growth() {
        assert_eq!(DimRedTree::fanout(2, 0), 4); // 2·2^1
        assert_eq!(DimRedTree::fanout(2, 1), 8); // 2·2^2
        assert_eq!(DimRedTree::fanout(2, 2), 32); // 2·2^4
        assert_eq!(DimRedTree::fanout(2, 3), 512); // 2·2^8
        assert_eq!(DimRedTree::fanout(2, 4), 2 * (1u64 << 16));
        assert_eq!(DimRedTree::fanout(2, 5), 2 * (1u64 << 32));
        assert_eq!(DimRedTree::fanout(2, 6), u64::MAX); // saturated
        assert_eq!(DimRedTree::fanout(3, 0), 4);
        assert_eq!(DimRedTree::fanout(3, 1), 16); // 2·2^3
    }

    #[test]
    fn small_3d_tree_queries() {
        let dataset = Dataset::from_parts(
            (0..40)
                .map(|i| {
                    let f = i as f64;
                    (
                        Point::new3(f, (i * 7 % 40) as f64, (i * 13 % 40) as f64),
                        vec![(i % 3) as u32, 3 + (i % 2) as u32],
                    )
                })
                .collect(),
        );
        let tree = DimRedTree::build(&dataset, 2);
        let q = Rect::new(&[5.0, 0.0, 0.0], &[30.0, 40.0, 40.0]);
        let kws = [0u32, 3u32];
        let mut out = Vec::new();
        let mut stats = QueryStats::new();
        let _ = tree.query_sink(&q, &kws, &mut out, &mut stats);
        out.sort_unstable();
        let expected: Vec<u32> = (0..40u32)
            .filter(|&i| {
                dataset.doc(i as usize).contains_all(&kws) && q.contains(dataset.point(i as usize))
            })
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn type2_nodes_bounded_per_level() {
        let dataset = Dataset::from_parts(
            (0..300)
                .map(|i| {
                    let f = i as f64;
                    (
                        Point::new3(f, f * 0.5, f * 0.25),
                        vec![0, 1 + (i % 4) as u32],
                    )
                })
                .collect(),
        );
        let tree = DimRedTree::build(&dataset, 2);
        let q = Rect::new(&[17.0, 0.0, 0.0], &[240.0, 300.0, 300.0]);
        let mut out = Vec::new();
        let mut stats = QueryStats::new();
        let _ = tree.query_sink(&q, &[0, 1], &mut out, &mut stats);
        for (lvl, &count) in stats.type2_by_level.iter().enumerate() {
            assert!(count <= 2, "level {lvl} has {count} type-2 nodes");
        }
    }
}

//! The transformed index (Steps 2–3 of the framework, §3.2–§3.3).

use std::ops::{ControlFlow, RangeInclusive};

use skq_geom::{Rect, Region};
use skq_invidx::{Document, Keyword};

use crate::error::{validate, SkqError};
use crate::failpoints;
use crate::fastmap::FxHashMap;
use crate::persist::{self, Persist, SCHEMA_VERSION};
use crate::sink::ResultSink;
use crate::stats::QueryStats;

use super::combo::{for_each_k_subset, ComboTable};
use super::kd::KdPartitioner;
use super::partitioner::{Partitioner, SplitOutcome};

/// The largest supported `k` (`validate::build_k`'s upper bound).
const MAX_K: usize = 16;

/// One list per layer, on the stack: at most one layer per
/// `k ∈ 2..=MAX_K`.
type PerLayer = [Vec<u32>; MAX_K - 1];

/// Build-time knobs.
#[derive(Clone, Copy, Debug)]
pub struct FrameworkConfig {
    /// Nodes whose verbose weight `N_u` is at most this become leaves
    /// whose pivot set is their whole active set. The paper recurses to
    /// single points; a small constant cap only changes constants while
    /// keeping node counts (and build time) reasonable.
    pub leaf_weight: u64,
}

impl Default for FrameworkConfig {
    fn default() -> Self {
        Self { leaf_weight: 24 }
    }
}

/// A tree node's geometry: everything that does not depend on `k`.
struct Node<C> {
    cell: C,
    level: u32,
    weight: u64,
    children: Vec<u32>,
    /// Objects stored at this node (boundary objects for internal
    /// nodes; the whole active set for leaves).
    pivots: Vec<u32>,
}

/// One node's keyword tables for one `k` (§3.2).
#[derive(Default)]
struct NodeTable {
    /// Large keywords at this node → local id in `0..L` (ids follow
    /// ascending keyword order).
    large: FxHashMap<Keyword, u32>,
    /// One emptiness table per child (parallel to the node's
    /// `children`); empty when `L < k` (then no `k` distinct keywords
    /// can all be large).
    combos: Vec<ComboTable>,
    /// Materialized `D_u^act(w)` for keywords small at this node but
    /// large at all proper ancestors. Lists exclude this node's pivots
    /// (those are reported by the visit itself), so reporting never
    /// duplicates. A keyword that qualifies but has an empty list is
    /// simply absent.
    materialized: FxHashMap<Keyword, Vec<u32>>,
}

/// The keyword layer for one `k`: a table per tree node, parallel to
/// the node arena. Only the large/small threshold `N_u^{1−1/k}` and
/// what follows from it depend on `k`; the tree is shared.
struct Layer {
    k: usize,
    tables: Vec<NodeTable>,
}

/// Build-time keyword state, shared by every node and layer of one
/// build.
///
/// Keywords are remapped once onto dense ids `0..V` in ascending
/// keyword order, so ascending dense ids are ascending keywords and the
/// per-node tables come out exactly as a keyword-keyed build makes them.
#[derive(Default)]
struct DenseKeywords {
    /// Dense id → keyword, ascending.
    words: Vec<Keyword>,
    /// Object `o`'s dense ids, ascending, are `ids[off[o]..off[o + 1]]`.
    off: Vec<u32>,
    ids: Vec<u32>,
    /// Per dense id, zero outside the node being built. While a node
    /// counts, a candidate holds `1 + |D_u^act(w)|`; once classified, a
    /// large keyword holds `1 + local id`, a small one `SMALL | list
    /// index`, and an absent one 0.
    state: Vec<u32>,
    /// A document's large-keyword local ids.
    local: Vec<u32>,
}

/// Marks a small keyword's `DenseKeywords::state`.
const SMALL: u32 = 1 << 31;

impl DenseKeywords {
    fn new(docs: &[Document]) -> Self {
        let total = docs.iter().map(Document::len).sum();
        let mut words: Vec<Keyword> = Vec::with_capacity(total);
        words.extend(docs.iter().flat_map(|d| d.keywords().iter().copied()));
        words.sort_unstable();
        words.dedup();
        let mut off = Vec::with_capacity(docs.len() + 1);
        let mut ids = Vec::with_capacity(total);
        off.push(0);
        for d in docs {
            ids.extend(
                d.keywords()
                    .iter()
                    .map(|&w| words.partition_point(|&x| x < w) as u32),
            );
            off.push(ids.len() as u32);
        }
        let state = vec![0; words.len()];
        Self {
            words,
            off,
            ids,
            state,
            local: Vec::new(),
        }
    }

    /// Fills an internal node's layer-`k` table — large keywords,
    /// emptiness tables and materialized lists (§3.2) — from its
    /// `weight`, `pivots` and `children`; returns the large keywords'
    /// dense ids, ascending — the children's candidates in this layer.
    fn fill_node<C>(
        &mut self,
        table: &mut NodeTable,
        k: usize,
        weight: u64,
        pivots: &[u32],
        children: &[(C, Vec<u32>)],
        candidates: &[u32],
    ) -> Vec<u32> {
        let Self {
            words,
            off,
            ids,
            state,
            local,
        } = self;
        let doc = |o: u32| &ids[off[o as usize] as usize..off[o as usize + 1] as usize];

        // --- Large/small classification at this node (§3.2). ---
        // Count |D_u^act(w)| for the materialization candidates (keywords
        // large at every proper ancestor — others can never be needed
        // here, because a query only descends while all its keywords
        // stay large). A non-candidate's state stays 0.
        let tau = (weight as f64).powf(1.0 - 1.0 / k as f64);
        for &w in candidates {
            state[w as usize] = 1;
        }
        for &o in pivots.iter().chain(children.iter().flat_map(|(_, c)| c)) {
            for &w in doc(o) {
                let s = &mut state[w as usize];
                *s += u32::from(*s != 0);
            }
        }
        // Candidates ascend, so local ids follow ascending keyword order.
        let mut large_list: Vec<u32> = Vec::new();
        let mut small_lists: Vec<(Keyword, Vec<u32>)> = Vec::new();
        for &w in candidates {
            let s = &mut state[w as usize];
            let count = *s - 1;
            *s = if count == 0 {
                0 // empty list: absence means empty at query time
            } else if (count as f64) >= tau {
                large_list.push(w);
                large_list.len() as u32
            } else {
                small_lists.push((words[w as usize], Vec::with_capacity(count as usize)));
                SMALL | (small_lists.len() - 1) as u32
            };
        }
        debug_assert!(
            (large_list.len() as f64) <= (weight as f64).powf(1.0 / k as f64) + 1.0,
            "more than N_u^(1/k) large keywords"
        );

        // --- One pass over the children's active sets fills both the
        // materialized lists (small here, large at all ancestors) and the
        // per-child emptiness tables over large-keyword k-tuples. Pivots
        // are excluded: every visit scans them anyway, so listing them
        // would double-report.
        let l = large_list.len();
        let mut combos: Vec<ComboTable> = Vec::new();
        if l >= k || !small_lists.is_empty() {
            for (_, child_objs) in children {
                let mut combo = (l >= k).then(|| ComboTable::new(l, k));
                for &o in child_objs {
                    local.clear();
                    for &w in doc(o) {
                        match state[w as usize] {
                            0 => {}
                            s if s & SMALL != 0 => small_lists[(s & !SMALL) as usize].1.push(o),
                            s => local.push(s - 1),
                        }
                    }
                    if let Some(combo) = &mut combo {
                        // Dense ids ascend within a document, so the
                        // local ids do too.
                        for_each_k_subset(local, k, &mut |subset| combo.set(subset));
                    }
                }
                combos.extend(combo);
            }
        }
        for &w in candidates {
            state[w as usize] = 0;
        }

        table.large = large_list
            .iter()
            .enumerate()
            .map(|(i, &w)| (words[w as usize], i as u32))
            .collect();
        table.combos = combos;
        small_lists.retain(|(_, list)| !list.is_empty());
        table.materialized = small_lists.into_iter().collect();
        large_list
    }
}

/// Sorts and dedups `keywords` into `buf` without allocating; returns
/// the number of distinct keywords, or `None` past [`MAX_K`].
fn distinct_sorted(keywords: &[Keyword], buf: &mut [Keyword; MAX_K]) -> Option<usize> {
    let mut n = 0;
    for &w in keywords {
        let pos = buf[..n].partition_point(|&x| x < w);
        if pos < n && buf[pos] == w {
            continue;
        }
        if n == MAX_K {
            return None;
        }
        buf.copy_within(pos..n, pos + 1);
        buf[pos] = w;
        n += 1;
    }
    Some(n)
}

/// A keyword-transformed space-partitioning index (§3.2).
///
/// One tree — cells, levels, weights, pivots — is built from the
/// geometry alone and carries one keyword layer per served `k`, so
/// a range of `k` shares the split, the documents and the pivots.
///
/// Generic over the geometry via [`Partitioner`]; the query side is
/// generic over the query shape via a cell-classification closure and a
/// point-acceptance closure, so a single tree answers rectangles,
/// halfspace conjunctions, simplices, or lifted balls.
pub struct TransformedIndex<P: Partitioner> {
    partitioner: P,
    docs: Vec<Document>,
    nodes: Vec<Node<P::Cell>>,
    /// One layer per served `k`, ascending and consecutive.
    layers: Vec<Layer>,
    config: FrameworkConfig,
    total_weight: u64,
}

impl<P: Partitioner> TransformedIndex<P> {
    /// Builds the index for queries of `k` distinct keywords, for every
    /// `k` in `ks` (a single-`k` index passes `k..=k`).
    ///
    /// `docs[i]` is the document of object `i`; the partitioner owns the
    /// matching coordinates. `N = Σ |docs[i]|` is the paper's input
    /// size.
    ///
    /// The tree is split once; each node then fills one keyword table
    /// per `k`, each from the candidates its own layer inherited, so
    /// every layer equals the single-`k` build of its `k`.
    ///
    /// # Errors
    ///
    /// `SkqError::InvalidQuery` if `ks` is empty or leaves `2..=16`;
    /// `SkqError::InvalidDataset` if `docs` is empty or holds 2³¹ or
    /// more keyword occurrences in total. (With the
    /// `failpoints` feature, an armed `framework::build` site also
    /// fails here.)
    pub fn try_build(
        partitioner: P,
        docs: Vec<Document>,
        ks: RangeInclusive<usize>,
        config: FrameworkConfig,
    ) -> Result<Self, SkqError> {
        validate::build_ks(&ks)?;
        if docs.is_empty() {
            return Err(SkqError::InvalidDataset(
                "cannot index an empty dataset".into(),
            ));
        }
        // The build's keyword offsets, counts and list indexes are u32
        // below the `SMALL` tag bit; every document is non-empty, so this
        // bounds the object count too.
        if docs.iter().map(Document::len).sum::<usize>() >= SMALL as usize {
            return Err(SkqError::InvalidDataset(
                "the framework indexes fewer than 2^31 keyword occurrences".into(),
            ));
        }
        failpoints::check("framework::build")?;
        let all: Vec<u32> = (0..docs.len() as u32).collect();
        let total_weight = partitioner.total_weight(&all);
        // A root that is a leaf does no keyword work, so it needs no remap.
        let mut dense = if total_weight > config.leaf_weight {
            DenseKeywords::new(&docs)
        } else {
            DenseKeywords::default()
        };
        let mut index = Self {
            partitioner,
            docs,
            nodes: Vec::new(),
            layers: ks
                .map(|k| Layer {
                    k,
                    tables: Vec::new(),
                })
                .collect(),
            config,
            total_weight,
        };
        let root_cell = index.partitioner.root_cell();
        // At the root every keyword is trivially "large at all (zero)
        // proper ancestors", i.e. a materialization candidate.
        let mut candidates = PerLayer::default();
        for c in &mut candidates[..index.layers.len()] {
            *c = (0..dense.words.len() as u32).collect();
        }
        index.build_node(&mut dense, root_cell, all, 0, &candidates);
        Ok(index)
    }

    /// Recursively builds the subtree over `objects`; returns the node
    /// id. Nodes are numbered in preorder. `candidates[i]` are the
    /// dense ids of the keywords large at every proper ancestor in
    /// layer `i`, ascending.
    fn build_node(
        &mut self,
        dense: &mut DenseKeywords,
        cell: P::Cell,
        objects: Vec<u32>,
        level: u32,
        candidates: &PerLayer,
    ) -> u32 {
        let weight = self.partitioner.total_weight(&objects);
        let id = self.nodes.len() as u32;
        for layer in &mut self.layers {
            layer.tables.push(NodeTable::default());
        }

        // Leaf: store the whole active set as pivots; a visit scans them
        // all, so no keyword machinery is needed.
        let outcome = if weight <= self.config.leaf_weight {
            None
        } else {
            self.partitioner.split(&cell, &objects, level as usize)
        };
        let (pivots, children) = match outcome {
            Some(SplitOutcome { pivots, children }) => (pivots, children),
            None => (objects, Vec::new()),
        };
        // With no children (a leaf, or a split that degenerated to
        // "everything is a boundary object") nothing is tabled here. With
        // no candidates nothing is large, small or tabled here, nor
        // anywhere below: a query never descends past a node where one
        // of its keywords is small.
        let mut larges = PerLayer::default();
        if !children.is_empty() {
            for ((layer, cands), large) in self.layers.iter_mut().zip(candidates).zip(&mut larges) {
                if !cands.is_empty() {
                    let table = &mut layer.tables[id as usize];
                    *large = dense.fill_node(table, layer.k, weight, &pivots, &children, cands);
                }
            }
        }
        self.nodes.push(Node {
            cell,
            level,
            weight,
            children: Vec::new(),
            pivots,
        });

        // --- Recurse; children inherit each layer's large keywords as
        // that layer's candidates.
        let child_ids: Vec<u32> = children
            .into_iter()
            .map(|(ccell, cobjs)| self.build_node(dense, ccell, cobjs, level + 1, &larges))
            .collect();
        self.nodes[id as usize].children = child_ids;
        id
    }

    /// The smallest number of query keywords served — the only one for
    /// a single-`k` build.
    pub fn k(&self) -> usize {
        self.layers[0].k
    }

    /// Every number of query keywords served, one keyword layer each.
    pub fn ks(&self) -> RangeInclusive<usize> {
        self.k()..=self.layers[self.layers.len() - 1].k
    }

    /// The layer answering `k`-keyword queries, if one is built.
    fn layer(&self, k: usize) -> Option<&Layer> {
        self.layers.get(k.checked_sub(self.k())?)
    }

    /// The number of tree nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The tree height (max level).
    pub fn height(&self) -> usize {
        self.nodes.iter().map(|n| n.level).max().unwrap_or(0) as usize
    }

    /// Total verbose weight `N`.
    pub fn input_size(&self) -> u64 {
        self.total_weight
    }

    /// The partitioner (and through it, the indexed coordinates).
    pub fn partitioner(&self) -> &P {
        &self.partitioner
    }

    /// Object `i`'s document.
    pub(crate) fn doc(&self, i: usize) -> &Document {
        &self.docs[i]
    }

    /// Index space in 64-bit words: tree skeleton and pivot ids once,
    /// then per layer the large tables, emptiness bit arrays, and
    /// materialized lists. Cells are charged a constant via
    /// `cell_words`.
    pub fn space_words(&self, cell_words: usize) -> usize {
        let mut total = 0usize;
        for n in &self.nodes {
            total += 6 + cell_words; // fixed per-node fields
            total += n.children.len();
            total += n.pivots.len();
        }
        for t in self.layers.iter().flat_map(|l| &l.tables) {
            total += t.large.len() * 2;
            total += t.combos.iter().map(ComboTable::space_words).sum::<usize>();
            total += t.materialized.values().map(|v| v.len() + 2).sum::<usize>();
        }
        total
    }

    /// Answers a query of `k` distinct keywords, for a `k` the index
    /// serves: every matching object is emitted into `sink`, which may
    /// stop the traversal early (the returned `ControlFlow::Break`
    /// reports that it did).
    ///
    /// * `keywords` — the query keywords (duplicates ignored);
    /// * `classify` — cell-vs-query classification (conservative allowed);
    /// * `accept` — exact point-in-query test by object id.
    ///
    /// The traversal records `reported` (offers to the sink) in `stats`
    /// but leaves `emitted`/`truncated` for the sink's owner, so a sink
    /// threaded through several indexes is accounted exactly once.
    ///
    /// # Panics
    ///
    /// Panics if the number of distinct `keywords` is not a `k` the
    /// index was built for.
    pub fn query_sink<S: ResultSink>(
        &self,
        keywords: &[Keyword],
        classify: &dyn Fn(&P::Cell) -> Region,
        accept: &dyn Fn(u32) -> bool,
        sink: &mut S,
        stats: &mut QueryStats,
    ) -> ControlFlow<()> {
        let mut buf = [0; MAX_K];
        let layer = distinct_sorted(keywords, &mut buf).and_then(|n| self.layer(n));
        let Some(layer) = layer else {
            panic!("{:?}", validate::distinct_keywords_in(keywords, &self.ks()));
        };
        let kws = &buf[..layer.k];
        if sink.is_full() {
            return ControlFlow::Break(());
        }
        let root_region = classify(&self.nodes[0].cell);
        if root_region == Region::Disjoint {
            return ControlFlow::Continue(());
        }
        self.visit(
            &layer.tables,
            0,
            root_region,
            kws,
            classify,
            accept,
            sink,
            stats,
        )
    }

    // The recursion threads every traversal input (layer, region,
    // keyword set, classify/accept callbacks, sink, stats) explicitly
    // instead of a context struct rebuilt per node.
    #[allow(clippy::too_many_arguments)]
    fn visit<S: ResultSink>(
        &self,
        tables: &[NodeTable],
        node_id: u32,
        region: Region,
        kws: &[Keyword],
        classify: &dyn Fn(&P::Cell) -> Region,
        accept: &dyn Fn(u32) -> bool,
        sink: &mut S,
        stats: &mut QueryStats,
    ) -> ControlFlow<()> {
        let node = &self.nodes[node_id as usize];
        let table = &tables[node_id as usize];
        stats.nodes_visited += 1;
        match region {
            Region::Covered => stats.covered_nodes += 1,
            Region::Crossing => {
                stats.crossing_nodes += 1;
                QueryStats::bump(&mut stats.crossing_by_level, node.level as usize);
            }
            Region::Disjoint => unreachable!("disjoint nodes are never visited"),
        }

        // Scan the pivot set (every visit does; §3.3 "to visit a node").
        for &e in &node.pivots {
            stats.pivot_scans += 1;
            if self.docs[e as usize].contains_all(kws) && accept(e) {
                stats.reported += 1;
                sink.emit(e)?;
            }
        }
        if node.children.is_empty() {
            return ControlFlow::Continue(());
        }

        // Are all k keywords large at this node?
        let mut local = [0u32; MAX_K];
        let mut all_large = true;
        for (slot, &w) in local.iter_mut().zip(kws) {
            match table.large.get(&w) {
                Some(&lid) => *slot = lid,
                None => {
                    all_large = false;
                    break;
                }
            }
        }

        if all_large {
            let ids = &mut local[..kws.len()];
            ids.sort_unstable();
            debug_assert!(
                !table.combos.is_empty(),
                "k distinct large keywords imply L >= k"
            );
            for (ci, &child) in node.children.iter().enumerate() {
                if !table.combos[ci].get(ids) {
                    continue; // ⋂ D_v^act(w_i) = ∅ — skip the subtree
                }
                let child_region = match region {
                    Region::Covered => Region::Covered,
                    _ => classify(&self.nodes[child as usize].cell),
                };
                if child_region != Region::Disjoint {
                    self.visit(
                        tables,
                        child,
                        child_region,
                        kws,
                        classify,
                        accept,
                        sink,
                        stats,
                    )?;
                }
            }
        } else {
            // Small path: some keyword is small here, hence materialized
            // here (it was large at every ancestor, or we would not have
            // descended). Scan the shortest such list.
            stats.small_path_nodes += 1;
            let list: &[u32] = kws
                .iter()
                .filter(|w| !table.large.contains_key(w))
                .map(|w| table.materialized.get(w).map(Vec::as_slice).unwrap_or(&[]))
                .min_by_key(|l| l.len())
                .unwrap_or(&[]);
            for &e in list {
                stats.list_scans += 1;
                if self.docs[e as usize].contains_all(kws) && accept(e) {
                    stats.reported += 1;
                    sink.emit(e)?;
                }
            }
        }
        ControlFlow::Continue(())
    }

    /// Iterates over `(level, weight, num_pivots, num_large)` per node
    /// in layer `k` — diagnostics for the invariants the property tests
    /// assert.
    ///
    /// # Panics
    ///
    /// Panics if the index serves no layer `k`.
    pub fn node_summaries(&self, k: usize) -> impl Iterator<Item = (u32, u64, usize, usize)> + '_ {
        let layer = self
            .layer(k)
            .unwrap_or_else(|| panic!("the index has no layer k = {k}"));
        self.nodes
            .iter()
            .zip(&layer.tables)
            .map(|(n, t)| (n.level, n.weight, n.pivots.len(), t.large.len()))
    }

    /// Deep structural validation (DESIGN.md §12): re-derives the §3
    /// invariants from the built structure rather than trusting the
    /// build path's bookkeeping — the tree once, then every layer.
    ///
    /// # Errors
    ///
    /// The first violated invariant, by name.
    pub fn validate(&self) -> Result<(), crate::invariants::InvariantViolation> {
        use crate::invariants::InvariantViolation as V;
        // The §3.2 arithmetic invariants: large-keyword cap L ≤ N_u^(1/k),
        // materialized lists < τ, child weight ≤ half, combo parallelism.
        let section3 = |detail: String| V::new("framework::section3", detail);
        for (i, n) in self.nodes.iter().enumerate() {
            // Children carry at most half the weight.
            // (Out-of-range children are reported by the shape check.)
            for cw in n
                .children
                .iter()
                .filter_map(|&c| self.nodes.get(c as usize))
            {
                let cw = cw.weight;
                if cw * 2 > n.weight {
                    return Err(section3(format!(
                        "node {i}: child weight {cw} exceeds half of {}",
                        n.weight
                    )));
                }
            }
        }
        let n = self.docs.len();
        for (li, layer) in self.layers.iter().enumerate() {
            let k = layer.k;
            if k != self.k() + li || layer.tables.len() != self.nodes.len() {
                return Err(section3(format!(
                    "layer {li} serves k = {k} with {} tables for {} nodes",
                    layer.tables.len(),
                    self.nodes.len()
                )));
            }
            for (i, (node, t)) in self.nodes.iter().zip(&layer.tables).enumerate() {
                // Large-keyword bound L ≤ N_u^(1/k) (+1 for float rounding).
                let cap = (node.weight as f64).powf(1.0 / k as f64) + 1.0;
                if t.large.len() as f64 > cap {
                    return Err(section3(format!(
                        "layer k = {k}, node {i}: {} large keywords exceeds N_u^(1/k) = {cap}",
                        t.large.len()
                    )));
                }
                // Combo tables parallel children when present.
                if !t.combos.is_empty() && t.combos.len() != node.children.len() {
                    return Err(section3(format!(
                        "layer k = {k}, node {i}: combo/children length mismatch"
                    )));
                }
                // Materialized lists: shorter than the threshold, and
                // in-range, duplicate-free ids whose documents actually
                // contain the listed keyword.
                let tau = (node.weight as f64).powf(1.0 - 1.0 / k as f64);
                for (&w, list) in &t.materialized {
                    let fail = |name, what: String| {
                        V::new(
                            name,
                            format!("layer k = {k}, node {i}, list of {w}: {what}"),
                        )
                    };
                    if list.len() as f64 >= tau + 1.0 {
                        let what = format!("{} ≥ τ = {tau}", list.len());
                        return Err(fail("framework::section3", what));
                    }
                    let mut sorted = list.clone();
                    sorted.sort_unstable();
                    if sorted.windows(2).any(|p| p[0] == p[1]) {
                        return Err(fail("framework::materialized", "duplicate id".into()));
                    }
                    for &e in list {
                        if e as usize >= n {
                            return Err(fail(
                                "framework::materialized",
                                format!("id {e} out of range"),
                            ));
                        }
                        if !self.docs[e as usize].contains_all(&[w]) {
                            let what = format!("object {e}'s document lacks the keyword");
                            return Err(fail("framework::materialized", what));
                        }
                    }
                }
            }
        }

        // Tree shape: child ids in range, every non-root node the child
        // of exactly one parent, levels increasing by one, child cells
        // nested in their parent's (when the cell type can answer).
        let mut child_of = vec![false; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            for &c in &node.children {
                let c = c as usize;
                if c >= self.nodes.len() {
                    return Err(V::new(
                        "framework::tree_shape",
                        format!("node {i} references child {c}, out of range"),
                    ));
                }
                if std::mem::replace(&mut child_of[c], true) {
                    return Err(V::new(
                        "framework::tree_shape",
                        format!("node {c} has two parents"),
                    ));
                }
                if self.nodes[c].level != node.level + 1 {
                    return Err(V::new(
                        "framework::tree_shape",
                        format!(
                            "child {c} at level {} under parent {i} at level {}",
                            self.nodes[c].level, node.level
                        ),
                    ));
                }
                if let Some(false) = P::cell_nested(&node.cell, &self.nodes[c].cell) {
                    return Err(V::new(
                        "framework::cell_nesting",
                        format!("cell of node {c} escapes its parent node {i}"),
                    ));
                }
            }
        }
        if let Some(i) = child_of.iter().skip(1).position(|&reached| !reached) {
            return Err(V::new(
                "framework::tree_shape",
                format!("node {} is unreachable from the root", i + 1),
            ));
        }

        // Pivot partition (§3.2): every object is stored at exactly one
        // node — boundary objects at internal nodes, the whole active
        // set at leaves.
        let mut owner: Vec<u32> = vec![u32::MAX; n];
        for (i, node) in self.nodes.iter().enumerate() {
            for &e in &node.pivots {
                if e as usize >= n {
                    return Err(V::new(
                        "framework::pivot_partition",
                        format!("node {i} stores object {e}, out of range"),
                    ));
                }
                if owner[e as usize] != u32::MAX {
                    return Err(V::new(
                        "framework::pivot_partition",
                        format!("object {e} stored at nodes {} and {i}", owner[e as usize]),
                    ));
                }
                owner[e as usize] = i as u32;
            }
        }
        if let Some(orphan) = owner.iter().position(|&o| o == u32::MAX) {
            return Err(V::new(
                "framework::pivot_partition",
                format!("object {orphan} stored at no node"),
            ));
        }

        Ok(())
    }
}

/// The snapshot layout: `TREE_HEAD` (declaring the lowest `k`), points,
/// weights and documents, then `TREE_NODES` pages holding each node's
/// geometry followed by its lowest-`k` table — so a single-`k` index
/// writes exactly the single-layer format. Every further layer follows
/// as one `TREE_LAYER` section: a head page (`k`, node count) and then
/// the node tables, 256 per page, in the same codec.
impl Persist for TransformedIndex<KdPartitioner> {
    fn to_pages(&self, w: &mut persist::PageWriter) -> Result<(), SkqError> {
        let points = self.partitioner.points();
        let dim = self.partitioner.dim();
        let n = points.len();
        let mut head = Vec::new();
        persist::put_uv(&mut head, self.k() as u64);
        persist::put_uv(&mut head, self.config.leaf_weight);
        persist::put_uv(&mut head, self.total_weight);
        persist::put_uv(&mut head, n as u64);
        persist::put_uv(&mut head, dim as u64);
        persist::put_uv(&mut head, self.nodes.len() as u64);
        w.page(persist::kind::TREE_HEAD, SCHEMA_VERSION, head);
        persist::put_point_pages(w, persist::kind::TREE_POINTS, points, dim);
        let mut weights = Vec::with_capacity(n);
        for &wt in self.partitioner.weights() {
            persist::put_uv(&mut weights, wt);
        }
        w.page(persist::kind::TREE_WEIGHTS, SCHEMA_VERSION, weights);
        persist::put_doc_pages(w, persist::kind::TREE_DOCS, &self.docs);
        let first = &self.layers[0].tables;
        for (nodes, tables) in self
            .nodes
            .chunks(NODES_PER_PAGE)
            .zip(first.chunks(NODES_PER_PAGE))
        {
            let mut buf = Vec::new();
            for (node, table) in nodes.iter().zip(tables) {
                encode_node(&mut buf, node, dim);
                encode_table(&mut buf, table);
            }
            w.page(persist::kind::TREE_NODES, SCHEMA_VERSION, buf);
        }
        for layer in &self.layers[1..] {
            let mut head = Vec::new();
            persist::put_uv(&mut head, layer.k as u64);
            persist::put_uv(&mut head, layer.tables.len() as u64);
            w.page(persist::kind::TREE_LAYER, SCHEMA_VERSION, head);
            for tables in layer.tables.chunks(NODES_PER_PAGE) {
                let mut buf = Vec::new();
                for table in tables {
                    encode_table(&mut buf, table);
                }
                w.page(persist::kind::TREE_LAYER, SCHEMA_VERSION, buf);
            }
        }
        Ok(())
    }

    fn from_pages(r: &mut persist::PageReader<'_>) -> Result<Self, SkqError> {
        let section = "framework";
        let mut head = r.page(persist::kind::TREE_HEAD, SCHEMA_VERSION, section)?;
        let k = head.usizev()?;
        let leaf_weight = head.uv()?;
        let total_weight = head.uv()?;
        let n = head.usizev()?;
        let dim = head.usizev()?;
        let node_count = head.usizev()?;
        head.end()?;
        if !(2..=MAX_K).contains(&k) {
            return Err(corrupt(format!("k = {k} outside the supported 2..=16")));
        }
        if n == 0 {
            return Err(corrupt("tree indexes zero objects".into()));
        }
        if node_count == 0 {
            return Err(corrupt("tree has zero nodes".into()));
        }
        let points = persist::read_point_pages(r, persist::kind::TREE_POINTS, section, n, dim)?;
        for (i, p) in points.iter().enumerate() {
            for d in 0..dim {
                if !p.get(d).is_finite() {
                    return Err(corrupt(format!("point {i} has a non-finite coordinate")));
                }
            }
        }
        let mut wdec = r.page(persist::kind::TREE_WEIGHTS, SCHEMA_VERSION, section)?;
        let mut weights = Vec::with_capacity(n);
        for i in 0..n {
            let wt = wdec.uv()?;
            if wt == 0 {
                return Err(corrupt(format!("object {i} has zero weight")));
            }
            weights.push(wt);
        }
        wdec.end()?;
        let docs = persist::read_doc_pages(r, persist::kind::TREE_DOCS, section, n)?;
        let mut nodes = Vec::with_capacity(node_count.min(1 << 20));
        let mut tables = Vec::with_capacity(node_count.min(1 << 20));
        let mut remaining = node_count;
        while remaining > 0 {
            let mut d = r.page(persist::kind::TREE_NODES, SCHEMA_VERSION, section)?;
            let in_page = remaining.min(NODES_PER_PAGE);
            for _ in 0..in_page {
                let id = nodes.len();
                let node = decode_node(&mut d, id, dim, n, node_count)?;
                tables.push(decode_table(&mut d, id, k, n, node.children.len())?);
                nodes.push(node);
            }
            d.end()?;
            remaining -= in_page;
        }
        let mut layers = vec![Layer { k, tables }];
        while r.peek_kind() == Some(persist::kind::TREE_LAYER) {
            let mut head = r.page(persist::kind::TREE_LAYER, SCHEMA_VERSION, section)?;
            let lk = head.usizev()?;
            let count = head.usizev()?;
            head.end()?;
            let want = layers[layers.len() - 1].k + 1;
            if lk != want || lk > MAX_K {
                return Err(corrupt(format!(
                    "layer k = {lk} where k = {want} (at most {MAX_K}) comes next"
                )));
            }
            if count != node_count {
                return Err(corrupt(format!(
                    "layer k = {lk} covers {count} nodes, the tree has {node_count}"
                )));
            }
            let mut tables = Vec::with_capacity(node_count.min(1 << 20));
            while tables.len() < node_count {
                let mut d = r.page(persist::kind::TREE_LAYER, SCHEMA_VERSION, section)?;
                let in_page = (node_count - tables.len()).min(NODES_PER_PAGE);
                for _ in 0..in_page {
                    let id = tables.len();
                    let children = nodes[id].children.len();
                    tables.push(decode_table(&mut d, id, lk, n, children)?);
                }
                d.end()?;
            }
            layers.push(Layer { k: lk, tables });
        }
        // `new` cannot panic here: points are non-empty with consistent
        // dimensionality by decoding, and every weight is positive.
        let partitioner = KdPartitioner::new(points, weights);
        Ok(Self {
            partitioner,
            docs,
            nodes,
            layers,
            config: FrameworkConfig { leaf_weight },
            total_weight,
        })
    }
}

/// Nodes per `TREE_NODES` page, and node tables per `TREE_LAYER` page.
const NODES_PER_PAGE: usize = 256;

/// Appends one arena node's geometry to a `TREE_NODES` payload.
fn encode_node(buf: &mut Vec<u8>, node: &Node<Rect>, dim: usize) {
    for i in 0..dim {
        persist::put_f64(buf, node.cell.lo(i));
    }
    for i in 0..dim {
        persist::put_f64(buf, node.cell.hi(i));
    }
    persist::put_uv(buf, u64::from(node.level));
    persist::put_uv(buf, node.weight);
    persist::put_uv(buf, node.children.len() as u64);
    for &c in &node.children {
        persist::put_uv(buf, u64::from(c));
    }
    persist::put_uv(buf, node.pivots.len() as u64);
    for &p in &node.pivots {
        persist::put_uv(buf, u64::from(p));
    }
}

/// Appends one node's keyword table to a `TREE_NODES` or `TREE_LAYER`
/// payload. The `large` map is stored as its ascending keyword list
/// alone: local ids are assigned by ascending-keyword enumeration at
/// build time, so the position in the list *is* the id.
fn encode_table(buf: &mut Vec<u8>, table: &NodeTable) {
    let mut large: Vec<(Keyword, u32)> = table.large.iter().map(|(&w, &id)| (w, id)).collect();
    large.sort_unstable();
    persist::put_uv(buf, large.len() as u64);
    for &(w, _) in &large {
        persist::put_uv(buf, u64::from(w));
    }
    persist::put_uv(buf, table.combos.len() as u64);
    for combo in &table.combos {
        let (l, k, bits) = combo.parts();
        persist::put_uv(buf, l as u64);
        persist::put_uv(buf, k as u64);
        for &word in bits {
            buf.extend_from_slice(&word.to_le_bytes());
        }
    }
    let mut mat: Vec<(Keyword, &Vec<u32>)> =
        table.materialized.iter().map(|(&w, v)| (w, v)).collect();
    mat.sort_unstable_by_key(|&(w, _)| w);
    persist::put_uv(buf, mat.len() as u64);
    for (w, list) in mat {
        persist::put_uv(buf, u64::from(w));
        persist::put_uv(buf, list.len() as u64);
        for &e in list {
            persist::put_uv(buf, u64::from(e));
        }
    }
}

fn corrupt(detail: String) -> SkqError {
    SkqError::Corrupted {
        section: "framework".into(),
        detail,
    }
}

/// Decodes one arena node's geometry, validating every field against
/// the tree's scalars so a checksum-passing but inconsistent file
/// cannot put the query path in a panicking state: cells are NaN-free
/// with ordered bounds, child ids point strictly forward (the arena is
/// built parent-before-child, which also rules out cycles), and object
/// ids are in range.
fn decode_node(
    d: &mut persist::Dec<'_>,
    id: usize,
    dim: usize,
    n: usize,
    node_count: usize,
) -> Result<Node<Rect>, SkqError> {
    let mut lo = [0.0f64; skq_geom::MAX_DIM];
    let mut hi = [0.0f64; skq_geom::MAX_DIM];
    for c in lo.iter_mut().take(dim) {
        *c = d.f64()?;
    }
    for c in hi.iter_mut().take(dim) {
        *c = d.f64()?;
    }
    for i in 0..dim {
        if lo[i].is_nan() || hi[i].is_nan() || lo[i] > hi[i] {
            return Err(corrupt(format!(
                "node {id}: malformed cell bounds on dim {i}"
            )));
        }
    }
    let cell = Rect::new(&lo[..dim], &hi[..dim]);
    let level = d.u32v()?;
    let weight = d.uv()?;
    let num_children = d.len(1)?;
    let mut children = Vec::with_capacity(num_children);
    for _ in 0..num_children {
        let c = d.u32v()?;
        if c as usize >= node_count || c as usize <= id {
            return Err(corrupt(format!(
                "node {id}: child id {c} not strictly forward"
            )));
        }
        children.push(c);
    }
    let num_pivots = d.len(1)?;
    let mut pivots = Vec::with_capacity(num_pivots);
    for _ in 0..num_pivots {
        let p = d.u32v()?;
        if p as usize >= n {
            return Err(corrupt(format!("node {id}: pivot {p} out of range")));
        }
        pivots.push(p);
    }
    Ok(Node {
        cell,
        level,
        weight,
        children,
        pivots,
    })
}

/// Decodes node `id`'s layer-`k` table: ascending keywords, combo
/// tables parallel to the node's `num_children` children and matching
/// the large-keyword count and `k`, and in-range list ids.
fn decode_table(
    d: &mut persist::Dec<'_>,
    id: usize,
    k: usize,
    n: usize,
    num_children: usize,
) -> Result<NodeTable, SkqError> {
    let num_large = d.len(1)?;
    let mut large = FxHashMap::default();
    let mut prev: Option<Keyword> = None;
    for lid in 0..num_large {
        let w = d.u32v()?;
        if prev.is_some_and(|p| p >= w) {
            return Err(corrupt(format!(
                "node {id}: large keywords out of order at {w}"
            )));
        }
        prev = Some(w);
        large.insert(w, lid as u32);
    }
    let num_combos = d.len(1)?;
    if num_combos != 0 && num_combos != num_children {
        return Err(corrupt(format!(
            "node {id}: {num_combos} combo tables for {num_children} children"
        )));
    }
    let mut combos = Vec::with_capacity(num_combos);
    for _ in 0..num_combos {
        let l = d.usizev()?;
        let tk = d.usizev()?;
        if l != num_large || tk != k {
            return Err(corrupt(format!(
                "node {id}: combo table over l={l} k={tk}, node has L={num_large} k={k}"
            )));
        }
        // `tk == k` is in 2..=16 here, so the cell count fits u128.
        let cells = (l as u128)
            .checked_pow(tk as u32)
            .filter(|&c| c <= 1 << 40)
            .ok_or_else(|| corrupt(format!("node {id}: combo table size overflows")))?;
        let words = (cells as usize).div_ceil(64);
        if d.remaining() < words * 8 {
            return Err(corrupt(format!("node {id}: combo table truncated")));
        }
        let mut bits = Vec::with_capacity(words);
        for _ in 0..words {
            bits.push(d.u64_raw()?);
        }
        let combo =
            ComboTable::from_parts(l, tk, bits).map_err(|e| corrupt(format!("node {id}: {e}")))?;
        combos.push(combo);
    }
    let num_mat = d.len(1)?;
    let mut materialized = FxHashMap::default();
    let mut prev_w: Option<Keyword> = None;
    for _ in 0..num_mat {
        let w = d.u32v()?;
        if prev_w.is_some_and(|p| p >= w) {
            return Err(corrupt(format!(
                "node {id}: materialized keywords out of order at {w}"
            )));
        }
        prev_w = Some(w);
        let len = d.len(1)?;
        let mut list = Vec::with_capacity(len);
        for _ in 0..len {
            let e = d.u32v()?;
            if e as usize >= n {
                return Err(corrupt(format!(
                    "node {id}: materialized id {e} out of range for keyword {w}"
                )));
            }
            list.push(e);
        }
        materialized.insert(w, list);
    }
    Ok(NodeTable {
        large,
        combos,
        materialized,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::KdPartitioner;
    use crate::sink::LimitSink;
    use skq_geom::Point;

    /// A 1D framework index over object ids — the minimal harness for
    /// exercising the large/small machinery directly.
    fn build_1d(
        docs: Vec<Vec<Keyword>>,
        ks: RangeInclusive<usize>,
        leaf_weight: u64,
    ) -> TransformedIndex<KdPartitioner> {
        let points: Vec<Point> = (0..docs.len()).map(|i| Point::new1(i as f64)).collect();
        let docs: Vec<Document> = docs.into_iter().map(Document::new).collect();
        let weights: Vec<u64> = docs.iter().map(|d| d.len() as u64).collect();
        TransformedIndex::try_build(
            KdPartitioner::new(points, weights),
            docs,
            ks,
            FrameworkConfig { leaf_weight },
        )
        .unwrap()
    }

    fn run(tree: &TransformedIndex<KdPartitioner>, kws: &[Keyword], limit: usize) -> Vec<u32> {
        let mut out = Vec::new();
        let mut stats = QueryStats::new();
        let _ = tree.query_sink(
            kws,
            &|_| Region::Covered,
            &|_| true,
            &mut LimitSink::new(&mut out, limit),
            &mut stats,
        );
        out.sort_unstable();
        out
    }

    #[test]
    fn single_node_tree() {
        let tree = build_1d(vec![vec![0, 1], vec![0], vec![1]], 2..=2, 1000);
        assert_eq!(tree.num_nodes(), 1);
        assert_eq!(run(&tree, &[0, 1], usize::MAX), vec![0]);
        assert_eq!(run(&tree, &[0, 1], 0), Vec::<u32>::new());
    }

    #[test]
    fn all_large_path_uses_combo_tables() {
        // Every object has both keywords → both keywords are large
        // everywhere; descent is steered purely by the bit tables.
        let docs: Vec<Vec<Keyword>> = (0..64).map(|_| vec![0, 1]).collect();
        let tree = build_1d(docs, 2..=2, 4);
        assert!(tree.num_nodes() > 10);
        let got = run(&tree, &[0, 1], usize::MAX);
        assert_eq!(got, (0..64).collect::<Vec<u32>>());
    }

    #[test]
    fn small_path_scans_materialized_list() {
        // Keyword 9 appears in exactly 3 of 256 docs → small at the
        // root → the query must terminate there via the list.
        let mut docs: Vec<Vec<Keyword>> = (0..256).map(|i| vec![i % 4]).collect();
        for i in [10usize, 100, 200] {
            docs[i].push(9);
        }
        let tree = build_1d(docs, 2..=2, 4);
        let mut out = Vec::new();
        let mut stats = QueryStats::new();
        let _ = tree.query_sink(
            &[0, 9],
            &|_| Region::Covered,
            &|_| true,
            &mut out,
            &mut stats,
        );
        out.sort_unstable();
        assert_eq!(out, vec![100, 200]); // 10 % 4 != 0, so only 100 and 200
        assert_eq!(stats.small_path_nodes, 1, "must stop at the root");
        assert!(stats.list_scans <= 3);
    }

    #[test]
    fn candidate_free_subtrees_hold_no_keyword_tables() {
        // 256 keywords, each in one document: all are small at the root,
        // so every node below it is built without keyword work.
        let docs: Vec<Vec<Keyword>> = (0..256).map(|i| vec![i]).collect();
        let tree = build_1d(docs, 2..=2, 4);
        assert!(tree.num_nodes() > 10);
        let tables = &tree.layers[0].tables;
        assert!(tables[0].large.is_empty());
        assert_eq!(
            tables[0].materialized.len(),
            256 - tree.nodes[0].pivots.len()
        );
        for t in &tables[1..] {
            assert!(t.large.is_empty() && t.combos.is_empty() && t.materialized.is_empty());
        }
        assert_eq!(run(&tree, &[3, 4], usize::MAX), Vec::<u32>::new());
    }

    #[test]
    fn limit_stops_mid_list() {
        let docs: Vec<Vec<Keyword>> = (0..32).map(|_| vec![0, 1]).collect();
        let tree = build_1d(docs, 2..=2, 4);
        let got = run(&tree, &[0, 1], 5);
        assert_eq!(got.len(), 5);
    }

    #[test]
    fn count_sink_counts_without_collecting() {
        let docs: Vec<Vec<Keyword>> = (0..64).map(|_| vec![0, 1]).collect();
        let tree = build_1d(docs, 2..=2, 4);
        let mut count = crate::sink::CountSink::new();
        let mut stats = QueryStats::new();
        let flow = tree.query_sink(
            &[0, 1],
            &|_| Region::Covered,
            &|_| true,
            &mut count,
            &mut stats,
        );
        assert!(flow.is_continue());
        assert_eq!(count.count(), 64);
        assert_eq!(stats.reported, 64);
        assert_eq!(stats.emitted, 0, "emitted is accounted by the sink owner");
    }

    #[test]
    fn geometry_pruning_respects_classifier() {
        let docs: Vec<Vec<Keyword>> = (0..64).map(|_| vec![0, 1]).collect();
        let tree = build_1d(docs, 2..=2, 4);
        // Accept only ids < 10, prune cells entirely right of 10.
        let mut out = Vec::new();
        let mut stats = QueryStats::new();
        let _ = tree.query_sink(
            &[0, 1],
            &|cell| {
                if cell.lo(0) > 10.0 {
                    Region::Disjoint
                } else if cell.hi(0) <= 10.0 {
                    Region::Covered
                } else {
                    Region::Crossing
                }
            },
            &|o| o < 10,
            &mut out,
            &mut stats,
        );
        out.sort_unstable();
        assert_eq!(out, (0..10).collect::<Vec<u32>>());
        assert!(stats.nodes_visited < tree.num_nodes() as u64 / 2);
    }

    #[test]
    fn absent_keyword_is_empty_fast() {
        let docs: Vec<Vec<Keyword>> = (0..128).map(|_| vec![0, 1]).collect();
        let tree = build_1d(docs, 2..=2, 4);
        let mut out = Vec::new();
        let mut stats = QueryStats::new();
        let _ = tree.query_sink(
            &[0, 777],
            &|_| Region::Covered,
            &|_| true,
            &mut out,
            &mut stats,
        );
        assert!(out.is_empty());
        assert_eq!(
            stats.nodes_visited, 1,
            "missing keyword resolves at the root"
        );
    }

    #[test]
    fn layered_tree_answers_every_served_k() {
        let docs: Vec<Vec<Keyword>> = (0..300)
            .map(|i| vec![i % 3, 3 + i % 5, 8 + i % 7])
            .collect();
        let layered = build_1d(docs.clone(), 2..=3, 4);
        layered.validate().unwrap();
        for kws in [vec![0, 3], vec![1, 4, 9], vec![2, 7, 14]] {
            let single = build_1d(docs.clone(), kws.len()..=kws.len(), 4);
            assert_eq!(
                run(&layered, &kws, usize::MAX),
                run(&single, &kws, usize::MAX)
            );
        }
        // Duplicates collapse, however many there are.
        let repeated: Vec<Keyword> = (0..40).map(|i| [0, 3][i % 2]).collect();
        assert_eq!(
            run(&layered, &repeated, usize::MAX),
            run(&layered, &[0, 3], usize::MAX)
        );
    }

    #[test]
    #[should_panic(expected = "built for 2 to 3 distinct keywords, got 4")]
    fn unserved_keyword_count_panics() {
        let layered = build_1d(vec![vec![0, 1, 2, 3]; 8], 2..=3, 4);
        let _ = run(&layered, &[0, 1, 2, 3], usize::MAX);
    }

    #[test]
    fn k1_rejected() {
        let built = TransformedIndex::try_build(
            KdPartitioner::new(vec![Point::new1(0.0)], vec![1]),
            vec![Document::new(vec![0])],
            1..=1,
            FrameworkConfig::default(),
        );
        assert!(matches!(
            built,
            Err(SkqError::InvalidQuery(m)) if m.contains("k >= 2")
        ));
    }

    #[test]
    fn space_accounting_is_positive_and_bounded() {
        let docs: Vec<Vec<Keyword>> = (0..512).map(|i| vec![i % 16, 16 + (i % 8)]).collect();
        let tree = build_1d(docs, 2..=2, 8);
        let words = tree.space_words(3);
        assert!(words > 512);
        assert!(words < 200 * 1024, "space {words}");
        tree.validate().unwrap();
    }

    /// Deliberate corruption must be rejected with the *name* of the
    /// broken invariant (acceptance criterion of DESIGN.md §12).
    mod corruption {
        use super::*;
        use skq_geom::Rect;

        fn tree() -> TransformedIndex<KdPartitioner> {
            let docs: Vec<Vec<Keyword>> = (0..96).map(|i| vec![i % 4, 4 + (i % 3)]).collect();
            let t = build_1d(docs, 2..=2, 4);
            t.validate().unwrap();
            t
        }

        #[test]
        fn duplicated_pivot_names_pivot_partition() {
            let mut t = tree();
            let donor = t.nodes.iter().position(|n| !n.pivots.is_empty()).unwrap();
            let dup = t.nodes[donor].pivots[0];
            t.nodes.last_mut().unwrap().pivots.push(dup);
            let v = t.validate().unwrap_err();
            assert_eq!(v.invariant(), "framework::pivot_partition");
            assert!(v.to_string().contains(&format!("object {dup}")), "{v}");
        }

        #[test]
        fn skipped_level_names_tree_shape() {
            let mut t = tree();
            let parent = t.nodes.iter().position(|n| !n.children.is_empty()).unwrap();
            let child = t.nodes[parent].children[0] as usize;
            t.nodes[child].level += 1;
            assert_eq!(
                t.validate().unwrap_err().invariant(),
                "framework::tree_shape"
            );
        }

        #[test]
        fn escaped_cell_names_cell_nesting() {
            let mut t = tree();
            // A level-1 node's cell is bounded on one side, so blowing
            // its child's cell up to the full space breaks nesting.
            let parent = t
                .nodes
                .iter()
                .position(|n| n.level == 1 && !n.children.is_empty())
                .unwrap();
            let child = t.nodes[parent].children[0] as usize;
            t.nodes[child].cell = Rect::full(1);
            assert_eq!(
                t.validate().unwrap_err().invariant(),
                "framework::cell_nesting"
            );
        }

        #[test]
        fn foreign_id_in_list_names_materialized() {
            let mut t = tree();
            let (node, w) = t.layers[0]
                .tables
                .iter()
                .enumerate()
                .find_map(|(i, n)| n.materialized.keys().next().map(|&w| (i, w)))
                .expect("this workload materializes at least one list");
            // Object 0's document is {0, 4}: listing it under any other
            // keyword contradicts the list's definition.
            let foreign = (0..96u32)
                .find(|&e| !t.docs[e as usize].contains_all(&[w]))
                .unwrap();
            t.layers[0].tables[node]
                .materialized
                .get_mut(&w)
                .unwrap()
                .push(foreign);
            assert_eq!(
                t.validate().unwrap_err().invariant(),
                "framework::materialized"
            );
        }
    }
}

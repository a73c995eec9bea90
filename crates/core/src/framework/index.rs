//! The transformed index (Steps 2–3 of the framework, §3.2–§3.3).
//!
//! A built tree lives in a few flat arrays (DESIGN.md §17): a node
//! arena whose children and pivots are ranges of two shared id pools,
//! the partitioner's cell store, and per keyword layer a table slot per
//! node over pools of large keywords, emptiness-table words, list
//! entries and list ids. No node owns an allocation.

use std::ops::{ControlFlow, Range, RangeInclusive};
use std::sync::Arc;

use skq_geom::Region;
use skq_invidx::{Document, Keyword};

use crate::error::{validate, SkqError};
use crate::failpoints;
use crate::persist::{self, Persist, SCHEMA_VERSION};
use crate::sink::ResultSink;
use crate::stats::QueryStats;

use super::combo::{for_each_k_subset, table_words, ComboTable};
use super::kd::{KdPartitioner, PackedRects};
use super::partitioner::{CellStore, Partitioner, SplitOutcome};

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

/// A pool offset. Every pool stays below 2³² entries: object ids and
/// list ids are bounded by the 2³¹ keyword occurrences a build accepts,
/// and the keyword and bit-word pools by the tree's linear space.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("framework pools stay below 2^32 entries")
}

/// Item `i`'s range of a pool filled in item order: from its own start
/// to the next item's start, or to the pool's end for the last item.
fn span<T>(items: &[T], i: usize, start: impl Fn(&T) -> u32, pool_len: usize) -> Range<usize> {
    let end = items
        .get(i + 1)
        .map_or(pool_len, |next| start(next) as usize);
    start(&items[i]) as usize..end
}

/// One arena node: everything about it that does not depend on `k`.
#[derive(Clone, Copy, Debug)]
struct Node {
    weight: u64,
    level: u32,
    /// Start of the node's children in [`Arena::children`].
    children: u32,
    /// Start of the node's pivots in [`Arena::pivots`]: boundary
    /// objects for internal nodes, the whole active set for leaves.
    pivots: u32,
}

/// The tree's geometry, in preorder. A node's children and pivots are
/// ranges of the two shared pools, ending where the next node's begin.
struct Arena<S> {
    nodes: Vec<Node>,
    cells: S,
    children: Vec<u32>,
    pivots: Vec<u32>,
}

impl<S> Arena<S> {
    fn shrink_to_fit<C: Clone>(&mut self)
    where
        S: CellStore<C>,
    {
        self.nodes.shrink_to_fit();
        self.cells.shrink_to_fit();
        self.children.shrink_to_fit();
        self.pivots.shrink_to_fit();
    }

    fn len(&self) -> usize {
        self.nodes.len()
    }

    fn children(&self, i: usize) -> &[u32] {
        &self.children[span(&self.nodes, i, |n| n.children, self.children.len())]
    }

    fn pivots(&self, i: usize) -> &[u32] {
        &self.pivots[span(&self.nodes, i, |n| n.pivots, self.pivots.len())]
    }
}

/// A materialized `D_u^act(w)`: `len` ids of its layer's id pool from
/// `start`.
#[derive(Clone, Copy, Debug)]
struct List {
    keyword: Keyword,
    start: u32,
    len: u32,
}

/// Where one node's table starts in each pool of its layer; it ends
/// where the next table starts.
#[derive(Clone, Copy, Debug)]
struct TableStart {
    large: u32,
    combo: u32,
    lists: u32,
}

/// [`Layer::table_of`] of a node whose table is empty.
const NO_TABLE: u32 = u32::MAX;

/// A query keyword's slot in `visit` when the keyword is not large at
/// the node (local ids are below `L`).
const SMALL_HERE: u32 = u32::MAX;

/// The keyword layer for one `k` (§3.2). Only the large/small threshold
/// `N_u^{1−1/k}` and what follows from it depend on `k`; the tree is
/// shared.
struct Layer {
    k: usize,
    /// Per node, its table's index in `tables`, or [`NO_TABLE`] (every
    /// leaf, and every node below a point where all keywords went
    /// small).
    table_of: Vec<u32>,
    tables: Vec<TableStart>,
    /// Per table, its large keywords, ascending: a keyword's position
    /// is its local id.
    large: Vec<Keyword>,
    /// Per table, one emptiness table of `table_words(L, k)` words per
    /// child, in child order — none when `L < k` (then no `k` distinct
    /// keywords can all be large).
    combo: Vec<u64>,
    /// Per table, the materialized `D_u^act(w)` for keywords small at
    /// the node but large at all proper ancestors, ascending by
    /// keyword. Lists exclude the node's pivots (those are reported by
    /// the visit itself), so reporting never duplicates. A keyword that
    /// qualifies but has an empty list is simply absent.
    lists: Vec<List>,
    /// The lists' object ids.
    ids: Vec<u32>,
}

/// One node's table in one layer, borrowed from the layer's pools.
#[derive(Clone, Copy, Default)]
struct Table<'a> {
    large: &'a [Keyword],
    combo: &'a [u64],
    lists: &'a [List],
}

impl<'a> Table<'a> {
    // Both lookups are binary searches written as `partition_point`,
    // whose loop has no early exit and compiles without a branch per
    // step.

    /// `w`'s local id, if `w` is large at the node.
    fn local_id(&self, w: Keyword) -> Option<u32> {
        let i = self.large.partition_point(|&x| x < w);
        (self.large.get(i) == Some(&w)).then_some(i as u32)
    }

    /// `w`'s materialized list, if the node has one.
    fn list(&self, w: Keyword) -> Option<&'a List> {
        let i = self.lists.partition_point(|l| l.keyword < w);
        self.lists.get(i).filter(|l| l.keyword == w)
    }

    /// The number of emptiness tables: one per child, or none.
    fn num_combos(&self, num_children: usize) -> usize {
        if self.combo.is_empty() {
            0
        } else {
            num_children
        }
    }

    /// Child `ci`'s emptiness table (of `num_children` > 0).
    fn combo(&self, ci: usize, num_children: usize) -> ComboTable<&'a [u64]> {
        let words = self.combo.len() / num_children;
        ComboTable::new(self.large.len(), &self.combo[ci * words..][..words])
    }
}

impl Layer {
    fn new(k: usize) -> Self {
        Self {
            k,
            table_of: Vec::new(),
            tables: Vec::new(),
            large: Vec::new(),
            combo: Vec::new(),
            lists: Vec::new(),
            ids: Vec::new(),
        }
    }

    /// Node `node`'s table (empty for [`NO_TABLE`]).
    fn table(&self, node: usize) -> Table<'_> {
        let t = self.table_of[node];
        if t == NO_TABLE {
            return Table::default();
        }
        let t = t as usize;
        Table {
            large: &self.large[span(&self.tables, t, |s| s.large, self.large.len())],
            combo: &self.combo[span(&self.tables, t, |s| s.combo, self.combo.len())],
            lists: &self.lists[span(&self.tables, t, |s| s.lists, self.lists.len())],
        }
    }

    fn ids(&self, list: &List) -> &[u32] {
        &self.ids[list.start as usize..][..list.len as usize]
    }

    /// The pools' current ends: where the next table starts.
    fn ends(&self) -> TableStart {
        TableStart {
            large: offset(self.large.len()),
            combo: offset(self.combo.len()),
            lists: offset(self.lists.len()),
        }
    }

    /// Gives `node` the table appended to the pools since `start`, if
    /// anything was.
    fn close_table(&mut self, node: u32, start: TableStart) {
        let end = self.ends();
        if end.large > start.large || end.combo > start.combo || end.lists > start.lists {
            self.table_of[node as usize] = offset(self.tables.len());
            self.tables.push(start);
        }
    }

    fn shrink_to_fit(&mut self) {
        self.table_of.shrink_to_fit();
        self.tables.shrink_to_fit();
        self.large.shrink_to_fit();
        self.combo.shrink_to_fit();
        self.lists.shrink_to_fit();
        self.ids.shrink_to_fit();
    }

    /// Index space in 64-bit words, as the per-node tables are charged:
    /// two words per large keyword, the bit words plus two per
    /// emptiness table, and each list's ids plus two.
    fn space_words<S>(&self, arena: &Arena<S>) -> usize {
        let combo_tables: usize = (0..arena.len())
            .map(|i| self.table(i).num_combos(arena.children(i).len()))
            .sum();
        self.large.len() * 2
            + self.combo.len()
            + 2 * combo_tables
            + self.ids.len()
            + 2 * self.lists.len()
    }
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
    /// index` (relative to the node's first list), and an absent one 0.
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
        words.shrink_to_fit();
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

    /// Appends internal node `node`'s layer-`k` table — large keywords,
    /// emptiness tables and materialized lists (§3.2) — to `layer`'s
    /// pools, from its `weight`, `pivots` and `children`; returns the
    /// large keywords' dense ids, ascending — the children's candidates
    /// in this layer.
    fn fill_node<C>(
        &mut self,
        layer: &mut Layer,
        node: u32,
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
        let start = layer.ends();
        let k = layer.k;
        let Layer {
            large,
            combo,
            lists,
            ids: list_ids,
            ..
        } = layer;
        let (first_list, first_id) = (lists.len(), list_ids.len());

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
        // Candidates ascend, so local ids and lists follow ascending
        // keyword order. A small keyword's list gets `count` id slots —
        // its pivot occurrences among them, squeezed out below.
        let mut large_list: Vec<u32> = Vec::new();
        let mut reserved = first_id;
        for &w in candidates {
            let s = &mut state[w as usize];
            let count = *s - 1;
            *s = if count == 0 {
                0 // empty list: absence means empty at query time
            } else if (count as f64) >= tau {
                large_list.push(w);
                large_list.len() as u32
            } else {
                lists.push(List {
                    keyword: words[w as usize],
                    start: offset(reserved),
                    len: 0,
                });
                reserved += count as usize;
                SMALL | (lists.len() - 1 - first_list) as u32
            };
        }
        debug_assert!(
            (large_list.len() as f64) <= (weight as f64).powf(1.0 / k as f64) + 1.0,
            "more than N_u^(1/k) large keywords"
        );
        large.extend(large_list.iter().map(|&w| words[w as usize]));

        // --- One pass over the children's active sets fills both the
        // materialized lists (small here, large at all ancestors) and the
        // per-child emptiness tables over large-keyword k-tuples. Pivots
        // are excluded: every visit scans them anyway, so listing them
        // would double-report.
        let l = large_list.len();
        if l >= k || lists.len() > first_list {
            let words_per_child = if l >= k {
                table_words(l, k).expect("L <= N_u^(1/k) keeps the emptiness table in budget")
            } else {
                0
            };
            let first_word = combo.len();
            combo.resize(first_word + words_per_child * children.len(), 0);
            list_ids.resize(reserved, 0);
            for (ci, (_, child_objs)) in children.iter().enumerate() {
                let bits = &mut combo[first_word + ci * words_per_child..][..words_per_child];
                let mut table = ComboTable::new(l, bits);
                for &o in child_objs {
                    local.clear();
                    for &w in doc(o) {
                        match state[w as usize] {
                            0 => {}
                            s if s & SMALL != 0 => {
                                let list = &mut lists[first_list + (s & !SMALL) as usize];
                                list_ids[(list.start + list.len) as usize] = o;
                                list.len += 1;
                            }
                            s => local.push(s - 1),
                        }
                    }
                    if l >= k {
                        // Dense ids ascend within a document, so the
                        // local ids do too.
                        for_each_k_subset(local, k, &mut |subset| table.set(subset));
                    }
                }
            }
        }
        for &w in candidates {
            state[w as usize] = 0;
        }

        // Close the gaps the pivots left and drop the lists that only
        // pivots filled.
        let (mut kept, mut next_id) = (first_list, first_id);
        for i in first_list..lists.len() {
            let list = lists[i];
            if list.len == 0 {
                continue;
            }
            let from = list.start as usize;
            list_ids.copy_within(from..from + list.len as usize, next_id);
            lists[kept] = List {
                start: offset(next_id),
                ..list
            };
            kept += 1;
            next_id += list.len as usize;
        }
        lists.truncate(kept);
        list_ids.truncate(next_id);
        layer.close_table(node, start);
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
    /// Shared with the dataset the index was built from.
    docs: Arc<[Document]>,
    /// Boxed, so engines holding an index inline stay small.
    tree: Box<Arena<P::Cells>>,
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
    /// size. The index keeps `docs` as given, so a dataset's shared
    /// documents are stored once.
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
        docs: Arc<[Document]>,
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
            tree: Box::new(Arena {
                nodes: Vec::new(),
                cells: P::Cells::default(),
                children: Vec::new(),
                // Every object is some node's pivot, exactly once.
                pivots: Vec::with_capacity(docs.len()),
            }),
            docs,
            layers: ks.map(Layer::new).collect(),
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
        drop(dense);
        index.tree.shrink_to_fit();
        for layer in &mut index.layers {
            layer.shrink_to_fit();
        }
        Ok(index)
    }

    /// Recursively builds the subtree over `objects`; returns the node
    /// id. Nodes are numbered in preorder, and each appends its pivots,
    /// child slots and tables to the pools as it is created, so every
    /// range starts where the previous node's ends. `candidates[i]` are
    /// the dense ids of the keywords large at every proper ancestor in
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
        let id = offset(self.tree.len());
        for layer in &mut self.layers {
            layer.table_of.push(NO_TABLE);
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
                    *large = dense.fill_node(layer, id, weight, &pivots, &children, cands);
                }
            }
        }
        let tree = &mut self.tree;
        let first_child = tree.children.len();
        tree.nodes.push(Node {
            weight,
            level,
            children: offset(first_child),
            pivots: offset(tree.pivots.len()),
        });
        tree.cells.push(cell);
        tree.pivots.extend_from_slice(&pivots);
        drop(pivots);
        tree.children.resize(first_child + children.len(), 0);

        // --- Recurse; children inherit each layer's large keywords as
        // that layer's candidates.
        for (ci, (ccell, cobjs)) in children.into_iter().enumerate() {
            let child = self.build_node(dense, ccell, cobjs, level + 1, &larges);
            self.tree.children[first_child + ci] = child;
        }
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
        self.tree.len()
    }

    /// The tree height (max level).
    pub fn height(&self) -> usize {
        self.tree.nodes.iter().map(|n| n.level).max().unwrap_or(0) as usize
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
    ///
    /// This is the §3.2 space model, not the resident size: it charges
    /// six words of fixed fields per node and two per large keyword,
    /// emptiness table and list, and nothing for the per-layer table
    /// slots or the partitioner's coordinates.
    pub fn space_words(&self, cell_words: usize) -> usize {
        let tree = &self.tree;
        let skeleton = tree.len() * (6 + cell_words) + tree.children.len() + tree.pivots.len();
        skeleton
            + self
                .layers
                .iter()
                .map(|l| l.space_words(tree))
                .sum::<usize>()
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
        let root_region = classify(&self.tree.cells.cell(0));
        if root_region == Region::Disjoint {
            return ControlFlow::Continue(());
        }
        self.visit(layer, 0, root_region, kws, classify, accept, sink, stats)
    }

    // The recursion threads every traversal input (layer, region,
    // keyword set, classify/accept callbacks, sink, stats) explicitly
    // instead of a context struct rebuilt per node.
    #[allow(clippy::too_many_arguments)]
    fn visit<S: ResultSink>(
        &self,
        layer: &Layer,
        node_id: u32,
        region: Region,
        kws: &[Keyword],
        classify: &dyn Fn(&P::Cell) -> Region,
        accept: &dyn Fn(u32) -> bool,
        sink: &mut S,
        stats: &mut QueryStats,
    ) -> ControlFlow<()> {
        let i = node_id as usize;
        let tree = &self.tree;
        stats.nodes_visited += 1;
        match region {
            Region::Covered => stats.covered_nodes += 1,
            Region::Crossing => {
                stats.crossing_nodes += 1;
                QueryStats::bump(&mut stats.crossing_by_level, tree.nodes[i].level as usize);
            }
            Region::Disjoint => unreachable!("disjoint nodes are never visited"),
        }

        // Scan the pivot set (every visit does; §3.3 "to visit a node").
        // Here and on the small path, geometry is tested first: `accept`
        // reads the candidate's packed coordinates and rejects most
        // candidates of a selective query, while the keyword test costs
        // two dependent loads (the document, then its keyword block).
        // Both are pure, so the order changes no answer or counter.
        for &e in tree.pivots(i) {
            stats.pivot_scans += 1;
            if accept(e) && self.docs[e as usize].contains_all(kws) {
                stats.reported += 1;
                sink.emit(e)?;
            }
        }
        let children = tree.children(i);
        if children.is_empty() {
            return ControlFlow::Continue(());
        }

        // Are all k keywords large at this node? Each keyword's local
        // id, or `SMALL_HERE`.
        let table = layer.table(i);
        let mut local = [0u32; MAX_K];
        let mut all_large = true;
        for (slot, &w) in local.iter_mut().zip(kws) {
            *slot = table.local_id(w).unwrap_or(SMALL_HERE);
            all_large &= *slot != SMALL_HERE;
        }

        if all_large {
            // Local ids follow ascending keyword order, and `kws`
            // ascends, so the ids are already the sorted tuple.
            let ids = &local[..kws.len()];
            debug_assert!(
                !table.combo.is_empty(),
                "k distinct large keywords imply L >= k"
            );
            for (ci, &child) in children.iter().enumerate() {
                if !table.combo(ci, children.len()).get(ids) {
                    continue; // ⋂ D_v^act(w_i) = ∅ — skip the subtree
                }
                let child_region = match region {
                    Region::Covered => Region::Covered,
                    _ => classify(&tree.cells.cell(child as usize)),
                };
                if child_region != Region::Disjoint {
                    self.visit(
                        layer,
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
                .zip(&local)
                .filter(|&(_, &lid)| lid == SMALL_HERE)
                .map(|(&w, _)| table.list(w).map_or(&[][..], |l| layer.ids(l)))
                .min_by_key(|l| l.len())
                .unwrap_or(&[]);
            for &e in list {
                stats.list_scans += 1;
                if accept(e) && self.docs[e as usize].contains_all(kws) {
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
        let tree = &self.tree;
        (0..tree.len()).map(move |i| {
            let n = &tree.nodes[i];
            (
                n.level,
                n.weight,
                tree.pivots(i).len(),
                layer.table(i).large.len(),
            )
        })
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
        let tree = &self.tree;
        // The §3.2 arithmetic invariants: large-keyword cap L ≤ N_u^(1/k),
        // materialized lists < τ, child weight ≤ half, combo parallelism.
        let section3 = |detail: String| V::new("framework::section3", detail);
        for (i, n) in tree.nodes.iter().enumerate() {
            // Children carry at most half the weight.
            // (Out-of-range children are reported by the shape check.)
            for cw in tree
                .children(i)
                .iter()
                .filter_map(|&c| tree.nodes.get(c as usize))
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
            if k != self.k() + li || layer.table_of.len() != tree.len() {
                return Err(section3(format!(
                    "layer {li} serves k = {k} with {} table slots for {} nodes",
                    layer.table_of.len(),
                    tree.len()
                )));
            }
            if let Some(i) = layer
                .table_of
                .iter()
                .position(|&t| t != NO_TABLE && t as usize >= layer.tables.len())
            {
                return Err(section3(format!(
                    "layer k = {k}, node {i}: table slot out of range"
                )));
            }
            for (i, node) in tree.nodes.iter().enumerate() {
                let t = layer.table(i);
                // Large-keyword bound L ≤ N_u^(1/k) (+1 for float rounding).
                let cap = (node.weight as f64).powf(1.0 / k as f64) + 1.0;
                if t.large.len() as f64 > cap {
                    return Err(section3(format!(
                        "layer k = {k}, node {i}: {} large keywords exceeds N_u^(1/k) = {cap}",
                        t.large.len()
                    )));
                }
                // Combo tables parallel children when present.
                let num_children = tree.children(i).len();
                let words = table_words(t.large.len(), k).unwrap_or(0);
                if !t.combo.is_empty() && t.combo.len() != num_children * words {
                    return Err(section3(format!(
                        "layer k = {k}, node {i}: combo/children length mismatch"
                    )));
                }
                // Materialized lists: shorter than the threshold, and
                // in-range, duplicate-free ids whose documents actually
                // contain the listed keyword.
                let tau = (node.weight as f64).powf(1.0 - 1.0 / k as f64);
                for entry in t.lists {
                    let w = entry.keyword;
                    let list = layer.ids(entry);
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
                    let mut sorted = list.to_vec();
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
        let mut child_of = vec![false; tree.len()];
        for (i, node) in tree.nodes.iter().enumerate() {
            for &c in tree.children(i) {
                let c = c as usize;
                if c >= tree.len() {
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
                if tree.nodes[c].level != node.level + 1 {
                    return Err(V::new(
                        "framework::tree_shape",
                        format!(
                            "child {c} at level {} under parent {i} at level {}",
                            tree.nodes[c].level, node.level
                        ),
                    ));
                }
                if let Some(false) = P::cell_nested(&tree.cells.cell(i), &tree.cells.cell(c)) {
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
        for i in 0..tree.len() {
            for &e in tree.pivots(i) {
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
/// the node tables, 256 per page, in the same codec. The decoder fills
/// the flat arena and layer pools directly.
impl Persist for TransformedIndex<KdPartitioner> {
    fn to_pages(&self, w: &mut persist::PageWriter) -> Result<(), SkqError> {
        let tree = &self.tree;
        let dim = self.partitioner.dim();
        let n = self.partitioner.len();
        let mut head = Vec::new();
        persist::put_uv(&mut head, self.k() as u64);
        persist::put_uv(&mut head, self.config.leaf_weight);
        persist::put_uv(&mut head, self.total_weight);
        persist::put_uv(&mut head, n as u64);
        persist::put_uv(&mut head, dim as u64);
        persist::put_uv(&mut head, tree.len() as u64);
        w.page(persist::kind::TREE_HEAD, SCHEMA_VERSION, head);
        persist::put_point_pages(
            w,
            persist::kind::TREE_POINTS,
            self.partitioner.coords(),
            dim,
        );
        let mut weights = Vec::with_capacity(n);
        for &wt in self.partitioner.weights() {
            persist::put_uv(&mut weights, u64::from(wt));
        }
        w.page(persist::kind::TREE_WEIGHTS, SCHEMA_VERSION, weights);
        persist::put_doc_pages(w, persist::kind::TREE_DOCS, &self.docs);
        let first = &self.layers[0];
        for page in (0..tree.len()).step_by(NODES_PER_PAGE) {
            let mut buf = Vec::new();
            for i in page..(page + NODES_PER_PAGE).min(tree.len()) {
                encode_node(&mut buf, tree, i);
                encode_table(&mut buf, first, i, tree.children(i).len());
            }
            w.page(persist::kind::TREE_NODES, SCHEMA_VERSION, buf);
        }
        for layer in &self.layers[1..] {
            let mut head = Vec::new();
            persist::put_uv(&mut head, layer.k as u64);
            persist::put_uv(&mut head, tree.len() as u64);
            w.page(persist::kind::TREE_LAYER, SCHEMA_VERSION, head);
            for page in (0..tree.len()).step_by(NODES_PER_PAGE) {
                let mut buf = Vec::new();
                for i in page..(page + NODES_PER_PAGE).min(tree.len()) {
                    encode_table(&mut buf, layer, i, tree.children(i).len());
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
        let coords = persist::read_point_pages(r, persist::kind::TREE_POINTS, section, n, dim)?;
        if let Some(i) = coords.iter().position(|c| !c.is_finite()) {
            let i = i / dim;
            return Err(corrupt(format!("point {i} has a non-finite coordinate")));
        }
        let mut wdec = r.page(persist::kind::TREE_WEIGHTS, SCHEMA_VERSION, section)?;
        let mut weights = Vec::with_capacity(n);
        for i in 0..n {
            let wt = wdec.uv()?;
            if wt == 0 {
                return Err(corrupt(format!("object {i} has zero weight")));
            }
            let wt = u32::try_from(wt)
                .map_err(|_| corrupt(format!("object {i} has weight {wt}, past 2^32")))?;
            weights.push(wt);
        }
        wdec.end()?;
        let docs = persist::read_doc_pages(r, persist::kind::TREE_DOCS, section, n)?;
        let mut tree = Box::new(Arena {
            nodes: Vec::with_capacity(node_count.min(1 << 20)),
            cells: PackedRects::default(),
            children: Vec::new(),
            // `n` is sane: `n` points and documents have been decoded.
            pivots: Vec::with_capacity(n),
        });
        let mut layers = vec![Layer::new(k)];
        while tree.len() < node_count {
            let mut d = r.page(persist::kind::TREE_NODES, SCHEMA_VERSION, section)?;
            let in_page = (node_count - tree.len()).min(NODES_PER_PAGE);
            for _ in 0..in_page {
                let id = tree.len();
                let num_children = decode_node(&mut d, &mut tree, dim, n, node_count)?;
                decode_table(&mut d, &mut layers[0], id, n, num_children)?;
            }
            d.end()?;
        }
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
            let mut layer = Layer::new(lk);
            while layer.table_of.len() < node_count {
                let mut d = r.page(persist::kind::TREE_LAYER, SCHEMA_VERSION, section)?;
                let in_page = (node_count - layer.table_of.len()).min(NODES_PER_PAGE);
                for _ in 0..in_page {
                    let id = layer.table_of.len();
                    let children = tree.children(id).len();
                    decode_table(&mut d, &mut layer, id, n, children)?;
                }
                d.end()?;
            }
            layers.push(layer);
        }
        tree.shrink_to_fit();
        for layer in &mut layers {
            layer.shrink_to_fit();
        }
        // `new` cannot panic here: the coordinates are non-empty,
        // `dim` per object by decoding, and every weight is positive.
        let partitioner = KdPartitioner::new(dim, coords, weights);
        Ok(Self {
            partitioner,
            docs,
            tree,
            layers,
            config: FrameworkConfig { leaf_weight },
            total_weight,
        })
    }
}

/// Nodes per `TREE_NODES` page, and node tables per `TREE_LAYER` page.
const NODES_PER_PAGE: usize = 256;

/// Appends node `i`'s geometry to a `TREE_NODES` payload.
fn encode_node(buf: &mut Vec<u8>, tree: &Arena<PackedRects>, i: usize) {
    for &bound in tree.cells.bounds(i) {
        persist::put_f64(buf, bound);
    }
    let node = &tree.nodes[i];
    persist::put_uv(buf, u64::from(node.level));
    persist::put_uv(buf, node.weight);
    for ids in [tree.children(i), tree.pivots(i)] {
        persist::put_uv(buf, ids.len() as u64);
        for &id in ids {
            persist::put_uv(buf, u64::from(id));
        }
    }
}

/// Appends node `i`'s table in `layer` to a `TREE_NODES` or `TREE_LAYER`
/// payload. The large keywords are stored as their ascending list
/// alone: a keyword's position in the list *is* its local id.
fn encode_table(buf: &mut Vec<u8>, layer: &Layer, i: usize, num_children: usize) {
    let table = layer.table(i);
    persist::put_uv(buf, table.large.len() as u64);
    for &w in table.large {
        persist::put_uv(buf, u64::from(w));
    }
    let num_combos = table.num_combos(num_children);
    persist::put_uv(buf, num_combos as u64);
    for ci in 0..num_combos {
        persist::put_uv(buf, table.large.len() as u64);
        persist::put_uv(buf, layer.k as u64);
        let words = table.combo.len() / num_children;
        for &word in &table.combo[ci * words..][..words] {
            buf.extend_from_slice(&word.to_le_bytes());
        }
    }
    persist::put_uv(buf, table.lists.len() as u64);
    for list in table.lists {
        persist::put_uv(buf, u64::from(list.keyword));
        persist::put_uv(buf, u64::from(list.len));
        for &e in layer.ids(list) {
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

/// Decodes the next arena node's geometry into `tree`, validating every
/// field against the tree's scalars so a checksum-passing but
/// inconsistent file cannot put the query path in a panicking state:
/// cells are NaN-free with ordered bounds, child ids point strictly
/// forward (the arena is built parent-before-child, which also rules
/// out cycles), and object ids are in range. Returns the node's number
/// of children.
fn decode_node(
    d: &mut persist::Dec<'_>,
    tree: &mut Arena<PackedRects>,
    dim: usize,
    n: usize,
    node_count: usize,
) -> Result<usize, SkqError> {
    let id = tree.len();
    let mut bounds = [0.0f64; 2 * skq_geom::MAX_DIM];
    for c in bounds.iter_mut().take(2 * dim) {
        *c = d.f64()?;
    }
    let (lo, hi) = bounds[..2 * dim].split_at(dim);
    for i in 0..dim {
        if lo[i].is_nan() || hi[i].is_nan() || lo[i] > hi[i] {
            return Err(corrupt(format!(
                "node {id}: malformed cell bounds on dim {i}"
            )));
        }
    }
    let level = d.u32v()?;
    let weight = d.uv()?;
    let num_children = d.len(1)?;
    let first_child = tree.children.len();
    for _ in 0..num_children {
        let c = d.u32v()?;
        if c as usize >= node_count || c as usize <= id {
            return Err(corrupt(format!(
                "node {id}: child id {c} not strictly forward"
            )));
        }
        tree.children.push(c);
    }
    let num_pivots = d.len(1)?;
    let first_pivot = tree.pivots.len();
    for _ in 0..num_pivots {
        let p = d.u32v()?;
        if p as usize >= n {
            return Err(corrupt(format!("node {id}: pivot {p} out of range")));
        }
        tree.pivots.push(p);
    }
    tree.cells.push_bounds(&bounds[..2 * dim]);
    tree.nodes.push(Node {
        weight,
        level,
        children: offset(first_child),
        pivots: offset(first_pivot),
    });
    Ok(num_children)
}

/// Decodes node `id`'s table into `layer`'s pools: ascending keywords,
/// combo tables parallel to the node's `num_children` children and
/// matching the large-keyword count and the layer's `k` (present
/// whenever `k` large keywords could steer a descent), and in-range
/// list ids.
fn decode_table(
    d: &mut persist::Dec<'_>,
    layer: &mut Layer,
    id: usize,
    n: usize,
    num_children: usize,
) -> Result<(), SkqError> {
    let k = layer.k;
    let start = layer.ends();
    layer.table_of.push(NO_TABLE);
    let num_large = d.len(1)?;
    let mut prev: Option<Keyword> = None;
    for _ in 0..num_large {
        let w = d.u32v()?;
        if prev.is_some_and(|p| p >= w) {
            return Err(corrupt(format!(
                "node {id}: large keywords out of order at {w}"
            )));
        }
        prev = Some(w);
        layer.large.push(w);
    }
    let num_combos = d.len(1)?;
    if num_combos != 0 && num_combos != num_children {
        return Err(corrupt(format!(
            "node {id}: {num_combos} combo tables for {num_children} children"
        )));
    }
    if num_combos == 0 && num_children > 0 && num_large >= k {
        return Err(corrupt(format!(
            "node {id}: {num_large} large keywords for k = {k} but no combo tables"
        )));
    }
    for _ in 0..num_combos {
        let l = d.usizev()?;
        let tk = d.usizev()?;
        if l != num_large || tk != k {
            return Err(corrupt(format!(
                "node {id}: combo table over l={l} k={tk}, node has L={num_large} k={k}"
            )));
        }
        let words = table_words(l, tk).map_err(|e| corrupt(format!("node {id}: {e}")))?;
        if d.remaining() < words * 8 {
            return Err(corrupt(format!("node {id}: combo table truncated")));
        }
        for _ in 0..words {
            layer.combo.push(d.u64_raw()?);
        }
    }
    let num_mat = d.len(1)?;
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
        let first = layer.ids.len();
        for _ in 0..len {
            let e = d.u32v()?;
            if e as usize >= n {
                return Err(corrupt(format!(
                    "node {id}: materialized id {e} out of range for keyword {w}"
                )));
            }
            layer.ids.push(e);
        }
        layer.lists.push(List {
            keyword: w,
            start: offset(first),
            len: offset(len),
        });
    }
    layer.close_table(offset(id), start);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{doc_weights, KdPartitioner};
    use crate::sink::LimitSink;

    /// A 1D framework index over object ids — the minimal harness for
    /// exercising the large/small machinery directly.
    fn build_1d(
        docs: Vec<Vec<Keyword>>,
        ks: RangeInclusive<usize>,
        leaf_weight: u64,
    ) -> TransformedIndex<KdPartitioner> {
        let coords = (0..docs.len()).map(|i| i as f64).collect();
        let docs: Arc<[Document]> = docs.into_iter().map(Document::new).collect();
        TransformedIndex::try_build(
            KdPartitioner::new(1, coords, doc_weights(&docs)),
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
    fn geometry_is_tested_for_every_scanned_candidate() {
        // Pivots and list entries that fail the keyword test must still
        // reach `accept` first: one call per scanned candidate.
        let mut docs: Vec<Vec<Keyword>> = (0..256).map(|i| vec![i % 4, 4 + i % 3]).collect();
        for i in [10usize, 100, 200] {
            docs[i].push(9);
        }
        let tree = build_1d(docs, 2..=2, 4);
        for kws in [[0, 9], [0, 4]] {
            let calls = std::cell::Cell::new(0u64);
            let mut out = Vec::new();
            let mut stats = QueryStats::new();
            let _ = tree.query_sink(
                &kws,
                &|_| Region::Crossing,
                &|o| {
                    calls.set(calls.get() + 1);
                    o < 128
                },
                &mut out,
                &mut stats,
            );
            assert!(stats.pivot_scans + stats.list_scans > stats.reported);
            assert_eq!(calls.get(), stats.pivot_scans + stats.list_scans, "{kws:?}");
        }
    }

    #[test]
    fn candidate_free_subtrees_hold_no_keyword_tables() {
        // 256 keywords, each in one document: all are small at the root,
        // so every node below it is built without keyword work.
        let docs: Vec<Vec<Keyword>> = (0..256).map(|i| vec![i]).collect();
        let tree = build_1d(docs, 2..=2, 4);
        assert!(tree.num_nodes() > 10);
        let layer = &tree.layers[0];
        let root = layer.table(0);
        assert!(root.large.is_empty() && root.combo.is_empty());
        assert_eq!(root.lists.len(), 256 - tree.tree.pivots(0).len());
        assert!(layer.table_of[1..].iter().all(|&t| t == NO_TABLE));
        assert_eq!(layer.tables.len(), 1);
        assert_eq!(run(&tree, &[3, 4], usize::MAX), Vec::<u32>::new());
    }

    #[test]
    fn pools_are_the_concatenated_node_ranges() {
        let docs: Vec<Vec<Keyword>> = (0..300)
            .map(|i| vec![i % 3, 3 + i % 5, 8 + i % 7])
            .collect();
        let tree = build_1d(docs, 2..=3, 4);
        let arena = &tree.tree;
        let pivots: usize = (0..arena.len()).map(|i| arena.pivots(i).len()).sum();
        let children: usize = (0..arena.len()).map(|i| arena.children(i).len()).sum();
        assert_eq!((pivots, children), (300, arena.len() - 1));
        for layer in &tree.layers {
            let lists: usize = (0..arena.len()).map(|i| layer.table(i).lists.len()).sum();
            let ids: usize = layer.lists.iter().map(|l| l.len as usize).sum();
            assert_eq!((lists, ids), (layer.lists.len(), layer.ids.len()));
            assert!(layer.lists.iter().all(|l| l.len > 0));
        }
        tree.validate().unwrap();
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
            KdPartitioner::new(1, vec![0.0], vec![1]),
            vec![Document::new(vec![0])].into(),
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

        fn tree() -> TransformedIndex<KdPartitioner> {
            let docs: Vec<Vec<Keyword>> = (0..96).map(|i| vec![i % 4, 4 + (i % 3)]).collect();
            let t = build_1d(docs, 2..=2, 4);
            t.validate().unwrap();
            t
        }

        #[test]
        fn duplicated_pivot_names_pivot_partition() {
            let mut t = tree();
            // The last node's pivots run to the pool's end.
            let dup = t.tree.pivots[0];
            t.tree.pivots.push(dup);
            let v = t.validate().unwrap_err();
            assert_eq!(v.invariant(), "framework::pivot_partition");
            assert!(v.to_string().contains(&format!("object {dup}")), "{v}");
        }

        #[test]
        fn skipped_level_names_tree_shape() {
            let mut t = tree();
            let parent = (0..t.num_nodes())
                .position(|i| !t.tree.children(i).is_empty())
                .unwrap();
            let child = t.tree.children(parent)[0] as usize;
            t.tree.nodes[child].level += 1;
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
            let parent = (0..t.num_nodes())
                .position(|i| t.tree.nodes[i].level == 1 && !t.tree.children(i).is_empty())
                .unwrap();
            let child = t.tree.children(parent)[0] as usize;
            let full = [f64::NEG_INFINITY, f64::INFINITY];
            t.tree.cells.bounds_mut(child).copy_from_slice(&full);
            assert_eq!(
                t.validate().unwrap_err().invariant(),
                "framework::cell_nesting"
            );
        }

        #[test]
        fn foreign_id_in_list_names_materialized() {
            let mut t = tree();
            let list = *t.layers[0]
                .lists
                .first()
                .expect("this workload materializes at least one list");
            // Listing an object whose document lacks the keyword
            // contradicts the list's definition.
            let foreign = (0..96u32)
                .find(|&e| !t.docs[e as usize].contains_all(&[list.keyword]))
                .unwrap();
            t.layers[0].ids[list.start as usize] = foreign;
            assert_eq!(
                t.validate().unwrap_err().invariant(),
                "framework::materialized"
            );
        }
    }
}

//! Query-execution statistics.
//!
//! The paper's analysis (§3.3, §4) bounds structural quantities of the
//! query execution: the number of *covered* and *crossing* nodes of the
//! visited tree `T_qry`, the cost paid on materialized-list scans at the
//! leaves of `T_qry`, and — for the dimension-reduction tree — the number
//! of type-1/type-2 nodes per level. The experiment harness measures all
//! of them to validate Lemmas 9–10 and Propositions 1–3 empirically
//! (experiments F1/F2 in DESIGN.md), so every query method records a
//! [`QueryStats`].

/// Why a guarded query stopped before exhausting its answer.
///
/// Set in [`QueryStats::truncated_reason`] by the sink's owner
/// ([`KwQuery::run`](crate::query::KwQuery::run) and the dynamic index)
/// when a [`GuardedSink`](crate::guard::GuardedSink) cut the traversal
/// short.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TruncatedReason {
    /// A result-count budget (`LimitSink` / `max_results`) filled up.
    Limit,
    /// The query ran past its deadline.
    DeadlineExceeded,
    /// The query's `CancelToken` was cancelled.
    Cancelled,
}

impl TruncatedReason {
    /// Short label for metrics and the query log.
    pub fn label(&self) -> &'static str {
        match self {
            TruncatedReason::Limit => "limit",
            TruncatedReason::DeadlineExceeded => "deadline_exceeded",
            TruncatedReason::Cancelled => "cancelled",
        }
    }
}

/// Which execution path answered a query ([`QueryStats::route`]): the
/// query planner's chosen plan, or the multi-`k` suite's route for the
/// query's keyword count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// Intersect postings lists, then filter geometrically (planner).
    KeywordsOnly,
    /// Geometric index, then filter by keywords (planner).
    StructuredOnly,
    /// The paper's framework index (planner; suite, `2 ≤ k ≤ k_max`).
    Framework,
    /// Suite, `k = 0`: a pure range scan.
    RangeScan,
    /// Suite, `k = 1`: one postings list, filtered geometrically.
    PostingsFilter,
    /// Suite, `k > k_max`: the framework index over the `k_max` rarest
    /// keywords, post-filtered by the rest.
    PostFilter,
}

impl Route {
    /// Stable label used for metric series and query-log records.
    pub fn label(self) -> &'static str {
        match self {
            Route::KeywordsOnly => "keywords_only",
            Route::StructuredOnly => "structured_only",
            Route::Framework => "framework",
            Route::RangeScan => "range_scan",
            Route::PostingsFilter => "postings_filter",
            Route::PostFilter => "post_filter",
        }
    }
}

/// Counters describing one query execution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Nodes visited (the size of `T_qry` in §3.3).
    pub nodes_visited: u64,
    /// Visited nodes whose cell is fully covered by the query.
    pub covered_nodes: u64,
    /// Visited nodes whose cell crosses the query boundary
    /// (the size of `T_cross` in §3.3 / Figure 1).
    pub crossing_nodes: u64,
    /// Nodes where the small-keyword path was taken (the "leaves" of
    /// `T_qry` in the analysis, each paying `O(N_u^{1−1/k})`).
    pub small_path_nodes: u64,
    /// Objects scanned from materialized small-keyword lists.
    pub list_scans: u64,
    /// Objects scanned from pivot sets.
    pub pivot_scans: u64,
    /// Objects reported.
    pub reported: u64,
    /// Results accepted by the query's [`ResultSink`] — the true
    /// output size of this execution even under a limit. Set by the
    /// sink-owning entry ([`KwQuery::run`] and the methods over it),
    /// not by the traversal core, so absorbing sub-query statistics
    /// never double-counts.
    ///
    /// [`ResultSink`]: crate::sink::ResultSink
    /// [`KwQuery::run`]: crate::query::KwQuery::run
    pub emitted: u64,
    /// Whether the sink cut the query short (a `LimitSink` fired), i.e.
    /// `emitted` may undercount the full answer.
    pub truncated: bool,
    /// Why the query was cut short, when a guarded wrapper knows
    /// (`None` for plain `ControlFlow::Break` sinks).
    pub truncated_reason: Option<TruncatedReason>,
    /// Which execution path answered the query: the planner's chosen
    /// plan or the multi-`k` suite's route. `None` for indexes with a
    /// single execution path.
    pub route: Option<Route>,
    /// Histogram of crossing nodes by tree level (for Lemma 10 /
    /// Figure 1: `Σ_z (1/2)^{level(z)/2}` must stay `O(1)` per query
    /// line in the kd-tree).
    pub crossing_by_level: Vec<u64>,
    /// Dimension-reduction tree only: type-1 nodes per level (§4).
    pub type1_by_level: Vec<u64>,
    /// Dimension-reduction tree only: type-2 nodes per level; the
    /// analysis shows at most two per level (Figure 2).
    pub type2_by_level: Vec<u64>,
}

impl QueryStats {
    /// A zeroed statistics record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bumps a per-level histogram, growing it as needed.
    pub(crate) fn bump(hist: &mut Vec<u64>, level: usize) {
        Self::bump_by(hist, level, 1);
    }

    /// Total objects examined (pivot + list scans) — the dominant term
    /// of the query cost besides tree navigation.
    pub fn objects_examined(&self) -> u64 {
        self.pivot_scans + self.list_scans
    }

    /// Merges another record into this one (used when a query fans out
    /// over secondary structures).
    pub fn absorb(&mut self, other: &QueryStats) {
        self.nodes_visited += other.nodes_visited;
        self.covered_nodes += other.covered_nodes;
        self.crossing_nodes += other.crossing_nodes;
        self.small_path_nodes += other.small_path_nodes;
        self.list_scans += other.list_scans;
        self.pivot_scans += other.pivot_scans;
        self.reported += other.reported;
        self.emitted += other.emitted;
        self.truncated |= other.truncated;
        self.truncated_reason = self.truncated_reason.or(other.truncated_reason);
        self.route = self.route.or(other.route);
        Self::merge_hist(&mut self.crossing_by_level, &other.crossing_by_level);
        Self::merge_hist(&mut self.type1_by_level, &other.type1_by_level);
        Self::merge_hist(&mut self.type2_by_level, &other.type2_by_level);
    }

    fn bump_by(hist: &mut Vec<u64>, level: usize, by: u64) {
        if hist.len() <= level {
            hist.resize(level + 1, 0);
        }
        hist[level] += by;
    }

    /// Adds each nonzero level of `src` into `dst`, growing it as
    /// needed.
    fn merge_hist(dst: &mut Vec<u64>, src: &[u64]) {
        for (level, &v) in src.iter().enumerate() {
            if v > 0 {
                Self::bump_by(dst, level, v);
            }
        }
    }
}

impl std::fmt::Display for QueryStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "visited {} nodes ({} covered, {} crossing), examined {} objects ({} pivots + {} list entries) across {} small-path stops, reported {}",
            self.nodes_visited,
            self.covered_nodes,
            self.crossing_nodes,
            self.objects_examined(),
            self.pivot_scans,
            self.list_scans,
            self.small_path_nodes,
            self.reported
        )?;
        if self.truncated {
            match self.truncated_reason {
                Some(r) => write!(f, " (truncated: {}, emitted {})", r.label(), self.emitted)?,
                None => write!(f, " (truncated, emitted {})", self.emitted)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_grows_histogram() {
        let mut s = QueryStats::new();
        QueryStats::bump(&mut s.crossing_by_level, 3);
        QueryStats::bump(&mut s.crossing_by_level, 3);
        QueryStats::bump(&mut s.crossing_by_level, 0);
        assert_eq!(s.crossing_by_level, vec![1, 0, 0, 2]);
    }

    #[test]
    fn absorb_merges() {
        let mut a = QueryStats {
            nodes_visited: 2,
            reported: 1,
            emitted: 1,
            crossing_by_level: vec![1],
            ..Default::default()
        };
        let b = QueryStats {
            nodes_visited: 3,
            reported: 4,
            emitted: 2,
            truncated: true,
            crossing_by_level: vec![0, 5],
            type2_by_level: vec![2],
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.nodes_visited, 5);
        assert_eq!(a.reported, 5);
        assert_eq!(a.emitted, 3);
        assert!(a.truncated);
        assert_eq!(a.crossing_by_level, vec![1, 5]);
        assert_eq!(a.type2_by_level, vec![2]);
    }

    #[test]
    fn display_is_informative() {
        let s = QueryStats {
            nodes_visited: 5,
            covered_nodes: 2,
            crossing_nodes: 3,
            pivot_scans: 7,
            list_scans: 11,
            small_path_nodes: 1,
            reported: 4,
            ..Default::default()
        };
        let text = s.to_string();
        assert!(text.contains("visited 5 nodes"));
        assert!(text.contains("examined 18 objects"));
        assert!(text.contains("reported 4"));
    }

    #[test]
    fn objects_examined_sums() {
        let s = QueryStats {
            pivot_scans: 3,
            list_scans: 7,
            ..Default::default()
        };
        assert_eq!(s.objects_examined(), 10);
    }
}

//! The nearest-neighbour search of Corollaries 4 and 7, written once.
//!
//! Both corollaries binary-search a monotone sequence of candidate radii
//! — one of which is the `t`-th nearest distance — with an
//! early-terminating threshold query ("are there at least `t` matches
//! within radius `r`?"), collect the matches within the smallest radius
//! that passes, and rank them. An index supplies the radii through a
//! [`RadiusSearch`] engine; [`nearest`] runs the search.

use crate::sink::{CountSink, LimitSink, ResultSink};
use crate::stats::QueryStats;

/// One query's view of a nearest-neighbour index: a sequence of
/// candidate radii, ascending in index `i`, whose last entry reaches
/// every object.
pub(crate) trait RadiusSearch {
    /// Emits every keyword match within the `i`-th smallest candidate
    /// radius — exactly those whose [`distance`](Self::distance) is at
    /// most that radius — into `sink`.
    fn within<S: ResultSink>(&self, i: u64, sink: &mut S, stats: &mut QueryStats);

    /// Object `o`'s distance to the query point.
    fn distance(&self, o: u32) -> f64;
}

/// Returns up to `t ≥ 1` matches nearest to the query, ranked by
/// [`rank_by_distance`], searching `radii ≥ 1` candidate radii. Fewer
/// than `t` come back only when fewer match at all.
pub(crate) fn nearest(
    radii: u64,
    t: usize,
    engine: &impl RadiusSearch,
    stats: &mut QueryStats,
) -> Vec<u32> {
    let mut at_least_t = |i: u64| {
        let mut probe = LimitSink::new(CountSink::new(), t);
        engine.within(i, &mut probe, stats);
        probe.emitted() >= t as u64
    };
    let mut lo = radii - 1;
    // With fewer than t matches in all, collect them at the largest
    // radius; otherwise find the smallest radius holding t.
    if at_least_t(lo) {
        let mut hi = lo;
        lo = 0;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if at_least_t(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
    }
    let mut hits = Vec::new();
    engine.within(lo, &mut hits, stats);
    let out = rank_by_distance(hits, t, |o| engine.distance(o));
    stats.emitted = out.len() as u64;
    out
}

/// The nearest-neighbour tie rule: sorts `ids` by `(distance, id)`,
/// comparing distances with `f64::total_cmp`, and keeps the first `t`.
/// The indexes and the naive baselines rank with this one function.
pub(crate) fn rank_by_distance(
    mut ids: Vec<u32>,
    t: usize,
    distance: impl Fn(u32) -> f64,
) -> Vec<u32> {
    ids.sort_unstable_by(|&a, &b| distance(a).total_cmp(&distance(b)).then(a.cmp(&b)));
    ids.truncate(t);
    ids
}

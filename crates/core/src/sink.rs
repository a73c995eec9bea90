//! Streaming result emission.
//!
//! Every query bound in the paper is *output-sensitive* — `O(… + OUT)`
//! (Table 1) — which means the reporting phase is a stream: the
//! traversal hands over one matching object at a time and may be told
//! to stop. Materializing a `Vec<u32>` at every layer (framework →
//! problem module → suite → server) hides that structure: the
//! L∞NN-KW radius search (Corollary 4) only needs "are there ≥ t hits?"
//! per probe, emptiness queries (§1.2 footnote 4) only need the first
//! hit, and counting needs no ids at all.
//!
//! [`ResultSink`] is the one reporting interface every traversal in
//! this crate emits into. The canonical sinks compose:
//!
//! * plain `Vec<u32>` — materialize (today's API);
//! * [`CountSink`] — count without storing;
//! * [`LimitSink`] — stop after `t` accepted results (threshold
//!   queries), recording truncation;
//! * [`DedupSink`] — bitset-backed duplicate suppression (guards
//!   reductions such as RR-KW's `2d`-dimensional flattening);
//! * [`MapSink`] / [`FilterSink`] — id remapping and post-filtering
//!   (dimension-reduction local→global ids, suite post-filtering).
//!
//! Traversals report acceptance control via [`ControlFlow`]: a sink
//! returns `ControlFlow::Break(())` to stop the query early, and the
//! `?` operator threads that decision through recursive descents.

use std::ops::ControlFlow;

/// A consumer of reported object ids.
///
/// Implementations decide what to do with each id (store it, count it,
/// forward it) and whether the producing traversal should continue.
/// Sinks are cheap state machines; none of the canonical ones allocate
/// per emission.
pub trait ResultSink {
    /// Offers one result. Returning `ControlFlow::Break(())` stops the
    /// traversal; an emission may be *accepted* (counted) even when it
    /// returns `Break` (e.g. the `t`-th hit of a [`LimitSink`]).
    fn emit(&mut self, id: u32) -> ControlFlow<()>;

    /// The number of results this sink has accepted.
    fn emitted(&self) -> u64;

    /// Whether the sink cut a query short (stopped a traversal that may
    /// have had more results to offer).
    fn truncated(&self) -> bool {
        false
    }

    /// Whether the sink can accept no further results. Traversals check
    /// this before starting work (a `LimitSink` with `limit == 0` never
    /// needs to visit a node).
    fn is_full(&self) -> bool {
        false
    }
}

/// Forwarding impl so traversal internals can pass `&mut sink` down
/// recursive calls and adapters without consuming it.
impl<S: ResultSink + ?Sized> ResultSink for &mut S {
    fn emit(&mut self, id: u32) -> ControlFlow<()> {
        (**self).emit(id)
    }
    fn emitted(&self) -> u64 {
        (**self).emitted()
    }
    fn truncated(&self) -> bool {
        (**self).truncated()
    }
    fn is_full(&self) -> bool {
        (**self).is_full()
    }
}

/// A plain `Vec<u32>` is a sink: append-only, never stops the query.
/// This is what keeps the pre-sink `query(..) -> Vec<u32>` methods
/// zero-cost wrappers. `emitted` counts the vector's length, including
/// anything present before the query (callers needing exact per-query
/// accounting wrap in [`LimitSink`] or use a [`CountSink`]).
impl ResultSink for Vec<u32> {
    fn emit(&mut self, id: u32) -> ControlFlow<()> {
        self.push(id);
        ControlFlow::Continue(())
    }
    fn emitted(&self) -> u64 {
        self.len() as u64
    }
}

/// Counts results without storing them — `COUNT(*)` reporting with no
/// allocation at all.
#[derive(Debug, Default)]
pub struct CountSink {
    count: u64,
}

impl CountSink {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// The count so far.
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl ResultSink for CountSink {
    fn emit(&mut self, _id: u32) -> ControlFlow<()> {
        self.count += 1;
        ControlFlow::Continue(())
    }
    fn emitted(&self) -> u64 {
        self.count
    }
}

/// Forwards at most `limit` results to an inner sink, then stops the
/// query. This is the engine of every threshold/emptiness query
/// (Corollary 4, §1.2 footnote 4): `LimitSink::new(CountSink::new(), t)`
/// answers "are there ≥ t matches?" with zero result storage.
///
/// `emitted` counts results *this* sink forwarded (independent of any
/// pre-existing content of the inner sink), and `truncated` reports
/// whether the limit fired — i.e. whether the produced results may be a
/// strict subset of the full answer.
#[derive(Debug)]
pub struct LimitSink<S> {
    inner: S,
    limit: u64,
    accepted: u64,
    hit_limit: bool,
}

impl<S: ResultSink> LimitSink<S> {
    /// Caps `inner` at `limit` results (`usize::MAX` for no cap).
    pub fn new(inner: S, limit: usize) -> Self {
        Self {
            inner,
            limit: limit as u64,
            accepted: 0,
            hit_limit: false,
        }
    }

    /// The inner sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Consumes the limiter, returning the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: ResultSink> ResultSink for LimitSink<S> {
    fn emit(&mut self, id: u32) -> ControlFlow<()> {
        if self.accepted >= self.limit {
            self.hit_limit = true;
            return ControlFlow::Break(());
        }
        // Count *acceptances*, not offers: an inner sink that rejects
        // the id (DedupSink on a duplicate, FilterSink on a miss) must
        // not consume limit budget, or "t results" silently degrades
        // into "t candidates".
        let before = self.inner.emitted();
        let flow = self.inner.emit(id);
        self.accepted += self.inner.emitted() - before;
        if self.accepted >= self.limit {
            self.hit_limit = true;
            return ControlFlow::Break(());
        }
        flow
    }
    fn emitted(&self) -> u64 {
        self.accepted
    }
    fn truncated(&self) -> bool {
        self.hit_limit || self.inner.truncated()
    }
    fn is_full(&self) -> bool {
        self.accepted >= self.limit || self.inner.is_full()
    }
}

/// Suppresses duplicate ids with a bitset over `0..universe`, forwarding
/// only first occurrences. Reductions that could in principle surface an
/// object twice (e.g. RR-KW's rectangle-to-`2d`-point flattening feeding
/// a composed index) stay set-semantics-correct behind this guard at one
/// bit per object.
#[derive(Debug)]
pub struct DedupSink<S> {
    seen: Vec<u64>,
    forwarded: u64,
    inner: S,
}

impl<S: ResultSink> DedupSink<S> {
    /// Deduplicates ids in `0..universe` before `inner`.
    pub fn new(universe: usize, inner: S) -> Self {
        Self {
            seen: vec![0u64; universe.div_ceil(64)],
            forwarded: 0,
            inner,
        }
    }

    /// Consumes the sink, returning the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: ResultSink> ResultSink for DedupSink<S> {
    fn emit(&mut self, id: u32) -> ControlFlow<()> {
        let (word, bit) = ((id / 64) as usize, id % 64);
        if self.seen[word] & (1 << bit) != 0 {
            return ControlFlow::Continue(()); // swallow the duplicate
        }
        self.seen[word] |= 1 << bit;
        self.forwarded += 1;
        self.inner.emit(id)
    }
    fn emitted(&self) -> u64 {
        self.forwarded
    }
    fn truncated(&self) -> bool {
        self.inner.truncated()
    }
    fn is_full(&self) -> bool {
        self.inner.is_full()
    }
}

/// Rewrites each id through a function before forwarding — the
/// dimension-reduction tree streams secondary-index hits through a
/// local→global id map this way, with no intermediate vector.
#[derive(Debug)]
pub struct MapSink<S, F> {
    inner: S,
    f: F,
    forwarded: u64,
}

impl<S: ResultSink, F: FnMut(u32) -> u32> MapSink<S, F> {
    /// Applies `f` to every id before `inner`.
    pub fn new(inner: S, f: F) -> Self {
        Self {
            inner,
            f,
            forwarded: 0,
        }
    }
}

impl<S: ResultSink, F: FnMut(u32) -> u32> ResultSink for MapSink<S, F> {
    fn emit(&mut self, id: u32) -> ControlFlow<()> {
        self.forwarded += 1;
        self.inner.emit((self.f)(id))
    }
    fn emitted(&self) -> u64 {
        self.forwarded
    }
    fn truncated(&self) -> bool {
        self.inner.truncated()
    }
    fn is_full(&self) -> bool {
        self.inner.is_full()
    }
}

/// Forwards only ids passing a predicate — the multi-`k` suite streams
/// its beyond-`k_max` route (index over the rarest keywords, then
/// post-filter by the rest) through this without a staging vector.
#[derive(Debug)]
pub struct FilterSink<S, F> {
    inner: S,
    pred: F,
    forwarded: u64,
}

impl<S: ResultSink, F: FnMut(u32) -> bool> FilterSink<S, F> {
    /// Keeps only ids for which `pred` returns true.
    pub fn new(inner: S, pred: F) -> Self {
        Self {
            inner,
            pred,
            forwarded: 0,
        }
    }
}

impl<S: ResultSink, F: FnMut(u32) -> bool> ResultSink for FilterSink<S, F> {
    fn emit(&mut self, id: u32) -> ControlFlow<()> {
        if !(self.pred)(id) {
            return ControlFlow::Continue(());
        }
        self.forwarded += 1;
        self.inner.emit(id)
    }
    fn emitted(&self) -> u64 {
        self.forwarded
    }
    fn truncated(&self) -> bool {
        self.inner.truncated()
    }
    fn is_full(&self) -> bool {
        self.inner.is_full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed<S: ResultSink>(sink: &mut S, ids: &[u32]) -> usize {
        for (i, &id) in ids.iter().enumerate() {
            if sink.emit(id).is_break() {
                return i + 1;
            }
        }
        ids.len()
    }

    #[test]
    fn vec_collects_everything() {
        let mut out: Vec<u32> = Vec::new();
        assert_eq!(feed(&mut out, &[3, 1, 2]), 3);
        assert_eq!(out, vec![3, 1, 2]);
        assert_eq!(out.emitted(), 3);
        assert!(!out.truncated());
        assert!(!out.is_full());
    }

    #[test]
    fn count_sink_counts_without_storing() {
        let mut c = CountSink::new();
        assert_eq!(feed(&mut c, &[9, 9, 9, 9]), 4);
        assert_eq!(c.count(), 4);
        assert_eq!(c.emitted(), 4);
    }

    #[test]
    fn limit_sink_stops_at_limit_and_marks_truncated() {
        let mut s = LimitSink::new(Vec::new(), 2);
        assert_eq!(feed(&mut s, &[1, 2, 3, 4]), 2, "breaks on the 2nd emit");
        assert_eq!(s.emitted(), 2);
        assert!(s.truncated());
        assert!(s.is_full());
        assert_eq!(s.into_inner(), vec![1, 2]);
    }

    #[test]
    fn limit_sink_under_limit_is_not_truncated() {
        let mut s = LimitSink::new(Vec::new(), 10);
        assert_eq!(feed(&mut s, &[1, 2]), 2);
        assert!(!s.truncated());
        assert!(!s.is_full());
        assert_eq!(s.emitted(), 2);
    }

    #[test]
    fn limit_zero_is_full_immediately() {
        let mut s = LimitSink::new(CountSink::new(), 0);
        assert!(s.is_full());
        assert!(s.emit(7).is_break());
        assert_eq!(s.emitted(), 0);
        assert!(s.truncated());
    }

    #[test]
    fn limit_over_count_is_the_threshold_probe() {
        // The Corollary-4 probe: "are there >= 3 matches?" with zero
        // result storage.
        let mut probe = LimitSink::new(CountSink::new(), 3);
        feed(&mut probe, &[10, 20, 30, 40, 50]);
        assert_eq!(probe.emitted(), 3);
        assert!(probe.truncated());
    }

    #[test]
    fn dedup_sink_swallows_duplicates() {
        let mut s = DedupSink::new(100, Vec::new());
        assert_eq!(feed(&mut s, &[7, 3, 7, 3, 99, 7]), 6);
        assert_eq!(s.emitted(), 3);
        assert_eq!(s.into_inner(), vec![7, 3, 99]);
    }

    #[test]
    fn dedup_composes_with_limit() {
        // Duplicates must not count toward the limit.
        let mut s = LimitSink::new(DedupSink::new(10, Vec::new()), 2);
        feed(&mut s, &[1, 1, 1, 2, 3]);
        assert_eq!(s.into_inner().into_inner(), vec![1, 2]);
    }

    #[test]
    fn map_sink_rewrites_ids() {
        let table = [100u32, 200, 300];
        let mut s = MapSink::new(Vec::new(), |i| table[i as usize]);
        feed(&mut s, &[2, 0]);
        assert_eq!(s.emitted(), 2);
        assert_eq!(s.inner, vec![300, 100]);
    }

    #[test]
    fn filter_sink_drops_rejects() {
        let mut s = FilterSink::new(Vec::new(), |i| i % 2 == 0);
        feed(&mut s, &[1, 2, 3, 4]);
        assert_eq!(s.emitted(), 2);
        assert_eq!(s.inner, vec![2, 4]);
    }

    #[test]
    fn filter_preserves_inner_stop() {
        let mut s = FilterSink::new(LimitSink::new(Vec::new(), 1), |i| i > 10);
        assert_eq!(feed(&mut s, &[1, 2, 50, 60]), 3, "stops at the 1st accept");
        assert!(s.truncated());
    }
}

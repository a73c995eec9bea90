//! A multi-`k` index suite.
//!
//! Every index in this crate answers a fixed number of query keywords
//! `k` — the large/small threshold `N_u^{1−1/k}` bakes `k` into the
//! keyword tables. Applications rarely know `k` in advance, so
//! [`OrpKwSuite`] holds one [`OrpKwIndex`] serving every
//! `k ∈ 2..=k_max` plus an inverted-index fallback for single-keyword
//! (or very-many-keyword) queries, and routes each query to the right
//! one.
//!
//! The space-partitioning tree depends on the geometry alone, so for
//! `d ≤ 2` the suite builds one rank space and one kd tree and stores
//! the documents once; each extra `k` adds only its keyword layer.

use std::ops::ControlFlow;

use skq_geom::Rect;
use skq_invidx::{InvertedIndex, Keyword};

use crate::dataset::Dataset;
use crate::error::{validate, SkqError};
use crate::guard::QueryGuard;
use crate::orp::OrpKwIndex;
use crate::persist::{self, Persist, SCHEMA_VERSION};
use crate::query::KwQuery;
use crate::sink::{FilterSink, ResultSink};
use crate::stats::{QueryStats, Route};
use crate::telemetry;

/// ORP-KW for any number of distinct query keywords in `1..=k_max`
/// (and graceful degradation beyond).
///
/// # Example
///
/// ```
/// use skq_core::dataset::Dataset;
/// use skq_core::query::KwQuery;
/// use skq_core::suite::OrpKwSuite;
/// use skq_geom::{Point, Rect};
///
/// let data = Dataset::from_parts(vec![
///     (Point::new2(1.0, 1.0), vec![0, 1, 2]),
///     (Point::new2(2.0, 2.0), vec![0, 1]),
/// ]);
/// let suite = OrpKwSuite::try_build(&data, 3)?;
/// let q = Rect::full(2);
/// assert_eq!(suite.count(&q, &[0])?, 2);             // k = 1 fallback
/// assert_eq!(suite.count(&q, &[0, 1])?, 2);          // k = 2 index
/// assert_eq!(suite.query(&q, &[0, 1, 2])?, vec![0]); // k = 3 index
/// # Ok::<(), skq_core::SkqError>(())
/// ```
pub struct OrpKwSuite {
    /// Serves `k ∈ 2..=k_max`; also the point tests and documents of
    /// the other routes.
    orp: OrpKwIndex,
    inv: InvertedIndex,
}

impl OrpKwSuite {
    /// Builds the index for every `k ∈ 2..=k_max`.
    ///
    /// # Errors
    ///
    /// `SkqError::InvalidQuery` if `k_max < 2`, plus everything
    /// [`OrpKwIndex::try_build`] rejects.
    pub fn try_build(dataset: &Dataset, k_max: usize) -> Result<Self, SkqError> {
        if k_max < 2 {
            return Err(SkqError::InvalidQuery(
                "k_max must be at least 2".to_string(),
            ));
        }
        Ok(Self {
            orp: OrpKwIndex::try_build_ks(dataset, 2..=k_max)?,
            inv: InvertedIndex::build(dataset.docs()),
        })
    }

    /// The largest `k` with a dedicated keyword layer.
    pub fn k_max(&self) -> usize {
        *self.orp.ks().end()
    }

    /// Dimensionality of the indexed points.
    pub fn dim(&self) -> usize {
        self.orp.dim()
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.orp.len()
    }

    /// Whether the suite indexes no objects (never true: datasets are
    /// non-empty by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The multi-`k` index behind the framework routes.
    pub fn index(&self) -> &OrpKwIndex {
        &self.orp
    }

    /// Streams all objects in `q` containing all of `keywords` into
    /// `sink` (any number of keywords; duplicates ignored), so counting
    /// or limited queries materialize no result vector on any route:
    ///
    /// * `k = 0` — pure range query (inverted fallback over all ids);
    /// * `k = 1` — postings scan + geometric filter;
    /// * `2 ≤ k ≤ k_max` — the index's layer `k`;
    /// * `k > k_max` — the `k_max` layer over the `k_max` *rarest*
    ///   keywords, then post-filtering by the rest (a safe superset).
    ///
    /// The route taken is recorded in [`QueryStats::route`]. Unchecked,
    /// like [`KwQuery::query_sink`]; [`KwQuery::run`] validates first.
    pub fn query_sink<S: ResultSink>(
        &self,
        q: &Rect,
        keywords: &[Keyword],
        sink: &mut S,
        stats: &mut QueryStats,
    ) -> ControlFlow<()> {
        let mut kws = keywords.to_vec();
        kws.sort_unstable();
        kws.dedup();
        let (route, flow) = self.dispatch(q, &kws, sink, stats);
        stats.route = Some(route);
        flow
    }

    /// The serving entry (the `skq-serve` request path): a
    /// [`KwQuery::run`] under `guard` that also records the query's
    /// telemetry and returns the matches sorted.
    ///
    /// A result-budget trip (`with_max_results`) is *not* an error —
    /// the caller asked for at most that many results — so it is
    /// returned as a successful, truncated answer.
    ///
    /// # Errors
    ///
    /// * [`SkqError::InvalidQuery`] — the rectangle's dimensionality
    ///   does not match the index, or a bound is NaN.
    /// * [`SkqError::DeadlineExceeded`] — the guard's deadline tripped
    ///   before the traversal finished.
    /// * [`SkqError::Cancelled`] — the guard's cancel token was set.
    pub fn try_query_guarded(
        &self,
        q: &Rect,
        keywords: &[Keyword],
        guard: &QueryGuard,
    ) -> Result<(Vec<u32>, QueryStats), SkqError> {
        let span = skq_obs::Span::enter("orp.suite_query");
        let mut ids = Vec::new();
        let mut stats = QueryStats::new();
        let outcome = self.run(q, keywords, guard, &mut ids, &mut stats);
        // A route ran unless the input check refused the query.
        if let Some(route) = stats.route {
            telemetry::record_query(
                "orp_suite",
                validate::count_distinct(keywords),
                Some(route.label()),
                &stats,
                span.elapsed(),
            );
        }
        let _ = outcome?;
        ids.sort_unstable();
        Ok((ids, stats))
    }

    /// Routes a deduped keyword set by its size and streams the answer
    /// into `sink`. Returns the route taken.
    fn dispatch<S: ResultSink>(
        &self,
        q: &Rect,
        kws: &[Keyword],
        sink: &mut S,
        stats: &mut QueryStats,
    ) -> (Route, ControlFlow<()>) {
        let k_max = self.k_max();
        match kws.len() {
            0 => {
                let inside = self.orp.contains_fn(q);
                let mut flow = ControlFlow::Continue(());
                for i in 0..self.len() as u32 {
                    stats.pivot_scans += 1;
                    if inside(i) {
                        stats.reported += 1;
                        if sink.emit(i).is_break() {
                            flow = ControlFlow::Break(());
                            break;
                        }
                    }
                }
                (Route::RangeScan, flow)
            }
            1 => {
                let inside = self.orp.contains_fn(q);
                let mut flow = ControlFlow::Continue(());
                for &i in self.inv.postings(kws[0]) {
                    stats.list_scans += 1;
                    if inside(i) {
                        stats.reported += 1;
                        if sink.emit(i).is_break() {
                            flow = ControlFlow::Break(());
                            break;
                        }
                    }
                }
                (Route::PostingsFilter, flow)
            }
            k if k <= k_max => (Route::Framework, self.orp.query_sink(q, kws, sink, stats)),
            _ => {
                // Use the k_max rarest keywords for the index (they
                // constrain the most), then post-filter the rest —
                // streamed through a [`FilterSink`], so the superset is
                // never materialized.
                let mut by_freq = kws.to_vec();
                by_freq.sort_by_key(|&w| self.inv.len_of(w));
                let head = &by_freq[..k_max];
                let mut filt =
                    FilterSink::new(&mut *sink, |i| self.orp.doc(i as usize).contains_all(kws));
                let flow = self.orp.query_sink(q, head, &mut filt, stats);
                (Route::PostFilter, flow)
            }
        }
    }

    /// Total space of the index and the inverted fallback, in 64-bit
    /// words.
    pub fn space_words(&self) -> usize {
        self.orp.space_words() + self.inv.input_size() * 2
    }

    /// Deep structural validation (DESIGN.md §12): the index (tree and
    /// every keyword layer) and the inverted fallback must validate.
    ///
    /// # Errors
    ///
    /// The first violated invariant, by name.
    pub fn validate(&self) -> Result<(), crate::invariants::InvariantViolation> {
        self.orp.validate()?;
        self.inv.validate().map_err(|detail| {
            crate::invariants::InvariantViolation::new("invidx::postings", detail)
        })
    }

    /// Decodes a suite from snapshot bytes (DESIGN.md §15) and — under
    /// the `debug-invariants` feature — deep-validates the result, so a
    /// checksum-valid but structurally inconsistent snapshot is refused
    /// rather than served.
    ///
    /// This is the load path behind `skq-bench bench --load-suite`: a
    /// page walk plus cheap cross-checks, never a rebuild.
    ///
    /// # Errors
    ///
    /// [`SkqError::Corrupted`] on any malformed section, and
    /// [`SkqError::Store`] if the snapshot was produced by an
    /// incompatible writer.
    pub fn try_load(bytes: &[u8]) -> Result<Self, SkqError> {
        let suite = Self::try_from_bytes(bytes)?;
        #[cfg(feature = "debug-invariants")]
        suite.validate().map_err(|v| SkqError::Corrupted {
            section: "validate".to_string(),
            detail: v.to_string(),
        })?;
        Ok(suite)
    }
}

/// Forwards to the inherent [`OrpKwSuite::query_sink`]; the check is
/// the rectangle alone, because routing any keyword count is the
/// suite's job.
impl KwQuery for OrpKwSuite {
    type Shape = Rect;

    fn check(&self, q: &Rect, _keywords: &[Keyword]) -> Result<(), SkqError> {
        validate::rect_query(q, self.dim())
    }

    fn query_sink<S: ResultSink>(
        &self,
        q: &Rect,
        keywords: &[Keyword],
        sink: &mut S,
        stats: &mut QueryStats,
    ) -> ControlFlow<()> {
        OrpKwSuite::query_sink(self, q, keywords, sink, stats)
    }
}

/// Page version of `SUITE_HEAD`. Version 1 headed a dataset section
/// and one member index per `k`; version 2 heads the inverted index and
/// one multi-layer index. Only this page's version moves: bumping
/// `SCHEMA_VERSION` would re-stamp every page of every snapshot, and a
/// version-1 suite is still refused by name (DESIGN.md §15).
const SUITE_HEAD_VERSION: u16 = 2;

// A schema bump re-versions every page; revisit the suite head then.
const _: () = assert!(SCHEMA_VERSION == 1);

impl Persist for OrpKwSuite {
    fn to_pages(&self, w: &mut persist::PageWriter) -> Result<(), SkqError> {
        let mut head = Vec::new();
        persist::put_uv(&mut head, self.k_max() as u64);
        w.page(persist::kind::SUITE_HEAD, SUITE_HEAD_VERSION, head);
        self.inv.to_pages(w)?;
        self.orp.to_pages(w)
    }

    fn from_pages(r: &mut persist::PageReader<'_>) -> Result<Self, SkqError> {
        let fail = |detail: String| SkqError::Corrupted {
            section: "suite".to_string(),
            detail,
        };
        let mut head = r.page(persist::kind::SUITE_HEAD, SUITE_HEAD_VERSION, "suite")?;
        let k_max = head.usizev()?;
        head.end()?;
        if !(2..=16).contains(&k_max) {
            return Err(fail(format!("implausible k_max {k_max}")));
        }
        let inv = InvertedIndex::from_pages(r)?;
        let orp = OrpKwIndex::from_pages(r)?;
        if orp.ks() != (2..=k_max) {
            return Err(fail(format!(
                "the index serves k = {:?}, the head declares 2..={k_max}",
                orp.ks()
            )));
        }
        if inv.num_objects() != orp.len() {
            return Err(fail(format!(
                "inverted index covers {} objects, the index holds {}",
                inv.num_objects(),
                orp.len()
            )));
        }
        Ok(Self { orp, inv })
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]

    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use skq_geom::Point;

    fn dataset() -> Dataset {
        let mut rng = StdRng::seed_from_u64(6);
        Dataset::from_parts(
            (0..800)
                .map(|_| {
                    let p = Point::new2(rng.gen_range(0..60) as f64, rng.gen_range(0..60) as f64);
                    let doc: Vec<Keyword> = (0..rng.gen_range(2..7))
                        .map(|_| rng.gen_range(0..9))
                        .collect();
                    (p, doc)
                })
                .collect(),
        )
    }

    use crate::naive::brute_rect as brute;

    #[test]
    fn shares_the_dataset_documents() {
        let d = dataset();
        let suite = OrpKwSuite::try_build(&d, 3).unwrap();
        for i in 0..d.len() {
            assert!(
                std::ptr::eq(suite.index().doc(i), d.doc(i)),
                "doc {i} was copied"
            );
        }
    }

    #[test]
    fn routes_each_k_correctly() {
        let d = dataset();
        let suite = OrpKwSuite::try_build(&d, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..80 {
            let x: f64 = rng.gen_range(0..60) as f64;
            let y: f64 = rng.gen_range(0..60) as f64;
            let q = Rect::new(&[x, y], &[x + 25.0, y + 25.0]);
            let k = rng.gen_range(0..7);
            let mut kws: Vec<Keyword> = Vec::new();
            while kws.len() < k {
                let w = rng.gen_range(0..9);
                if !kws.contains(&w) {
                    kws.push(w);
                }
            }
            let mut got = suite.query(&q, &kws).unwrap();
            got.sort_unstable();
            assert_eq!(got, brute(&d, &q, &kws), "trial {trial} k={k}");
        }
    }

    #[test]
    fn duplicates_in_query_are_deduped() {
        let d = dataset();
        let suite = OrpKwSuite::try_build(&d, 3).unwrap();
        let q = Rect::full(2);
        let mut a = suite.query(&q, &[3, 3, 5, 5]).unwrap();
        a.sort_unstable();
        assert_eq!(a, brute(&d, &q, &[3, 5]));
    }

    #[test]
    fn beyond_k_max_post_filters() {
        let d = dataset();
        let suite = OrpKwSuite::try_build(&d, 2).unwrap();
        let q = Rect::full(2);
        let kws = [0u32, 1, 2, 3, 4];
        let mut got = suite.query(&q, &kws).unwrap();
        got.sort_unstable();
        assert_eq!(got, brute(&d, &q, &kws));
    }

    #[test]
    fn sink_routes_match_query() {
        use crate::sink::{CountSink, LimitSink};
        let d = dataset();
        let suite = OrpKwSuite::try_build(&d, 3).unwrap();
        let q = Rect::new(&[10.0, 10.0], &[45.0, 45.0]);
        // One keyword set per route: range_scan, postings_filter,
        // framework, post_filter.
        for kws in [vec![], vec![4], vec![1, 2], vec![0, 1, 2, 3]] {
            let full = suite.query(&q, &kws).unwrap();
            let mut count = CountSink::new();
            let mut stats = QueryStats::new();
            let _ = suite.query_sink(&q, &kws, &mut count, &mut stats);
            assert_eq!(count.count(), full.len() as u64, "kws={kws:?}");
            if full.len() >= 2 {
                let mut limited = LimitSink::new(Vec::new(), 2);
                let mut stats = QueryStats::new();
                let _ = suite.query_sink(&q, &kws, &mut limited, &mut stats);
                assert!(limited.truncated(), "kws={kws:?}");
                let got = limited.into_inner();
                assert_eq!(got.len(), 2);
                assert!(got.iter().all(|i| full.contains(i)), "kws={kws:?}");
            }
        }
    }

    #[test]
    fn try_build_rejects_bad_k_max() {
        let d = dataset();
        assert!(matches!(
            OrpKwSuite::try_build(&d, 1),
            Err(SkqError::InvalidQuery(_))
        ));
    }

    #[test]
    fn guarded_query_caps_every_route() {
        use crate::stats::TruncatedReason;
        let d = dataset();
        let suite = OrpKwSuite::try_build(&d, 3).unwrap();
        let q = Rect::new(&[10.0, 10.0], &[45.0, 45.0]);
        for (kws, route) in [
            (vec![], Route::RangeScan),
            (vec![4], Route::PostingsFilter),
            (vec![1, 2], Route::Framework),
            (vec![0, 1, 2, 3], Route::PostFilter),
        ] {
            let full = suite.query(&q, &kws).unwrap();
            if full.len() < 3 {
                continue;
            }
            let guard = QueryGuard::new().with_max_results(2);
            let (got, stats) = suite.try_query_guarded(&q, &kws, &guard).unwrap();
            assert_eq!(got.len(), 2, "kws={kws:?}");
            assert_eq!(stats.truncated_reason, Some(TruncatedReason::Limit));
            assert_eq!(stats.route, Some(route));
            assert!(got.iter().all(|i| full.contains(i)), "kws={kws:?}");
        }
        // An unguarded guard leaves the answer untouched.
        let (all, stats) = suite
            .try_query_guarded(&q, &[1, 2], &QueryGuard::new())
            .unwrap();
        let mut expected = suite.query(&q, &[1, 2]).unwrap();
        expected.sort_unstable();
        assert_eq!(all, expected);
        assert_eq!(stats.truncated_reason, None);
        // The check is the rectangle alone.
        assert!(matches!(
            suite.try_query_guarded(&Rect::full(3), &[1, 2], &QueryGuard::new()),
            Err(SkqError::InvalidQuery(_))
        ));
    }

    #[test]
    fn zero_keywords_is_pure_range() {
        let d = dataset();
        let suite = OrpKwSuite::try_build(&d, 2).unwrap();
        let q = Rect::new(&[0.0, 0.0], &[30.0, 30.0]);
        let mut got = suite.query(&q, &[]).unwrap();
        got.sort_unstable();
        let expected: Vec<u32> = (0..d.len() as u32)
            .filter(|&i| q.contains(d.point(i as usize)))
            .collect();
        assert_eq!(got, expected);
    }
}

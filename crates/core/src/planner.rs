//! A cost-based query planner over the three execution strategies.
//!
//! The paper's introduction frames the problem as a choice between two
//! naive plans; its contribution adds a third. A production system
//! holds all three and picks per query — the index's advantage is
//! largest when both naive candidate sets are big and the output is
//! small, while a *rare* keyword makes the inverted index unbeatable
//! and a *tiny* rectangle makes the geometric index unbeatable.
//! [`PlannedOrpKw`] implements that choice with simple, cheaply
//! computable cost estimates:
//!
//! * **keywords-only**: the shortest postings list length (the
//!   galloping intersection is seeded from it);
//! * **structured-only**: estimated geometric selectivity × `|D|`,
//!   from a fixed-size uniform sample of the points;
//! * **framework index**: `N^{1−1/k} · (1 + ÔUT^{1/k})`, with `ÔUT`
//!   estimated as selectivity × (an independence-assumption estimate of
//!   the keyword-intersection size).
//!
//! The estimates are deliberately coarse — the point is to avoid the
//! catastrophic plan, not to find the perfect one — and every plan
//! returns identical results, so planning is purely a performance
//! decision.

use std::ops::ControlFlow;

use skq_geom::{ConvexPolytope, Rect};
use skq_invidx::{InvertedIndex, Keyword};

use crate::dataset::Dataset;
use crate::error::{validate, SkqError};
use crate::lc::LcKwIndex;
use crate::naive::{KeywordsFirst, StructuredFirst};
use crate::orp::OrpKwIndex;
use crate::query::KwQuery;
use crate::sink::{CountSink, ResultSink, TeeSink};
use crate::stats::{QueryStats, Route};
use crate::telemetry;

/// Which plan the planner chose.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Plan {
    /// Intersect postings lists, filter geometrically.
    KeywordsOnly,
    /// Geometric index, filter by keywords.
    StructuredOnly,
    /// The paper's transformed index.
    Framework,
}

impl Plan {
    /// Stable label used for metric series and query-log records.
    pub fn label(self) -> &'static str {
        Route::from(self).label()
    }
}

impl From<Plan> for Route {
    fn from(plan: Plan) -> Route {
        match plan {
            Plan::KeywordsOnly => Route::KeywordsOnly,
            Plan::StructuredOnly => Route::StructuredOnly,
            Plan::Framework => Route::Framework,
        }
    }
}

/// Which engine tier the planner's "framework" slot was admitted at.
///
/// Under a space budget (see
/// [`try_build_with_budget`](PlannedOrpKw::try_build_with_budget)) the
/// planner degrades gracefully instead of failing the build: the
/// super-linear ORP-KW index (Theorem 1) is tried first, then the
/// linear-space LC-KW route (footnote 3), then no index at all — every
/// tier still answers every query correctly, trading speed for space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BuildTier {
    /// Full ORP-KW index admitted (paper's query bound).
    Framework,
    /// Linear-space LC-KW fallback (extra `log N` factor, footnote 3).
    Linear,
    /// No geometric-keyword index; framework-plan queries are served by
    /// the cheaper of the two naive engines.
    Naive,
}

impl BuildTier {
    /// Stable label used for metric series and query-log records.
    pub fn label(self) -> &'static str {
        match self {
            BuildTier::Framework => "framework",
            BuildTier::Linear => "linear",
            BuildTier::Naive => "naive",
        }
    }
}

/// The engine occupying the planner's framework slot.
enum Engine {
    Framework(OrpKwIndex),
    Linear(LcKwIndex),
    Naive,
}

/// Per-strategy cost estimates (in "objects touched" units).
#[derive(Clone, Copy, Debug)]
pub struct CostEstimate {
    /// Estimated cost of the keywords-only plan.
    pub keywords_only: f64,
    /// Estimated cost of the structured-only plan.
    pub structured_only: f64,
    /// Estimated cost of the framework index.
    pub framework: f64,
    /// Estimated output size used for the framework estimate.
    pub out_estimate: f64,
}

impl CostEstimate {
    /// The plan with the smallest estimate.
    pub fn best(&self) -> Plan {
        if self.keywords_only <= self.structured_only && self.keywords_only <= self.framework {
            Plan::KeywordsOnly
        } else if self.structured_only <= self.framework {
            Plan::StructuredOnly
        } else {
            Plan::Framework
        }
    }

    /// The estimate for one specific plan.
    pub fn cost_of(&self, plan: Plan) -> f64 {
        match plan {
            Plan::KeywordsOnly => self.keywords_only,
            Plan::StructuredOnly => self.structured_only,
            Plan::Framework => self.framework,
        }
    }
}

/// Number of sampled points used for selectivity estimation.
const SAMPLE_SIZE: usize = 512;

/// An ORP-KW executor that owns all three strategies and routes each
/// query to the estimated-cheapest one.
pub struct PlannedOrpKw {
    engine: Engine,
    tier: BuildTier,
    keywords_first: KeywordsFirst,
    structured_first: StructuredFirst,
    inv: InvertedIndex,
    /// Uniform point sample (indices) for selectivity estimation.
    sample: Vec<u32>,
    dataset: Dataset,
    k: usize,
}

impl PlannedOrpKw {
    /// Builds all three engines plus the estimation sample.
    ///
    /// # Panics
    ///
    /// On an invalid dataset or `k`; see
    /// [`try_build`](Self::try_build) for the fallible surface.
    // The panic is this wrapper's documented contract; `try_build` is
    // the fallible surface.
    #[allow(clippy::disallowed_macros)]
    pub fn build(dataset: &Dataset, k: usize) -> Self {
        Self::try_build(dataset, k).unwrap_or_else(|e| panic!("{e}")) // skq-lint: allow(L01) documented panicking wrapper over try_build
    }

    /// Fallible build with no space budget (always admits the full
    /// framework index).
    ///
    /// # Errors
    ///
    /// `SkqError::InvalidDataset` / `InvalidQuery` exactly as
    /// [`OrpKwIndex::try_build`].
    pub fn try_build(dataset: &Dataset, k: usize) -> Result<Self, SkqError> {
        Self::try_build_with_budget(dataset, k, None)
    }

    /// Fallible build under an optional space budget (in 64-bit words),
    /// degrading gracefully instead of failing:
    ///
    /// 1. the full ORP-KW index ([`BuildTier::Framework`]);
    /// 2. on `BuildBudgetExceeded`, the linear-space LC-KW route
    ///    ([`BuildTier::Linear`], footnote 3 of the paper);
    /// 3. if even that exceeds the budget, no index at all
    ///    ([`BuildTier::Naive`]) — framework-plan queries are served by
    ///    the cheaper naive engine.
    ///
    /// The admitted tier is recorded on the
    /// `skq_planner_build_tier_total{tier=…}` counter and stamped into
    /// every query-log record this planner writes.
    ///
    /// # Errors
    ///
    /// Validation errors propagate; `BuildBudgetExceeded` never
    /// escapes (it triggers the next tier instead).
    pub fn try_build_with_budget(
        dataset: &Dataset,
        k: usize,
        max_space_words: Option<usize>,
    ) -> Result<Self, SkqError> {
        // Deterministic xorshift sampler (the crate has no runtime RNG
        // dependency; estimation only needs an unbiased-ish spread).
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let sample: Vec<u32> = (0..SAMPLE_SIZE)
            .map(|_| (next() % dataset.len().max(1) as u64) as u32)
            .collect();
        let (engine, tier) = match OrpKwIndex::try_build_with_budget(dataset, k, max_space_words) {
            Ok(index) => (Engine::Framework(index), BuildTier::Framework),
            Err(SkqError::BuildBudgetExceeded { .. }) => {
                match LcKwIndex::try_build_with_budget(dataset, k, max_space_words) {
                    Ok(lc) => (Engine::Linear(lc), BuildTier::Linear),
                    Err(SkqError::BuildBudgetExceeded { .. }) => (Engine::Naive, BuildTier::Naive),
                    Err(e) => return Err(e),
                }
            }
            Err(e) => return Err(e),
        };
        skq_obs::global()
            .counter("skq_planner_build_tier_total", &[("tier", tier.label())])
            .inc();
        Ok(Self {
            engine,
            tier,
            keywords_first: KeywordsFirst::build(dataset),
            structured_first: StructuredFirst::build(dataset),
            inv: InvertedIndex::build(dataset.docs()),
            sample,
            dataset: dataset.clone(),
            k,
        })
    }

    /// The tier the framework slot was admitted at.
    pub fn tier(&self) -> BuildTier {
        self.tier
    }

    /// Cost estimates for a query (no execution).
    pub fn estimate(&self, q: &Rect, keywords: &[Keyword]) -> CostEstimate {
        let n_obj = self.dataset.len() as f64;

        // Keywords-only: seeded from the shortest list.
        let min_list = keywords
            .iter()
            .map(|&w| self.inv.len_of(w))
            .min()
            .unwrap_or(0) as f64;

        // Geometric selectivity from the sample.
        let inside = self
            .sample
            .iter()
            .filter(|&&i| q.contains(self.dataset.point(i as usize)))
            .count() as f64;
        let selectivity = (inside + 1.0) / (self.sample.len() as f64 + 1.0);
        let structured = selectivity * n_obj;

        // Output estimate: sample the shortest postings list and count
        // how many sampled objects carry all the other keywords. The
        // naive independence estimate n·Π(len/n) is catastrophically
        // wrong exactly where the framework shines (frequent keywords
        // that never co-occur), so a 64-probe sample is worth its cost.
        let min_w = keywords.iter().copied().min_by_key(|&w| self.inv.len_of(w));
        let inter = match min_w {
            None => n_obj,
            Some(w) => {
                let list = self.inv.postings(w);
                if list.is_empty() {
                    0.0
                } else {
                    let step = (list.len() / 64).max(1);
                    let mut probed = 0usize;
                    let mut hit = 0usize;
                    for &i in list.iter().step_by(step) {
                        probed += 1;
                        if self.dataset.doc(i as usize).contains_all(keywords) {
                            hit += 1;
                        }
                    }
                    list.len() as f64 * (hit as f64 + 0.5) / (probed as f64 + 1.0)
                }
            }
        };
        let out_estimate = (inter * selectivity).max(0.0);

        CostEstimate {
            keywords_only: min_list,
            structured_only: structured,
            framework: self.framework_cost(out_estimate),
            out_estimate,
        }
    }

    /// The framework cost `N^{1−1/k} · (1 + OUT^{1/k})` for a given
    /// (estimated or actual) output size.
    fn framework_cost(&self, out: f64) -> f64 {
        let big_n = self.dataset.input_size() as f64;
        big_n.powf(1.0 - 1.0 / self.k as f64) * (1.0 + out.max(0.0).powf(1.0 / self.k as f64))
    }

    /// Executes with an explicit plan (for testing/measurement),
    /// returning the sorted matches.
    ///
    /// # Errors
    ///
    /// [`KwQuery::check`]'s errors.
    pub fn query_with_plan(
        &self,
        q: &Rect,
        keywords: &[Keyword],
        plan: Plan,
    ) -> Result<Vec<u32>, SkqError> {
        self.check(q, keywords)?;
        let mut out = Vec::new();
        let mut stats = QueryStats::new();
        let _ = match (plan, &self.engine) {
            (Plan::KeywordsOnly, _) => self.keywords_first.query_rect_sink(q, keywords, &mut out),
            (Plan::Framework, Engine::Framework(index)) => {
                index.query_sink(q, keywords, &mut out, &mut stats)
            }
            (Plan::Framework, Engine::Linear(lc)) => lc.query_sink(
                &ConvexPolytope::from_rect(q),
                keywords,
                &mut out,
                &mut stats,
            ),
            (Plan::StructuredOnly, _) | (Plan::Framework, Engine::Naive) => {
                self.structured_first.query_rect_sink(q, keywords, &mut out)
            }
        };
        out.sort_unstable();
        Ok(out)
    }

    /// Serves a framework-plan query on whatever tier was admitted.
    /// Returns whether an actual framework/linear index ran (i.e.
    /// whether `stats` was populated by the engine itself), and the
    /// traversal's flow.
    fn run_framework_slot<S: ResultSink>(
        &self,
        q: &Rect,
        keywords: &[Keyword],
        est: &CostEstimate,
        sink: &mut S,
        stats: &mut QueryStats,
    ) -> (bool, ControlFlow<()>) {
        match &self.engine {
            Engine::Framework(index) => (true, index.query_sink(q, keywords, sink, stats)),
            Engine::Linear(lc) => {
                let poly = ConvexPolytope::from_rect(q);
                (true, lc.query_sink(&poly, keywords, sink, stats))
            }
            // No index survived admission: serve with the cheaper of
            // the two naive engines (still correct, just slow).
            Engine::Naive if est.keywords_only <= est.structured_only => (
                false,
                self.keywords_first.query_rect_sink(q, keywords, sink),
            ),
            Engine::Naive => (
                false,
                self.structured_first.query_rect_sink(q, keywords, sink),
            ),
        }
    }

    /// Query-log label: the plan, suffixed with the degraded tier when
    /// the framework slot is not the full index (e.g.
    /// `framework@linear`).
    fn plan_label(&self, plan: Plan) -> &'static str {
        match (plan, self.tier) {
            (Plan::Framework, BuildTier::Linear) => "framework@linear",
            (Plan::Framework, BuildTier::Naive) => "framework@naive",
            _ => plan.label(),
        }
    }
}

impl KwQuery for PlannedOrpKw {
    type Shape = Rect;

    fn check(&self, q: &Rect, keywords: &[Keyword]) -> Result<(), SkqError> {
        validate::rect_query(q, self.dataset.dim())?;
        validate::distinct_keywords(keywords, self.k)
    }

    /// Picks the estimated-cheapest plan, records it in
    /// [`QueryStats::route`], and emits matching ids into `sink` in
    /// traversal order (unsorted).
    ///
    /// Telemetry: increments `skq_planner_chosen_total{plan=…}`,
    /// compares the prediction against a post-hoc estimate using the
    /// true output size (bumping `skq_planner_mispredictions_total`
    /// when the winner would have changed), and appends a query-log
    /// record carrying both costs. The emission stream is teed into an
    /// internal counter so the true output size feeds the
    /// misprediction check regardless of what `sink` does with the
    /// ids; if `sink` stops the query early, the post-hoc check uses
    /// the partial count (the best observation available).
    fn query_sink<S: ResultSink>(
        &self,
        q: &Rect,
        keywords: &[Keyword],
        sink: &mut S,
        stats: &mut QueryStats,
    ) -> ControlFlow<()> {
        let span = skq_obs::Span::enter("orp.planned_query");
        skq_obs::trace::attach_str("build_tier", self.tier().label());
        let est = self.estimate(q, keywords);
        let plan = est.best();
        stats.route = Some(plan.into());
        let mut tee = TeeSink::new(&mut *sink, CountSink::new());
        let (framework_ran, flow) = match plan {
            Plan::KeywordsOnly => (
                false,
                self.keywords_first.query_rect_sink(q, keywords, &mut tee),
            ),
            Plan::StructuredOnly => (
                false,
                self.structured_first.query_rect_sink(q, keywords, &mut tee),
            ),
            Plan::Framework => self.run_framework_slot(q, keywords, &est, &mut tee, stats),
        };
        let out_len = tee.secondary().count();
        if !framework_ran {
            // The naive engines carry no internal stats; account their
            // offered results here so telemetry stays populated.
            stats.reported += out_len;
        }

        // Post-hoc check: substitute the true output size into the
        // framework term (the naive estimates don't depend on OUT). If
        // the winner changes, the estimator picked the wrong plan.
        let actual = CostEstimate {
            framework: self.framework_cost(out_len as f64),
            out_estimate: out_len as f64,
            ..est
        };
        let reg = skq_obs::global();
        reg.counter("skq_planner_chosen_total", &[("plan", plan.label())])
            .inc();
        if actual.best() != plan {
            reg.counter("skq_planner_mispredictions_total", &[]).inc();
        }
        telemetry::record_query_planned(
            "orp_planned",
            self.k,
            Some(self.plan_label(plan)),
            stats,
            span.elapsed(),
            Some(est.cost_of(plan)),
            Some(actual.cost_of(plan)),
        );
        flow
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]

    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use skq_geom::Point;

    /// A dataset engineered so each plan wins somewhere:
    /// * keyword 0 and 1: very frequent (framework territory);
    /// * keyword 2: appears once (keywords-only territory);
    /// * tiny rectangles: structured-only territory.
    fn dataset() -> Dataset {
        let mut rng = StdRng::seed_from_u64(5);
        let mut parts: Vec<(Point, Vec<Keyword>)> = (0..4000)
            .map(|i| {
                let p = Point::new2(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0));
                let mut doc = vec![0u32];
                if i % 2 == 0 {
                    doc.push(1);
                }
                doc.push(3 + rng.gen_range(0..50));
                (p, doc)
            })
            .collect();
        parts[777].1.push(2); // the needle keyword
        Dataset::from_parts(parts)
    }

    #[test]
    fn all_plans_agree() {
        let d = dataset();
        let planner = PlannedOrpKw::build(&d, 2);
        let queries = [
            (Rect::full(2), vec![0u32, 1u32]),
            (Rect::new(&[100.0, 100.0], &[300.0, 300.0]), vec![0, 1]),
            (Rect::full(2), vec![0, 2]),
            (Rect::new(&[499.0, 499.0], &[501.0, 501.0]), vec![0, 1]),
        ];
        for (q, kws) in &queries {
            let a = planner.query_with_plan(q, kws, Plan::KeywordsOnly).unwrap();
            let b = planner
                .query_with_plan(q, kws, Plan::StructuredOnly)
                .unwrap();
            let c = planner.query_with_plan(q, kws, Plan::Framework).unwrap();
            assert_eq!(a, b);
            assert_eq!(b, c);
            let mut d2 = planner.query(q, kws).unwrap();
            d2.sort_unstable();
            assert_eq!(d2, c);
        }
    }

    #[test]
    fn sink_query_counts_and_limits() {
        use crate::sink::LimitSink;
        let d = dataset();
        let planner = PlannedOrpKw::build(&d, 2);
        let q = Rect::new(&[100.0, 100.0], &[300.0, 300.0]);
        let full = planner
            .query_with_plan(&q, &[0, 1], Plan::Framework)
            .unwrap();
        assert!(full.len() > 3, "query too selective for this test");

        assert_eq!(planner.count(&q, &[0, 1]).unwrap(), full.len() as u64);

        let mut limited = LimitSink::new(Vec::new(), 3);
        let mut stats = QueryStats::new();
        let _ = planner.query_sink(&q, &[0, 1], &mut limited, &mut stats);
        assert!(stats.route.is_some(), "the chosen plan is recorded");
        assert!(limited.truncated());
        let got = limited.into_inner();
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|i| full.binary_search(i).is_ok()));
    }

    #[test]
    fn rare_keyword_prefers_keywords_only() {
        let d = dataset();
        let planner = PlannedOrpKw::build(&d, 2);
        let est = planner.estimate(&Rect::full(2), &[0, 2]);
        assert_eq!(est.best(), Plan::KeywordsOnly, "{est:?}");
    }

    #[test]
    fn tiny_rectangle_prefers_structured_only() {
        let d = dataset();
        let planner = PlannedOrpKw::build(&d, 2);
        let q = Rect::new(&[500.0, 500.0], &[500.5, 500.5]);
        let est = planner.estimate(&q, &[0, 1]);
        assert_eq!(est.best(), Plan::StructuredOnly, "{est:?}");
    }

    #[test]
    fn frequent_keywords_big_window_prefers_framework() {
        let d = dataset();
        let planner = PlannedOrpKw::build(&d, 2);
        // Both keywords huge, window big: naive plans pay thousands,
        // framework pays ~√N·(1 + OUT^(1/2)).
        let q = Rect::new(&[0.0, 0.0], &[400.0, 400.0]);
        let est = planner.estimate(&q, &[0, 1]);
        // The framework estimate must at least beat the keywords-only
        // estimate (2000-long list); depending on OUT it may also beat
        // structured-only.
        assert!(est.framework < est.keywords_only, "{est:?}");
    }

    #[test]
    fn budget_degrades_through_tiers_without_losing_answers() {
        // Uniform keyword distribution: every point carries both query
        // keywords, so the LC footprint sits clearly below the ORP one
        // and a mid-point budget exercises the linear tier.
        let mut rng = StdRng::seed_from_u64(7);
        let parts: Vec<(Point, Vec<Keyword>)> = (0..2000)
            .map(|_| {
                let p = Point::new2(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0));
                (p, vec![0u32, 1, 100 + rng.gen_range(0..50)])
            })
            .collect();
        let d = Dataset::from_parts(parts);
        let q = Rect::new(&[100.0, 100.0], &[300.0, 300.0]);
        let kws = [0u32, 1u32];

        let full = PlannedOrpKw::try_build_with_budget(&d, 2, None).unwrap();
        assert_eq!(full.tier(), BuildTier::Framework);
        let expected = full.query_with_plan(&q, &kws, Plan::Framework).unwrap();
        assert!(!expected.is_empty());

        // A budget between the LC footprint and the ORP footprint must
        // admit the linear tier; a budget of one word admits nothing.
        let orp_words = OrpKwIndex::build(&d, 2).space_words();
        let lc_words = LcKwIndex::build(&d, 2).space_words();
        assert!(lc_words < orp_words, "lc={lc_words} orp={orp_words}");
        let mid = (lc_words + orp_words) / 2;

        for (budget, tier) in [(Some(mid), BuildTier::Linear), (Some(1), BuildTier::Naive)] {
            let planner = PlannedOrpKw::try_build_with_budget(&d, 2, budget).unwrap();
            assert_eq!(planner.tier(), tier, "budget {budget:?}");
            let forced = planner.query_with_plan(&q, &kws, Plan::Framework);
            assert_eq!(forced.unwrap(), expected);
            let mut got = planner.query(&q, &kws).unwrap();
            got.sort_unstable();
            assert_eq!(got, expected);
        }
        let tiers =
            skq_obs::global().counter("skq_planner_build_tier_total", &[("tier", "linear")]);
        assert!(tiers.get() >= 1);
    }

    #[test]
    fn guarded_query_truncates_with_reason() {
        use crate::stats::TruncatedReason;
        let d = dataset();
        let planner = PlannedOrpKw::build(&d, 2);
        let q = Rect::new(&[100.0, 100.0], &[300.0, 300.0]);
        let full = planner
            .query_with_plan(&q, &[0, 1], Plan::Framework)
            .unwrap();
        assert!(full.len() > 3);
        let guard = crate::guard::QueryGuard::new().with_max_results(3);
        let mut got = Vec::new();
        let mut stats = QueryStats::new();
        let _ = planner
            .run(&q, &[0, 1], &guard, &mut got, &mut stats)
            .unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(stats.truncated_reason, Some(TruncatedReason::Limit));
        assert!(got.iter().all(|i| full.binary_search(i).is_ok()));
    }

    #[test]
    fn estimates_are_sane() {
        let d = dataset();
        let planner = PlannedOrpKw::build(&d, 2);
        let est = planner.estimate(&Rect::full(2), &[0, 1]);
        // Keyword 0 is in all 4000 docs, keyword 1 in 2000.
        assert_eq!(est.keywords_only, 2000.0);
        assert!(est.structured_only > 3000.0); // full-space selectivity ≈ 1
        assert!(est.out_estimate > 500.0);
    }
}

//! Robustness-layer acceptance tests: deadlines, cancellation, result
//! budgets, graceful build degradation, duplicate-id rejection, the
//! constructibility of every [`SkqError`] variant from a public entry
//! point, and one table over every query entry — each [`KwQuery`]
//! implementor, both nearest-neighbour indexes, and the dynamic index —
//! proving malformed input comes back as a typed error and valid input
//! agrees with the brute-force oracles. (The `Internal` variant only
//! arises from injected fail points; `tests/chaos.rs` covers it under
//! `--features failpoints`.)

use std::time::Duration;

use structured_keyword_search::core::batch::{run_batch_isolated, BatchQuery, ShardOutcome};
use structured_keyword_search::core::dynamic::DynamicOrpKw;
use structured_keyword_search::core::naive::brute_rect;
use structured_keyword_search::core::planner::{BuildTier, Plan, PlannedOrpKw};
use structured_keyword_search::core::rr::rr_bruteforce;
use structured_keyword_search::core::suite::OrpKwSuite;
use structured_keyword_search::prelude::*;

fn grid_dataset(n: usize) -> Dataset {
    // A deterministic 2-D grid where every point carries both query
    // keywords plus a spreader tag, so OUT is large and controllable.
    Dataset::from_parts(
        (0..n)
            .map(|i| {
                let x = (i % 64) as f64;
                let y = (i / 64) as f64;
                (Point::new2(x, y), vec![0u32, 1, 2 + (i % 5) as u32])
            })
            .collect(),
    )
}

fn counter(name: &'static str) -> u64 {
    structured_keyword_search::obs::global()
        .counter(name, &[])
        .get()
}

#[test]
fn deadline_returns_partial_results_with_reason() {
    let d = grid_dataset(4000);
    let index = OrpKwIndex::build(&d, 2);
    let q = Rect::full(2);
    let full = index.query(&q, &[0, 1]).unwrap();
    assert_eq!(full.len(), 4000);

    let before = counter("skq_query_deadline_exceeded");
    // An already-expired deadline: the guard trips at the first
    // emission check, so the partial result is a (strict) prefix of
    // the full answer, the query is a typed error, and the stats carry
    // the reason.
    let guard = QueryGuard::new().with_deadline(Duration::ZERO);
    std::thread::sleep(Duration::from_millis(2));
    let mut partial = Vec::new();
    let mut stats = QueryStats::new();
    let outcome = index.run(&q, &[0, 1], &guard, &mut partial, &mut stats);
    assert!(matches!(outcome, Err(SkqError::DeadlineExceeded)));
    assert_eq!(
        stats.truncated_reason,
        Some(TruncatedReason::DeadlineExceeded)
    );
    assert!(partial.len() < full.len());
    assert!(partial.iter().all(|i| full.contains(i)));
    assert_eq!(counter("skq_query_deadline_exceeded"), before + 1);

    // A generous deadline leaves the answer untouched.
    let guard = QueryGuard::new().with_deadline(Duration::from_secs(600));
    let mut sink = GuardedSink::new(Vec::new(), &guard);
    let mut stats = QueryStats::new();
    let _ = index.query_sink(&q, &[0, 1], &mut sink, &mut stats);
    assert_eq!(sink.truncated_reason(), None);
    assert_eq!(sink.into_inner().len(), full.len());
}

#[test]
fn cancellation_stops_the_query_and_counts() {
    let d = grid_dataset(2000);
    let index = OrpKwIndex::build(&d, 2);
    let before = counter("skq_query_cancelled");
    let token = CancelToken::new();
    token.cancel();
    let guard = QueryGuard::new().with_cancel(token);
    assert_eq!(guard.check(), Err(SkqError::Cancelled));
    let mut sink = CountSink::new();
    let mut stats = QueryStats::new();
    let outcome = index.run(&Rect::full(2), &[0, 1], &guard, &mut sink, &mut stats);
    assert!(matches!(outcome, Err(SkqError::Cancelled)));
    assert_eq!(stats.truncated_reason, Some(TruncatedReason::Cancelled));
    assert_eq!(counter("skq_query_cancelled"), before + 1);
}

#[test]
fn result_budget_caps_suite_and_dynamic_paths() {
    let d = grid_dataset(3000);
    let guard = QueryGuard::new().with_max_results(7);

    let suite = OrpKwSuite::build(&d, 2);
    let (got, stats) = suite
        .try_query_guarded(&Rect::full(2), &[0, 1], &guard)
        .unwrap();
    assert_eq!(got.len(), 7);
    assert_eq!(stats.truncated_reason, Some(TruncatedReason::Limit));

    let mut dynamic = DynamicOrpKw::new(2, 2);
    for i in 0..1000u32 {
        dynamic.insert(Point::new2((i % 50) as f64, (i / 50) as f64), vec![0, 1]);
    }
    let (got, stats) = dynamic.query(&Rect::full(2), &[0, 1], &guard).unwrap();
    assert_eq!(got.len(), 7);
    assert_eq!(stats.truncated_reason, Some(TruncatedReason::Limit));
}

#[test]
fn tiny_budget_degrades_builds_but_not_answers() {
    let d = grid_dataset(2000);
    let q = Rect::new(&[3.0, 3.0], &[40.0, 20.0]);
    let kws = [0u32, 1u32];

    let full = PlannedOrpKw::try_build(&d, 2).unwrap();
    assert_eq!(full.tier(), BuildTier::Framework);
    let expected = full.query_with_plan(&q, &kws, Plan::Framework).unwrap();
    assert!(!expected.is_empty());

    // Between the LC and ORP footprints → the linear tier; one word →
    // nothing is admitted and the naive engines serve.
    let orp_words = OrpKwIndex::build(&d, 2).space_words();
    let lc_words = LcKwIndex::build(&d, 2).space_words();
    assert!(lc_words < orp_words, "lc={lc_words} orp={orp_words}");
    let mid = (lc_words + orp_words) / 2;
    for (budget, tier) in [(mid, BuildTier::Linear), (1, BuildTier::Naive)] {
        let before = structured_keyword_search::obs::global()
            .counter("skq_planner_build_tier_total", &[("tier", tier.label())])
            .get();
        let planner = PlannedOrpKw::try_build_with_budget(&d, 2, Some(budget)).unwrap();
        assert_eq!(planner.tier(), tier);
        assert_eq!(
            structured_keyword_search::obs::global()
                .counter("skq_planner_build_tier_total", &[("tier", tier.label())])
                .get(),
            before + 1,
            "build tier must be visible in telemetry"
        );
        let forced = planner.query_with_plan(&q, &kws, Plan::Framework);
        assert_eq!(forced.unwrap(), expected);
        let (mut got, stats) = planner.query_with_stats(&q, &kws).unwrap();
        got.sort_unstable();
        assert_eq!(got, expected);
        assert_eq!(stats.truncated_reason, None);
    }

    // The degraded tier is stamped into the query log's plan label
    // whenever the framework plan runs on a fallback engine.
    let planner = PlannedOrpKw::try_build_with_budget(&d, 2, Some(mid)).unwrap();
    // Full-space + omnipresent keywords: the framework plan wins.
    let (_, stats) = planner.query_with_stats(&Rect::full(2), &kws).unwrap();
    if stats.route == Some(Route::Framework) {
        let recent = structured_keyword_search::obs::query_log().recent(1);
        assert_eq!(recent[0].plan, Some("framework@linear"));
    }
}

#[test]
fn duplicate_id_insertion_is_rejected() {
    let mut idx = DynamicOrpKw::new(2, 2);
    let a = idx
        .try_insert_with_id(3, Point::new2(1.0, 1.0), vec![0, 1])
        .unwrap();
    let err = idx
        .try_insert_with_id(3, Point::new2(2.0, 2.0), vec![0, 1])
        .unwrap_err();
    assert!(matches!(err, SkqError::InvalidQuery(_)), "{err}");
    assert!(err.to_string().contains("duplicate object id 3"), "{err}");
    // The failed insert is a no-op: the index still holds exactly one
    // object and answers correctly.
    assert_eq!(idx.len(), 1);
    let (hits, _) = idx
        .query(&Rect::full(2), &[0, 1], &QueryGuard::new())
        .unwrap();
    assert_eq!(hits, vec![a]);
}

#[test]
fn every_error_variant_is_reachable_from_public_api() {
    // InvalidDataset — a NaN coordinate is rejected at construction.
    let err = Dataset::try_from_parts(vec![(Point::new2(f64::NAN, 0.0), vec![0u32])]).unwrap_err();
    assert!(matches!(err, SkqError::InvalidDataset(_)), "{err}");
    assert_eq!(err.kind(), "invalid_dataset");

    // InvalidQuery — duplicate query keywords.
    let d = grid_dataset(64);
    let index = OrpKwIndex::try_build(&d, 2).unwrap();
    let err = index.query(&Rect::full(2), &[0, 0]).unwrap_err();
    assert!(matches!(err, SkqError::InvalidQuery(_)), "{err}");

    // BuildBudgetExceeded — a one-word space budget.
    let err = match OrpKwIndex::try_build_with_budget(&d, 2, Some(1)) {
        Err(e) => e,
        Ok(_) => panic!("a one-word budget must not admit the index"),
    };
    assert!(
        matches!(err, SkqError::BuildBudgetExceeded { budget: 1, .. }),
        "{err}"
    );

    // DeadlineExceeded / Cancelled — guard checks.
    let guard = QueryGuard::new().with_deadline(Duration::ZERO);
    std::thread::sleep(Duration::from_millis(2));
    assert_eq!(guard.check(), Err(SkqError::DeadlineExceeded));
    let token = CancelToken::new();
    token.cancel();
    let guard = QueryGuard::new().with_cancel(token);
    assert_eq!(guard.check(), Err(SkqError::Cancelled));

    // ShardPanicked — a malformed per-shard query (wrong keyword arity
    // panics inside the worker) survives isolation as a Failed shard
    // and surfaces as a typed error from into_results().
    let queries: Vec<BatchQuery> = (0..8)
        .map(|_| BatchQuery {
            rect: Rect::full(2),
            keywords: vec![0, 1],
        })
        .chain(std::iter::once(BatchQuery {
            rect: Rect::full(2),
            keywords: vec![0, 1, 2], // arity 3 against a k=2 index
        }))
        .collect();
    let report = run_batch_isolated(&index, &queries, 3, &QueryGuard::new());
    assert!(!report.is_complete());
    assert!(report.outcomes.contains(&ShardOutcome::Failed));
    let err = report.into_results().unwrap_err();
    assert!(matches!(err, SkqError::ShardPanicked { .. }), "{err}");
    assert_eq!(err.kind(), "shard_panicked");

    // Internal — only constructible via fail-point injection; covered
    // by tests/chaos.rs under `--features failpoints`.
}

/// A seeded 2-D dataset on an integer grid (so the L2 nearest-neighbour
/// index accepts it), with keywords `0..6` spread unevenly.
fn seeded_dataset() -> Dataset {
    let mut state = 0x5eed_u64;
    let mut next = move |m: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % m
    };
    Dataset::from_parts(
        (0..300)
            .map(|_| {
                let p = Point::new2(next(40) as f64, next(40) as f64);
                let doc: Vec<Keyword> = (0..1 + next(4)).map(|_| next(6) as Keyword).collect();
                (p, doc)
            })
            .collect(),
    )
}

/// `[a, b]` boxes of side 3 around the dataset's points (the RR-KW
/// input).
fn boxes(d: &Dataset) -> Vec<(Rect, Vec<Keyword>)> {
    (0..d.len())
        .map(|i| {
            let (x, y) = (d.point(i).get(0), d.point(i).get(1));
            let r = Rect::new(&[x, y], &[x + 3.0, y + 3.0]);
            (r, d.doc(i).keywords().to_vec())
        })
        .collect()
}

fn assert_invalid<T: std::fmt::Debug>(entry: &str, case: &str, got: Result<T, SkqError>) {
    assert!(
        matches!(got, Err(SkqError::InvalidQuery(_))),
        "{entry}, {case}: expected InvalidQuery, got {got:?}"
    );
}

/// Every way of asking a [`KwQuery`] index refuses `shape`/`keywords`
/// with a typed error and never panics.
fn assert_rejected<I: KwQuery>(
    entry: &str,
    case: &str,
    index: &I,
    shape: &I::Shape,
    kws: &[Keyword],
) {
    assert_invalid(entry, case, index.check(shape, kws));
    assert_invalid(entry, case, index.query(shape, kws));
    assert_invalid(entry, case, index.count(shape, kws));
    assert_invalid(entry, case, index.count_at_least(shape, kws, 1));
    let mut out = Vec::new();
    let ran = index.run(
        shape,
        kws,
        &QueryGuard::new(),
        &mut out,
        &mut QueryStats::new(),
    );
    assert_invalid(entry, case, ran);
    assert!(out.is_empty(), "{entry}, {case}: a refused query emitted");
}

/// The malformed-query cases every fixed-`k` index shares: too few and
/// too many distinct keywords, and `t = 0` for the threshold query.
fn assert_keyword_contract<I: KwQuery>(entry: &str, index: &I, shape: &I::Shape) {
    assert_rejected(entry, "one distinct keyword", index, shape, &[1, 1]);
    assert_rejected(entry, "three distinct keywords", index, shape, &[0, 1, 2]);
    assert_invalid(entry, "t = 0", index.count_at_least(shape, &[0, 1], 0));
}

#[test]
fn every_query_entry_rejects_malformed_input_typed() {
    let d = seeded_dataset();
    let nan_bound = ConvexPolytope::new(vec![Halfspace::new(&[1.0, 0.0], f64::NAN)]);
    let nan_coeff = ConvexPolytope::new(vec![Halfspace::new(&[f64::NAN, 1.0], 5.0)]);
    let polytope_3d = ConvexPolytope::new(vec![Halfspace::new(&[1.0, 0.0, 0.0], 5.0)]);
    let rect = Rect::new(&[0.0, 0.0], &[20.0, 20.0]);
    // `Rect::new` itself refuses NaN bounds, so no rectangle query can
    // carry one; the NaN cases run on the shapes that can.

    let orp = OrpKwIndex::try_build(&d, 2).unwrap();
    assert_rejected("orp", "3-D rectangle", &orp, &Rect::full(3), &[0, 1]);
    assert_keyword_contract("orp", &orp, &rect);

    let rr = RrKwIndex::try_build(&boxes(&d), 2).unwrap();
    assert_rejected("rr", "1-D rectangle", &rr, &Rect::full(1), &[0, 1]);
    assert_keyword_contract("rr", &rr, &rect);

    let rr_linear = RrKwLinear::try_build(&boxes(&d), 2).unwrap();
    assert_rejected(
        "rr_linear",
        "3-D rectangle",
        &rr_linear,
        &Rect::full(3),
        &[0, 1],
    );
    assert_keyword_contract("rr_linear", &rr_linear, &rect);

    let box_2d = ConvexPolytope::from_rect(&rect);
    for (entry, index) in [
        ("sp", SpKwIndex::try_build(&d, 2).unwrap()),
        (
            "sp_kd",
            SpKwIndex::try_build_with_strategy(&d, 2, SpStrategy::Kd).unwrap(),
        ),
    ] {
        assert_rejected(entry, "NaN bound", &index, &nan_bound, &[0, 1]);
        assert_rejected(entry, "NaN coefficient", &index, &nan_coeff, &[0, 1]);
        assert_rejected(entry, "3-D constraint", &index, &polytope_3d, &[0, 1]);
        assert_keyword_contract(entry, &index, &box_2d);
    }

    let lc = LcKwIndex::try_build(&d, 2).unwrap();
    assert_rejected("lc", "NaN bound", &lc, &nan_bound, &[0, 1]);
    assert_rejected("lc", "3-D constraint", &lc, &polytope_3d, &[0, 1]);
    assert_keyword_contract("lc", &lc, &box_2d);

    let srp = SrpKwIndex::try_build(&d, 2).unwrap();
    let nan_center = Ball::new(Point::new2(f64::NAN, 1.0), 4.0);
    let ball_3d = Ball::new(Point::new3(0.0, 0.0, 0.0), 4.0);
    let ball = Ball::new(Point::new2(10.0, 10.0), 8.0);
    assert_rejected("srp", "NaN centre", &srp, &nan_center, &[0, 1]);
    assert_rejected("srp", "3-D ball", &srp, &ball_3d, &[0, 1]);
    assert_keyword_contract("srp", &srp, &ball);

    let ksi = KsiIndex::try_build(d.docs(), 2).unwrap();
    assert_keyword_contract("ksi", &ksi, &());

    let suite = OrpKwSuite::try_build(&d, 3).unwrap();
    assert_rejected("suite", "3-D rectangle", &suite, &Rect::full(3), &[0, 1]);
    assert_invalid("suite", "t = 0", suite.count_at_least(&rect, &[0, 1], 0));
    let guard = QueryGuard::new();
    let served = suite.try_query_guarded(&Rect::full(1), &[0, 1], &guard);
    assert_invalid("suite", "served 1-D rectangle", served);

    let planner = PlannedOrpKw::try_build(&d, 2).unwrap();
    assert_rejected(
        "planner",
        "3-D rectangle",
        &planner,
        &Rect::full(3),
        &[0, 1],
    );
    assert_keyword_contract("planner", &planner, &rect);
    let forced = planner.query_with_plan(&rect, &[2, 2], Plan::KeywordsOnly);
    assert_invalid("planner", "forced plan, one keyword", forced);

    // The ranked and handle-emitting entries: one validated method each.
    let linf = LinfNnIndex::try_build(&d, 2).unwrap();
    let l2 = L2NnIndex::try_build(&d, 2).unwrap();
    let at = Point::new2(5.0, 5.0);
    for (case, p, t, kws) in [
        ("NaN point", Point::new2(f64::NAN, 5.0), 3, vec![0, 1]),
        ("3-D point", Point::new3(5.0, 5.0, 5.0), 3, vec![0, 1]),
        ("one distinct keyword", at, 3, vec![1, 1]),
        ("three distinct keywords", at, 3, vec![0, 1, 2]),
        ("t = 0", at, 0, vec![0, 1]),
    ] {
        assert_invalid("nn_linf", case, linf.query(&p, t, &kws));
        assert_invalid("nn_l2", case, l2.query(&p, t, &kws));
    }
    assert_invalid(
        "nn_l2",
        "fractional point",
        l2.query(&Point::new2(0.5, 1.0), 3, &[0, 1]),
    );

    let mut dynamic = DynamicOrpKw::new(2, 2);
    for i in 0..d.len() {
        dynamic.insert(*d.point(i), d.doc(i).keywords().to_vec());
    }
    let guard = QueryGuard::new();
    assert_invalid(
        "dynamic",
        "3-D rectangle",
        dynamic.query(&Rect::full(3), &[0, 1], &guard),
    );
    assert_invalid(
        "dynamic",
        "one distinct keyword",
        dynamic.query(&rect, &[1, 1], &guard),
    );
    assert_invalid(
        "dynamic",
        "three distinct keywords",
        dynamic.query(&rect, &[0, 1, 2], &guard),
    );
}

/// On one seeded dataset, `query`, `count` and `count_at_least(t)` of
/// every [`KwQuery`] implementor agree with the brute-force oracles.
fn assert_agrees<I: KwQuery>(
    entry: &str,
    index: &I,
    shape: &I::Shape,
    kws: &[Keyword],
    want: &[u32],
) {
    let mut got = index.query(shape, kws).unwrap();
    got.sort_unstable();
    assert_eq!(got, want, "{entry}: query, keywords {kws:?}");
    let n = want.len();
    assert_eq!(index.count(shape, kws).unwrap(), n as u64, "{entry}: count");
    for t in [1, n.max(1), n + 1] {
        assert_eq!(
            index.count_at_least(shape, kws, t).unwrap(),
            n >= t,
            "{entry}: count_at_least({t}), keywords {kws:?}"
        );
    }
}

#[test]
fn every_query_entry_agrees_with_brute_force() {
    let d = seeded_dataset();
    let oracle = FullScan::new(&d);
    let rects = boxes(&d);
    let orp = OrpKwIndex::try_build(&d, 2).unwrap();
    let rr = RrKwIndex::try_build(&rects, 2).unwrap();
    let rr_linear = RrKwLinear::try_build(&rects, 2).unwrap();
    let sp = SpKwIndex::try_build(&d, 2).unwrap();
    let lc = LcKwIndex::try_build(&d, 2).unwrap();
    let srp = SrpKwIndex::try_build(&d, 2).unwrap();
    let ksi = KsiIndex::try_build(d.docs(), 2).unwrap();
    let suite = OrpKwSuite::try_build(&d, 3).unwrap();
    let planner = PlannedOrpKw::try_build(&d, 2).unwrap();
    let linf = LinfNnIndex::try_build(&d, 2).unwrap();
    let l2 = L2NnIndex::try_build(&d, 2).unwrap();
    let mut dynamic = DynamicOrpKw::new(2, 2);
    let handles: Vec<_> = (0..d.len())
        .map(|i| dynamic.insert(*d.point(i), d.doc(i).keywords().to_vec()))
        .collect();

    for (kws, (lo, hi)) in [
        (vec![0u32, 1], ([0.0, 0.0], [20.0, 20.0])),
        (vec![2, 5], ([5.0, 10.0], [39.0, 30.0])),
        (vec![3, 4], ([-1.0, -1.0], [40.0, 40.0])),
        (vec![1, 5], ([12.0, 12.0], [12.0, 12.0])),
    ] {
        let rect = Rect::new(&lo, &hi);
        let want = brute_rect(&d, &rect, &kws);
        assert_agrees("orp", &orp, &rect, &kws, &want);
        assert_agrees("suite", &suite, &rect, &kws, &want);
        assert_agrees("planner", &planner, &rect, &kws, &want);
        assert_agrees("rr", &rr, &rect, &kws, &rr_bruteforce(&rects, &rect, &kws));
        assert_agrees(
            "rr_linear",
            &rr_linear,
            &rect,
            &kws,
            &rr_bruteforce(&rects, &rect, &kws),
        );
        let poly = ConvexPolytope::new(vec![
            Halfspace::new(&[1.0, 1.0], hi[0] + hi[1] - 10.0),
            Halfspace::new(&[-1.0, 0.0], -lo[0]),
        ]);
        assert_agrees("sp", &sp, &poly, &kws, &oracle.query_polytope(&poly, &kws));
        assert_agrees("lc", &lc, &poly, &kws, &oracle.query_polytope(&poly, &kws));
        let ball = Ball::new(Point::new2(lo[0], hi[1]), 9.5);
        assert_agrees("srp", &srp, &ball, &kws, &oracle.query_ball(&ball, &kws));
        assert_agrees(
            "ksi",
            &ksi,
            &(),
            &kws,
            &brute_rect(&d, &Rect::full(2), &kws),
        );

        let at = Point::new2(lo[0], hi[1]);
        for t in [1, 4, 1000] {
            assert_eq!(
                linf.query(&at, t, &kws).unwrap().0,
                oracle.nn_linf(&at, t, &kws)
            );
            assert_eq!(
                l2.query(&at, t, &kws).unwrap().0,
                oracle.nn_l2(&at, t, &kws)
            );
        }
        let (mut got, _) = dynamic.query(&rect, &kws, &QueryGuard::new()).unwrap();
        got.sort_unstable();
        let want: Vec<_> = want.iter().map(|&i| handles[i as usize]).collect();
        assert_eq!(got, want, "dynamic, keywords {kws:?}");
    }
}

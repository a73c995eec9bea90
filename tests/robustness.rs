//! Robustness-layer acceptance tests: deadlines, cancellation, result
//! budgets, duplicate-id rejection, the constructibility of every
//! [`SkqError`] variant from a public entry point, and one table over
//! every query entry — each [`KwQuery`] implementor, both
//! nearest-neighbour indexes, and the dynamic index — proving malformed
//! input comes back as a typed error and valid input agrees with the
//! brute-force oracles. (The `Internal` variant only
//! arises from injected fail points; `tests/chaos.rs` covers it under
//! `--features failpoints`.)

use std::time::Duration;

use structured_keyword_search::core::dynamic::{DynamicOrpKw, ObjectTable};
use structured_keyword_search::core::naive::brute_rect;
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
    let index = OrpKwIndex::try_build(&d, 2).unwrap();
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
    let index = OrpKwIndex::try_build(&d, 2).unwrap();
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

    let suite = OrpKwSuite::try_build(&d, 2).unwrap();
    let (got, stats) = suite
        .try_query_guarded(&Rect::full(2), &[0, 1], &guard)
        .unwrap();
    assert_eq!(got.len(), 7);
    assert_eq!(stats.truncated_reason, Some(TruncatedReason::Limit));

    let mut dynamic = DynamicOrpKw::new(2, 2);
    for i in 0..1000u32 {
        dynamic
            .try_insert(Point::new2((i % 50) as f64, (i / 50) as f64), vec![0, 1])
            .unwrap();
    }
    let (got, stats) = dynamic.query(&Rect::full(2), &[0, 1], &guard).unwrap();
    assert_eq!(got.len(), 7);
    assert_eq!(stats.truncated_reason, Some(TruncatedReason::Limit));
}

#[test]
fn duplicate_id_insertion_is_rejected() {
    let mut table = ObjectTable::try_new(2).unwrap();
    let a = table
        .try_insert_with_id(3, Point::new2(1.0, 1.0), vec![0, 1])
        .unwrap();
    let before = table.clone();
    let err = table
        .try_insert_with_id(3, Point::new2(2.0, 2.0), vec![0, 1])
        .unwrap_err();
    assert!(matches!(err, SkqError::InvalidQuery(_)), "{err}");
    assert!(err.to_string().contains("duplicate object id 3"), "{err}");
    // The failed insert is a no-op: the table still holds exactly one
    // object, the first one inserted under id 3.
    assert_eq!(table, before);
    assert_eq!(table.len(), 1);
    let ids: Vec<u64> = table.iter().map(|(id, _, _)| id).collect();
    assert_eq!(ids, vec![a.id()]);
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

    // DeadlineExceeded / Cancelled — guard checks.
    let guard = QueryGuard::new().with_deadline(Duration::ZERO);
    std::thread::sleep(Duration::from_millis(2));
    assert_eq!(guard.check(), Err(SkqError::DeadlineExceeded));
    let token = CancelToken::new();
    token.cancel();
    let guard = QueryGuard::new().with_cancel(token);
    assert_eq!(guard.check(), Err(SkqError::Cancelled));

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

    let box_2d = ConvexPolytope::from_rect(&rect);
    let sp = SpKwIndex::try_build(&d, 2).unwrap();
    assert_rejected("sp", "NaN bound", &sp, &nan_bound, &[0, 1]);
    assert_rejected("sp", "NaN coefficient", &sp, &nan_coeff, &[0, 1]);
    assert_rejected("sp", "3-D constraint", &sp, &polytope_3d, &[0, 1]);
    assert_keyword_contract("sp", &sp, &box_2d);

    // SP-KW builds kd cells for d ≥ 3, so its kd path is checked on the
    // same objects with a third coordinate.
    let d3 = d.map_points(|i, p| Point::new3(p.get(0), p.get(1), (i % 40) as f64));
    let sp_kd = SpKwIndex::try_build(&d3, 2).unwrap();
    let nan_bound_3d = ConvexPolytope::new(vec![Halfspace::new(&[1.0, 0.0, 0.0], f64::NAN)]);
    let nan_coeff_3d = ConvexPolytope::new(vec![Halfspace::new(&[f64::NAN, 1.0, 0.0], 5.0)]);
    assert_rejected("sp_kd", "NaN bound", &sp_kd, &nan_bound_3d, &[0, 1]);
    assert_rejected("sp_kd", "NaN coefficient", &sp_kd, &nan_coeff_3d, &[0, 1]);
    assert_rejected("sp_kd", "2-D constraint", &sp_kd, &box_2d, &[0, 1]);
    assert_keyword_contract("sp_kd", &sp_kd, &polytope_3d);

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
        dynamic
            .try_insert(*d.point(i), d.doc(i).keywords().to_vec())
            .unwrap();
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
    let sp = SpKwIndex::try_build(&d, 2).unwrap();
    let srp = SrpKwIndex::try_build(&d, 2).unwrap();
    let ksi = KsiIndex::try_build(d.docs(), 2).unwrap();
    let suite = OrpKwSuite::try_build(&d, 3).unwrap();
    let linf = LinfNnIndex::try_build(&d, 2).unwrap();
    let l2 = L2NnIndex::try_build(&d, 2).unwrap();
    let mut dynamic = DynamicOrpKw::new(2, 2);
    let handles: Vec<_> = (0..d.len())
        .map(|i| {
            dynamic
                .try_insert(*d.point(i), d.doc(i).keywords().to_vec())
                .unwrap()
        })
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
        assert_agrees("rr", &rr, &rect, &kws, &rr_bruteforce(&rects, &rect, &kws));
        let poly = ConvexPolytope::new(vec![
            Halfspace::new(&[1.0, 1.0], hi[0] + hi[1] - 10.0),
            Halfspace::new(&[-1.0, 0.0], -lo[0]),
        ]);
        assert_agrees("sp", &sp, &poly, &kws, &oracle.query_polytope(&poly, &kws));
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

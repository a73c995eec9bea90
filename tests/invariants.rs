//! Structural invariants from the paper's analysis, checked on
//! realistic synthetic workloads.

use structured_keyword_search::prelude::*;

fn workload(n: usize, seed: u64) -> Dataset {
    SpatialKeywordConfig {
        num_objects: n,
        vocab: 200,
        doc_len: (2, 6),
        extent: 10_000.0,
        keywords: KeywordModel::Zipf(1.0),
        ..Default::default()
    }
    .generate(seed)
}

/// §3.2: at most `N_u^{1/k}` keywords are large at any node, child
/// weights halve, materialized lists stay below the threshold.
#[test]
fn framework_invariants_hold_on_zipf_workload() {
    for k in [2, 3] {
        let dataset = workload(5_000, 1);
        let index = OrpKwIndex::build(&dataset, k);
        index.validate().unwrap_or_else(|e| panic!("k={k}: {e}"));
    }
}

/// The kd framework tree has `O(log N)` height thanks to weighted
/// median splits (`|P_u| = O(N / 2^level)`).
#[test]
fn kd_tree_height_is_logarithmic() {
    let dataset = workload(8_000, 2);
    let index = OrpKwIndex::build(&dataset, 2);
    let summaries = index.kd_node_summaries().expect("2D uses the kd framework");
    let max_level = summaries.iter().map(|&(l, ..)| l).max().unwrap();
    let n = dataset.input_size() as f64;
    // Levels ≤ log2(N) + slack (leaf cap shifts it down in practice).
    assert!(
        (max_level as f64) <= n.log2() + 2.0,
        "height {max_level} vs log2(N) = {}",
        n.log2()
    );
    // Pivot sets are constant-size in rank space (a single boundary
    // object per internal node; leaves hold up to the leaf cap).
    for (level, weight, pivots, _) in &summaries {
        if *weight > 24 {
            assert!(
                *pivots <= 1,
                "internal node at level {level} has {pivots} pivots"
            );
        }
    }
}

/// §4 / Proposition 1: the dimension-reduction tree has
/// `O(log log N)` levels.
#[test]
fn dimred_levels_are_loglog() {
    let dataset = SpatialKeywordConfig {
        num_objects: 20_000,
        dim: 3,
        vocab: 100,
        doc_len: (2, 5),
        ..Default::default()
    }
    .generate(3);
    let tree = structured_keyword_search::core::dimred::DimRedTree::build(&dataset, 2);
    // N ≈ 70k ⇒ log log N ≈ 4.1; the doubly-exponential fanout makes
    // more than ~5 levels impossible.
    assert!(
        tree.num_levels() <= 6,
        "{} levels for N = {}",
        tree.num_levels(),
        dataset.input_size()
    );
}

/// Figure 2: at most two type-2 nodes per level of the
/// dimension-reduction tree for any query.
#[test]
fn dimred_type2_nodes_at_most_two_per_level() {
    let dataset = SpatialKeywordConfig {
        num_objects: 10_000,
        dim: 3,
        vocab: 60,
        doc_len: (2, 5),
        ..Default::default()
    }
    .generate(4);
    let index = OrpKwIndex::build(&dataset, 2);
    let mut gen = QueryGen::new(&dataset, 5);
    for _ in 0..50 {
        let q = gen.rect(0.2);
        let kws = gen.keywords(2, 0.2).unwrap();
        let (_, stats) = index.query_with_stats(&q, &kws).unwrap();
        for (lvl, &c) in stats.type2_by_level.iter().enumerate() {
            assert!(c <= 2, "level {lvl}: {c} type-2 nodes");
        }
    }
}

/// Space stays linear in `N` for the Theorem-1 index: the per-`N` word
/// count must not grow with `N` (allowing generous constants).
#[test]
fn orp_space_scales_linearly() {
    let mut per_n: Vec<f64> = Vec::new();
    for (n, seed) in [(2_000, 10), (8_000, 11), (32_000, 12)] {
        let dataset = workload(n, seed);
        let index = OrpKwIndex::build(&dataset, 2);
        per_n.push(index.space_words() as f64 / dataset.input_size() as f64);
    }
    let first = per_n[0];
    let last = *per_n.last().unwrap();
    assert!(
        last <= first * 1.6,
        "space per N grew from {first:.1} to {last:.1} words — superlinear?"
    );
}

/// Lemma 9/10 flavour: for a *vertical line* query (degenerate
/// rectangle) the kd framework visits `O(√N)` nodes.
#[test]
fn vertical_line_crossing_nodes_are_sqrt() {
    let dataset = workload(20_000, 13);
    let index = OrpKwIndex::build(&dataset, 2);
    let mut gen = QueryGen::new(&dataset, 14);
    let kws = gen.top_keywords(2).unwrap();
    let n = dataset.input_size() as f64;
    for _ in 0..10 {
        let p = gen.point();
        // A vertical line: x fixed, y unbounded.
        let q = Rect::new(&[p.get(0), f64::NEG_INFINITY], &[p.get(0), f64::INFINITY]);
        let (_, stats) = index.query_with_stats(&q, &kws).unwrap();
        assert!(
            (stats.crossing_nodes as f64) <= 12.0 * n.sqrt(),
            "crossing {} vs √N = {:.0}",
            stats.crossing_nodes,
            n.sqrt()
        );
    }
}

/// The two naive baselines and the three framework-based indexes all
/// agree on a common workload (end-to-end, all problems).
#[test]
fn all_solutions_agree_end_to_end() {
    let dataset = SpatialKeywordConfig {
        num_objects: 3_000,
        vocab: 60,
        extent: 1_000.0,
        integer_coords: true,
        keywords: KeywordModel::Zipf(0.8),
        ..Default::default()
    }
    .generate(21);
    let orp = OrpKwIndex::build(&dataset, 2);
    let lc = LcKwIndex::build(&dataset, 2);
    let srp = SrpKwIndex::build(&dataset, 2);
    let nn_inf = LinfNnIndex::build(&dataset, 2);
    let nn_2 = L2NnIndex::build(&dataset, 2);
    let kf = KeywordsFirst::build(&dataset);
    let sf = StructuredFirst::build(&dataset);
    let oracle = FullScan::new(&dataset);

    let mut gen = QueryGen::new(&dataset, 22);
    for band in [0.0, 0.5, 1.0] {
        let kws = gen.keywords(2, band).unwrap();
        let q = gen.rect(0.05);
        let expected = oracle.query_rect(&q, &kws);
        assert_eq!(sorted(orp.query(&q, &kws).unwrap()), expected);
        let as_constraints = ConvexPolytope::from_rect(&q);
        assert_eq!(sorted(lc.query(&as_constraints, &kws).unwrap()), expected);
        assert_eq!(sorted(kf.query_rect(&q, &kws)), expected);
        assert_eq!(sorted(sf.query_rect(&q, &kws)), expected);

        let ball = gen.ball(0.02);
        let ball = Ball::new(
            Point::new2(ball.center().get(0).round(), ball.center().get(1).round()),
            ball.radius().round(),
        );
        let expected = oracle.query_ball(&ball, &kws);
        assert_eq!(sorted(srp.query(&ball, &kws).unwrap()), expected);
        assert_eq!(sorted(kf.query_ball(&ball, &kws)), expected);
        assert_eq!(sorted(sf.query_ball(&ball, &kws)), expected);

        let p = gen.integer_point();
        for t in [1, 5] {
            assert_eq!(
                nn_inf.query(&p, t, &kws).unwrap().0,
                oracle.nn_linf(&p, t, &kws)
            );
            assert_eq!(
                nn_2.query(&p, t, &kws).unwrap().0,
                oracle.nn_l2(&p, t, &kws)
            );
        }
    }
}

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

//! Property tests for the sink-based result-emission layer.
//!
//! The streaming `query_sink` entry points must be behaviorally
//! indistinguishable from the legacy collecting queries:
//!
//! * a collecting sink reproduces `query()` exactly (same id set);
//! * a counting sink reports exactly `|query()|`;
//! * a limit sink yields `min(t, OUT)` results, every one of which the
//!   full query also reports, with `truncated` set iff the traversal
//!   was actually cut short;
//! * L∞-NN answers are prefix-consistent in `t` (the binary-searched
//!   radius plus (distance, id) ranking is deterministic).

use proptest::prelude::*;
use structured_keyword_search::prelude::*;

const VOCAB: u32 = 7;

/// Points on a small integer grid (forcing ties), docs of 1–4 keywords
/// from a small vocabulary (forcing dense co-occurrence).
fn dataset_strategy(dim: usize, n: core::ops::Range<usize>) -> impl Strategy<Value = Dataset> {
    prop::collection::vec(
        (
            prop::collection::vec(-8i32..8, dim),
            prop::collection::vec(0u32..VOCAB, 1..4),
        ),
        n,
    )
    .prop_map(|raw| {
        Dataset::from_parts(
            raw.into_iter()
                .map(|(coords, kws)| {
                    let coords: Vec<f64> = coords.into_iter().map(f64::from).collect();
                    (Point::new(&coords), kws)
                })
                .collect(),
        )
    })
}

/// Two distinct keywords.
fn two_keywords() -> impl Strategy<Value = Vec<Keyword>> {
    (0u32..VOCAB, 1u32..VOCAB).prop_map(|(a, d)| vec![a, (a + d) % VOCAB])
}

fn rect_strategy(dim: usize) -> impl Strategy<Value = Rect> {
    prop::collection::vec((-10i32..10, 0i32..12), dim).prop_map(|iv| {
        let lo: Vec<f64> = iv.iter().map(|&(a, _)| f64::from(a)).collect();
        let hi: Vec<f64> = iv.iter().map(|&(a, l)| f64::from(a + l)).collect();
        Rect::new(&lo, &hi)
    })
}

/// 1-d rectangles (intervals) with keyword documents, for RR-KW.
fn rr_input_strategy(
    n: core::ops::Range<usize>,
) -> impl Strategy<Value = Vec<(Rect, Vec<Keyword>)>> {
    prop::collection::vec(
        (-8i32..8, 0i32..6, prop::collection::vec(0u32..VOCAB, 1..4)),
        n,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(a, len, kws)| (Rect::new(&[f64::from(a)], &[f64::from(a + len)]), kws))
            .collect()
    })
}

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

/// Asserts the limit-sink contract against the full result set.
fn check_limited(
    full: &[u32],
    got: &[u32],
    truncated: bool,
    t: usize,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), t.min(full.len()));
    // t == 0 is full *before* traversal: nothing is cut short, so
    // `truncated` legitimately stays false even when OUT > 0.
    if t > 0 && t < full.len() {
        prop_assert!(truncated, "t={} < OUT={} must truncate", t, full.len());
    }
    if full.len() < t {
        prop_assert!(!truncated, "t={} > OUT={} must not truncate", t, full.len());
    }
    for id in got {
        prop_assert!(full.contains(id), "{id} not in the full answer");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn orp_collect_sink_equals_legacy_query(
        dataset in dataset_strategy(2, 1..100),
        q in rect_strategy(2),
        kws in two_keywords(),
    ) {
        let index = OrpKwIndex::try_build(&dataset, 2).unwrap();
        let legacy = sorted(index.query(&q, &kws).unwrap());
        let mut collected: Vec<u32> = Vec::new();
        let mut stats = QueryStats::new();
        let _ = index.query_sink(&q, &kws, &mut collected, &mut stats);
        prop_assert_eq!(stats.reported, legacy.len() as u64);
        prop_assert_eq!(sorted(collected), legacy);
    }

    #[test]
    fn orp_count_sink_matches_output_size(
        dataset in dataset_strategy(2, 1..100),
        q in rect_strategy(2),
        kws in two_keywords(),
    ) {
        let index = OrpKwIndex::try_build(&dataset, 2).unwrap();
        let full = index.query(&q, &kws).unwrap();
        let mut count = CountSink::new();
        let mut stats = QueryStats::new();
        let _ = index.query_sink(&q, &kws, &mut count, &mut stats);
        prop_assert_eq!(count.count(), full.len() as u64);
        prop_assert_eq!(index.count(&q, &kws).unwrap(), full.len() as u64);
    }

    #[test]
    fn orp_limit_sink_is_truncated_prefix_subset(
        dataset in dataset_strategy(2, 1..100),
        q in rect_strategy(2),
        kws in two_keywords(),
        t in 0usize..12,
    ) {
        let index = OrpKwIndex::try_build(&dataset, 2).unwrap();
        let full = index.query(&q, &kws).unwrap();
        let mut sink = LimitSink::new(Vec::new(), t);
        let mut stats = QueryStats::new();
        let _ = index.query_sink(&q, &kws, &mut sink, &mut stats);
        let truncated = sink.truncated();
        let got = sink.into_inner();
        check_limited(&full, &got, truncated, t)?;
        // A guard's result cap agrees with the raw sink.
        let mut out = Vec::new();
        let mut stats = QueryStats::new();
        let capped = QueryGuard::new().with_max_results(t);
        let _ = index.run(&q, &kws, &capped, &mut out, &mut stats).unwrap();
        prop_assert_eq!(out, got);
        prop_assert_eq!(stats.emitted, t.min(full.len()) as u64);
    }

    #[test]
    fn rr_sinks_match_legacy_query(
        rects in rr_input_strategy(1..80),
        q in rect_strategy(1),
        kws in two_keywords(),
        t in 0usize..8,
    ) {
        let index = RrKwIndex::try_build(&rects, 2).unwrap();
        let full = index.query(&q, &kws).unwrap();
        let mut count = CountSink::new();
        let mut stats = QueryStats::new();
        let _ = index.query_sink(&q, &kws, &mut count, &mut stats);
        prop_assert_eq!(count.count(), full.len() as u64);
        let mut sink = LimitSink::new(Vec::new(), t);
        let mut stats = QueryStats::new();
        let _ = index.query_sink(&q, &kws, &mut sink, &mut stats);
        let truncated = sink.truncated();
        let got = sink.into_inner();
        check_limited(&full, &got, truncated, t)?;
    }

    #[test]
    fn nn_linf_is_prefix_consistent_in_t(
        dataset in dataset_strategy(2, 1..80),
        at in prop::collection::vec(-10i32..10, 2),
        kws in two_keywords(),
        t in 1usize..8,
    ) {
        let index = LinfNnIndex::try_build(&dataset, 2).unwrap();
        let q = Point::new2(f64::from(at[0]), f64::from(at[1]));
        let (all, _) = index.query(&q, usize::MAX, &kws).unwrap();
        let (got, _) = index.query(&q, t, &kws).unwrap();
        prop_assert_eq!(&got[..], &all[..t.min(all.len())]);
    }
}

//! Property tests: every index agrees with the full-scan oracle on
//! arbitrary datasets and queries.
//!
//! These are the repository's main correctness artillery: each strategy
//! generates a dataset (with deliberate coordinate collisions to
//! exercise the rank-space / tie-breaking paths), a query, and a
//! keyword tuple, and asserts the index answer equals a brute-force
//! scan.

use proptest::prelude::*;
use structured_keyword_search::prelude::*;

const VOCAB: u32 = 7;

/// Dataset strategy: `n` points on a small integer grid (forcing ties),
/// docs of 1–4 keywords from a small vocabulary (forcing dense
/// co-occurrence).
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

/// A nearest-neighbour case: a dataset of dimension 1 to 3, a query
/// point and `t`. Coordinates come from an 8-wide integer grid, so
/// distances tie often, also between objects on opposite sides of the
/// query, scaled by one of `scales`; a non-dyadic scale such as 0.1
/// makes `|q[i] − x|` round. Documents hold up to 7 keywords, so a
/// fair share of objects match two, and `t` ranges past that share.
fn nn_case(scales: &'static [f64]) -> impl Strategy<Value = (Dataset, Point, usize)> {
    (
        (1usize..4, 0..scales.len()),
        prop::collection::vec(
            (
                prop::collection::vec(-4i32..4, 3),
                prop::collection::vec(0u32..VOCAB, 1..8),
            ),
            1..60,
        ),
        prop::collection::vec(-5i32..5, 3),
        0usize..16,
    )
        .prop_map(move |((dim, scale), raw, q, t)| {
            let point = |c: &[i32]| {
                let coords: Vec<f64> = c[..dim]
                    .iter()
                    .map(|&x| f64::from(x) * scales[scale])
                    .collect();
                Point::new(&coords)
            };
            let dataset = Dataset::from_parts(
                raw.into_iter()
                    .map(|(coords, kws)| (point(&coords), kws))
                    .collect(),
            );
            (dataset, point(&q), t)
        })
}

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

/// Runs the deep validator on a freshly built index.
macro_rules! deep_validate {
    ($index:expr) => {{
        $index
            .validate()
            .unwrap_or_else(|v| panic!("deep invariant violated: {v}"));
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn orp_2d_equals_oracle(
        dataset in dataset_strategy(2, 1..120),
        q in rect_strategy(2),
        kws in two_keywords(),
    ) {
        let index = OrpKwIndex::try_build(&dataset, 2).unwrap();
        deep_validate!(index);
        let oracle = FullScan::new(&dataset);
        prop_assert_eq!(sorted(index.query(&q, &kws).unwrap()), oracle.query_rect(&q, &kws));
    }

    #[test]
    fn orp_1d_equals_oracle(
        dataset in dataset_strategy(1, 1..120),
        q in rect_strategy(1),
        kws in two_keywords(),
    ) {
        let index = OrpKwIndex::try_build(&dataset, 2).unwrap();
        deep_validate!(index);
        let oracle = FullScan::new(&dataset);
        prop_assert_eq!(sorted(index.query(&q, &kws).unwrap()), oracle.query_rect(&q, &kws));
    }

    #[test]
    fn orp_3d_dimred_equals_oracle(
        dataset in dataset_strategy(3, 1..100),
        q in rect_strategy(3),
        kws in two_keywords(),
    ) {
        let index = OrpKwIndex::try_build(&dataset, 2).unwrap();
        deep_validate!(index);
        let oracle = FullScan::new(&dataset);
        prop_assert_eq!(sorted(index.query(&q, &kws).unwrap()), oracle.query_rect(&q, &kws));
    }

    #[test]
    fn orp_k3_equals_oracle(
        dataset in dataset_strategy(2, 1..120),
        q in rect_strategy(2),
        (a, d1, d2) in (0u32..VOCAB, 1u32..VOCAB - 1, 1u32..2),
    ) {
        let b = (a + d1) % VOCAB;
        let mut c = (b + d2) % VOCAB;
        if c == a { c = (c + 1) % VOCAB; }
        if c == b { c = (c + 1) % VOCAB; }
        if c == a { c = (c + 1) % VOCAB; }
        let kws = vec![a, b, c];
        let index = OrpKwIndex::try_build(&dataset, 3).unwrap();
        deep_validate!(index);
        let oracle = FullScan::new(&dataset);
        prop_assert_eq!(sorted(index.query(&q, &kws).unwrap()), oracle.query_rect(&q, &kws));
    }

    #[test]
    fn sp_willard_equals_oracle(
        dataset in dataset_strategy(2, 1..120),
        coeffs in prop::collection::vec((-4i32..4, -4i32..4, -20i32..20), 1..3),
        kws in two_keywords(),
    ) {
        let q = ConvexPolytope::new(
            coeffs
                .into_iter()
                .map(|(a, b, c)| Halfspace::new(&[f64::from(a), f64::from(b)], f64::from(c)))
                .collect(),
        );
        let index = SpKwIndex::try_build(&dataset, 2).unwrap();
        deep_validate!(index);
        let oracle = FullScan::new(&dataset);
        prop_assert_eq!(sorted(index.query(&q, &kws).unwrap()), oracle.query_polytope(&q, &kws));
    }

    #[test]
    fn sp_kd_equals_oracle_3d(
        dataset in dataset_strategy(3, 1..100),
        coeffs in prop::collection::vec((-4i32..4, -4i32..4, -4i32..4, -20i32..20), 1..3),
        kws in two_keywords(),
    ) {
        let q = ConvexPolytope::new(
            coeffs
                .into_iter()
                .map(|(a, b, c, d)| {
                    Halfspace::new(&[f64::from(a), f64::from(b), f64::from(c)], f64::from(d))
                })
                .collect(),
        );
        let index = SpKwIndex::try_build(&dataset, 2).unwrap();
        deep_validate!(index);
        let oracle = FullScan::new(&dataset);
        prop_assert_eq!(sorted(index.query(&q, &kws).unwrap()), oracle.query_polytope(&q, &kws));
    }

    #[test]
    fn srp_equals_oracle(
        dataset in dataset_strategy(2, 1..120),
        (cx, cy, r) in (-10i32..10, -10i32..10, 0i32..15),
        kws in two_keywords(),
    ) {
        let ball = Ball::new(Point::new2(f64::from(cx), f64::from(cy)), f64::from(r));
        let index = SrpKwIndex::try_build(&dataset, 2).unwrap();
        deep_validate!(index);
        let oracle = FullScan::new(&dataset);
        prop_assert_eq!(sorted(index.query(&ball, &kws).unwrap()), oracle.query_ball(&ball, &kws));
    }

    #[test]
    fn ksi_equals_inverted_index(
        docs in prop::collection::vec(prop::collection::vec(0u32..VOCAB, 1..5), 1..150),
        kws in two_keywords(),
    ) {
        let docs: Vec<Document> = docs.into_iter().map(Document::new).collect();
        let ksi = KsiIndex::try_build(docs.as_slice(), 2).unwrap();
        deep_validate!(ksi);
        let inv = InvertedIndex::build(&docs);
        prop_assert_eq!(sorted(ksi.query(&(), &kws).unwrap()), inv.intersect(&kws));
        let nonempty = ksi.count_at_least(&(), &kws, 1).unwrap();
        prop_assert_eq!(nonempty, !inv.intersect(&kws).is_empty());
    }

    #[test]
    fn limited_queries_are_prefixes_of_matches(
        dataset in dataset_strategy(2, 1..120),
        q in rect_strategy(2),
        kws in two_keywords(),
        limit in 0usize..10,
    ) {
        let index = OrpKwIndex::try_build(&dataset, 2).unwrap();
        deep_validate!(index);
        let oracle = FullScan::new(&dataset);
        let full = oracle.query_rect(&q, &kws);
        let mut out = Vec::new();
        let mut stats = QueryStats::new();
        let capped = QueryGuard::new().with_max_results(limit);
        let _ = index.run(&q, &kws, &capped, &mut out, &mut stats).unwrap();
        // Limited output size is min(limit, total), and every id is a
        // genuine match.
        prop_assert_eq!(out.len(), limit.min(full.len()));
        for id in out {
            prop_assert!(full.contains(&id));
        }
    }
}

// A tie at the t-th distance between objects on opposite sides of the
// query decides whether each end of an L∞ coordinate run is inclusive;
// such a case comes up about once in 25 to 70 draws, so these two
// properties run more cases.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn nn_linf_equals_oracle(
        (dataset, q, t) in nn_case(&[1.0, 0.1]),
        kws in two_keywords(),
    ) {
        let index = LinfNnIndex::try_build(&dataset, 2).unwrap();
        deep_validate!(index);
        let oracle = FullScan::new(&dataset);
        match index.query(&q, t, &kws) {
            Ok((got, _)) => prop_assert_eq!(got, oracle.nn_linf(&q, t, &kws)),
            Err(e) => prop_assert!(t == 0 && matches!(e, SkqError::InvalidQuery(_))),
        }
    }

    #[test]
    fn nn_l2_equals_oracle(
        (dataset, q, t) in nn_case(&[1.0]),
        kws in two_keywords(),
    ) {
        let index = L2NnIndex::try_build(&dataset, 2).unwrap();
        deep_validate!(index);
        let oracle = FullScan::new(&dataset);
        match index.query(&q, t, &kws) {
            Ok((got, _)) => prop_assert_eq!(got, oracle.nn_l2(&q, t, &kws)),
            Err(e) => prop_assert!(t == 0 && matches!(e, SkqError::InvalidQuery(_))),
        }
    }
}

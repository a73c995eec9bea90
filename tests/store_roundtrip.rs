//! Snapshot round-trip properties: for every persistable index,
//! `save → load` must produce a structure that answers queries exactly
//! like the freshly built original, and encoding must be byte-stable
//! (saving twice yields identical bytes — no wall clock, no map
//! iteration order in the format).

use proptest::prelude::*;
use structured_keyword_search::core::suite::OrpKwSuite;
use structured_keyword_search::prelude::*;
use structured_keyword_search::store::Persist;

const VOCAB: u32 = 7;

/// Dataset strategy: points on a small integer grid (forcing rank-space
/// ties), docs of 1–4 keywords from a small vocabulary.
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

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

/// Round-trips `value` through bytes, asserting byte-stability on the
/// way, and returns the reloaded structure.
fn reload<T: Persist>(value: &T) -> T {
    let bytes = value.to_bytes().expect("save");
    let again = value.to_bytes().expect("save twice");
    assert_eq!(bytes, again, "encoding must be byte-stable");
    let back = T::try_from_bytes(&bytes).expect("load");
    let rebytes = back.to_bytes().expect("re-save");
    assert_eq!(
        bytes, rebytes,
        "loaded structure must re-encode identically"
    );
    back
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn orp_roundtrip_answers_identically(
        d in dataset_strategy(2, 12..80),
        q in rect_strategy(2),
        kws in two_keywords(),
    ) {
        let built = OrpKwIndex::try_build(&d, 2).unwrap();
        let loaded = reload(&built);
        prop_assert_eq!(
            sorted(built.query(&q, &kws).unwrap()),
            sorted(loaded.query(&q, &kws).unwrap())
        );
        // The structural counters must agree too: the loaded index is
        // the same tree, not merely an equivalent one.
        let (_, sa) = built.query_with_stats(&q, &kws).unwrap();
        let (_, sb) = loaded.query_with_stats(&q, &kws).unwrap();
        prop_assert_eq!(sa.nodes_visited, sb.nodes_visited);
        prop_assert_eq!(sa.objects_examined(), sb.objects_examined());
    }

    #[test]
    fn rr_roundtrip_answers_identically(
        d in dataset_strategy(1, 12..60),
        q in rect_strategy(1),
        kws in two_keywords(),
    ) {
        // 1D intervals flatten to 2D points inside RR-KW, keeping the
        // inner ORP on the persistable Kd engine (2D boxes would lift
        // to 4D and select dimension reduction, which has no
        // encoding — covered by the unsupported-engine test below).
        let rects: Vec<(Rect, Vec<Keyword>)> = (0..d.len())
            .map(|i| {
                let lo = d.point(i).get(0);
                (Rect::new(&[lo], &[lo + 1.5]), d.doc(i).keywords().to_vec())
            })
            .collect();
        let built = RrKwIndex::try_build(&rects, 2).unwrap();
        let loaded = reload(&built);
        prop_assert_eq!(
            sorted(built.query(&q, &kws).unwrap()),
            sorted(loaded.query(&q, &kws).unwrap())
        );
    }

    #[test]
    fn srp_roundtrip_answers_identically(
        d in dataset_strategy(2, 12..60),
        center in prop::collection::vec(-8i32..8, 2),
        radius in 1u32..8,
        kws in two_keywords(),
    ) {
        // 2D data lifts to a 3D Kd-strategy SP-KW inside SRP-KW — the
        // persistable configuration.
        let built = SrpKwIndex::try_build(&d, 2).unwrap();
        let loaded = reload(&built);
        let c: Vec<f64> = center.into_iter().map(f64::from).collect();
        let ball = Ball::new(Point::new(&c), f64::from(radius));
        prop_assert_eq!(
            sorted(built.query(&ball, &kws).unwrap()),
            sorted(loaded.query(&ball, &kws).unwrap())
        );
    }

    #[test]
    fn nn_linf_roundtrip_answers_identically(
        d in dataset_strategy(2, 12..60),
        at in prop::collection::vec(-8i32..8, 2),
        t in 1usize..6,
        kws in two_keywords(),
    ) {
        let built = LinfNnIndex::try_build(&d, 2).unwrap();
        let loaded = reload(&built);
        let p: Vec<f64> = at.into_iter().map(f64::from).collect();
        let p = Point::new(&p);
        prop_assert_eq!(built.query(&p, t, &kws).unwrap().0, loaded.query(&p, t, &kws).unwrap().0);
    }

    #[test]
    fn suite_roundtrip_every_route(
        d in dataset_strategy(2, 12..60),
        q in rect_strategy(2),
        kws in prop::collection::vec(0u32..VOCAB, 0..5),
    ) {
        let built = OrpKwSuite::try_build(&d, 3).unwrap();
        let bytes = built.to_bytes().expect("save");
        prop_assert_eq!(&bytes, &built.to_bytes().expect("save twice"));
        let loaded = OrpKwSuite::try_load(&bytes).expect("load");
        // Any keyword count: exercises the range-scan, postings,
        // framework, and post-filter routes of the suite dispatcher.
        prop_assert_eq!(
            sorted(built.query(&q, &kws).unwrap()),
            sorted(loaded.query(&q, &kws).unwrap())
        );
    }
}

#[test]
fn unsupported_engines_save_as_typed_store_errors() {
    let d3 = Dataset::from_parts(
        (0..40)
            .map(|i| {
                let x = f64::from(i % 4);
                let y = f64::from((i / 4) % 4);
                let z = f64::from(i / 16);
                (Point::new(&[x, y, z]), vec![0u32, 1 + (i % 3)])
            })
            .collect(),
    );
    // d >= 3 selects the dimension-reduction ORP engine: no encoding.
    let orp3 = OrpKwIndex::try_build(&d3, 2).unwrap();
    match orp3.to_bytes() {
        Err(SkqError::Store { backend, .. }) => assert_eq!(backend, "save"),
        other => panic!("expected Store error, got {:?}", other.map(|b| b.len())),
    }
    // The Willard SP-KW strategy has no encoding either.
    let d2 = Dataset::from_parts(
        (0..40)
            .map(|i| {
                let x = f64::from(i % 8);
                let y = f64::from(i / 8);
                (Point::new2(x, y), vec![0u32, 1 + (i % 3)])
            })
            .collect(),
    );
    let sp = SpKwIndex::try_build_with_strategy(&d2, 2, SpStrategy::Willard).unwrap();
    match sp.to_bytes() {
        Err(SkqError::Store { backend, .. }) => assert_eq!(backend, "save"),
        other => panic!("expected Store error, got {:?}", other.map(|b| b.len())),
    }
}

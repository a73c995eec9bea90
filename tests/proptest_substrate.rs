//! Property tests for the substrate layers: geometric primitives,
//! inverted-index machinery, and the extension modules (dynamic index,
//! suite).

use proptest::prelude::*;
use structured_keyword_search::core::dynamic::DynamicOrpKw;
use structured_keyword_search::core::suite::OrpKwSuite;
use structured_keyword_search::prelude::*;

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

/// Runs the deep validator.
macro_rules! deep_validate {
    ($index:expr) => {{
        $index
            .validate()
            .unwrap_or_else(|v| panic!("deep invariant violated: {v}"));
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sutherland–Hodgman clipping: points inside the clipped polygon
    /// are exactly the points inside the original that satisfy the
    /// halfplane (sampled on a grid, away from boundary ambiguity).
    #[test]
    fn polygon_clip_semantics(
        (a, b, c) in (-5i32..5, -5i32..5, -40i32..40)
            .prop_filter("non-degenerate halfplane", |(a, b, _)| *a != 0 || *b != 0),
    ) {
        let poly = Polygon::rect(-10.0, -10.0, 10.0, 10.0);
        let clipped = poly.clip(f64::from(a), f64::from(b), f64::from(c) / 2.0);
        for x in -9..9 {
            for y in -9..9 {
                let (fx, fy) = (f64::from(x) + 0.31, f64::from(y) + 0.13);
                let side = f64::from(a) * fx + f64::from(b) * fy - f64::from(c) / 2.0;
                if side.abs() < 1e-6 {
                    continue;
                }
                let expected = poly.contains(fx, fy) && side < 0.0;
                prop_assert_eq!(clipped.contains(fx, fy), expected, "at ({}, {})", fx, fy);
            }
        }
    }

    /// A simplex equals the intersection of its facet halfspaces.
    #[test]
    fn simplex_facets_are_consistent(
        verts in prop::collection::vec((-20i32..20, -20i32..20), 3..4),
        probe in (-25i32..25, -25i32..25),
    ) {
        let pts: Vec<Point> = verts
            .iter()
            .map(|&(x, y)| Point::new2(f64::from(x), f64::from(y)))
            .collect();
        if let Some(simplex) = Simplex::new(pts) {
            let p = Point::new2(f64::from(probe.0) + 0.25, f64::from(probe.1) + 0.25);
            let by_facets = simplex.facets().iter().all(|h| h.contains(&p));
            prop_assert_eq!(simplex.contains(&p), by_facets);
        }
    }

    /// Rank space preserves rectangle-query semantics on tie-heavy data.
    #[test]
    fn rank_space_roundtrip(
        raw in prop::collection::vec((-4i32..4, -4i32..4), 1..80),
        q in ((-5i32..5, 0i32..6), (-5i32..5, 0i32..6)),
    ) {
        let points: Vec<Point> = raw
            .iter()
            .map(|&(x, y)| Point::new2(f64::from(x), f64::from(y)))
            .collect();
        let rs = RankSpace::build(&points);
        let rect = Rect::new(
            &[f64::from(q.0 .0), f64::from(q.1 .0)],
            &[f64::from(q.0 .0 + q.0 .1), f64::from(q.1 .0 + q.1 .1)],
        );
        match rs.rect(&rect) {
            Some(rq) => {
                for (p, image) in points.iter().zip(rs.points()) {
                    prop_assert_eq!(rect.contains(p), rq.contains(&image));
                }
            }
            None => {
                for p in &points {
                    prop_assert!(!rect.contains(p));
                }
            }
        }
    }

    /// Dynamic index under arbitrary operation sequences ≡ a mirror map.
    #[test]
    fn dynamic_index_equals_mirror(
        ops in prop::collection::vec(
            prop_oneof![
                // Insert: point + 1-3 keywords.
                ((0i32..20, 0i32..20), prop::collection::vec(0u32..5, 1..4))
                    .prop_map(|(p, kws)| (0u8, p, kws)),
                // Delete: target selected by index modulo live handles.
                ((0i32..20, 0i32..20), prop::collection::vec(0u32..5, 1..2))
                    .prop_map(|(p, kws)| (1u8, p, kws)),
                // Query: rectangle from the point, keywords from the doc.
                ((0i32..20, 0i32..20), prop::collection::vec(0u32..5, 2..3))
                    .prop_map(|(p, kws)| (2u8, p, kws)),
            ],
            1..120,
        ),
    ) {
        let mut idx = DynamicOrpKw::new(2, 2);
        let mut mirror: Vec<(Option<()>, Point, Vec<Keyword>, _)> = Vec::new();
        for (op, (x, y), kws) in ops {
            let p = Point::new2(f64::from(x), f64::from(y));
            match op {
                0 => {
                    let h = idx.try_insert(p, kws.clone()).unwrap();
                    mirror.push((Some(()), p, kws, h));
                    // Every insert may trigger a carry/rebuild; the
                    // logarithmic-method bookkeeping must survive all
                    // of them.
                    deep_validate!(idx);
                }
                1 => {
                    if !mirror.is_empty() {
                        let i = (x as usize * 7 + y as usize) % mirror.len();
                        let was_live = mirror[i].0.take().is_some();
                        prop_assert_eq!(idx.delete(mirror[i].3), was_live);
                        // Deletions may trigger a compacting rebuild.
                        deep_validate!(idx);
                    }
                }
                _ => {
                    let mut ks = kws.clone();
                    ks.sort_unstable();
                    ks.dedup();
                    if ks.len() != 2 {
                        continue;
                    }
                    let q = Rect::new(
                        &[f64::from(x) - 5.0, f64::from(y) - 5.0],
                        &[f64::from(x) + 5.0, f64::from(y) + 5.0],
                    );
                    let mut got = idx.query(&q, &ks, &QueryGuard::new()).unwrap().0;
                    got.sort();
                    let mut expected: Vec<_> = mirror
                        .iter()
                        .filter(|(live, p, doc, _)| {
                            live.is_some()
                                && q.contains(p)
                                && ks.iter().all(|w| doc.contains(w))
                        })
                        .map(|&(_, _, _, h)| h)
                        .collect();
                    expected.sort();
                    prop_assert_eq!(got, expected);
                }
            }
        }
    }

    /// Both naive strategies of the paper's introduction and the suite's
    /// framework route return identical results.
    #[test]
    fn naive_engines_agree_with_suite(
        raw in prop::collection::vec(((0i32..30, 0i32..30), prop::collection::vec(0u32..6, 1..4)), 2..60),
        q in ((0i32..30, 0i32..12), (0i32..30, 0i32..12)),
        (w1, d) in (0u32..6, 1u32..6),
    ) {
        let dataset = Dataset::from_parts(
            raw.into_iter()
                .map(|((x, y), kws)| (Point::new2(f64::from(x), f64::from(y)), kws))
                .collect(),
        );
        let rect = Rect::new(
            &[f64::from(q.0 .0), f64::from(q.1 .0)],
            &[f64::from(q.0 .0 + q.0 .1), f64::from(q.1 .0 + q.1 .1)],
        );
        let kws = [w1, (w1 + d) % 6];
        let a = sorted(KeywordsFirst::build(&dataset).query_rect(&rect, &kws));
        let b = sorted(StructuredFirst::build(&dataset).query_rect(&rect, &kws));
        let suite = OrpKwSuite::try_build(&dataset, 2).unwrap();
        let (c, stats) = suite.query_with_stats(&rect, &kws).unwrap();
        prop_assert_eq!(stats.route, Some(Route::Framework));
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(b, sorted(c));
    }

    /// The multi-k suite answers any keyword count correctly.
    #[test]
    fn suite_handles_any_k(
        raw in prop::collection::vec(((0i32..25, 0i32..25), prop::collection::vec(0u32..7, 2..6)), 2..70),
        kws in prop::collection::vec(0u32..7, 0..6),
    ) {
        let dataset = Dataset::from_parts(
            raw.into_iter()
                .map(|((x, y), doc)| (Point::new2(f64::from(x), f64::from(y)), doc))
                .collect(),
        );
        let suite = OrpKwSuite::try_build(&dataset, 3).unwrap();
        deep_validate!(suite);
        let q = Rect::new(&[5.0, 5.0], &[20.0, 20.0]);
        let got = sorted(suite.query(&q, &kws).unwrap());
        let mut dedup = kws.clone();
        dedup.sort_unstable();
        dedup.dedup();
        let expected: Vec<u32> = (0..dataset.len() as u32)
            .filter(|&i| {
                dataset.doc(i as usize).contains_all(&dedup)
                    && q.contains(dataset.point(i as usize))
            })
            .collect();
        prop_assert_eq!(got, expected);
    }
}

//! The paper's reductions, executed end-to-end.
//!
//! §1.2 and the appendices prove the problems interreducible; these
//! tests *run* each reduction and check both sides agree, which
//! exercises exactly the constructions the hardness results rely on.

use rand::{rngs::StdRng, Rng, SeedableRng};
use structured_keyword_search::prelude::*;

/// §1.2, forward direction: pure keyword search *is* k-SI. Build an
/// ORP-KW instance from sets (each element placed at an arbitrary
/// point), query with the full-space rectangle, and compare with a
/// direct intersection.
#[test]
fn ksi_solved_by_orp_kw_with_full_rectangle() {
    let mut rng = StdRng::seed_from_u64(1);
    let m = 6usize; // sets
    let n = 400usize; // elements
    let sets: Vec<Vec<u32>> = (0..m)
        .map(|_| {
            let mut s: Vec<u32> = (0..n as u32).filter(|_| rng.gen_bool(0.4)).collect();
            if s.is_empty() {
                s.push(rng.gen_range(0..n as u32));
            }
            s
        })
        .collect();

    // e.Doc := {i | e ∈ S_i}; place each element at an arbitrary point.
    let mut docs: Vec<Vec<Keyword>> = vec![Vec::new(); n];
    for (i, s) in sets.iter().enumerate() {
        for &e in s {
            docs[e as usize].push(i as Keyword);
        }
    }
    // Track which dataset row is which element (elements in no set are
    // dropped — they can never appear in any intersection).
    let mut parts: Vec<(Point, Vec<Keyword>)> = Vec::new();
    let mut element_of: Vec<u32> = Vec::new();
    for (e, d) in docs.into_iter().enumerate() {
        if !d.is_empty() {
            parts.push((
                Point::new2(rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0)),
                d,
            ));
            element_of.push(e as u32);
        }
    }
    let dataset = Dataset::from_parts(parts);

    let index = OrpKwIndex::try_build(&dataset, 2).unwrap();
    for _ in 0..30 {
        let a = rng.gen_range(0..m as u32);
        let b = (a + 1 + rng.gen_range(0..m as u32 - 1)) % m as u32;
        let got: std::collections::BTreeSet<u32> = index
            .query(&Rect::full(2), &[a, b])
            .unwrap()
            .into_iter()
            .map(|row| element_of[row as usize])
            .collect();
        let expected: std::collections::BTreeSet<u32> = sets[a as usize]
            .iter()
            .filter(|e| sets[b as usize].contains(e))
            .copied()
            .collect();
        assert_eq!(got, expected, "sets {a},{b}");
    }
}

/// Appendix G: k-SI *reporting* via L∞NN-KW with doubling `t`. Issue
/// NN queries with t = 1, 2, 4, … until fewer than `t` objects come
/// back — at that point the entire `D(w₁, …, w_k)` has been reported.
#[test]
fn ksi_reporting_via_linf_nn_doubling() {
    let mut rng = StdRng::seed_from_u64(2);
    let dataset = Dataset::from_parts(
        (0..500)
            .map(|_| {
                let p = Point::new2(rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0));
                let doc: Vec<Keyword> = (0..rng.gen_range(1..5))
                    .map(|_| rng.gen_range(0..6))
                    .collect();
                (p, doc)
            })
            .collect(),
    );
    let nn = LinfNnIndex::try_build(&dataset, 2).unwrap();
    let oracle = FullScan::new(&dataset);

    for (w1, w2) in [(0u32, 1u32), (2, 3), (4, 5), (0, 5)] {
        // The Appendix G loop.
        let q = Point::new2(0.0, 0.0); // arbitrary
        let mut t = 1usize;
        let result = loop {
            let (r, _) = nn.query(&q, t, &[w1, w2]).unwrap();
            if r.len() < t {
                break r;
            }
            // r.len() == t: maybe more exist — double.
            if t >= dataset.len() {
                break r;
            }
            t *= 2;
        };
        let mut got = result;
        got.sort_unstable();
        let mut expected = oracle.query_rect(&Rect::full(2), &[w1, w2]);
        expected.sort_unstable();
        assert_eq!(got, expected, "keywords {w1},{w2}");
    }
}

/// Corollary 3's transform, checked directly: a data rectangle
/// intersects the query iff its flattened 2d-point lies in the derived
/// 2d-rectangle.
#[test]
fn rectangle_intersection_equals_flattened_point_membership() {
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..500 {
        let (a, len_a) = (rng.gen_range(-10.0..10.0), rng.gen_range(0.0..5.0));
        let (x, len_x) = (rng.gen_range(-10.0..10.0), rng.gen_range(0.0..5.0));
        let data = Rect::new(&[a], &[a + len_a]);
        let query = Rect::new(&[x], &[x + len_x]);
        // Flatten: point (a, b); region (−∞, y] × [x, ∞).
        let p = Point::new2(a, a + len_a);
        let region = Rect::new(&[f64::NEG_INFINITY, x], &[x + len_x, f64::INFINITY]);
        assert_eq!(
            data.intersects(&query),
            region.contains(&p),
            "data {data:?} query {query:?}"
        );
    }
}

/// Corollary 6's reduction, checked against the public SRP index: SRP
/// answers equal an LC-KW query on the manually lifted dataset.
#[test]
fn srp_equals_lc_on_lifted_points() {
    let mut rng = StdRng::seed_from_u64(4);
    let dataset = Dataset::from_parts(
        (0..300)
            .map(|_| {
                let p = Point::new2(rng.gen_range(-30..30) as f64, rng.gen_range(-30..30) as f64);
                let doc: Vec<Keyword> = (0..rng.gen_range(1..4))
                    .map(|_| rng.gen_range(0..5))
                    .collect();
                (p, doc)
            })
            .collect(),
    );
    let srp = SrpKwIndex::try_build(&dataset, 2).unwrap();
    // Manually lifted dataset + LC index.
    let lifted = dataset.map_points(|_, p| structured_keyword_search::geom::lift_point(p));
    let lc = SpKwIndex::try_build(&lifted, 2).unwrap();

    for _ in 0..40 {
        let ball = Ball::new(
            Point::new2(rng.gen_range(-30..30) as f64, rng.gen_range(-30..30) as f64),
            rng.gen_range(0..40) as f64,
        );
        let hs = structured_keyword_search::geom::lift_ball(&ball);
        let w1 = rng.gen_range(0..5);
        let w2 = (w1 + 1 + rng.gen_range(0..4)) % 5;
        let mut a = srp.query(&ball, &[w1, w2]).unwrap();
        let mut b = lc.query(&ConvexPolytope::new(vec![hs]), &[w1, w2]).unwrap();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}

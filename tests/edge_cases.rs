//! Adversarial and degenerate inputs for every index.

use structured_keyword_search::prelude::*;

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

/// All objects at the same point: splits cannot make progress, the
/// framework must fall back to a single leaf and still answer exactly.
#[test]
fn all_objects_identical_point() {
    let dataset = Dataset::from_parts(
        (0..200)
            .map(|i| (Point::new2(7.0, 7.0), vec![(i % 5) as Keyword, 5]))
            .collect(),
    );
    let orp = OrpKwIndex::try_build(&dataset, 2).unwrap();
    let got = sorted(
        orp.query(&Rect::new(&[7.0, 7.0], &[7.0, 7.0]), &[0, 5])
            .unwrap(),
    );
    let expected: Vec<u32> = (0..200u32).filter(|i| i % 5 == 0).collect();
    assert_eq!(got, expected);
    assert!(orp
        .query(&Rect::new(&[8.0, 8.0], &[9.0, 9.0]), &[0, 5])
        .unwrap()
        .is_empty());

    let sp = SpKwIndex::try_build(&dataset, 2).unwrap();
    let got = sorted(
        sp.query(
            &ConvexPolytope::from_halfspace(Halfspace::new(&[1.0, 0.0], 10.0)),
            &[0, 5],
        )
        .unwrap(),
    );
    assert_eq!(got, expected);
}

/// A single object.
#[test]
fn singleton_dataset() {
    let dataset = Dataset::from_parts(vec![(Point::new2(1.0, 2.0), vec![3, 4])]);
    let orp = OrpKwIndex::try_build(&dataset, 2).unwrap();
    assert_eq!(orp.query(&Rect::full(2), &[3, 4]).unwrap(), vec![0]);
    assert!(orp.query(&Rect::full(2), &[3, 5]).unwrap().is_empty());
    let nn = LinfNnIndex::try_build(&dataset, 2).unwrap();
    let (nearest, _) = nn.query(&Point::new2(100.0, 100.0), 3, &[3, 4]).unwrap();
    assert_eq!(nearest, vec![0]);
}

/// Every object shares one giant document: all keywords maximally
/// frequent, the combo tables carry the whole query load.
#[test]
fn identical_large_documents() {
    let doc: Vec<Keyword> = (0..12).collect();
    let dataset = Dataset::from_parts(
        (0..300)
            .map(|i| (Point::new2(i as f64, (i * 7 % 300) as f64), doc.clone()))
            .collect(),
    );
    for k in [2usize, 3, 4] {
        let orp = OrpKwIndex::try_build(&dataset, k).unwrap();
        orp.validate().unwrap();
        let kws: Vec<Keyword> = (0..k as u32).collect();
        let q = Rect::new(&[50.0, 0.0], &[150.0, 300.0]);
        let got = sorted(orp.query(&q, &kws).unwrap());
        let expected: Vec<u32> = (0..300u32).filter(|&i| (50..=150).contains(&i)).collect();
        assert_eq!(got, expected, "k={k}");
    }
}

/// Degenerate (zero-width) query rectangles and point-sized balls.
#[test]
fn degenerate_queries() {
    let dataset = Dataset::from_parts(
        (0..100)
            .map(|i| (Point::new2((i % 10) as f64, (i / 10) as f64), vec![0, 1]))
            .collect(),
    );
    let orp = OrpKwIndex::try_build(&dataset, 2).unwrap();
    // A query that is a single point.
    let got = orp
        .query(&Rect::new(&[3.0, 4.0], &[3.0, 4.0]), &[0, 1])
        .unwrap();
    assert_eq!(got, vec![43]);
    // A line (x = 3).
    let got = sorted(
        orp.query(&Rect::new(&[3.0, 0.0], &[3.0, 9.0]), &[0, 1])
            .unwrap(),
    );
    assert_eq!(got, (0..10).map(|r| r * 10 + 3).collect::<Vec<u32>>());

    let srp = SrpKwIndex::try_build(&dataset, 2).unwrap();
    let got = srp
        .query(&Ball::new(Point::new2(3.0, 4.0), 0.0), &[0, 1])
        .unwrap();
    assert_eq!(got, vec![43]);
}

/// Extreme coordinates (large magnitudes, negatives) must survive the
/// rank-space transform and the geometric predicates.
#[test]
fn extreme_coordinates() {
    let dataset = Dataset::from_parts(vec![
        (Point::new2(-1e15, 1e15), vec![0, 1]),
        (Point::new2(1e-15, -1e-15), vec![0, 1]),
        (Point::new2(0.0, 0.0), vec![0, 1]),
        (Point::new2(1e15, -1e15), vec![0, 1]),
    ]);
    let orp = OrpKwIndex::try_build(&dataset, 2).unwrap();
    let got = sorted(
        orp.query(&Rect::new(&[-1e16, -1e16], &[1e16, 1e16]), &[0, 1])
            .unwrap(),
    );
    assert_eq!(got, vec![0, 1, 2, 3]);
    let got = sorted(
        orp.query(&Rect::new(&[-1.0, -1.0], &[1.0, 1.0]), &[0, 1])
            .unwrap(),
    );
    assert_eq!(got, vec![1, 2]);
}

/// Maximum supported dimensionality (8) end to end.
#[test]
fn max_dimension_queries() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(9);
    let dataset = Dataset::from_parts(
        (0..150)
            .map(|_| {
                let coords: Vec<f64> = (0..8).map(|_| rng.gen_range(0..10) as f64).collect();
                (Point::new(&coords), vec![rng.gen_range(0..3), 3])
            })
            .collect(),
    );
    let orp = OrpKwIndex::try_build(&dataset, 2).unwrap();
    let oracle = FullScan::new(&dataset);
    for _ in 0..20 {
        let lo: Vec<f64> = (0..8).map(|_| rng.gen_range(0..8) as f64).collect();
        let hi: Vec<f64> = lo.iter().map(|l| l + rng.gen_range(0..5) as f64).collect();
        let q = Rect::new(&lo, &hi);
        let w = rng.gen_range(0..3);
        assert_eq!(
            sorted(orp.query(&q, &[w, 3]).unwrap()),
            oracle.query_rect(&q, &[w, 3])
        );
    }
}

/// Huge documents (many keywords per object) stress the subset
/// enumeration at build time and the per-object membership tests.
#[test]
fn wide_documents() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(10);
    let dataset = Dataset::from_parts(
        (0..120)
            .map(|_| {
                let p = Point::new2(rng.gen_range(0..50) as f64, rng.gen_range(0..50) as f64);
                let doc: Vec<Keyword> = (0..30).map(|_| rng.gen_range(0..40)).collect();
                (p, doc)
            })
            .collect(),
    );
    let orp = OrpKwIndex::try_build(&dataset, 3).unwrap();
    orp.validate().unwrap();
    let oracle = FullScan::new(&dataset);
    for _ in 0..30 {
        let mut kws: Vec<Keyword> = Vec::new();
        while kws.len() < 3 {
            let w = rng.gen_range(0..40);
            if !kws.contains(&w) {
                kws.push(w);
            }
        }
        let x: f64 = rng.gen_range(0..50) as f64;
        let y: f64 = rng.gen_range(0..50) as f64;
        let q = Rect::new(&[x, y], &[x + 20.0, y + 20.0]);
        assert_eq!(
            sorted(orp.query(&q, &kws).unwrap()),
            oracle.query_rect(&q, &kws)
        );
    }
}

/// Indexes are `Sync`: concurrent queries from multiple threads see
/// consistent results (the structures are immutable after build).
#[test]
fn concurrent_queries_are_safe() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(11);
    let dataset = Dataset::from_parts(
        (0..2000)
            .map(|_| {
                let p = Point::new2(rng.gen_range(0..100) as f64, rng.gen_range(0..100) as f64);
                let doc: Vec<Keyword> = (0..rng.gen_range(1..5))
                    .map(|_| rng.gen_range(0..8))
                    .collect();
                (p, doc)
            })
            .collect(),
    );
    let orp = OrpKwIndex::try_build(&dataset, 2).unwrap();
    let oracle = FullScan::new(&dataset);
    std::thread::scope(|s| {
        for thread in 0..4 {
            let orp = &orp;
            let oracle = &oracle;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + thread);
                for _ in 0..50 {
                    let x: f64 = rng.gen_range(0..100) as f64;
                    let y: f64 = rng.gen_range(0..100) as f64;
                    let q = Rect::new(&[x, y], &[x + 30.0, y + 30.0]);
                    let w1 = rng.gen_range(0..8);
                    let w2 = (w1 + 1 + rng.gen_range(0..7)) % 8;
                    let mut got = orp.query(&q, &[w1, w2]).unwrap();
                    got.sort_unstable();
                    assert_eq!(got, oracle.query_rect(&q, &[w1, w2]));
                }
            });
        }
    });
}

/// `Rect::full` queries across every index return exactly the keyword
/// matches — the geometric layer must vanish cleanly.
#[test]
fn full_space_equals_pure_keyword_search() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(12);
    let dataset = Dataset::from_parts(
        (0..400)
            .map(|_| {
                let p = Point::new2(rng.gen_range(-40..40) as f64, rng.gen_range(-40..40) as f64);
                let doc: Vec<Keyword> = (0..rng.gen_range(1..5))
                    .map(|_| rng.gen_range(0..6))
                    .collect();
                (p, doc)
            })
            .collect(),
    );
    let inv = InvertedIndex::build(dataset.docs());
    let orp = OrpKwIndex::try_build(&dataset, 2).unwrap();
    let lc = SpKwIndex::try_build(&dataset, 2).unwrap();
    let srp = SrpKwIndex::try_build(&dataset, 2).unwrap();
    for (w1, w2) in [(0u32, 1u32), (2, 4), (3, 5)] {
        let expected = inv.intersect(&[w1, w2]);
        assert_eq!(
            sorted(orp.query(&Rect::full(2), &[w1, w2]).unwrap()),
            expected
        );
        assert_eq!(
            // zero constraints = everything
            sorted(lc.query(&ConvexPolytope::default(), &[w1, w2]).unwrap()),
            expected
        );
        // A ball big enough to cover the extent.
        let ball = Ball::new(Point::new2(0.0, 0.0), 1000.0);
        assert_eq!(sorted(srp.query(&ball, &[w1, w2]).unwrap()), expected);
    }
}

//! Large-scale end-to-end stress runs.
//!
//! Ignored by default (minutes of work); run with
//! `cargo test --release --test stress -- --ignored`.

use structured_keyword_search::prelude::*;
use structured_keyword_search::workload::scenarios;

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

#[test]
#[ignore = "large-scale run; invoke explicitly with --ignored"]
fn city_200k_all_indexes_agree_with_baselines() {
    let city = scenarios::city(200_000, 42);
    let k = 2;
    let orp = OrpKwIndex::try_build(&city, k).unwrap();
    let lc = SpKwIndex::try_build(&city, k).unwrap();
    let srp = SrpKwIndex::try_build(&city, k).unwrap();
    let nn = LinfNnIndex::try_build(&city, k).unwrap();
    let kf = KeywordsFirst::build(&city);

    let mut gen = QueryGen::new(&city, 43);
    for trial in 0..100 {
        let band = (trial % 10) as f64 / 10.0;
        let Some(kws) = gen.keywords(k, band) else {
            continue;
        };

        let q = gen.rect(0.002 * ((trial % 7) + 1) as f64);
        let expected = sorted(kf.query_rect(&q, &kws));
        assert_eq!(
            sorted(orp.query(&q, &kws).unwrap()),
            expected,
            "orp trial {trial}"
        );
        assert_eq!(
            sorted(lc.query(&ConvexPolytope::from_rect(&q), &kws).unwrap()),
            expected,
            "lc trial {trial}"
        );

        let center = gen.integer_point();
        let ball = Ball::new(center, 2_000.0 + 500.0 * (trial % 5) as f64);
        assert_eq!(
            sorted(srp.query(&ball, &kws).unwrap()),
            sorted(kf.query_ball(&ball, &kws)),
            "srp trial {trial}"
        );

        let p = gen.point();
        let t = 1 + trial % 16;
        assert_eq!(
            nn.query(&p, t, &kws).unwrap().0,
            kf.nn_linf(&p, t, &kws),
            "nn trial {trial}"
        );
    }
}

#[test]
#[ignore = "large-scale run; invoke explicitly with --ignored"]
fn sensor_net_100k_dimred_agrees() {
    let net = scenarios::sensor_net(100_000, 7);
    let orp = OrpKwIndex::try_build(&net, 2).unwrap();
    let kf = KeywordsFirst::build(&net);
    let mut gen = QueryGen::new(&net, 8);
    for trial in 0..60 {
        let Some(kws) = gen.keywords(2, (trial % 4) as f64 / 4.0) else {
            continue;
        };
        let q = gen.rect(0.01 * ((trial % 9) + 1) as f64);
        assert_eq!(
            sorted(orp.query(&q, &kws).unwrap()),
            sorted(kf.query_rect(&q, &kws)),
            "trial {trial}"
        );
    }
}

#[test]
#[ignore = "large-scale run; invoke explicitly with --ignored"]
fn dynamic_churn_500k_operations() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use structured_keyword_search::core::dynamic::DynamicOrpKw;

    let mut rng = StdRng::seed_from_u64(11);
    let mut idx = DynamicOrpKw::new(2, 2);
    let mut live: Vec<_> = Vec::new();
    for step in 0..500_000u32 {
        match rng.gen_range(0..10) {
            0..=5 => {
                let p = Point::new2(rng.gen_range(0..1000) as f64, rng.gen_range(0..1000) as f64);
                let doc = vec![rng.gen_range(0..12), 12 + rng.gen_range(0..4)];
                live.push(idx.try_insert(p, doc).unwrap());
            }
            6..=8 => {
                if !live.is_empty() {
                    let i = rng.gen_range(0..live.len());
                    assert!(idx.delete(live.swap_remove(i)));
                }
            }
            _ => {
                let x: f64 = rng.gen_range(0..1000) as f64;
                let y: f64 = rng.gen_range(0..1000) as f64;
                let q = Rect::new(&[x, y], &[x + 50.0, y + 50.0]);
                let w = rng.gen_range(0..12);
                let v = 12 + rng.gen_range(0..4);
                let (hits, _) = idx.query(&q, &[w, v], &QueryGuard::new()).unwrap();
                // Spot-invariant: every reported handle is live.
                assert!(hits.len() <= idx.len(), "step {step}");
            }
        }
    }
    assert_eq!(idx.len(), live.len());
}

//! Criterion bench for Table 1 row 4: RR-KW (rectangle intersection
//! reporting with keywords), d = 1 (temporal) and d = 2.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{rngs::StdRng, Rng, SeedableRng};
use skq_core::query::KwQuery;
use skq_core::rr::{rr_bruteforce, RrKwIndex};
use skq_geom::Rect;
use skq_invidx::Keyword;
use skq_workload::ksi::planted_instance;

fn make_rects(n: usize, dim: usize, seed: u64) -> (Vec<(Rect, Vec<Keyword>)>, Vec<Keyword>) {
    let inst = planted_instance(n, 8, 2, 0, 6, seed);
    let mut rng = StdRng::seed_from_u64(seed + 1);
    let rects = inst
        .docs
        .iter()
        .map(|d| {
            let lo: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..1e6)).collect();
            let hi: Vec<f64> = lo.iter().map(|l| l + rng.gen_range(1.0..2e4)).collect();
            (Rect::new(&lo, &hi), d.keywords().to_vec())
        })
        .collect();
    (rects, inst.query)
}

fn bench_rr(c: &mut Criterion) {
    for dim in [1usize, 2] {
        let mut g = c.benchmark_group(format!("rr_kw/d{dim}"));
        for n in [20_000usize, 60_000] {
            let (rects, kws) = make_rects(n, dim, 7 + n as u64);
            let index = RrKwIndex::build(&rects, 2);
            let q = Rect::new(&vec![4e5; dim], &vec![6e5; dim]);
            g.bench_with_input(BenchmarkId::new("index", n), &n, |b, _| {
                b.iter(|| index.query(&q, &kws))
            });
            g.bench_with_input(BenchmarkId::new("scan", n), &n, |b, _| {
                b.iter(|| rr_bruteforce(&rects, &q, &kws))
            });
        }
        g.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_rr
}
criterion_main!(benches);

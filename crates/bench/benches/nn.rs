//! Criterion bench for Table 1 rows 5 and 10–11: the two
//! nearest-neighbour-with-keywords problems, across t.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use skq_bench::planted_spatial;
use skq_core::naive::KeywordsFirst;
use skq_core::nn_l2::L2NnIndex;
use skq_core::nn_linf::LinfNnIndex;
use skq_geom::Point;

fn bench_linf(c: &mut Criterion) {
    let ps = planted_spatial(60_000, 2, 2, 6_000, 1e6, 21);
    let index = LinfNnIndex::try_build(&ps.dataset, 2).expect("valid bench input");
    let kf = KeywordsFirst::build(&ps.dataset);
    let q = Point::new2(5e5, 5e5);
    let kws = ps.query_keywords.clone();
    let mut g = c.benchmark_group("nn_kw/linf_vs_t");
    for t in [1usize, 16, 256] {
        g.bench_with_input(BenchmarkId::new("index", t), &t, |b, &t| {
            b.iter(|| index.query(&q, t, &kws))
        });
        g.bench_with_input(BenchmarkId::new("keywords_only", t), &t, |b, &t| {
            b.iter(|| kf.nn_linf(&q, t, &kws))
        });
    }
    g.finish();
}

fn bench_l2(c: &mut Criterion) {
    let ps = planted_spatial(60_000, 2, 2, 6_000, 1e6, 22);
    let index = L2NnIndex::try_build(&ps.dataset, 2).expect("valid bench input");
    let kf = KeywordsFirst::build(&ps.dataset);
    let q = Point::new2(5e5, 5e5);
    let kws = ps.query_keywords.clone();
    let mut g = c.benchmark_group("nn_kw/l2_vs_t");
    for t in [1usize, 16, 64] {
        g.bench_with_input(BenchmarkId::new("index", t), &t, |b, &t| {
            b.iter(|| index.query(&q, t, &kws))
        });
        g.bench_with_input(BenchmarkId::new("keywords_only", t), &t, |b, &t| {
            b.iter(|| kf.nn_l2(&q, t, &kws))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_linf, bench_l2
}
criterion_main!(benches);

//! Criterion bench for Table 1 rows 8–9: SRP-KW ball queries via the
//! lifting reduction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use skq_bench::planted_spatial;
use skq_core::naive::{FullScan, KeywordsFirst};
use skq_core::query::KwQuery;
use skq_core::srp::SrpKwIndex;
use skq_geom::{Ball, Point};

fn bench_srp(c: &mut Criterion) {
    let mut g = c.benchmark_group("srp_kw/ball");
    for n in [20_000usize, 60_000] {
        let ps = planted_spatial(n, 2, 2, 200, 1e6, 41);
        let index = SrpKwIndex::try_build(&ps.dataset, 2).expect("valid bench input");
        let kf = KeywordsFirst::build(&ps.dataset);
        let fs = FullScan::new(&ps.dataset);
        let ball = Ball::new(Point::new2(5e5, 5e5), 2e5);
        let kws = ps.query_keywords.clone();
        g.bench_with_input(BenchmarkId::new("index", n), &n, |b, _| {
            b.iter(|| index.query(&ball, &kws))
        });
        g.bench_with_input(BenchmarkId::new("keywords_only", n), &n, |b, _| {
            b.iter(|| kf.query_ball(&ball, &kws))
        });
        g.bench_with_input(BenchmarkId::new("full_scan", n), &n, |b, _| {
            b.iter(|| fs.query_ball(&ball, &kws))
        });
    }
    g.finish();
}

fn bench_srp_radius(c: &mut Criterion) {
    let mut g = c.benchmark_group("srp_kw/vs_radius");
    let ps = planted_spatial(60_000, 2, 2, 2_000, 1e6, 42);
    let index = SrpKwIndex::try_build(&ps.dataset, 2).expect("valid bench input");
    let kws = ps.query_keywords.clone();
    for r in [1e4, 1e5, 5e5] {
        let ball = Ball::new(Point::new2(5e5, 5e5), r);
        g.bench_with_input(BenchmarkId::new("index", r as u64), &r, |b, _| {
            b.iter(|| index.query(&ball, &kws))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_srp, bench_srp_radius
}
criterion_main!(benches);

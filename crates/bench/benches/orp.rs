//! Criterion bench for Table 1 rows 1–3: ORP-KW query time, index vs
//! both naive baselines, across N, k, d, OUT, and a selective finite
//! rectangle.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use skq_bench::planted_spatial;
use skq_core::naive::{FullScan, KeywordsFirst, StructuredFirst};
use skq_core::orp::OrpKwIndex;
use skq_core::query::KwQuery;
use skq_geom::Rect;

fn bench_orp_vs_n(c: &mut Criterion) {
    let mut g = c.benchmark_group("orp_kw/out0_vs_n");
    for n in [20_000usize, 60_000] {
        let ps = planted_spatial(n, 2, 2, 0, 1e6, 42);
        let index = OrpKwIndex::try_build(&ps.dataset, 2).expect("valid bench input");
        let kf = KeywordsFirst::build(&ps.dataset);
        let sf = StructuredFirst::build(&ps.dataset);
        let fs = FullScan::new(&ps.dataset);
        let q = Rect::full(2);
        let kws = ps.query_keywords.clone();
        g.bench_with_input(BenchmarkId::new("index", n), &n, |b, _| {
            b.iter(|| index.query(&q, &kws))
        });
        g.bench_with_input(BenchmarkId::new("keywords_only", n), &n, |b, _| {
            b.iter(|| kf.query_rect(&q, &kws))
        });
        g.bench_with_input(BenchmarkId::new("structured_only", n), &n, |b, _| {
            b.iter(|| sf.query_rect(&q, &kws))
        });
        g.bench_with_input(BenchmarkId::new("full_scan", n), &n, |b, _| {
            b.iter(|| fs.query_rect(&q, &kws))
        });
    }
    g.finish();
}

fn bench_orp_vs_k(c: &mut Criterion) {
    let mut g = c.benchmark_group("orp_kw/out0_vs_k");
    for k in [2usize, 3, 4] {
        let ps = planted_spatial(40_000, 2, k, 0, 1e6, 43);
        let index = OrpKwIndex::try_build(&ps.dataset, k).expect("valid bench input");
        let q = Rect::full(2);
        let kws = ps.query_keywords.clone();
        g.bench_with_input(BenchmarkId::new("index", k), &k, |b, _| {
            b.iter(|| index.query(&q, &kws))
        });
    }
    g.finish();
}

fn bench_orp_vs_out(c: &mut Criterion) {
    let mut g = c.benchmark_group("orp_kw/vs_out");
    for out in [0usize, 100, 10_000] {
        let ps = planted_spatial(60_000, 2, 2, out, 1e6, 44);
        let index = OrpKwIndex::try_build(&ps.dataset, 2).expect("valid bench input");
        let q = Rect::full(2);
        let kws = ps.query_keywords.clone();
        g.bench_with_input(BenchmarkId::new("index", out), &out, |b, _| {
            b.iter(|| index.query(&q, &kws))
        });
    }
    g.finish();
}

/// A finite rectangle covering 5% of the extent: unlike `Rect::full`,
/// whose infinite sides skip the rank-space search, every bound is
/// converted, and most candidates fail the geometry test.
fn bench_orp_selective(c: &mut Criterion) {
    let mut g = c.benchmark_group("orp_kw/sel_0.05");
    for n in [20_000usize, 200_000] {
        let ps = planted_spatial(n, 2, 2, n / 10, 1e6, 46);
        let index = OrpKwIndex::try_build(&ps.dataset, 2).expect("valid bench input");
        let side = 0.05f64.sqrt() * 1e6;
        let lo = 0.5e6 - side / 2.0;
        let q = Rect::new(&[lo, lo], &[lo + side, lo + side]);
        let kws = ps.query_keywords.clone();
        g.bench_with_input(BenchmarkId::new("index", n), &n, |b, _| {
            b.iter(|| index.query(&q, &kws))
        });
    }
    g.finish();
}

fn bench_orp_3d_dimred(c: &mut Criterion) {
    let mut g = c.benchmark_group("orp_kw/dimred_3d");
    for n in [20_000usize, 60_000] {
        let ps = planted_spatial(n, 3, 2, 0, 1e6, 45);
        let index = OrpKwIndex::try_build(&ps.dataset, 2).expect("valid bench input");
        let q = Rect::full(3);
        let kws = ps.query_keywords.clone();
        g.bench_with_input(BenchmarkId::new("index", n), &n, |b, _| {
            b.iter(|| index.query(&q, &kws))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_orp_vs_n, bench_orp_vs_k, bench_orp_vs_out, bench_orp_selective, bench_orp_3d_dimred
}
criterion_main!(benches);

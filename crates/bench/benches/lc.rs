//! Criterion bench for Table 1 rows 6–7: LC-KW halfspace queries, with
//! the Willard-vs-kd-cells partitioner ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use skq_bench::planted_spatial;
use skq_core::naive::{KeywordsFirst, StructuredFirst};
use skq_core::query::KwQuery;
use skq_core::sp::{SpKwIndex, SpStrategy};
use skq_geom::{ConvexPolytope, Halfspace};

fn bench_lc(c: &mut Criterion) {
    let mut g = c.benchmark_group("lc_kw/halfplane");
    for n in [20_000usize, 60_000] {
        let ps = planted_spatial(n, 2, 2, 0, 1e6, 31);
        let willard = SpKwIndex::build_with_strategy(&ps.dataset, 2, SpStrategy::Willard);
        let kdcells = SpKwIndex::build_with_strategy(&ps.dataset, 2, SpStrategy::Kd);
        let kf = KeywordsFirst::build(&ps.dataset);
        let sf = StructuredFirst::build(&ps.dataset);
        // x + y ≤ 10^6: cuts the data diagonally in half.
        let q = ConvexPolytope::from_halfspace(Halfspace::new(&[1.0, 1.0], 1e6));
        let kws = ps.query_keywords.clone();
        g.bench_with_input(BenchmarkId::new("willard", n), &n, |b, _| {
            b.iter(|| willard.query(&q, &kws))
        });
        g.bench_with_input(BenchmarkId::new("kd_cells", n), &n, |b, _| {
            b.iter(|| kdcells.query(&q, &kws))
        });
        g.bench_with_input(BenchmarkId::new("keywords_only", n), &n, |b, _| {
            b.iter(|| kf.query_polytope(&q, &kws))
        });
        g.bench_with_input(BenchmarkId::new("structured_only", n), &n, |b, _| {
            b.iter(|| sf.query_polytope(&q, &kws))
        });
    }
    g.finish();
}

fn bench_lc_3d(c: &mut Criterion) {
    let mut g = c.benchmark_group("lc_kw/3d_two_constraints");
    let ps = planted_spatial(40_000, 3, 2, 0, 1e6, 32);
    let index = SpKwIndex::build(&ps.dataset, 2);
    let q = ConvexPolytope::new(vec![
        Halfspace::new(&[1.0, 1.0, 1.0], 1.5e6),
        Halfspace::new(&[-1.0, 0.0, 1.0], 2e5),
    ]);
    let kws = ps.query_keywords.clone();
    g.bench_function("index", |b| b.iter(|| index.query(&q, &kws)));
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_lc, bench_lc_3d
}
criterion_main!(benches);

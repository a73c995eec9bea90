//! Criterion bench for Table 1 rows 6–7: LC-KW halfspace queries on
//! SP-KW (the Willard tree in 2D, kd cells in 3D) against the naive
//! baselines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use skq_bench::planted_spatial;
use skq_core::naive::{KeywordsFirst, StructuredFirst};
use skq_core::query::KwQuery;
use skq_core::sp::SpKwIndex;
use skq_geom::{ConvexPolytope, Halfspace};

fn bench_lc(c: &mut Criterion) {
    let mut g = c.benchmark_group("lc_kw/halfplane");
    for n in [20_000usize, 60_000] {
        let ps = planted_spatial(n, 2, 2, 0, 1e6, 31);
        let willard = SpKwIndex::try_build(&ps.dataset, 2).expect("valid bench input");
        let kf = KeywordsFirst::build(&ps.dataset);
        let sf = StructuredFirst::build(&ps.dataset);
        // x + y ≤ 10^6: cuts the data diagonally in half.
        let q = ConvexPolytope::from_halfspace(Halfspace::new(&[1.0, 1.0], 1e6));
        let kws = ps.query_keywords.clone();
        g.bench_with_input(BenchmarkId::new("willard", n), &n, |b, _| {
            b.iter(|| willard.query(&q, &kws))
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
    let index = SpKwIndex::try_build(&ps.dataset, 2).expect("valid bench input");
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

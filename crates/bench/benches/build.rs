//! Criterion bench for index construction: every index type across N.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use skq_bench::planted_spatial;
use skq_core::ksi::KsiIndex;
use skq_core::orp::OrpKwIndex;
use skq_core::sp::{SpKwIndex, SpStrategy};
use skq_core::srp::SrpKwIndex;

fn bench_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("build");
    g.sample_size(10);
    for n in [10_000usize, 30_000] {
        let ps2 = planted_spatial(n, 2, 2, 100, 1e6, 61);
        let ps3 = planted_spatial(n, 3, 2, 100, 1e6, 62);
        g.bench_with_input(BenchmarkId::new("orp_2d", n), &n, |b, _| {
            b.iter(|| OrpKwIndex::try_build(&ps2.dataset, 2).expect("valid bench input"))
        });
        g.bench_with_input(BenchmarkId::new("orp_3d_dimred", n), &n, |b, _| {
            b.iter(|| OrpKwIndex::try_build(&ps3.dataset, 2).expect("valid bench input"))
        });
        g.bench_with_input(BenchmarkId::new("sp_willard", n), &n, |b, _| {
            b.iter(|| {
                SpKwIndex::try_build_with_strategy(&ps2.dataset, 2, SpStrategy::Willard)
                    .expect("valid bench input")
            })
        });
        g.bench_with_input(BenchmarkId::new("sp_kd", n), &n, |b, _| {
            b.iter(|| {
                SpKwIndex::try_build_with_strategy(&ps2.dataset, 2, SpStrategy::Kd)
                    .expect("valid bench input")
            })
        });
        g.bench_with_input(BenchmarkId::new("srp", n), &n, |b, _| {
            b.iter(|| SrpKwIndex::try_build(&ps2.dataset, 2).expect("valid bench input"))
        });
        g.bench_with_input(BenchmarkId::new("ksi", n), &n, |b, _| {
            b.iter(|| KsiIndex::try_build(ps2.dataset.docs(), 2).expect("valid bench input"))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_build
}
criterion_main!(benches);

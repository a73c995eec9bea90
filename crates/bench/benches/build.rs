//! Criterion bench for index construction: every index type across N,
//! plus the leaf-capacity ablation of the framework.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use skq_bench::planted_spatial;
use skq_core::framework::{doc_weights, FrameworkConfig, KdPartitioner, TransformedIndex};
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

/// Leaf-capacity ablation: smaller leaves mean more nodes (more space,
/// slower builds) but less per-leaf scanning; the default 24 sits at
/// the flat part of the query-time curve.
fn bench_leaf_weight(c: &mut Criterion) {
    use skq_geom::{RankSpace, Region};
    let ps = planted_spatial(30_000, 2, 2, 300, 1e6, 63);
    let rank = RankSpace::build(ps.dataset.points());
    let rank_coords = rank.coords();
    let weights = doc_weights(ps.dataset.docs());
    let mut g = c.benchmark_group("ablation/leaf_weight");
    g.sample_size(15);
    for leaf in [8u64, 24, 96, 384] {
        let tree = TransformedIndex::try_build(
            KdPartitioner::new(2, rank_coords.clone(), weights.clone()),
            std::sync::Arc::clone(ps.dataset.shared_docs()),
            2..=2,
            FrameworkConfig { leaf_weight: leaf },
        )
        .expect("valid bench input");
        let kws = ps.query_keywords.clone();
        g.bench_with_input(BenchmarkId::new("query", leaf), &leaf, |b, _| {
            b.iter(|| {
                let mut out = Vec::new();
                let mut stats = skq_core::stats::QueryStats::new();
                let _ = tree.query_sink(
                    &kws,
                    &|cell| {
                        let _ = cell;
                        Region::Covered
                    },
                    &|_| true,
                    &mut out,
                    &mut stats,
                );
                out
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_build, bench_leaf_weight
}
criterion_main!(benches);

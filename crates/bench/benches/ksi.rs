//! Criterion bench for §1.2: pure k-set intersection, the hardness
//! core of every problem in the paper — framework vs galloping merge,
//! reporting and emptiness.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use skq_core::ksi::KsiIndex;
use skq_core::query::KwQuery;
use skq_invidx::InvertedIndex;
use skq_workload::ksi::planted_instance;

fn bench_reporting(c: &mut Criterion) {
    let mut g = c.benchmark_group("ksi/reporting");
    let n = 100_000;
    for out in [0usize, 100, 10_000] {
        let inst = planted_instance(n, 8, 3, out, 6, 71);
        let ksi = KsiIndex::try_build(&inst.docs, 3).expect("valid bench input");
        let inv = InvertedIndex::build(&inst.docs);
        g.bench_with_input(BenchmarkId::new("framework", out), &out, |b, _| {
            b.iter(|| ksi.query(&(), &inst.query))
        });
        g.bench_with_input(BenchmarkId::new("inverted", out), &out, |b, _| {
            b.iter(|| inv.intersect(&inst.query))
        });
    }
    g.finish();
}

fn bench_emptiness(c: &mut Criterion) {
    let mut g = c.benchmark_group("ksi/emptiness");
    for n in [30_000usize, 100_000] {
        let inst = planted_instance(n, 8, 3, 0, 6, 72);
        let ksi = KsiIndex::try_build(&inst.docs, 3).expect("valid bench input");
        let inv = InvertedIndex::build(&inst.docs);
        g.bench_with_input(BenchmarkId::new("framework", n), &n, |b, _| {
            b.iter(|| ksi.count_at_least(&(), &inst.query, 1))
        });
        g.bench_with_input(BenchmarkId::new("inverted", n), &n, |b, _| {
            b.iter(|| inv.intersection_is_empty(&inst.query))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_reporting, bench_emptiness
}
criterion_main!(benches);

//! Traced-run probes: calls into each layer's public functions, timed
//! from the benchmark with its own spans, on the workload's own data.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use skq_core::sink::CountSink;
use skq_core::suite::OrpKwSuite;
use skq_core::{QueryGuard, QueryStats};
use skq_invidx::{CompressedInvertedIndex, Document, InvertedIndex};
use skq_obs::Histogram;
use skq_serve::Server;
use skq_store::Persist;

use crate::load::{Counts, Query};
use crate::stats::{secs_us, Report, Samples};

/// The suite route a keyword count selects.
fn route(k: usize, k_max: usize) -> &'static str {
    match k {
        1 => "postings_filter",
        k if k <= k_max => "framework",
        _ => "post_filter",
    }
}

/// Direct queries on the served snapshot.
pub struct CorePass {
    /// Collect-path time of the last pass, per pool index, µs.
    pub direct_us: Vec<f64>,
    /// Traversal counters per pool index.
    pub counts: Vec<Counts>,
    pub failed: u64,
}

/// Runs every pool query `passes` times through `try_query_guarded`
/// (grouped by route) and once through `query_sink` + `CountSink`.
pub fn core_pass(
    suite: &OrpKwSuite,
    pool: &[Query],
    passes: usize,
    report: &mut Report,
) -> CorePass {
    let mut by_route: HashMap<&str, Samples> = HashMap::new();
    let mut count_only = Samples::default();
    let mut direct_us = vec![0.0; pool.len()];
    let mut counts = vec![Counts::default(); pool.len()];
    let mut failed = 0;
    let guard = QueryGuard::new();
    for pass in 0..passes {
        for (i, q) in pool.iter().enumerate() {
            let t = Instant::now();
            let out = suite.try_query_guarded(&q.rect, &q.keywords, &guard);
            let us = secs_us(t.elapsed());
            let Ok((ids, stats)) = out else {
                failed += 1;
                continue;
            };
            by_route
                .entry(route(q.keywords.len(), suite.k_max()))
                .or_default()
                .push(us);
            direct_us[i] = us;
            if pass == 0 {
                counts[i].add(&stats, ids.len());
            }
        }
    }
    for q in pool {
        let mut sink = CountSink::new();
        let mut stats = QueryStats::new();
        let t = Instant::now();
        let _ = black_box(suite.query_sink(&q.rect, &q.keywords, &mut sink, &mut stats));
        count_only.push(secs_us(t.elapsed()));
        black_box(sink.count());
    }
    for r in ["postings_filter", "framework", "post_filter"] {
        let s = by_route.remove(r).unwrap_or_default();
        report.pct(&format!("core.{r}_p50_us"), &s, 0.5, "us");
        report.pct(&format!("core.{r}_p99_us"), &s, 0.99, "us");
    }
    report.pct("core.count_only_p50_us", &count_only, 0.5, "us");
    let total = Counts::sum(counts.iter());
    let q = total.queries.max(1) as f64;
    let n = total.queries as usize;
    report.put("core.nodes_per_query", total.nodes as f64 / q, "count", n);
    report.put(
        "core.list_scans_per_query",
        total.list_scans as f64 / q,
        "count",
        n,
    );
    report.put(
        "core.pivot_scans_per_query",
        total.pivot_scans as f64 / q,
        "count",
        n,
    );
    report.put(
        "core.results_per_query",
        total.results as f64 / q,
        "count",
        n,
    );
    let scans = (total.list_scans + total.pivot_scans).max(1) as f64;
    report.put("core.useful_frac", total.results as f64 / scans, "ratio", n);
    CorePass {
        direct_us,
        counts,
        failed,
    }
}

/// Postings work of the pool: list lengths, and plain and compressed
/// intersection of every k ≥ 2 keyword set. Returns how many keyword
/// sets the two intersections disagree on.
pub fn invidx_pass(docs: &[Document], pool: &[Query], report: &mut Report) -> u64 {
    let inv = InvertedIndex::build(docs);
    let comp = CompressedInvertedIndex::build(docs);
    let mut postings = 0usize;
    let mut plain = Samples::default();
    let mut compressed = Samples::default();
    let mut differ = 0;
    for q in pool {
        postings += q.keywords.iter().map(|&w| inv.len_of(w)).sum::<usize>();
        if q.keywords.len() < 2 {
            continue;
        }
        let t = Instant::now();
        let a = black_box(inv.intersect(&q.keywords));
        plain.push(secs_us(t.elapsed()));
        let t = Instant::now();
        let b = black_box(comp.intersect(&q.keywords));
        compressed.push(secs_us(t.elapsed()));
        differ += u64::from(a != b);
    }
    report.put(
        "invidx.postings_per_query",
        postings as f64 / pool.len().max(1) as f64,
        "count",
        pool.len(),
    );
    report.pct("invidx.intersect_p50_us", &plain, 0.5, "us");
    report.pct("invidx.compressed_intersect_p50_us", &compressed, 0.5, "us");
    differ
}

/// Cost of the metric calls the serve path makes per request.
pub fn obs_probe(report: &mut Report) {
    const CALLS: u32 = 200_000;
    let mut observe = Samples::default();
    let mut lookup = Samples::default();
    let hist = Histogram::new();
    for round in 0..5u64 {
        let t = Instant::now();
        for i in 0..u64::from(CALLS) {
            hist.observe(black_box(i ^ round));
        }
        observe.push(t.elapsed().as_nanos() as f64 / f64::from(CALLS));
        let t = Instant::now();
        for _ in 0..CALLS {
            skq_obs::global()
                .counter("skq_perfbench_probe_total", &[("status", "ok")])
                .inc();
        }
        lookup.push(t.elapsed().as_nanos() as f64 / f64::from(CALLS));
    }
    report.put(
        "obs.observe_ns",
        observe.median().unwrap_or(0.0),
        "ns",
        observe.len(),
    );
    report.put(
        "obs.counter_lookup_inc_ns",
        lookup.median().unwrap_or(0.0),
        "ns",
        lookup.len(),
    );
}

/// `Server::publish` alone: re-publishes the served suite, decoded
/// from its own snapshot bytes (the decode is not timed).
pub fn publish_probe(server: &Server, rounds: usize) -> Samples {
    let bytes = server
        .snapshot()
        .value
        .to_bytes()
        .expect("served suite encodes");
    let mut swap = Samples::default();
    for _ in 0..rounds {
        let suite = OrpKwSuite::try_load(&bytes).expect("suite snapshot decodes");
        let t = Instant::now();
        server.publish(suite);
        swap.push(secs_us(t.elapsed()));
    }
    swap
}

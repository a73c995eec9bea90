//! Batch query execution across threads, with panic-isolated shards.
//!
//! Every index in this crate is immutable after construction and
//! therefore `Sync`; batch workloads (analytics, evaluation sweeps, the
//! experiment harness itself) can shard queries across OS threads with
//! no locking. This module provides the small amount of plumbing —
//! deterministic result order, balanced sharding — so callers don't
//! hand-roll it.
//!
//! Fault tolerance: [`run_batch_isolated`] wraps each shard in
//! `catch_unwind` with one bounded retry, so a panicking query poisons
//! only its own shard. The [`BatchReport`] records a [`ShardOutcome`]
//! per shard and `None` results for queries in failed shards; the other
//! shards' answers are unaffected.

use std::panic::{catch_unwind, AssertUnwindSafe};

use skq_geom::Rect;
use skq_invidx::Keyword;

use crate::concurrency::effective_threads;
use crate::error::SkqError;
use crate::failpoints;
use crate::guard::{GuardedSink, QueryGuard};
use crate::orp::OrpKwIndex;
use crate::query::KwQuery;
use crate::sink::ResultSink;
use crate::stats::QueryStats;
use crate::telemetry;

/// A single ORP-KW query in a batch.
#[derive(Clone, Debug)]
pub struct BatchQuery {
    /// The rectangle.
    pub rect: Rect,
    /// Exactly `k` distinct keywords.
    pub keywords: Vec<Keyword>,
}

/// What happened to one shard of a batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardOutcome {
    /// The shard completed on the first attempt.
    Ok,
    /// The first attempt panicked; the bounded retry succeeded.
    Retried,
    /// Both the first attempt and the retry panicked; the shard's
    /// queries have no results.
    Failed,
}

/// The outcome of [`run_batch_isolated`]: per-query results in input
/// order (`None` for queries whose shard failed), per-shard outcomes,
/// and aggregated statistics over the successful shards.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-query answers in input order, each sorted by object id;
    /// `None` when the owning shard failed.
    pub results: Vec<Option<Vec<u32>>>,
    /// Per-shard outcomes, in shard order.
    pub outcomes: Vec<ShardOutcome>,
    /// Statistics aggregated over the successful shards.
    pub stats: QueryStats,
}

impl BatchReport {
    /// Whether every shard completed (possibly after a retry).
    pub fn is_complete(&self) -> bool {
        self.outcomes.iter().all(|o| *o != ShardOutcome::Failed)
    }

    /// Converts the report into plain per-query results, failing on the
    /// first shard that panicked through its retry.
    ///
    /// # Errors
    ///
    /// `SkqError::ShardPanicked` naming the first failed shard.
    pub fn into_results(self) -> Result<Vec<Vec<u32>>, SkqError> {
        if let Some(shard) = self
            .outcomes
            .iter()
            .position(|o| *o == ShardOutcome::Failed)
        {
            return Err(SkqError::ShardPanicked { shard });
        }
        Ok(self
            .results
            .into_iter()
            .map(|r| r.unwrap_or_default())
            .collect())
    }
}

/// Runs `queries` against `index` on up to `threads` OS threads,
/// returning answers in input order (each sorted by object id).
///
/// With `threads = 1` this degenerates to a plain loop (no thread is
/// spawned), so callers can use one code path for both modes;
/// `threads = 0` is clamped to 1 by
/// [`concurrency::effective_threads`](crate::concurrency::effective_threads)
/// (a zero-width pool makes no progress, so the nearest meaningful
/// interpretation is sequential) — the same clamp the `skq-serve`
/// worker pool applies.
///
/// # Panics
///
/// Panics if any query violates the index's keyword contract (exactly
/// `k` distinct keywords), or if a shard fails through its retry (use
/// [`run_batch_isolated`] to observe failures as values instead).
// The panic is this wrapper's documented contract;
// `run_batch_isolated` is the fallible surface.
#[allow(clippy::disallowed_macros)]
pub fn run_batch(index: &OrpKwIndex, queries: &[BatchQuery], threads: usize) -> Vec<Vec<u32>> {
    let report = run_batch_isolated(index, queries, threads, &QueryGuard::default());
    report
        .into_results()
        .unwrap_or_else(|e| panic!("worker panicked: {e}")) // skq-lint: allow(L01) documented panicking wrapper over run_batch_isolated
}

/// One shard's run: its per-query results and aggregated stats when it
/// completed (possibly after a retry), `None` when it failed through.
type ShardRun = (Option<(Vec<Vec<u32>>, QueryStats)>, ShardOutcome);

/// Panic-isolated [`run_batch`]: each shard runs under `catch_unwind`
/// with one bounded retry, and per-query emission is policed by
/// `guard` (deadline, cancellation, result budget). A panicking shard
/// never takes down the batch — its queries come back as `None` and
/// its [`ShardOutcome::Failed`] is recorded, while every other shard's
/// results stand.
///
/// Each caught panic increments the `skq_batch_shard_panics` counter.
pub fn run_batch_isolated(
    index: &OrpKwIndex,
    queries: &[BatchQuery],
    threads: usize,
    guard: &QueryGuard,
) -> BatchReport {
    let threads = effective_threads(threads);
    if queries.is_empty() {
        return BatchReport {
            results: Vec::new(),
            outcomes: Vec::new(),
            stats: QueryStats::new(),
        };
    }
    let span = skq_obs::Span::enter("orp.batch");
    skq_obs::global()
        .counter("skq_batch_queries_total", &[])
        .add(queries.len() as u64);

    // Per-shard statistics are aggregated locally (no shared atomics on
    // the per-query path) and exported once per batch; each shard also
    // reports how many results it emitted.
    let run_shard = |shard: &[BatchQuery]| -> (Vec<Vec<u32>>, QueryStats) {
        // Chaos-only: an armed fail point must look like a real worker
        // panic so the catch_unwind isolation path is the thing tested.
        #[allow(clippy::disallowed_macros)]
        if let Err(e) = failpoints::check("batch::shard") {
            panic!("{e}"); // skq-lint: allow(L01) chaos injection; isolated by catch_unwind
        }
        let mut agg = QueryStats::new();
        let results: Vec<Vec<u32>> = shard
            .iter()
            .map(|q| {
                let mut sink = GuardedSink::new(Vec::new(), guard);
                let mut s = QueryStats::new();
                let _ = index.query_sink(&q.rect, &q.keywords, &mut sink, &mut s);
                s.emitted += sink.emitted();
                s.truncated |= sink.truncated();
                s.truncated_reason = s.truncated_reason.or(sink.truncated_reason());
                agg.absorb(&s);
                let mut r = sink.into_inner();
                r.sort_unstable();
                r
            })
            .collect();
        skq_obs::global()
            .histogram("skq_batch_shard_emitted", &[])
            .observe(agg.emitted);
        (results, agg)
    };

    // One bounded retry per shard: transient panics (an injected fail
    // point, a poisoned scratch state) get a second chance; persistent
    // ones surface as `Failed` without aborting the batch.
    let isolated = |shard: &[BatchQuery]| -> ShardRun {
        match catch_unwind(AssertUnwindSafe(|| run_shard(shard))) {
            Ok(r) => (Some(r), ShardOutcome::Ok),
            Err(_) => {
                skq_obs::global()
                    .counter("skq_batch_shard_panics", &[])
                    .inc();
                match catch_unwind(AssertUnwindSafe(|| run_shard(shard))) {
                    Ok(r) => (Some(r), ShardOutcome::Retried),
                    Err(_) => {
                        skq_obs::global()
                            .counter("skq_batch_shard_panics", &[])
                            .inc();
                        (None, ShardOutcome::Failed)
                    }
                }
            }
        }
    };

    let chunk = if threads == 1 || queries.len() == 1 {
        queries.len()
    } else {
        queries.len().div_ceil(threads.min(queries.len()))
    };
    let shards: Vec<&[BatchQuery]> = queries.chunks(chunk).collect();

    let shard_runs: Vec<ShardRun> = if shards.len() == 1 {
        vec![isolated(shards[0])]
    } else {
        std::thread::scope(|s| {
            let isolated = &isolated;
            let handles: Vec<_> = shards
                .iter()
                .map(|&shard| s.spawn(move || isolated(shard)))
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(v) => v,
                    // Unreachable (the closure catches its own panics),
                    // but a join failure must not abort the batch.
                    Err(_) => (None, ShardOutcome::Failed),
                })
                .collect()
        })
    };

    let mut results: Vec<Option<Vec<u32>>> = Vec::with_capacity(queries.len());
    let mut outcomes = Vec::with_capacity(shard_runs.len());
    let mut stats = QueryStats::new();
    for (shard, (run, outcome)) in shards.iter().zip(shard_runs) {
        outcomes.push(outcome);
        match run {
            Some((shard_results, shard_stats)) => {
                stats.absorb(&shard_stats);
                results.extend(shard_results.into_iter().map(Some));
            }
            None => results.extend(shard.iter().map(|_| None)),
        }
    }
    telemetry::record_query("orp_batch", index.k(), &stats, span.elapsed());
    BatchReport {
        results,
        outcomes,
        stats,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]

    use super::*;
    use crate::dataset::Dataset;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use skq_geom::Point;

    fn setup() -> (OrpKwIndex, Vec<BatchQuery>, Dataset) {
        let mut rng = StdRng::seed_from_u64(1);
        let dataset = Dataset::from_parts(
            (0..3000)
                .map(|_| {
                    let p = Point::new2(rng.gen_range(0..100) as f64, rng.gen_range(0..100) as f64);
                    let doc: Vec<Keyword> = (0..rng.gen_range(1..5))
                        .map(|_| rng.gen_range(0..10))
                        .collect();
                    (p, doc)
                })
                .collect(),
        );
        let index = OrpKwIndex::build(&dataset, 2);
        let queries: Vec<BatchQuery> = (0..57)
            .map(|_| {
                let x: f64 = rng.gen_range(0..100) as f64;
                let y: f64 = rng.gen_range(0..100) as f64;
                let w1 = rng.gen_range(0..10);
                let w2 = (w1 + 1 + rng.gen_range(0..9)) % 10;
                BatchQuery {
                    rect: Rect::new(&[x, y], &[x + 25.0, y + 25.0]),
                    keywords: vec![w1, w2],
                }
            })
            .collect();
        (index, queries, dataset)
    }

    #[test]
    fn parallel_matches_sequential() {
        let (index, queries, _) = setup();
        let seq = run_batch(&index, &queries, 1);
        for threads in [2, 3, 8, 64] {
            let par = run_batch(&index, &queries, threads);
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn results_are_correct() {
        let (index, queries, dataset) = setup();
        let got = run_batch(&index, &queries, 4);
        for (q, r) in queries.iter().zip(&got) {
            let expected: Vec<u32> = (0..dataset.len() as u32)
                .filter(|&i| {
                    dataset.doc(i as usize).contains_all(&q.keywords)
                        && q.rect.contains(dataset.point(i as usize))
                })
                .collect();
            assert_eq!(r, &expected);
        }
    }

    #[test]
    fn empty_batch() {
        let (index, _, _) = setup();
        assert!(run_batch(&index, &[], 4).is_empty());
        let report = run_batch_isolated(&index, &[], 4, &QueryGuard::default());
        assert!(report.results.is_empty() && report.outcomes.is_empty());
    }

    #[test]
    fn zero_threads_clamps_to_sequential() {
        let (index, queries, _) = setup();
        let seq = run_batch(&index, &queries, 1);
        assert_eq!(run_batch(&index, &queries, 0), seq);
    }

    #[test]
    fn poisoned_shard_is_isolated() {
        // One query with the wrong keyword arity makes its shard panic
        // (the index's keyword contract); the other shards still answer.
        let (index, mut queries, _) = setup();
        let clean = run_batch(&index, &queries, 4);
        // 57 queries over 4 threads → ceil(57/4) = 15-query shards; the
        // bad query lands in shard 3 (index 45).
        queries[50].keywords = vec![0, 1, 2];
        let report = run_batch_isolated(&index, &queries, 4, &QueryGuard::default());
        assert!(!report.is_complete());
        let failed: Vec<usize> = report
            .outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| **o == ShardOutcome::Failed)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(failed, vec![3]);
        // Queries outside the failed shard keep their results.
        for (i, (got, want)) in report.results.iter().zip(&clean).enumerate() {
            if i < 45 {
                assert_eq!(got.as_ref(), Some(want), "query {i}");
            }
        }
        assert!(report.results[50].is_none());
        // The typed conversion names the failed shard.
        assert!(matches!(
            report.into_results(),
            Err(SkqError::ShardPanicked { shard: 3 })
        ));
    }

    #[test]
    fn guard_budget_truncates_batch_queries() {
        use crate::stats::TruncatedReason;
        let (index, queries, _) = setup();
        let guard = QueryGuard::default().with_max_results(1);
        let report = run_batch_isolated(&index, &queries, 2, &guard);
        assert!(report.is_complete());
        for r in report.results.iter().flatten() {
            assert!(r.len() <= 1);
        }
        // At least one query in this workload has > 1 match.
        assert_eq!(report.stats.truncated_reason, Some(TruncatedReason::Limit));
    }
}

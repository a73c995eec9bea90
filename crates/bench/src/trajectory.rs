//! The performance-trajectory harness behind `skq-bench bench`.
//!
//! Runs pinned, seeded `skq-workload` scenarios across every problem
//! module and records a schema-versioned JSON document: per-problem
//! build cost, query cost counters, latency percentiles (pulled from
//! the `skq-obs` histograms), bytes-per-point index footprint, and
//! allocation counts. Checked-in snapshots (`BENCH_0.json`, …) form
//! the repo's performance trajectory; [`diff`] compares two snapshots
//! so a hot-path PR can prove it bent the curve — and CI can flag one
//! that bent it the wrong way.
//!
//! The document holds only quantities that are pure functions of the
//! pinned seeds — structural counters, space, allocation totals — so
//! regenerating the file reproduces it byte-for-byte on any machine.
//! Wall-clock measurement belongs to `perfbench/`.

use std::sync::Arc;
use std::time::Instant;

use skq_core::dataset::Dataset;
use skq_core::ksi::KsiIndex;
use skq_core::lc::LcKwIndex;
use skq_core::nn_l2::L2NnIndex;
use skq_core::nn_linf::LinfNnIndex;
use skq_core::orp::OrpKwIndex;
use skq_core::persist::Persist;
use skq_core::query::KwQuery;
use skq_core::rr::RrKwIndex;
use skq_core::sink::CountSink;
use skq_core::sp::SpKwIndex;
use skq_core::srp::SrpKwIndex;
use skq_core::stats::QueryStats;
use skq_core::suite::OrpKwSuite;
use skq_geom::Rect;
use skq_invidx::Keyword;
use skq_workload::queries::QueryGen;
use skq_workload::scenarios;

use crate::json::Json;
use crate::shuffled_planted;

/// Version stamp of the BENCH document layout.
pub const SCHEMA_VERSION: u64 = 1;

/// The `format` marker written into every BENCH document.
pub const FORMAT: &str = "skq-bench-trajectory";

/// A reading of the allocator counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocCounters {
    /// Bytes requested so far (allocations plus realloc targets).
    pub bytes: u64,
    /// Allocation and realloc calls so far.
    pub allocs: u64,
    /// Bytes currently allocated, modulo 2⁶⁴: frees subtract, so only
    /// differences between two readings are meaningful.
    pub live: u64,
}

/// Reads the allocator counters.
///
/// The bench binary installs a counting `#[global_allocator]` and
/// passes a probe reading it; callers without one (unit tests, the
/// harness library) pass `&AllocCounters::default` and the alloc
/// fields record 0.
pub type AllocProbe<'a> = &'a dyn Fn() -> AllocCounters;

/// Problem-size preset for a trajectory run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Tiny sizes for test-suite smoke runs (seconds, debug build).
    Smoke,
    /// The default: the scale of the checked-in `BENCH_*.json` files,
    /// cheap enough for CI (a few seconds in release).
    Default,
    /// Larger sizes for local investigations.
    Full,
}

impl Scale {
    fn label(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Default => "default",
            Scale::Full => "full",
        }
    }

    fn n(self) -> usize {
        match self {
            Scale::Smoke => 1_000,
            Scale::Default => 20_000,
            Scale::Full => 80_000,
        }
    }

    fn queries(self) -> usize {
        match self {
            Scale::Smoke => 16,
            Scale::Default => 48,
            Scale::Full => 96,
        }
    }
}

const BUILD_K: usize = 2;
/// `k_max` of the default bench suite (the `store` problem and
/// `skq-bench save-suite`).
const SUITE_K_MAX: usize = 3;
const SEED_DATA: u64 = 62023; // the paper's PODS edition, pinned
const SEED_QUERIES: u64 = 0x5eed_0001;

struct Ctx<'a> {
    scale: Scale,
    probe: AllocProbe<'a>,
}

impl Ctx<'_> {
    /// Allocation delta across `f`: bytes requested, allocation calls,
    /// and the net bytes still allocated when `f` returns (its result
    /// included; zero if `f` freed more than it kept).
    fn alloc_delta<T>(&self, f: impl FnOnce() -> T) -> (T, AllocCounters) {
        let before = (self.probe)();
        let value = f();
        let after = (self.probe)();
        let live = after.live.wrapping_sub(before.live) as i64;
        let delta = AllocCounters {
            bytes: after.bytes.saturating_sub(before.bytes),
            allocs: after.allocs.saturating_sub(before.allocs),
            live: live.max(0) as u64,
        };
        (value, delta)
    }

    /// Builds once under the allocation probe, recording footprint.
    fn build_record<T>(
        &self,
        n: usize,
        build: impl FnOnce() -> T,
        space_words: impl Fn(&T) -> usize,
    ) -> (T, Json) {
        let (index, alloc) = self.alloc_delta(build);
        let words = space_words(&index);
        let mut out = Json::obj();
        out.set("space_words", Json::Num(words as f64));
        out.set(
            "bytes_per_point",
            Json::Num(round3(words as f64 * 8.0 / n as f64)),
        );
        out.set("alloc_bytes", Json::Num(alloc.bytes as f64));
        out.set("allocs", Json::Num(alloc.allocs as f64));
        out.set("live_bytes", Json::Num(alloc.live as f64));
        (index, out)
    }

    /// Runs the query sweep, accumulating structural counters.
    fn query_record(&self, queries: usize, mut run_one: impl FnMut(usize) -> QueryStats) -> Json {
        let mut total = QueryStats::new();
        let (_, alloc) = self.alloc_delta(|| {
            for i in 0..queries {
                total.absorb(&run_one(i));
            }
        });
        let mut out = Json::obj();
        out.set("queries", Json::Num(queries as f64));
        out.set("nodes_visited", Json::Num(total.nodes_visited as f64));
        out.set(
            "objects_examined",
            Json::Num(total.objects_examined() as f64),
        );
        out.set("postings_scanned", Json::Num(total.list_scans as f64));
        out.set("reported", Json::Num(total.reported as f64));
        out.set("alloc_bytes", Json::Num(alloc.bytes as f64));
        out.set("allocs", Json::Num(alloc.allocs as f64));
        out
    }
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

fn problem_header(out: &mut Json, scenario: &str, n: usize, input_size: usize, k: usize) {
    out.set("scenario", Json::Str(scenario.to_string()));
    out.set("n", Json::Num(n as f64));
    out.set("input_size", Json::Num(input_size as f64));
    out.set("k", Json::Num(k as f64));
}

/// Rect + keyword queries shared by the rect-query problems.
fn rect_queries(d: &Dataset, count: usize) -> Vec<(Rect, Vec<Keyword>)> {
    let mut gen = QueryGen::new(d, SEED_QUERIES);
    (0..count)
        .map(|_| {
            let rect = gen.rect(0.1);
            let kws = gen
                .keywords(BUILD_K, 0.3)
                .expect("scenario vocabulary has >= k keywords");
            (rect, kws)
        })
        .collect()
}

fn orp_problem(ctx: &Ctx, d: &Dataset) -> Json {
    let queries = rect_queries(d, ctx.scale.queries());
    let (index, build) = ctx.build_record(
        d.len(),
        || OrpKwIndex::try_build(d, BUILD_K).expect("valid workload"),
        OrpKwIndex::space_words,
    );
    let query = ctx.query_record(queries.len(), |i| {
        let (rect, kws) = &queries[i];
        index.query_with_stats(rect, kws).expect("valid query").1
    });
    let mut out = Json::obj();
    problem_header(&mut out, "city", d.len(), d.input_size(), BUILD_K);
    out.set("build", build);
    out.set("query", query);
    out
}

fn rr_problem(ctx: &Ctx, d: &Dataset) -> Json {
    // Inflate each point into a small axis-aligned box: the
    // rect-vs-rect regime on the same city scenario.
    let side = 150.0;
    let boxes: Vec<(Rect, Vec<Keyword>)> = (0..d.len())
        .map(|i| {
            let p = d.point(i);
            let lo: Vec<f64> = p.coords().to_vec();
            let hi: Vec<f64> = p.coords().iter().map(|c| c + side).collect();
            (Rect::new(&lo, &hi), d.doc(i).keywords().to_vec())
        })
        .collect();
    let input_size: usize = boxes.iter().map(|(_, kws)| 1 + kws.len()).sum();
    let queries = rect_queries(d, ctx.scale.queries());
    let (index, build) = ctx.build_record(
        d.len(),
        || RrKwIndex::try_build(&boxes, BUILD_K).expect("valid workload"),
        RrKwIndex::space_words,
    );
    let query = ctx.query_record(queries.len(), |i| {
        let (rect, kws) = &queries[i];
        index.query_with_stats(rect, kws).expect("valid query").1
    });
    let mut out = Json::obj();
    problem_header(&mut out, "city", d.len(), input_size, BUILD_K);
    out.set("build", build);
    out.set("query", query);
    out
}

fn lc_problem(ctx: &Ctx, d: &Dataset) -> Json {
    let count = ctx.scale.queries();
    let mut gen = QueryGen::new(d, SEED_QUERIES);
    let queries: Vec<_> = (0..count)
        .map(|_| {
            let poly = gen.halfspaces(1);
            let kws = gen.keywords(BUILD_K, 0.3).expect("vocabulary");
            (poly, kws)
        })
        .collect();
    let (index, build) = ctx.build_record(
        d.len(),
        || LcKwIndex::try_build(d, BUILD_K).expect("valid workload"),
        LcKwIndex::space_words,
    );
    let query = ctx.query_record(queries.len(), |i| {
        let (poly, kws) = &queries[i];
        index.query_with_stats(poly, kws).expect("valid query").1
    });
    let mut out = Json::obj();
    problem_header(&mut out, "city", d.len(), d.input_size(), BUILD_K);
    out.set("build", build);
    out.set("query", query);
    out
}

fn sp_problem(ctx: &Ctx, d: &Dataset) -> Json {
    let count = ctx.scale.queries();
    let mut gen = QueryGen::new(d, SEED_QUERIES);
    let queries: Vec<_> = (0..count)
        .map(|_| {
            let poly = gen.halfspaces(2);
            let kws = gen.keywords(BUILD_K, 0.3).expect("vocabulary");
            (poly, kws)
        })
        .collect();
    let (index, build) = ctx.build_record(
        d.len(),
        || SpKwIndex::try_build(d, BUILD_K).expect("valid workload"),
        SpKwIndex::space_words,
    );
    let query = ctx.query_record(queries.len(), |i| {
        let (poly, kws) = &queries[i];
        index.query_with_stats(poly, kws).expect("valid query").1
    });
    let mut out = Json::obj();
    problem_header(&mut out, "city", d.len(), d.input_size(), BUILD_K);
    out.set("build", build);
    out.set("query", query);
    out
}

fn srp_problem(ctx: &Ctx, d: &Dataset) -> Json {
    let count = ctx.scale.queries();
    let mut gen = QueryGen::new(d, SEED_QUERIES);
    let queries: Vec<_> = (0..count)
        .map(|_| {
            let ball = gen.ball(0.1);
            let kws = gen.keywords(BUILD_K, 0.3).expect("vocabulary");
            (ball, kws)
        })
        .collect();
    let (index, build) = ctx.build_record(
        d.len(),
        || SrpKwIndex::try_build(d, BUILD_K).expect("valid workload"),
        SrpKwIndex::space_words,
    );
    let query = ctx.query_record(queries.len(), |i| {
        let (ball, kws) = &queries[i];
        index.query_with_stats(ball, kws).expect("valid query").1
    });
    let mut out = Json::obj();
    problem_header(&mut out, "city", d.len(), d.input_size(), BUILD_K);
    out.set("build", build);
    out.set("query", query);
    out
}

fn nn_problem(ctx: &Ctx, d: &Dataset, build_index: impl FnOnce() -> NnEngine) -> Json {
    let count = ctx.scale.queries();
    let mut gen = QueryGen::new(d, SEED_QUERIES);
    let queries: Vec<_> = (0..count)
        .map(|_| {
            let p = gen.integer_point();
            let kws = gen.keywords(BUILD_K, 0.3).expect("vocabulary");
            (p, kws)
        })
        .collect();
    let (index, build) = ctx.build_record(d.len(), build_index, NnEngine::space_words);
    let query = ctx.query_record(queries.len(), |i| {
        let (p, kws) = &queries[i];
        index.query(p, 8, kws)
    });
    let mut out = Json::obj();
    problem_header(&mut out, "city", d.len(), d.input_size(), BUILD_K);
    out.set("build", build);
    out.set("query", query);
    out
}

/// The two NN engines behind one dispatch, so [`nn_problem`] is shared.
enum NnEngine {
    Linf(LinfNnIndex),
    L2(L2NnIndex),
}

impl NnEngine {
    fn space_words(&self) -> usize {
        match self {
            NnEngine::Linf(i) => i.space_words(),
            NnEngine::L2(i) => i.space_words(),
        }
    }

    fn query(&self, p: &skq_geom::Point, t: usize, kws: &[Keyword]) -> QueryStats {
        let answer = match self {
            NnEngine::Linf(i) => i.query(p, t, kws),
            NnEngine::L2(i) => i.query(p, t, kws),
        };
        answer.expect("valid query").1
    }
}

/// The persistence-tier problem: queries answered by an
/// [`OrpKwSuite`] that either was just built (`mode: "built"`, the
/// checked-in baseline) or came off a `skq-store` snapshot
/// (`mode: "loaded"`, the CI store-smoke run). The snapshot format is
/// byte-stable, so `snapshot_bytes` and every query counter must be
/// identical between the two modes — `skq-bench diff --threshold 0`
/// against `BENCH_0.json` proves a loaded suite answers exactly like
/// the in-memory build. `load_micros` (wall clock) is recorded only in
/// loaded runs, keeping the baseline deterministic.
fn store_problem(ctx: &Ctx, d: &Dataset, snapshot: Option<&[u8]>) -> Json {
    let queries = rect_queries(d, ctx.scale.queries());
    let mut out = Json::obj();
    problem_header(&mut out, "city", d.len(), d.input_size(), SUITE_K_MAX);
    let suite = match snapshot {
        Some(bytes) => {
            let t = Instant::now();
            let suite = OrpKwSuite::try_load(bytes).expect("loading the suite snapshot");
            out.set("load_micros", Json::Num(t.elapsed().as_micros() as f64));
            out.set("mode", Json::Str("loaded".to_string()));
            suite
        }
        None => {
            let suite = OrpKwSuite::try_build(d, SUITE_K_MAX).expect("valid workload");
            out.set("mode", Json::Str("built".to_string()));
            suite
        }
    };
    // Re-encoding the loaded suite must reproduce the built suite's
    // size exactly (byte-stable format); a drift here fails the CI
    // zero-threshold diff.
    let bytes = suite.to_bytes().expect("suite snapshot encoding");
    out.set("snapshot_bytes", Json::Num(bytes.len() as f64));
    out.set("space_words", Json::Num(suite.space_words() as f64));
    let query = ctx.query_record(queries.len(), |i| {
        let (rect, kws) = &queries[i];
        let mut sink = CountSink::new();
        let mut stats = QueryStats::new();
        let _ = suite.query_sink(rect, kws, &mut sink, &mut stats);
        stats
    });
    out.set("query", query);
    out
}

/// Snapshot bytes of the default bench suite at `scale` (the
/// `skq-bench save-suite` payload): the pinned city scenario indexed
/// for `k ∈ 2..=3`, encoded with `skq_core::persist`.
pub fn suite_snapshot(scale: Scale) -> Vec<u8> {
    let d = scenarios::city(scale.n(), SEED_DATA);
    OrpKwSuite::try_build(&d, SUITE_K_MAX)
        .expect("valid workload")
        .to_bytes()
        .expect("suite snapshot encoding")
}

fn ksi_problem(ctx: &Ctx) -> Json {
    let n = ctx.scale.n();
    let inst = shuffled_planted(n, 8, BUILD_K, (n / 100).max(4), 6, SEED_DATA);
    let input_size: usize = inst.docs.iter().map(|doc| doc.keywords().len()).sum();
    let (index, build) = ctx.build_record(
        n,
        || KsiIndex::try_build(Arc::clone(&inst.docs), BUILD_K).expect("valid workload"),
        KsiIndex::space_words,
    );
    // One planted query repeated: k-SI query cost is a function of the
    // sets, so the sweep exercises the steady-state path.
    let query = ctx.query_record(ctx.scale.queries(), |_| {
        index
            .query_with_stats(&(), &inst.query)
            .expect("valid query")
            .1
    });
    let mut out = Json::obj();
    problem_header(&mut out, "shuffled_planted", n, input_size, BUILD_K);
    out.set("build", build);
    out.set("query", query);
    out
}

fn batch_problem(ctx: &Ctx, d: &Dataset, index: &OrpKwIndex) -> Json {
    use skq_core::batch::{run_batch_isolated, BatchQuery};
    use skq_core::QueryGuard;
    let batch: Vec<BatchQuery> = rect_queries(d, ctx.scale.queries())
        .into_iter()
        .map(|(rect, keywords)| BatchQuery { rect, keywords })
        .collect();
    let mut out = Json::obj();
    problem_header(&mut out, "city", d.len(), d.input_size(), BUILD_K);
    out.set("batch_size", Json::Num(batch.len() as f64));
    out.set("threads", Json::Num(2.0));
    let run = || {
        run_batch_isolated(index, &batch, 2, &QueryGuard::default())
            .into_results()
            .expect("no batch shard fails")
    };
    let (results, alloc) = ctx.alloc_delta(run);
    out.set(
        "results_total",
        Json::Num(results.iter().map(Vec::len).sum::<usize>() as f64),
    );
    out.set("alloc_bytes", Json::Num(alloc.bytes as f64));
    out.set("allocs", Json::Num(alloc.allocs as f64));
    out
}

/// Runs the full trajectory capture and returns the BENCH document.
///
/// `probe` reads cumulative allocation counters; see [`AllocProbe`].
pub fn run(scale: Scale, probe: AllocProbe) -> Json {
    run_with_snapshot(scale, probe, None)
}

/// Like [`run`], but when `snapshot` is given the `store` problem
/// loads its suite from those bytes (recording `load_micros`) instead
/// of building it — the fresh-process half of the CI store-smoke
/// check.
pub fn run_with_snapshot(scale: Scale, probe: AllocProbe, snapshot: Option<&[u8]>) -> Json {
    let ctx = Ctx { scale, probe };
    // Warm up lazily-initialized global state (metric series, the query
    // log, keyword tables) on a tiny instance of every problem so those
    // one-time allocations are not charged to the measured sections.
    {
        let warm_ctx = Ctx {
            scale: Scale::Smoke,
            probe: &AllocCounters::default,
        };
        let wd = scenarios::city(400, SEED_DATA);
        let _ = orp_problem(&warm_ctx, &wd);
        let _ = rr_problem(&warm_ctx, &wd);
        let _ = lc_problem(&warm_ctx, &wd);
        let _ = sp_problem(&warm_ctx, &wd);
        let _ = srp_problem(&warm_ctx, &wd);
        let _ = nn_problem(&warm_ctx, &wd, || {
            NnEngine::Linf(LinfNnIndex::try_build(&wd, BUILD_K).expect("valid workload"))
        });
        let _ = nn_problem(&warm_ctx, &wd, || {
            NnEngine::L2(L2NnIndex::try_build(&wd, BUILD_K).expect("valid workload"))
        });
        let _ = ksi_problem(&warm_ctx);
        let wi = OrpKwIndex::try_build(&wd, BUILD_K).expect("valid workload");
        let _ = batch_problem(&warm_ctx, &wd, &wi);
        let _ = store_problem(&warm_ctx, &wd, None);
    }

    let n = scale.n();
    let d = scenarios::city(n, SEED_DATA);

    let mut problems = Json::obj();
    problems.set("orp", orp_problem(&ctx, &d));
    problems.set("rr", rr_problem(&ctx, &d));
    problems.set("lc", lc_problem(&ctx, &d));
    problems.set("sp", sp_problem(&ctx, &d));
    problems.set("srp", srp_problem(&ctx, &d));
    problems.set(
        "nn_linf",
        nn_problem(&ctx, &d, || {
            NnEngine::Linf(LinfNnIndex::try_build(&d, BUILD_K).expect("valid workload"))
        }),
    );
    problems.set(
        "nn_l2",
        nn_problem(&ctx, &d, || {
            NnEngine::L2(L2NnIndex::try_build(&d, BUILD_K).expect("valid workload"))
        }),
    );
    problems.set("ksi", ksi_problem(&ctx));
    let orp_index = OrpKwIndex::try_build(&d, BUILD_K).expect("valid workload");
    problems.set("batch", batch_problem(&ctx, &d, &orp_index));
    problems.set("store", store_problem(&ctx, &d, snapshot));

    let mut doc = Json::obj();
    doc.set("format", Json::Str(FORMAT.to_string()));
    doc.set("schema_version", Json::Num(SCHEMA_VERSION as f64));
    doc.set("scale", Json::Str(scale.label().to_string()));
    doc.set("deterministic", Json::Bool(true));
    doc.set("seed_data", Json::Num(SEED_DATA as f64));
    doc.set("seed_queries", Json::Num(SEED_QUERIES as f64));
    doc.set("problems", problems);
    doc
}

/// Checks that `doc` is a structurally valid BENCH document.
///
/// # Errors
///
/// A one-line description of the first problem found.
pub fn validate(doc: &Json) -> Result<(), String> {
    if doc.get("format").and_then(Json::as_str) != Some(FORMAT) {
        return Err(format!("format marker is not {FORMAT:?}"));
    }
    let version = doc
        .get("schema_version")
        .and_then(Json::as_f64)
        .ok_or("missing schema_version")?;
    if version != SCHEMA_VERSION as f64 {
        return Err(format!(
            "schema_version {version} (this build reads {SCHEMA_VERSION})"
        ));
    }
    let problems = doc
        .get("problems")
        .and_then(Json::as_obj)
        .ok_or("missing problems object")?;
    if problems.is_empty() {
        return Err("problems object is empty".to_string());
    }
    for (name, p) in problems {
        for key in ["scenario", "n", "input_size", "k"] {
            if p.get(key).is_none() {
                return Err(format!("problem {name:?} lacks {key:?}"));
            }
        }
        if name == "batch" {
            if p.get("results_total").and_then(Json::as_f64).is_none() {
                return Err("problem \"batch\" lacks results_total".to_string());
            }
            continue;
        }
        if name == "store" {
            // The store problem has no build record — its suite either
            // came off a snapshot or the build is covered by `orp`.
            if p.get("snapshot_bytes").and_then(Json::as_f64).is_none() {
                return Err("problem \"store\" lacks snapshot_bytes".to_string());
            }
        } else {
            let build = p
                .get("build")
                .ok_or_else(|| format!("problem {name:?} lacks build"))?;
            for key in ["space_words", "bytes_per_point", "alloc_bytes", "allocs"] {
                if build.get(key).and_then(Json::as_f64).is_none() {
                    return Err(format!("problem {name:?} build lacks {key:?}"));
                }
            }
        }
        let query = p
            .get("query")
            .ok_or_else(|| format!("problem {name:?} lacks query"))?;
        for key in [
            "queries",
            "nodes_visited",
            "objects_examined",
            "postings_scanned",
            "reported",
        ] {
            if query.get(key).and_then(Json::as_f64).is_none() {
                return Err(format!("problem {name:?} query lacks {key:?}"));
            }
        }
    }
    Ok(())
}

/// One compared metric in a [`DiffReport`].
#[derive(Clone, Debug)]
pub struct DiffLine {
    /// Problem name (`"orp"`, `"batch"`, …).
    pub problem: String,
    /// Dotted metric path within the problem (`"build.space_words"`).
    pub metric: String,
    /// Baseline value.
    pub a: f64,
    /// Candidate value.
    pub b: f64,
    /// Relative change in percent (`(b - a) / a * 100`).
    pub change_pct: f64,
    /// Whether the change crossed the threshold, and which way.
    pub verdict: Verdict,
}

/// Classification of one metric change (all metrics lower-is-better).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the threshold either way.
    Ok,
    /// Decreased past the threshold.
    Improved,
    /// Increased past the threshold.
    Regressed,
}

/// Result of comparing two BENCH documents with [`diff`].
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Every compared metric, in document order.
    pub lines: Vec<DiffLine>,
    /// Problems skipped because their workload context (scenario, `n`,
    /// `k`, query count) differs between the two documents.
    pub incomparable: Vec<String>,
    /// Baseline problems (`"batch"`) and metrics
    /// (`"orp.query.nodes_visited"`) missing from the candidate. A
    /// vanished row or counter fails the gate like a regression: it can
    /// no longer be compared at any threshold.
    pub removed: Vec<String>,
    /// Number of [`Verdict::Regressed`] lines.
    pub regressions: usize,
    /// Number of [`Verdict::Improved`] lines.
    pub improvements: usize,
}

impl DiffReport {
    /// Whether the candidate passes the gate: nothing regressed past
    /// the threshold and nothing the baseline measured was removed.
    pub fn passes(&self) -> bool {
        self.regressions == 0 && self.removed.is_empty()
    }
}

/// Keys describing the workload rather than its cost: compared for
/// equality (a mismatch makes the problem incomparable), never rated.
const CONTEXT_KEYS: &[&str] = &[
    "scenario",
    "n",
    "input_size",
    "k",
    "queries",
    "reps",
    "count",
    "batch_size",
    "threads",
];

fn flatten(prefix: &str, v: &Json, out: &mut Vec<(String, f64)>) {
    match v {
        Json::Num(n) => out.push((prefix.to_string(), *n)),
        Json::Obj(entries) => {
            for (k, v) in entries {
                if CONTEXT_KEYS.contains(&k.as_str()) {
                    continue;
                }
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten(&path, v, out);
            }
        }
        _ => {}
    }
}

fn context_matches(a: &Json, b: &Json) -> bool {
    CONTEXT_KEYS.iter().all(|&key| {
        let (va, vb) = (a.get(key), b.get(key));
        match (va, vb) {
            (None, None) => true,
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    })
}

/// Compares candidate `b` against baseline `a`: every numeric metric
/// of the baseline, rated against `threshold_pct`. A baseline problem or
/// metric the candidate lacks is [`removed`](DiffReport::removed); a
/// problem whose workload context differs is
/// [`incomparable`](DiffReport::incomparable).
///
/// # Errors
///
/// When either document fails [`validate`].
pub fn diff(a: &Json, b: &Json, threshold_pct: f64) -> Result<DiffReport, String> {
    validate(a).map_err(|e| format!("baseline: {e}"))?;
    validate(b).map_err(|e| format!("candidate: {e}"))?;
    let pa = a.get("problems").and_then(Json::as_obj).unwrap_or(&[]);
    let mut report = DiffReport::default();
    for (name, prob_a) in pa {
        let Some(prob_b) = b.get("problems").and_then(|p| p.get(name)) else {
            report.removed.push(name.clone());
            continue;
        };
        if !context_matches(prob_a, prob_b) {
            report.incomparable.push(name.clone());
            continue;
        }
        let mut metrics_a = Vec::new();
        flatten("", prob_a, &mut metrics_a);
        let mut metrics_b = Vec::new();
        flatten("", prob_b, &mut metrics_b);
        for (path, va) in metrics_a {
            let Some((_, vb)) = metrics_b.iter().find(|(p, _)| *p == path) else {
                report.removed.push(format!("{name}.{path}"));
                continue;
            };
            let change_pct = if va == 0.0 {
                if *vb == 0.0 {
                    0.0
                } else {
                    100.0
                }
            } else {
                (vb - va) / va * 100.0
            };
            let verdict = if change_pct > threshold_pct {
                report.regressions += 1;
                Verdict::Regressed
            } else if change_pct < -threshold_pct {
                report.improvements += 1;
                Verdict::Improved
            } else {
                Verdict::Ok
            };
            report.lines.push(DiffLine {
                problem: name.clone(),
                metric: path,
                a: va,
                b: *vb,
                change_pct,
                verdict,
            });
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_doc() -> Json {
        run(Scale::Smoke, &AllocCounters::default)
    }

    #[test]
    fn diff_of_identical_docs_reports_zero_regressions() {
        let doc = smoke_doc();
        let report = diff(&doc, &doc, 10.0).unwrap();
        assert_eq!(report.regressions, 0);
        assert_eq!(report.improvements, 0);
        assert!(report.incomparable.is_empty());
        assert!(!report.lines.is_empty());
        assert!(report.lines.iter().all(|l| l.change_pct == 0.0));
    }

    #[test]
    fn smoke_doc_validates_and_roundtrips() {
        let doc = smoke_doc();
        validate(&doc).unwrap();
        let text = doc.render_pretty(2);
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
        validate(&back).unwrap();
    }

    #[test]
    fn diff_flags_a_regression_and_context_mismatch() {
        let doc = smoke_doc();
        let mut worse = doc.clone();
        // Inflate one counter well past the threshold.
        {
            let q = worse
                .get_mut("problems")
                .and_then(|p| p.get_mut("orp"))
                .and_then(|p| p.get_mut("query"))
                .unwrap();
            let nodes = q.get("nodes_visited").unwrap().as_f64().unwrap();
            q.set("nodes_visited", Json::Num(nodes * 10.0));
        }
        // Change another problem's workload context: incomparable.
        worse
            .get_mut("problems")
            .and_then(|p| p.get_mut("rr"))
            .unwrap()
            .set("n", Json::Num(999_999.0));
        let report = diff(&doc, &worse, 10.0).unwrap();
        assert!(report.regressions >= 1, "inflated counter must be flagged");
        let line = report
            .lines
            .iter()
            .find(|l| l.problem == "orp" && l.metric == "query.nodes_visited")
            .unwrap();
        assert_eq!(line.verdict, Verdict::Regressed);
        assert!(line.change_pct > 100.0);
        assert_eq!(report.incomparable, vec!["rr".to_string()]);
        assert!(report.lines.iter().all(|l| l.problem != "rr"));
        assert!(report.removed.is_empty());
        assert!(!report.passes());
    }

    #[test]
    fn diff_fails_when_a_problem_is_dropped() {
        let doc = smoke_doc();
        let mut fewer = doc.clone();
        if let Some(Json::Obj(problems)) = fewer.get_mut("problems") {
            problems.retain(|(name, _)| name != "ksi");
        }
        let report = diff(&doc, &fewer, 0.0).unwrap();
        assert_eq!(report.regressions, 0);
        assert!(report.incomparable.is_empty());
        assert_eq!(report.removed, vec!["ksi".to_string()]);
        assert!(!report.passes(), "a vanished row must fail the gate");
        // The reverse direction only adds a row: nothing is removed.
        assert!(diff(&fewer, &doc, 0.0).unwrap().passes());
    }

    #[test]
    fn diff_fails_when_a_metric_is_dropped() {
        let doc = smoke_doc();
        let mut fewer = doc.clone();
        if let Some(Json::Obj(query)) = fewer
            .get_mut("problems")
            .and_then(|p| p.get_mut("orp"))
            .and_then(|p| p.get_mut("query"))
        {
            query.retain(|(key, _)| key != "alloc_bytes");
        }
        let report = diff(&doc, &fewer, 0.0).unwrap();
        assert_eq!(report.regressions, 0);
        assert_eq!(report.removed, vec!["orp.query.alloc_bytes".to_string()]);
        assert!(!report.passes(), "a vanished counter must fail the gate");
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(validate(&Json::obj()).is_err());
        let mut doc = Json::obj();
        doc.set("format", Json::Str(FORMAT.to_string()));
        doc.set("schema_version", Json::Num(99.0));
        assert!(validate(&doc).is_err());
    }
}

//! `skq-perfbench` — the repository benchmark.
//!
//! ```text
//! skq-perfbench --workload serve-light|scan-heavy|live-update --seed N
//!               --seconds S --trace 0|1 [--data-dir DIR]
//! ```
//!
//! Runs one workload in-process against `skq-serve`, `skq-core` and
//! `skq-store`, checks the answers, prints every metric as a
//! `<workload> <name> = <value> <unit> (n=<samples>)` line and ends
//! with one JSON result line: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics (timed by the benchmark around public calls)
//! with `--trace 1`. See `README.md` for the workloads and metrics.
//! Exit code 1 on a wrong answer, a failed operation, a percentile
//! without ten samples beyond it, or drift of a deterministic count.

mod layers;
mod load;
mod pin;
mod stats;
mod writes;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use skq_core::suite::OrpKwSuite;
use skq_core::Dataset;
use skq_serve::Server;
use skq_workload::scenarios;

use load::{closed_loop, expected_sample, open_loop, Counts, Expected, Query, ReadRun};
use stats::{secs_us, Report, Samples};
use writes::{WritePlan, WriteRun};

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [&str; 4] = [
    "query_p50_us",
    "read_capacity_qps",
    "setup_s",
    "peak_rss_mb",
];

/// Per-layer metrics, printed with `--trace 1`.
const PER_LAYER: [&str; 48] = [
    "serve.submit_p50_us",
    "serve.submit_p99_us",
    "serve.handoff_p50_us",
    "serve.handoff_p99_us",
    "serve.shed_frac",
    "serve.publish_swap_us",
    "recover.suite_ms_p50",
    "recover.suite_ms_max",
    "recover.publish_to_ms_p50",
    "recover.open_ms",
    "core.postings_filter_p50_us",
    "core.postings_filter_p99_us",
    "core.framework_p50_us",
    "core.framework_p99_us",
    "core.post_filter_p50_us",
    "core.post_filter_p99_us",
    "core.count_only_p50_us",
    "core.nodes_per_query",
    "core.list_scans_per_query",
    "core.pivot_scans_per_query",
    "core.results_per_query",
    "core.useful_frac",
    "core.build_s",
    "core.index_bytes_per_object",
    "dynamic.insert_p50_us",
    "dynamic.insert_max_ms",
    "persist.encode_ms",
    "invidx.postings_per_query",
    "invidx.intersect_p50_us",
    "invidx.compressed_intersect_p50_us",
    "store.wal_append_p50_us",
    "store.wal_append_p99_us",
    "store.wal_sync_p50_us",
    "store.wal_sync_p99_us",
    "store.wal_bytes_per_op",
    "store.checkpoint_ms_p50",
    "store.checkpoint_ms_max",
    "store.checkpoints",
    "obs.observe_ns",
    "obs.counter_lookup_inc_ns",
    "bench.gen_lag_p99_us",
    "bench.trace_overhead_frac",
    "bench.read_unaccounted_frac",
    "bench.write_unaccounted_frac",
    "write_p50_us",
    "write_p99_us",
    "visible_p99_ms",
    "disk_bytes_per_user_byte",
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Distinct queries per workload, cycled by the load generator.
const POOL: usize = 4096;
/// Pool queries whose served answers are compared to brute force.
const CHECKED: usize = 64;
/// Share of each round spent in the open loop; the closed loop takes
/// the rest.
const OPEN_SHARE: f64 = 0.7;
/// Open/closed phase pairs per run.
const ROUNDS: usize = 15;
/// Requests the closed loop keeps outstanding per server worker: deep
/// enough that the workers never wait for the client to refill.
const DEPTH_PER_WORKER: usize = 16;

/// A read-only workload: a static suite behind a `Server`.
struct ReadWorkload {
    scenario: fn(usize, u64) -> Dataset,
    n: usize,
    k_max: usize,
    pool: fn(&Dataset, u64) -> Vec<Query>,
    rate: f64,
}

const SERVE_LIGHT: ReadWorkload = ReadWorkload {
    scenario: scenarios::city,
    n: 200_000,
    k_max: 3,
    pool: |ds, seed| load::mid_band_pool(ds, seed, POOL, 4),
    rate: 10_000.0,
};

const SCAN_HEAVY: ReadWorkload = ReadWorkload {
    scenario: scenarios::web_docs,
    n: 200_000,
    k_max: 3,
    pool: |ds, seed| load::top_band_pool(ds, seed, POOL),
    rate: 600.0,
};

/// `live-update`: initial city objects, durable write rate, publish
/// cadence, and the read rate beside them.
const LIVE_N0: usize = 20_000;
/// The city the initial and inserted objects are drawn from.
const LIVE_CITY: usize = 200_000;
const LIVE_WRITE_RATE: f64 = 200.0;
const LIVE_CADENCE: Duration = Duration::from_secs(2);
const LIVE_READ_RATE: f64 = 8_000.0;
/// Traced read-only runs also probe the write path with this many
/// objects and ops of their own dataset.
const PROBE_N0: usize = 2_000;
const PROBE_OPS: usize = 1_200;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    data_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        data_dir: PathBuf::from(".bench_data"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--data-dir" => args.data_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// What a workload run produced beyond its metrics.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    wrong: u64,
    /// Deterministic counts, compared across repeats of one seed.
    deterministic: Vec<(String, f64)>,
    notes: Vec<String>,
}

impl Outcome {
    fn reads(&mut self, run: &ReadRun) {
        self.attempted += run.attempted;
        self.failed += run.shed + run.errors + run.wrong;
        self.wrong += run.wrong;
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("skq-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    pin::init();
    let mut report = Report::default();
    let mut out = Outcome::default();
    let result = match args.workload.as_str() {
        "serve-light" => run_read(&SERVE_LIGHT, &args, &mut report, &mut out),
        "scan-heavy" => run_read(&SCAN_HEAVY, &args, &mut report, &mut out),
        "live-update" => run_live(&args, &mut report, &mut out),
        other => Err(format!("unknown workload {other:?}")),
    };
    if let Err(e) = result {
        eprintln!("skq-perfbench: {}: {e}", args.workload);
        return ExitCode::from(1);
    }
    report.put("peak_rss_mb", peak_rss_mb(), "MB", 1);
    report.put(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
        out.attempted as usize,
    );
    check_determinism(&args, &mut out);
    report.print(&args.workload);
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let missing: Vec<&str> = names
        .iter()
        .copied()
        .filter(|n| report.get(n).is_none_or(|v| !v.is_finite()))
        .collect();
    for u in &report.unsupported {
        eprintln!(
            "skq-perfbench: {}: percentile without ten samples beyond it: {u}",
            args.workload
        );
    }
    if !missing.is_empty() {
        out.notes
            .push(format!("metrics not measured: {}", missing.join(", ")));
    }
    for n in &out.notes {
        eprintln!("skq-perfbench: {}: {n}", args.workload);
    }
    let correct = out.wrong == 0 && out.notes.is_empty();
    println!(
        "{}",
        report.result_json(correct, out.attempted.max(1), out.failed, names)
    );
    if correct && out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Reports the open-loop latency and closed-loop capacity metrics.
fn report_reads(report: &mut Report, open: &ReadRun, closed: &ReadRun) {
    eprintln!(
        "rates min {:?} med {:?} max {}",
        closed.rates.quantile(0.0),
        closed.rates.median(),
        closed.rates.max()
    );
    report.pct("query_p50_us", &open.latency, 0.5, "us");
    report.pct("query_p90_us", &open.latency, 0.9, "us");
    report.pct("query_p99_us", &open.latency, 0.99, "us");
    // The median phase, so that a stall of the host in one phase does
    // not set the figure.
    report.put(
        "read_capacity_qps",
        closed.rates.median().unwrap_or(f64::NAN),
        "1/s",
        closed.answered() as usize,
    );
    report.pct("gen_lag_p99_us", &open.gen_lag, 0.99, "us");
}

/// The per-layer read-path split of a traced run: admission, handoff,
/// generator lag and what the timed calls leave unaccounted.
fn report_read_layers(report: &mut Report, open: &ReadRun, closed: &ReadRun, direct_us: &[f64]) {
    let mut submit = Samples::default();
    let mut handoff = Samples::default();
    let (mut accounted, mut total) = (0.0, 0.0);
    for &(idx, lag, sub, from_send) in &open.traced {
        submit.push(sub);
        handoff.push(from_send - direct_us[idx]);
        accounted += lag + sub + direct_us[idx];
        total += lag + from_send;
    }
    report.pct("serve.submit_p50_us", &submit, 0.5, "us");
    report.pct("serve.submit_p99_us", &submit, 0.99, "us");
    report.pct("serve.handoff_p50_us", &handoff, 0.5, "us");
    report.pct("serve.handoff_p99_us", &handoff, 0.99, "us");
    let submits = open.attempted + closed.attempted;
    report.put(
        "serve.shed_frac",
        (open.shed + closed.shed) as f64 / submits.max(1) as f64,
        "ratio",
        submits as usize,
    );
    report.pct("bench.gen_lag_p99_us", &open.gen_lag, 0.99, "us");
    if let (Some(t), Some(u)) = (open.latency_traced.median(), open.latency_untraced.median()) {
        report.put(
            "bench.trace_overhead_frac",
            (t - u) / u,
            "ratio",
            open.latency_traced.len(),
        );
    }
    report.put(
        "bench.read_unaccounted_frac",
        1.0 - accounted / total,
        "ratio",
        open.traced.len(),
    );
}

/// Deterministic traversal counts of the served answers, and (traced)
/// that they equal those of direct calls on the same snapshot.
fn served_counts(out: &mut Outcome, open: &ReadRun, direct: Option<&[Counts]>) {
    let total = Counts::sum(open.served.values());
    let q = total.queries.max(1) as f64;
    out.deterministic.extend([
        ("served.queries".to_string(), total.queries as f64),
        ("served.nodes_per_query".to_string(), total.nodes as f64 / q),
        (
            "served.list_scans_per_query".to_string(),
            total.list_scans as f64 / q,
        ),
        (
            "served.pivot_scans_per_query".to_string(),
            total.pivot_scans as f64 / q,
        ),
        (
            "served.results_per_query".to_string(),
            total.results as f64 / q,
        ),
    ]);
    if let Some(direct) = direct {
        let differ = open
            .served
            .iter()
            .filter(|(&i, c)| **c != direct[i])
            .count();
        if differ > 0 {
            out.notes.push(format!(
                "{differ} served answers' traversal counts differ from direct calls on the same snapshot"
            ));
        }
    }
}

fn run_read(
    w: &ReadWorkload,
    args: &Args,
    report: &mut Report,
    out: &mut Outcome,
) -> Result<(), String> {
    let ds = (w.scenario)(w.n, args.seed);
    let pool = (w.pool)(&ds, args.seed);
    let expected = expected_sample(&ds, &pool, args.seed, CHECKED);

    let mut setup = Samples::default();
    let mut build = Samples::default();
    let mut server = None;
    for _ in 0..SETUP_REPS {
        drop(server.take());
        let t = Instant::now();
        let suite = OrpKwSuite::try_build(&ds, w.k_max).map_err(|e| e.to_string())?;
        build.push(t.elapsed().as_secs_f64());
        server = Some(Server::start(suite, writes::server_config()));
        setup.push(t.elapsed().as_secs_f64());
    }
    let server = server.expect("at least one set-up");
    report.put(
        "setup_s",
        setup.median().unwrap_or(f64::NAN),
        "s",
        setup.len(),
    );

    // Let caches fill before timing.
    closed_loop(&server, &pool, 0, 8, Duration::from_millis(300), None);
    let (open, closed) = read_rounds(&server, &pool, w.rate, args, Some(&expected));
    out.reads(&open);
    out.reads(&closed);
    report_reads(report, &open, &closed);

    if !args.trace {
        served_counts(out, &open, None);
        return Ok(());
    }
    let suite = server.snapshot();
    let core = layers::core_pass(&suite.value, &pool, 2, report);
    out.failed += core.failed;
    served_counts(out, &open, Some(&core.counts));
    report_read_layers(report, &open, &closed, &core.direct_us);
    report.put(
        "core.build_s",
        build.median().unwrap_or(f64::NAN),
        "s",
        build.len(),
    );
    report.put(
        "core.index_bytes_per_object",
        (suite.value.space_words() * 8) as f64 / ds.len() as f64,
        "bytes",
        ds.len(),
    );
    drop(suite);
    out.wrong += layers::invidx_pass(ds.docs(), &pool, report);
    layers::obs_probe(report);
    let swap = layers::publish_probe(&server, 5);
    report.put(
        "serve.publish_swap_us",
        swap.median().unwrap_or(f64::NAN),
        "us",
        swap.len(),
    );
    server.shutdown();
    drop(server);
    write_probe(&ds, args, report, out)
}

/// The read load of a run: open-loop phases at `rate` alternating
/// with closed-loop phases, so that both sample the whole run rather
/// than one stretch of it.
fn read_rounds(
    server: &Server,
    pool: &[Query],
    rate: f64,
    args: &Args,
    expected: Option<&Expected>,
) -> (ReadRun, ReadRun) {
    let round = args.seconds / ROUNDS as f64;
    let open_dur = Duration::from_secs_f64(round * OPEN_SHARE);
    let closed_dur = Duration::from_secs_f64(round * (1.0 - OPEN_SHARE));
    let depth = DEPTH_PER_WORKER * server.worker_count();
    let mut open = ReadRun::default();
    let mut closed = ReadRun::default();
    for _ in 0..ROUNDS {
        let offset = open.attempted as usize;
        open.absorb(open_loop(
            server, pool, offset, rate, open_dur, args.trace, expected,
        ));
        closed.absorb(closed_loop(
            server, pool, offset, depth, closed_dur, expected,
        ));
    }
    (open, closed)
}

fn run_dir(args: &Args, tag: &str) -> PathBuf {
    args.data_dir
        .join(format!("{}-{tag}-{}", args.workload, std::process::id()))
}

/// Per-layer write-path figures for a read-only workload: a small
/// supervisor fed the workload's own objects, with no reads beside it.
fn write_probe(
    ds: &Dataset,
    args: &Args,
    report: &mut Report,
    out: &mut Outcome,
) -> Result<(), String> {
    let dir = run_dir(args, "probe");
    let result = (|| {
        let mut s = writes::ingest(&dir, ds, PROBE_N0).map_err(|e| e.to_string())?;
        let plan = WritePlan {
            rate: 1_000.0,
            ops: PROBE_OPS,
            cadence: Duration::from_millis(300),
            seed: args.seed,
        };
        let ckpts = writes::checkpoints_cut();
        let run = writes::drive(
            &mut s.sup,
            &s.server,
            ds,
            PROBE_N0,
            &mut s.live,
            &plan,
            true,
        );
        write_layers(ds, args, report, out, s, run, PROBE_N0, ckpts, &dir)
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_live(args: &Args, report: &mut Report, out: &mut Outcome) -> Result<(), String> {
    let ops = (LIVE_WRITE_RATE * args.seconds) as usize;
    // A prefix of a full-size city: objects are drawn independently,
    // so the live set samples all of its clusters.
    let city = scenarios::city(LIVE_CITY, args.seed);
    if LIVE_N0 + ops > city.len() {
        return Err(format!(
            "--seconds {} needs more than {LIVE_CITY} objects",
            args.seconds
        ));
    }
    let ds = city
        .subset(&(0..(LIVE_N0 + ops) as u32).collect::<Vec<_>>())
        .0;
    drop(city);
    let pool = load::mid_band_pool(&ds, args.seed, POOL, 3);
    let dir = run_dir(args, "data");
    let result = (|| {
        let mut setup = Samples::default();
        let mut last = None;
        for _ in 0..SETUP_REPS {
            drop(last.take());
            let s = writes::ingest(&dir, &ds, LIVE_N0).map_err(|e| e.to_string())?;
            setup.push(s.elapsed.as_secs_f64());
            last = Some(s);
        }
        report.put(
            "setup_s",
            setup.median().unwrap_or(f64::NAN),
            "s",
            setup.len(),
        );
        let mut s = last.expect("at least one set-up");
        closed_loop(&s.server, &pool, 0, 8, Duration::from_millis(300), None);

        let plan = WritePlan {
            rate: LIVE_WRITE_RATE,
            ops,
            cadence: LIVE_CADENCE,
            seed: args.seed,
        };
        let ckpts = writes::checkpoints_cut();
        // Both kinds of read phase run beside the writer, in turn, so
        // that each samples the whole run (a closed loop bunched at the
        // end gave a capacity that followed the host's load in those
        // seconds). Their answers come from changing generations and
        // are checked on the final one below.
        let (open, closed, run) = std::thread::scope(|scope| {
            let (sup, server, live) = (&mut s.sup, &s.server, &mut s.live);
            let writer =
                scope.spawn(|| writes::drive(sup, server, &ds, LIVE_N0, live, &plan, args.trace));
            let (open, closed) = read_rounds(server, &pool, LIVE_READ_RATE, args, None);
            (open, closed, writer.join().expect("writer thread"))
        });
        out.reads(&open);
        out.reads(&closed);
        let final_ds = check_live(&ds, &s, &run, &pool, out);
        report_reads(report, &open, &closed);
        report.pct("write_p50_us", &run.latency(), 0.5, "us");
        report.pct("write_p99_us", &run.latency(), 0.99, "us");
        report.pct("visible_p99_ms", &run.visible, 0.99, "ms");
        let disk = writes::dir_bytes(&dir) as f64 / s.live.user_bytes(&ds) as f64;
        report.put(
            "disk_bytes_per_user_byte",
            disk,
            "ratio",
            s.live.objects.len(),
        );
        out.deterministic
            .push(("disk_bytes_per_user_byte".into(), disk));
        if !args.trace {
            out.attempted += run.attempted;
            out.failed += run.failed;
            return Ok(());
        }
        let suite = s.server.snapshot();
        let core = layers::core_pass(&suite.value, &pool, 2, report);
        out.failed += core.failed;
        report_read_layers(report, &open, &closed, &core.direct_us);
        let t = Instant::now();
        let rebuilt = OrpKwSuite::try_build(&final_ds, 2).map_err(|e| e.to_string())?;
        report.put("core.build_s", t.elapsed().as_secs_f64(), "s", 1);
        report.put(
            "core.index_bytes_per_object",
            (rebuilt.space_words() * 8) as f64 / final_ds.len() as f64,
            "bytes",
            final_ds.len(),
        );
        drop((rebuilt, suite));
        out.wrong += layers::invidx_pass(final_ds.docs(), &pool, report);
        layers::obs_probe(report);
        write_layers(&ds, args, report, out, s, run, LIVE_N0, ckpts, &dir)
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Final check of `live-update`: the last published generation holds
/// exactly the acknowledged live set and answers a seeded query
/// sample as brute force over that set does. Returns the live set as
/// a dataset in suite order.
fn check_live(
    ds: &Dataset,
    s: &writes::Setup,
    run: &WriteRun,
    pool: &[Query],
    out: &mut Outcome,
) -> Dataset {
    let mut want: Vec<u64> = s.live.objects.keys().copied().collect();
    want.sort_unstable();
    let mut got = run.final_ids.clone();
    got.sort_unstable();
    if want != got {
        out.wrong += 1;
        out.notes.push(format!(
            "published generation holds {} objects, {} acknowledged live",
            got.len(),
            want.len()
        ));
    }
    let parts = run
        .final_ids
        .iter()
        .map(|id| {
            let i = s.live.objects.get(id).copied().unwrap_or(0);
            (*ds.point(i), ds.doc(i).keywords().to_vec())
        })
        .collect();
    let final_ds = Dataset::from_parts(parts);
    let expected = expected_sample(&final_ds, pool, 0x11FE, CHECKED);
    for (&i, ids) in &expected {
        out.attempted += 1;
        match s.server.query(pool[i].request()) {
            Ok(r) if &r.ids == ids => {}
            _ => {
                out.wrong += 1;
                out.failed += 1;
            }
        }
    }
    final_ds
}

/// Per-layer write-path metrics: the supervisor's publish and recovery
/// calls, and the mirror replay of the acknowledged op stream.
#[allow(clippy::too_many_arguments)]
fn write_layers(
    ds: &Dataset,
    args: &Args,
    report: &mut Report,
    out: &mut Outcome,
    s: writes::Setup,
    mut run: WriteRun,
    n0: usize,
    ckpts_before: u64,
    dir: &Path,
) -> Result<(), String> {
    let real_ckpts = writes::checkpoints_cut() - ckpts_before;
    for _ in 0..3 {
        let t = Instant::now();
        s.sup.suite().map_err(|e| e.to_string())?;
        run.suite_ms.push(secs_us(t.elapsed()) / 1e3);
    }
    report.median_max(
        "recover.suite_ms_p50",
        "recover.suite_ms_max",
        &run.suite_ms,
        "ms",
    );
    report.put(
        "recover.publish_to_ms_p50",
        run.publish_to_ms.median().unwrap_or(f64::NAN),
        "ms",
        run.publish_to_ms.len(),
    );
    if args.workload == "live-update" {
        report.put(
            "serve.publish_swap_us",
            run.swap_us.median().unwrap_or(f64::NAN),
            "us",
            run.swap_us.len(),
        );
    } else {
        report.pct("write_p50_us", &run.latency(), 0.5, "us");
        report.pct("write_p99_us", &run.latency(), 0.99, "us");
        report.pct("visible_p99_ms", &run.visible, 0.99, "ms");
        let disk = writes::dir_bytes(dir) as f64 / s.live.user_bytes(ds) as f64;
        report.put(
            "disk_bytes_per_user_byte",
            disk,
            "ratio",
            s.live.objects.len(),
        );
    }
    out.attempted += run.attempted;
    out.failed += run.failed;
    let live = s.live.objects.len();
    s.server.shutdown();
    drop(s.sup);
    let t = Instant::now();
    let reopened = skq_serve::RecoverySupervisor::open(dir, 2, 2, Default::default())
        .map_err(|e| e.to_string())?;
    report.put("recover.open_ms", secs_us(t.elapsed()) / 1e3, "ms", 1);
    if reopened.durable().index().len() != live {
        out.wrong += 1;
        out.notes
            .push("recovery does not restore the acknowledged live set".into());
    }
    drop(reopened);

    let (per_op, mirror_ckpts) = writes::mirror(&run_dir(args, "mirror"), ds, n0, &run.ops, report)
        .map_err(|e| e.to_string())?;
    if mirror_ckpts != real_ckpts {
        out.notes.push(format!(
            "mirror cut {mirror_ckpts} checkpoints, the durable index {real_ckpts}"
        ));
    }
    let (mut accounted, mut total) = (0.0, 0.0);
    for (&(lag, lat), layer) in run.per_op.iter().zip(&per_op) {
        accounted += lag + layer;
        total += lat;
    }
    report.put(
        "bench.write_unaccounted_frac",
        1.0 - accounted / total,
        "ratio",
        per_op.len(),
    );
    for name in [
        "store.wal_bytes_per_op",
        "store.checkpoints",
        "core.nodes_per_query",
        "core.list_scans_per_query",
        "core.pivot_scans_per_query",
        "core.results_per_query",
        "core.useful_frac",
        "invidx.postings_per_query",
    ] {
        if let Some(v) = report.get(name) {
            out.deterministic.push((name.to_string(), v));
        }
    }
    Ok(())
}

/// FNV-1a of this executable, so that records of one build of the
/// benchmark and program are never compared with another's.
fn executable_digest() -> u64 {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Deterministic counts must repeat exactly for one seed: the first
/// run of a (workload, seed, seconds, trace, build) records them in
/// the data directory and every later run compares.
fn check_determinism(args: &Args, out: &mut Outcome) {
    if out.deterministic.is_empty() {
        return;
    }
    let text: String = out
        .deterministic
        .iter()
        .map(|(k, v)| format!("{k} {v}\n"))
        .collect();
    let dir = args.data_dir.join("determinism");
    let path = dir.join(format!(
        "{}-{}-{}-{}-{:016x}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        executable_digest()
    ));
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev != text => {
            for (a, b) in prev.lines().zip(text.lines()) {
                if a != b {
                    out.notes
                        .push(format!("deterministic count drifted: was {a}, now {b}"));
                }
            }
        }
        Ok(_) => {}
        Err(_) => {
            let _ = std::fs::create_dir_all(&dir);
            let _ = std::fs::write(&path, text);
        }
    }
}

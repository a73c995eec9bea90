//! `skq-load` — an open-loop load generator for the serving layer.
//!
//! Replays an `skq-workload` scenario against an in-process
//! [`skq_serve::Server`] at a target QPS, optionally rotating snapshots
//! concurrently. The generator submits on its schedule and never waits
//! for a reply (open loop); a second thread collects the replies in send order and
//! times each request from its due instant (its slot in the `--qps`
//! schedule, or the moment before its submit with `--qps 0`), so a late
//! send counts against the request. The reported p50/p90/p99 are
//! nearest-rank percentiles of those raw samples; the `skq-obs`
//! histogram the request path records into (timed from `submit`) is
//! printed beside them as log₂ bucket edges.
//!
//! The generator sleeps until each due instant, so a send can run late
//! by the sleep's timer slack; that send lag (due → submit) is reported
//! beside the latency, so the generator's delay can be told from the
//! server's.
//!
//! ```text
//! skq-load [--scenario city|web|sensors] [--n OBJECTS] [--seed S]
//!          [--requests R] [--qps Q] [--threads W] [--k K]
//!          [--deadline-ms MS] [--rotate-ms MS] [--chaos]
//!          [--json PATH] [--trace PATH]
//! ```
//!
//! * `--qps 0` (the default) submits every request at once; the queue
//!   holds them all, so each latency measures the request's position
//!   in the queue, not its service time.
//! * `--deadline-ms MS` gives every request a deadline of `MS`
//!   milliseconds from submission (0, the default, sets none).
//! * `--rotate-ms MS` runs a publisher thread rebuilding and
//!   publishing the suite every `MS` milliseconds — the rotation path
//!   under live traffic.
//! * `--chaos` (needs `--features failpoints`) arms the
//!   `serve::request` fail point for 1 in 10 requests and verifies the
//!   injected failures come back as typed errors, nothing panics, and
//!   everything else succeeds.
//! * `--trace PATH` writes a chrome://tracing file of the run.
//!
//! Exit codes: 0 success, 2 usage error, 4 dropped/failed requests
//! (beyond what `--chaos` deliberately injected).

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use skq_bench::json::Json;
use skq_core::suite::OrpKwSuite;
use skq_core::SkqError;
use skq_serve::{Pending, Request, Server, ServerConfig};
use skq_workload::queries::QueryGen;
use skq_workload::scenarios;

const USAGE: &str = "usage: skq-load [--scenario city|web|sensors] [--n OBJECTS] [--seed S]
  [--requests R] [--qps Q] [--threads W] [--k K] [--deadline-ms MS]
  [--rotate-ms MS] [--chaos] [--json PATH] [--trace PATH]";

struct Options {
    scenario: String,
    n: usize,
    seed: u64,
    requests: usize,
    qps: u64,
    threads: usize,
    k: usize,
    deadline_ms: u64,
    rotate_ms: u64,
    chaos: bool,
    json: Option<String>,
    trace: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            scenario: "city".into(),
            n: 20_000,
            seed: 42,
            requests: 400,
            qps: 0,
            threads: 4,
            k: 2,
            deadline_ms: 0,
            rotate_ms: 0,
            chaos: false,
            json: None,
            trace: None,
        }
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--scenario" => opts.scenario = value("--scenario")?,
            "--n" => opts.n = parse_num(&value("--n")?, "--n")?,
            "--seed" => opts.seed = parse_num(&value("--seed")?, "--seed")?,
            "--requests" => opts.requests = parse_num(&value("--requests")?, "--requests")?,
            "--qps" => opts.qps = parse_num(&value("--qps")?, "--qps")?,
            "--threads" => opts.threads = parse_num(&value("--threads")?, "--threads")?,
            "--k" => opts.k = parse_num(&value("--k")?, "--k")?,
            "--deadline-ms" => {
                opts.deadline_ms = parse_num(&value("--deadline-ms")?, "--deadline-ms")?;
            }
            "--rotate-ms" => opts.rotate_ms = parse_num(&value("--rotate-ms")?, "--rotate-ms")?,
            "--chaos" => opts.chaos = true,
            "--json" => opts.json = Some(value("--json")?),
            "--trace" => opts.trace = Some(value("--trace")?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(opts)
}

fn parse_num<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: not a number: {text}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("skq-load: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("skq-load: {msg}");
            ExitCode::from(2)
        }
    }
}

fn build_dataset(opts: &Options, seed: u64) -> Result<skq_core::Dataset, String> {
    match opts.scenario.as_str() {
        "city" => Ok(scenarios::city(opts.n, seed)),
        "web" => Ok(scenarios::web_docs(opts.n, seed)),
        "sensors" => Ok(scenarios::sensor_net(opts.n, seed)),
        other => Err(format!("unknown scenario {other} (city|web|sensors)")),
    }
}

/// How many requests `--chaos` arms the `serve::request` fail point
/// for: one in this many.
const CHAOS_EVERY: usize = 10;

fn run(opts: &Options) -> Result<ExitCode, String> {
    #[cfg(not(feature = "failpoints"))]
    if opts.chaos {
        return Err("--chaos requires building with --features failpoints".into());
    }
    let chaos_budget = if opts.chaos {
        opts.requests / CHAOS_EVERY
    } else {
        0
    };
    // Armed for the whole run: the guard disarms the site when `run`
    // returns.
    #[cfg(feature = "failpoints")]
    let _chaos = opts.chaos.then(|| {
        skq_core::failpoints::inject(
            "serve::request",
            skq_core::failpoints::FailAction::Err,
            Some(chaos_budget),
        )
    });

    if opts.trace.is_some() {
        skq_obs::trace::enable();
    }

    let dataset = build_dataset(opts, opts.seed)?;
    let k_max = opts.k.clamp(2, 8);
    let suite = OrpKwSuite::try_build(&dataset, k_max).map_err(|e| e.to_string())?;
    let server = Arc::new(Server::start(
        suite,
        ServerConfig {
            workers: opts.threads,
            // Open-loop replay: the queue holds every request, so
            // pacing, not admission control, is the only throttle.
            queue_capacity: opts.requests.max(64),
        },
    ));

    // Pregenerate the whole request mix so pacing measures the server,
    // not the generator.
    let mut gen = QueryGen::new(&dataset, opts.seed);
    let deadline = (opts.deadline_ms > 0).then(|| Duration::from_millis(opts.deadline_ms));
    let mut requests = Vec::with_capacity(opts.requests);
    for _ in 0..opts.requests {
        let rect = gen.rect(0.05);
        let keywords = gen
            .keywords(opts.k, 0.5)
            .or_else(|| gen.top_keywords(opts.k))
            .ok_or_else(|| format!("scenario has fewer than {} keywords", opts.k))?;
        let mut req = Request::new(rect, keywords);
        req.deadline = deadline;
        requests.push(req);
    }

    // Optional concurrent rotation: a publisher thread rebuilds the
    // suite from the same dataset (so answers stay comparable) and
    // publishes it on a cadence while the replay runs.
    let stop_rotating = Arc::new(AtomicBool::new(false));
    let rotator = (opts.rotate_ms > 0).then(|| {
        let stop_rotating = Arc::clone(&stop_rotating);
        let server = Arc::clone(&server);
        let period = Duration::from_millis(opts.rotate_ms);
        let dataset = dataset.clone();
        std::thread::spawn(move || {
            while !stop_rotating.load(Ordering::Acquire) {
                std::thread::sleep(period);
                if stop_rotating.load(Ordering::Acquire) {
                    break;
                }
                let suite = OrpKwSuite::try_build(&dataset, k_max)
                    .expect("the dataset built a suite before the replay");
                server.publish(suite);
            }
        })
    });

    let epoch_before = server.epoch();
    let span = skq_obs::Span::enter("load.replay");
    let started = Instant::now();
    let interval = (opts.qps > 0).then(|| Duration::from_nanos(1_000_000_000 / opts.qps.max(1)));

    let (sent_tx, sent_rx) = mpsc::channel::<(Instant, Pending)>();
    let collector = std::thread::spawn(move || collect(sent_rx));
    let mut dropped = 0usize;
    let mut send_lag_us = Vec::with_capacity(opts.requests);
    for (i, req) in requests.into_iter().enumerate() {
        let due = match interval {
            Some(interval) => {
                let due = started + interval * (i as u32);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                due
            }
            None => Instant::now(),
        };
        send_lag_us.push(micros(due.elapsed()));
        match server.submit(req) {
            // A send fails only if the collector died; its join below
            // reports that.
            Ok(pending) => {
                let _ = sent_tx.send((due, pending));
            }
            Err(_) => dropped += 1,
        }
    }
    drop(sent_tx);
    let Replies {
        mut latency_us,
        injected,
        failed,
    } = collector
        .join()
        .map_err(|_| "the reply collector panicked".to_string())?;
    let ok = latency_us.len();
    latency_us.sort_by(f64::total_cmp);
    send_lag_us.sort_by(f64::total_cmp);
    let elapsed = span.elapsed();
    drop(span);
    stop_rotating.store(true, Ordering::Release);
    if let Some(handle) = rotator {
        drop(handle.join());
    }

    let epoch_after = server.epoch();
    server.shutdown();

    let registry = skq_obs::global();
    let latency = registry.histogram("skq_serve_request_latency_microseconds", &[]);
    let queue_wait = registry.histogram("skq_serve_queue_wait_microseconds", &[]);
    let achieved_qps = ok as f64 / elapsed.as_secs_f64().max(1e-9);

    println!(
        "skq-load: scenario={} n={} requests={} workers={} elapsed={:.2}s qps={:.0}",
        opts.scenario,
        opts.n,
        opts.requests,
        server.worker_count(),
        elapsed.as_secs_f64(),
        achieved_qps,
    );
    println!(
        "  ok={ok} injected={injected}/{chaos_budget} failed={} dropped={dropped}",
        failed.len(),
    );
    let [p50, p90, p99, max] = [0.5, 0.9, 0.99, 1.0].map(|q| nearest_rank(&latency_us, q));
    println!(
        "  latency_us (from due, raw samples): p50={p50:.1} p90={p90:.1} p99={p99:.1} max={max:.1}"
    );
    let [lag_p50, lag_p99] = [0.5, 0.99].map(|q| nearest_rank(&send_lag_us, q));
    println!("  send_lag_us (due -> submit, raw samples): p50={lag_p50:.1} p99={lag_p99:.1}");
    println!(
        "  latency_us (from submit, log2 bucket edges): p50<={} p90<={} p99<={} mean={:.0} max<={}",
        latency.p50(),
        latency.p90(),
        latency.p99(),
        latency.mean(),
        latency.max_edge(),
    );
    println!(
        "  queue_wait_us: p50={} p99={}  epochs: {epoch_before} -> {epoch_after}",
        queue_wait.p50(),
        queue_wait.p99(),
    );

    if let Some(path) = &opts.trace {
        std::fs::write(path, skq_obs::trace::export_chrome())
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("  trace: {path} ({} events)", skq_obs::trace::event_count());
    }

    if let Some(path) = &opts.json {
        let mut report = Json::obj();
        report.set("format", Json::Str("skq-load-report".into()));
        report.set("scenario", Json::Str(opts.scenario.clone()));
        report.set("n", Json::Num(opts.n as f64));
        report.set("requests", Json::Num(opts.requests as f64));
        report.set("workers", Json::Num(server.worker_count() as f64));
        report.set("ok", Json::Num(ok as f64));
        report.set("injected", Json::Num(injected as f64));
        report.set("failed", Json::Num(failed.len() as f64));
        report.set("dropped", Json::Num(dropped as f64));
        report.set("elapsed_seconds", Json::Num(elapsed.as_secs_f64()));
        report.set("achieved_qps", Json::Num(achieved_qps));
        let mut lat = Json::obj();
        lat.set("p50_us", Json::Num(p50));
        lat.set("p90_us", Json::Num(p90));
        lat.set("p99_us", Json::Num(p99));
        lat.set("max_us", Json::Num(max));
        report.set("latency", lat);
        let mut lag = Json::obj();
        lag.set("p50_us", Json::Num(lag_p50));
        lag.set("p99_us", Json::Num(lag_p99));
        report.set("send_lag", lag);
        let mut edges = Json::obj();
        edges.set("p50_us", Json::Num(latency.p50() as f64));
        edges.set("p90_us", Json::Num(latency.p90() as f64));
        edges.set("p99_us", Json::Num(latency.p99() as f64));
        edges.set("mean_us", Json::Num(latency.mean()));
        report.set("latency_bucket_edges", edges);
        report.set("epoch_before", Json::Num(epoch_before as f64));
        report.set("epoch_after", Json::Num(epoch_after as f64));
        std::fs::write(path, report.render_pretty(2))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("  json: {path}");
    }

    if !failed.is_empty() || dropped > 0 || injected != chaos_budget {
        eprintln!(
            "skq-load: FAILED ({} failed, {dropped} dropped, {injected}/{chaos_budget} injected)",
            failed.len()
        );
        return Ok(ExitCode::from(4));
    }
    Ok(ExitCode::SUCCESS)
}

/// What the reply collector saw.
struct Replies {
    /// Due instant to reply, in microseconds, one per answered request.
    latency_us: Vec<f64>,
    /// Failures the `--chaos` fail point injected.
    injected: usize,
    /// Every other failure, by error kind.
    failed: Vec<String>,
}

/// Waits for each reply in send order and times it from its due
/// instant.
fn collect(sent: mpsc::Receiver<(Instant, Pending)>) -> Replies {
    let mut replies = Replies {
        latency_us: Vec::new(),
        injected: 0,
        failed: Vec::new(),
    };
    for (due, pending) in sent {
        match pending.wait() {
            Ok(_) => replies.latency_us.push(micros(due.elapsed())),
            Err(SkqError::Internal(msg)) if msg.contains("fail point serve::request") => {
                replies.injected += 1;
            }
            Err(e) => replies.failed.push(e.kind().to_string()),
        }
    }
    replies
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The nearest-rank `q`-quantile of ascending `sorted`, or 0 when it is
/// empty.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::nearest_rank;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&sorted, 0.5), 50.0);
        assert_eq!(nearest_rank(&sorted, 0.99), 99.0);
        assert_eq!(nearest_rank(&sorted, 1.0), 100.0);
        assert_eq!(nearest_rank(&sorted[..1], 0.5), 1.0);
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
    }
}

//! `skq-load` — a closed-loop load generator for the serving layer.
//!
//! Replays an `skq-workload` scenario against an in-process
//! [`skq_serve::Server`] at a target QPS, optionally rotating snapshots
//! concurrently, and reports latency percentiles from the `skq-obs`
//! histograms the request path records into.
//!
//! ```text
//! skq-load [--scenario city|web|sensors] [--n OBJECTS] [--seed S]
//!          [--requests R] [--qps Q] [--threads W] [--k K]
//!          [--deadline-ms MS] [--rotate-ms MS] [--chaos]
//!          [--json PATH] [--trace PATH]
//! ```
//!
//! * `--qps 0` (the default) submits as fast as the queue admits.
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
use std::sync::Arc;
use std::time::{Duration, Instant};

use skq_bench::json::Json;
use skq_core::suite::OrpKwSuite;
use skq_core::SkqError;
use skq_serve::{Request, Server, ServerConfig};
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
            // Closed-loop replay: size the queue so pacing, not
            // admission control, is the only throttle.
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

    let mut pendings = Vec::with_capacity(opts.requests);
    let mut dropped = 0usize;
    for (i, req) in requests.into_iter().enumerate() {
        if let Some(interval) = interval {
            let due = started + interval * (i as u32);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        match server.submit(req) {
            Ok(pending) => pendings.push(pending),
            Err(_) => dropped += 1,
        }
    }

    let mut ok = 0usize;
    let mut injected = 0usize;
    let mut failed: Vec<String> = Vec::new();
    for pending in pendings {
        match pending.wait() {
            Ok(_) => ok += 1,
            Err(SkqError::Internal(msg)) if msg.contains("fail point serve::request") => {
                injected += 1;
            }
            Err(e) => failed.push(e.kind().to_string()),
        }
    }
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
    println!(
        "  latency_us: p50={} p90={} p99={} mean={:.0} max<={}",
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
        lat.set("p50_us", Json::Num(latency.p50() as f64));
        lat.set("p90_us", Json::Num(latency.p90() as f64));
        lat.set("p99_us", Json::Num(latency.p99() as f64));
        lat.set("mean_us", Json::Num(latency.mean()));
        report.set("latency", lat);
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

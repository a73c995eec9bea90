//! `skq-bench` — the performance-trajectory CLI.
//!
//! Subcommands:
//!
//! * `bench [--out PATH] [--timed] [--smoke|--full] [--trace PATH]` —
//!   run the pinned scenarios (see `skq_bench::trajectory`) and write a
//!   schema-versioned `BENCH_*.json`. Default capture is deterministic
//!   (byte-stable across runs); `--timed` adds wall-clock fields.
//! * `save-suite SNAP [--smoke|--full]` — write the default bench
//!   suite's `skq-store` snapshot; `bench --load-suite SNAP` then
//!   answers the pinned queries from the snapshot (recording
//!   `load_micros`) instead of rebuilding, and `diff --threshold 0`
//!   against the checked-in baseline proves the loaded suite's query
//!   counters are identical.
//! * `diff BASELINE CANDIDATE [--threshold PCT]` — compare two BENCH
//!   files; exits 3 when any metric regressed past the threshold
//!   (default 10%) or a baseline problem or metric is missing from the
//!   candidate.
//! * `validate FILE` — schema-check a BENCH file.
//!
//! Exit codes: 0 success, 1 usage error, 2 I/O or parse error,
//! 3 regressions or removals found.

// The counting wrapper must implement the inherently-unsafe
// `GlobalAlloc` trait; this is the same sanctioned exception to the
// workspace-wide `unsafe_code = "deny"` as `tests/sink_alloc.rs`.
#![allow(unsafe_code)] // skq-lint: allow(L07) GlobalAlloc impls are unavoidably unsafe

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

use skq_bench::json::Json;
use skq_bench::trajectory::{self, AllocCounters, BenchOptions, Scale, Verdict};
use skq_bench::Table;

/// Delegates to [`System`], counting bytes and allocation calls so the
/// trajectory can record allocator traffic per build / query sweep,
/// and tracking the bytes currently allocated so a build row can record
/// what the built index keeps resident.
struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes currently allocated. Frees subtract, so this can move both
/// ways; readers take differences with wrapping arithmetic.
static LIVE: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the only addition is relaxed
// counter bookkeeping, which cannot violate allocator invariants.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // relaxed: allocator-path telemetry counters; the report-time
        // SeqCst loads run after the measured phase has quiesced
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        ALLOCS.fetch_add(1, Ordering::Relaxed); // relaxed: see above
        LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed); // relaxed: see above
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed); // relaxed: see alloc()
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // relaxed: allocator-path telemetry counters; see alloc()
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        ALLOCS.fetch_add(1, Ordering::Relaxed); // relaxed: see above
        let new_ptr = System.realloc(ptr, layout, new_size);
        // A failed realloc leaves the old block allocated.
        if !new_ptr.is_null() {
            // Wrapping, so a shrink subtracts.
            let grown = (new_size as u64).wrapping_sub(layout.size() as u64);
            LIVE.fetch_add(grown, Ordering::Relaxed); // relaxed: see alloc()
        }
        new_ptr
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn read_alloc_counters() -> AllocCounters {
    AllocCounters {
        bytes: BYTES.load(Ordering::SeqCst),
        allocs: ALLOCS.load(Ordering::SeqCst),
        live: LIVE.load(Ordering::SeqCst),
    }
}

const USAGE: &str = "usage: skq-bench <command>
  bench [--out PATH] [--timed] [--smoke|--full] [--trace PATH] [--load-suite SNAP]
  save-suite SNAP [--smoke|--full]
  diff BASELINE CANDIDATE [--threshold PCT]
  validate FILE";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str);
    let rest = if args.is_empty() { &[] } else { &args[1..] };
    let result = match cmd {
        // Accept the `bench diff a b` spelling alongside plain `diff`.
        Some("bench") if rest.first().map(String::as_str) == Some("diff") => cmd_diff(&rest[1..]),
        Some("bench") => cmd_bench(rest),
        Some("save-suite") => cmd_save_suite(rest),
        Some("diff") => cmd_diff(rest),
        Some("validate") => cmd_validate(rest),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(1);
        }
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("skq-bench: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Writes `contents` to `path`, creating parent directories.
fn write_file(path: &str, contents: &str) -> Result<(), String> {
    let p = std::path::Path::new(path);
    if let Some(parent) = p.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("creating {}: {e}", parent.display()))?;
        }
    }
    std::fs::write(p, contents).map_err(|e| format!("writing {path}: {e}"))
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Value of a `--flag VALUE` pair, if present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn cmd_bench(args: &[String]) -> Result<ExitCode, String> {
    let mut opts = BenchOptions::default();
    if args.iter().any(|a| a == "--timed") {
        opts.timed = true;
    }
    if args.iter().any(|a| a == "--smoke") {
        opts.scale = Scale::Smoke;
    }
    if args.iter().any(|a| a == "--full") {
        opts.scale = Scale::Full;
    }
    let out_path = flag_value(args, "--out");
    let trace_path = flag_value(args, "--trace");
    let snapshot: Option<Vec<u8>> = match flag_value(args, "--load-suite") {
        Some(path) => {
            let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
            // Validate the snapshot up front so a corrupt file is a
            // one-line typed error (exit 2), not a panic deep inside
            // the trajectory run.
            skq_core::suite::OrpKwSuite::try_load(&bytes)
                .map_err(|e| format!("--load-suite {path}: {e}"))?;
            Some(bytes)
        }
        None => None,
    };

    if trace_path.is_some() {
        skq_obs::trace::enable();
    }
    let doc = trajectory::run_with_snapshot(opts, &read_alloc_counters, snapshot.as_deref());
    if let Some(path) = trace_path {
        skq_obs::trace::disable();
        write_file(path, &skq_obs::trace::export_chrome())?;
        eprintln!(
            "trace: {} events -> {path} (load in chrome://tracing or ui.perfetto.dev)",
            skq_obs::trace::event_count()
        );
    }

    let text = doc.render_pretty(2);
    match out_path {
        Some(path) => {
            write_file(path, &text)?;
            eprintln!(
                "wrote {path} ({} scale, {})",
                doc.get("scale").and_then(Json::as_str).unwrap_or("?"),
                if opts.timed {
                    "timed — machine-dependent numbers"
                } else {
                    "deterministic"
                }
            );
        }
        None => print!("{text}"),
    }
    Ok(ExitCode::SUCCESS)
}

/// `save-suite SNAP`: writes the default bench suite's snapshot so a
/// fresh process (`bench --load-suite SNAP`) can answer the pinned
/// queries without rebuilding — the CI store-smoke flow.
fn cmd_save_suite(args: &[String]) -> Result<ExitCode, String> {
    let [path] = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .collect::<Vec<_>>()[..]
    else {
        eprintln!("{USAGE}");
        return Ok(ExitCode::from(1));
    };
    let scale = if args.iter().any(|a| a == "--smoke") {
        Scale::Smoke
    } else if args.iter().any(|a| a == "--full") {
        Scale::Full
    } else {
        Scale::Default
    };
    let bytes = trajectory::suite_snapshot(scale);
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("creating {}: {e}", parent.display()))?;
        }
    }
    std::fs::write(path, &bytes).map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("wrote {path} ({} bytes, {} scale)", bytes.len(), {
        match scale {
            Scale::Smoke => "smoke",
            Scale::Default => "default",
            Scale::Full => "full",
        }
    });
    Ok(ExitCode::SUCCESS)
}

fn cmd_diff(args: &[String]) -> Result<ExitCode, String> {
    let positional: Vec<&String> = {
        let threshold_value = flag_value(args, "--threshold");
        args.iter()
            .filter(|a| !a.starts_with("--") && Some(a.as_str()) != threshold_value)
            .collect()
    };
    let [a_path, b_path] = positional.as_slice() else {
        eprintln!("{USAGE}");
        return Ok(ExitCode::from(1));
    };
    let threshold: f64 = match flag_value(args, "--threshold") {
        Some(t) => t
            .parse()
            .map_err(|_| format!("--threshold {t}: not a number"))?,
        None => 10.0,
    };
    let a = read_json(a_path)?;
    let b = read_json(b_path)?;
    let report = trajectory::diff(&a, &b, threshold)?;

    let flagged: Vec<_> = report
        .lines
        .iter()
        .filter(|l| l.verdict != Verdict::Ok)
        .collect();
    if flagged.is_empty() {
        println!(
            "no metric moved more than {threshold}% ({} compared)",
            report.lines.len()
        );
    } else {
        let mut table = Table::new(&["problem", "metric", "baseline", "candidate", "Δ%", ""]);
        for l in &flagged {
            table.row(vec![
                l.problem.clone(),
                l.metric.clone(),
                format!("{}", l.a),
                format!("{}", l.b),
                format!("{:+.1}", l.change_pct),
                match l.verdict {
                    Verdict::Regressed => "REGRESSED".to_string(),
                    Verdict::Improved => "improved".to_string(),
                    Verdict::Ok => String::new(),
                },
            ]);
        }
        table.print();
    }
    for name in &report.incomparable {
        println!("note: problem {name:?} skipped (workload context differs)");
    }
    for name in &report.removed {
        println!("REMOVED: {name} is in the baseline but not the candidate");
    }
    println!(
        "{} regressions, {} removed, {} improvements past {threshold}% over {} metrics",
        report.regressions,
        report.removed.len(),
        report.improvements,
        report.lines.len()
    );
    if !report.passes() {
        return Ok(ExitCode::from(3));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_validate(args: &[String]) -> Result<ExitCode, String> {
    let [path] = args else {
        eprintln!("{USAGE}");
        return Ok(ExitCode::from(1));
    };
    let doc = read_json(path)?;
    trajectory::validate(&doc)?;
    println!(
        "{path}: valid {} document (schema_version {}, scale {}, {} problems)",
        trajectory::FORMAT,
        doc.get("schema_version")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
        doc.get("scale").and_then(Json::as_str).unwrap_or("?"),
        doc.get("problems")
            .and_then(Json::as_obj)
            .map(<[_]>::len)
            .unwrap_or(0)
    );
    Ok(ExitCode::SUCCESS)
}

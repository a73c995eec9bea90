//! `skq` — a small command-line front end for the indexes.
//!
//! Data files are semicolon-separated: one object per line, coordinate
//! columns first, then a comma-separated tag list. Example:
//!
//! ```text
//! # price; rating; tags
//! 120; 8.5; pool,free-parking,pet-friendly
//! 250; 9.5; pool,pet-friendly
//! ```
//!
//! Usage:
//!
//! ```text
//! skq demo out.csv                # write a sample dataset
//! skq stats data.csv
//! skq rect data.csv --lo 100,8 --hi 200,10 --tags pool,pet-friendly
//! skq ball data.csv --center 150,9 --radius 1.5 --tags pool,pet-friendly
//! skq nn   data.csv --at 150,9 --t 3 --tags pool,pet-friendly
//! skq save data.csv data.skq --k-max 3   # build the suite, write a snapshot
//! skq load data.skq --lo 100,8 --hi 200,10 --tag-ids 0,1
//! skq recover data-dir            # reopen an existing durable store
//! ```
//!
//! Every query command also accepts `--stats` (print the execution
//! counters and wall time), `--metrics <path>` (write a Prometheus
//! text-format snapshot of the build/query metric series) and
//! `--trace <path>` (capture the build+query execution as a
//! chrome-trace JSON file loadable in `ui.perfetto.dev` or
//! `chrome://tracing`; spans carry the paper's execution counters as
//! arguments). `rect` and `ball` additionally accept `--count-only` (stream the hits into a
//! counter — no result set is materialized), `--limit <t>` (stop
//! after `t` hits, the paper's threshold-query primitive, enforced by
//! the query guard) and `--deadline-ms <ms>` (abandon the query at a
//! wall-clock deadline, keeping the partial answer).
//!
//! Exit codes: `0` success, `1` usage errors (unknown command, missing
//! or unknown flags), `2` a malformed flag value (e.g. a non-numeric coordinate in
//! `--lo/--hi/--center/--at`) — reported as a single line without the
//! usage dump, for scripting.

use std::process::ExitCode;
use std::time::Duration;

use structured_keyword_search::obs;
use structured_keyword_search::prelude::*;

/// Usage errors (exit 1, with the usage text) vs. malformed flag
/// values (exit 2, a single scripting-friendly line).
#[derive(Debug)]
enum CliError {
    Usage(String),
    BadArg(String),
}

impl From<String> for CliError {
    fn from(s: String) -> Self {
        CliError::Usage(s)
    }
}

impl From<&str> for CliError {
    fn from(s: &str) -> Self {
        CliError::Usage(s.to_string())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::BadArg(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
        Err(CliError::Usage(e)) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  skq demo <out.csv>
  skq stats <data.csv>
  skq rect <data.csv> --lo a,b,… --hi a,b,… --tags t1,t2[,…] [--count-only] [--limit t] [--deadline-ms ms] [--stats] [--metrics out.prom] [--trace out.json]
  skq ball <data.csv> --center a,b,… --radius r --tags t1,t2[,…] [--count-only] [--limit t] [--deadline-ms ms] [--stats] [--metrics out.prom] [--trace out.json]
  skq nn   <data.csv> --at a,b,… --t N --tags t1,t2[,…] [--stats] [--metrics out.prom] [--trace out.json]
  skq save <data.csv> <snapshot.skq> [--k-max K]
  skq load <snapshot.skq> [--lo a,b,… --hi a,b,… --tag-ids i,j[,…]]
  skq recover <existing-data-dir> [--dim D]";

fn run(args: &[String]) -> Result<(), CliError> {
    let cmd = args.first().ok_or("missing command")?.as_str();
    match cmd {
        "demo" => {
            let path = args.get(1).ok_or("demo needs an output path")?;
            std::fs::write(path, demo_csv()).map_err(|e| e.to_string())?;
            println!("wrote sample dataset to {path}");
            Ok(())
        }
        "stats" => {
            let path = args.get(1).ok_or("stats needs a data file")?;
            let loaded = load(path)?;
            println!(
                "{} objects, d = {}, N = {}, {} distinct tags",
                loaded.dataset.len(),
                loaded.dataset.dim(),
                loaded.dataset.input_size(),
                loaded.dict.len()
            );
            Ok(())
        }
        "rect" | "ball" | "nn" => {
            let path = args.get(1).ok_or("missing data file")?;
            let loaded = load(path)?;
            let opts = parse_flags(cmd, &args[2..])?;
            let tags = opts.require("tags")?;
            let tag_ids = resolve_tags(&loaded, tags)?;
            let k = tag_ids.len();
            if k < 2 {
                return Err("need at least 2 distinct tags".into());
            }
            let dim = loaded.dataset.dim();
            let count_only = opts.has("count-only");
            let guard = build_guard(&opts)?;
            if opts.has("trace") {
                obs::trace::enable();
            }
            // Root span per command. The index-build span and the
            // execution counters recorded by `telemetry::record_query`
            // nest under it in the exported trace. One literal
            // `Span::enter` per command keeps the span names auditable
            // against DESIGN.md §13 (lint rule L12).
            let root_span = match cmd {
                "rect" => obs::Span::enter("cli.rect"),
                "ball" => obs::Span::enter("cli.ball"),
                _ => obs::Span::enter("cli.nn"),
            };
            let started = std::time::Instant::now();
            // `hits` is None under --count-only: the matches stream into
            // a counter and no result vector exists to print.
            let (hits, stats): (Option<Vec<u32>>, QueryStats) = match cmd {
                "rect" => {
                    let q = parse_rect(&opts, dim)?;
                    let index = OrpKwIndex::try_build(&loaded.dataset, k)
                        .map_err(|e| CliError::BadArg(e.to_string()))?;
                    sink_query(&index, &q, &tag_ids, &guard, count_only)?
                }
                "ball" => {
                    let center = Point::new(
                        &parse_coords_dim(opts.require("center")?, dim, "center")
                            .map_err(CliError::BadArg)?,
                    );
                    let radius: f64 = opts
                        .require("radius")?
                        .parse()
                        .map_err(|_| CliError::BadArg("--radius must be a number".to_string()))?;
                    if !radius.is_finite() || radius < 0.0 {
                        return Err(CliError::BadArg(
                            "--radius must be finite and non-negative".to_string(),
                        ));
                    }
                    let index = SrpKwIndex::try_build(&loaded.dataset, k)
                        .map_err(|e| CliError::BadArg(e.to_string()))?;
                    let ball = Ball::new(center, radius);
                    sink_query(&index, &ball, &tag_ids, &guard, count_only)?
                }
                _ => {
                    let at = Point::new(
                        &parse_coords_dim(opts.require("at")?, dim, "at")
                            .map_err(CliError::BadArg)?,
                    );
                    let t: usize = opts
                        .require("t")?
                        .parse()
                        .map_err(|_| CliError::BadArg("--t must be an integer".to_string()))?;
                    let index = LinfNnIndex::try_build(&loaded.dataset, k)
                        .map_err(|e| CliError::BadArg(e.to_string()))?;
                    let (hits, stats) = index
                        .query(&at, t, &tag_ids)
                        .map_err(|e| CliError::BadArg(e.to_string()))?;
                    (Some(hits), stats)
                }
            };
            let elapsed = started.elapsed();
            let truncation_note = match stats.truncated_reason {
                Some(TruncatedReason::DeadlineExceeded) => " (stopped: deadline exceeded)",
                Some(TruncatedReason::Cancelled) => " (stopped: cancelled)",
                Some(TruncatedReason::Limit) => " (stopped at --limit)",
                None => "",
            };
            match hits {
                None => println!("{} matches{truncation_note}", stats.emitted),
                Some(mut hits) => {
                    hits.sort_unstable();
                    println!("{} matches{truncation_note}:", hits.len());
                    for &id in &hits {
                        let p = loaded.dataset.point(id as usize);
                        let tags: Vec<&str> = loaded
                            .dataset
                            .doc(id as usize)
                            .keywords()
                            .iter()
                            .filter_map(|&w| loaded.dict.name(w))
                            .collect();
                        println!("  #{id}: {:?} {}", p.coords(), tags.join(","));
                    }
                }
            }
            if opts.has("stats") {
                println!();
                println!("query stats: {stats}");
                println!(
                    "build+query wall time: {:.3} ms",
                    elapsed.as_secs_f64() * 1e3
                );
            }
            skq_core::telemetry::record_query(
                match cmd {
                    "rect" => "cli_rect",
                    "ball" => "cli_ball",
                    _ => "cli_nn",
                },
                k,
                None,
                &stats,
                elapsed,
            );
            // Closing the root span after `record_query` keeps it the
            // innermost open span while the counters attach to it.
            drop(root_span);
            if let Some(out) = opts.get("trace") {
                obs::trace::disable();
                write_creating_dirs(out, &obs::trace::export_chrome()).map_err(CliError::BadArg)?;
                println!(
                    "wrote query trace to {out} ({} events — load in ui.perfetto.dev or chrome://tracing)",
                    obs::trace::event_count()
                );
            }
            if let Some(out) = opts.get("metrics") {
                write_creating_dirs(out, &obs::global().render_prometheus())
                    .map_err(CliError::BadArg)?;
                println!("wrote metrics snapshot to {out}");
            }
            Ok(())
        }
        "save" => {
            let data = args.get(1).ok_or("save needs a data file")?;
            let out = args.get(2).ok_or("save needs a snapshot path")?;
            let opts = parse_flags(cmd, &args[3..])?;
            let k_max: usize = match opts.get("k-max") {
                Some(v) => v.parse().map_err(|_| {
                    CliError::BadArg(format!("--k-max must be an integer, got {v:?}"))
                })?,
                None => 3,
            };
            let loaded = load(data)?;
            let suite = skq_core::suite::OrpKwSuite::try_build(&loaded.dataset, k_max)
                .map_err(|e| CliError::BadArg(e.to_string()))?;
            let (backend, name) = snapshot_backend(out)?;
            let written = backend
                .save(&name, &suite)
                .map_err(|e| CliError::BadArg(e.to_string()))?;
            println!(
                "saved {} objects (k_max = {k_max}, {written} bytes) to {out}",
                loaded.dataset.len()
            );
            Ok(())
        }
        "load" => {
            let snap = args.get(1).ok_or("load needs a snapshot path")?;
            let opts = parse_flags(cmd, &args[2..])?;
            let (backend, name) = snapshot_backend(snap)?;
            let started = std::time::Instant::now();
            let suite: skq_core::suite::OrpKwSuite = backend
                .load(&name)
                .map_err(|e| CliError::BadArg(e.to_string()))?;
            let load_micros = started.elapsed().as_micros();
            println!(
                "loaded snapshot {snap}: dim = {}, k_max = {} ({load_micros} µs, no rebuild)",
                suite.dim(),
                suite.k_max()
            );
            if let Some(ids) = opts.get("tag-ids") {
                let q = parse_rect(&opts, suite.dim())?;
                let tag_ids: Vec<Keyword> = ids
                    .split(',')
                    .map(|t| {
                        t.trim()
                            .parse::<Keyword>()
                            .map_err(|_| CliError::BadArg(format!("bad tag id {t:?}")))
                    })
                    .collect::<Result<_, _>>()?;
                let mut hits = suite
                    .query(&q, &tag_ids)
                    .map_err(|e| CliError::BadArg(e.to_string()))?;
                hits.sort_unstable();
                println!("{} matches: {hits:?}", hits.len());
            }
            Ok(())
        }
        "recover" => {
            let dir = args.get(1).ok_or("recover needs a data directory")?;
            let opts = parse_flags(cmd, &args[2..])?;
            let dim: usize = match opts.get("dim") {
                Some(v) => v.parse().map_err(|_| {
                    CliError::BadArg(format!("--dim must be an integer, got {v:?}"))
                })?,
                None => 2,
            };
            // Recovery opens what is there; a mistyped path must not
            // come back as a fresh, empty store.
            if !std::path::Path::new(dir).is_dir() {
                return Err(CliError::BadArg(format!(
                    "{dir} is not an existing data directory"
                )));
            }
            let started = std::time::Instant::now();
            let (durable, report) = skq_store::DurableDynamic::open(
                std::path::Path::new(dir),
                dim,
                skq_store::DurabilityConfig::default(),
            )
            .map_err(|e| CliError::BadArg(e.to_string()))?;
            println!(
                "recovered {dir} in {} µs: {} live objects",
                started.elapsed().as_micros(),
                durable.index().len()
            );
            println!(
                "  checkpoint lsn {}, last lsn {}, {} replayed, {} skipped{}{}",
                report.checkpoint_lsn,
                report.last_lsn,
                report.replayed,
                report.skipped,
                if report.torn_tail {
                    ", torn tail truncated"
                } else {
                    ""
                },
                if report.checkpoints_discarded > 0 {
                    ", corrupt checkpoint(s) discarded"
                } else {
                    ""
                },
            );
            Ok(())
        }
        other => Err(format!("unknown command {other}").into()),
    }
}

/// Splits a `dir/name.skq` path into a [`FileBackend`] over the
/// directory and the snapshot name the backend expects.
fn snapshot_backend(path: &str) -> Result<(FileBackend, String), CliError> {
    let p = std::path::Path::new(path);
    let name = p
        .file_name()
        .and_then(|n| n.to_str())
        .and_then(|n| n.strip_suffix(".skq"))
        .ok_or_else(|| {
            CliError::BadArg(format!("snapshot path {path:?} must end in <name>.skq"))
        })?;
    let dir = match p.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    let backend = FileBackend::new(dir).map_err(|e| CliError::BadArg(e.to_string()))?;
    Ok((backend, name.to_string()))
}

struct Loaded {
    dataset: Dataset,
    dict: Dictionary,
}

/// Writes an output artifact (`--metrics`, `--trace`), creating any
/// missing parent directories first. Failures come back as a single
/// scripting-friendly line (exit 2), never a panic or usage dump.
fn write_creating_dirs(path: &str, contents: &str) -> Result<(), String> {
    let p = std::path::Path::new(path);
    if let Some(parent) = p.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("creating {}: {e}", parent.display()))?;
        }
    }
    std::fs::write(p, contents).map_err(|e| format!("{path}: {e}"))
}

fn load(path: &str) -> Result<Loaded, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_csv(&text)
}

/// Parses the semicolon data format. Lines starting with `#` and blank
/// lines are skipped.
fn parse_csv(text: &str) -> Result<Loaded, String> {
    let mut dict = Dictionary::new();
    let mut parts: Vec<(Point, Vec<Keyword>)> = Vec::new();
    let mut dim: Option<usize> = None;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let cols: Vec<&str> = line.split(';').map(str::trim).collect();
        if cols.len() < 2 {
            return Err(format!("line {}: need coordinates and tags", lineno + 1));
        }
        let (coord_cols, tag_col) = cols.split_at(cols.len() - 1);
        if coord_cols.len() > skq_geom::MAX_DIM {
            return Err(format!(
                "line {}: {} coordinates, at most {} are supported",
                lineno + 1,
                coord_cols.len(),
                skq_geom::MAX_DIM
            ));
        }
        let coords: Vec<f64> = coord_cols
            .iter()
            .map(|c| {
                c.parse::<f64>()
                    .ok()
                    .filter(|v| v.is_finite())
                    .ok_or_else(|| format!("line {}: bad coordinate {c:?}", lineno + 1))
            })
            .collect::<Result<_, _>>()?;
        match dim {
            None => dim = Some(coords.len()),
            Some(d) if d != coords.len() => {
                return Err(format!("line {}: inconsistent dimensions", lineno + 1))
            }
            _ => {}
        }
        let tags: Vec<Keyword> = tag_col[0]
            .split(',')
            .map(str::trim)
            .filter(|t| !t.is_empty())
            .map(|t| dict.intern(t))
            .collect();
        if tags.is_empty() {
            return Err(format!(
                "line {}: objects need at least one tag",
                lineno + 1
            ));
        }
        parts.push((Point::new(&coords), tags));
    }
    if parts.is_empty() {
        return Err("no objects in file".into());
    }
    Ok(Loaded {
        dataset: Dataset::try_from_parts(parts).map_err(|e| e.to_string())?,
        dict,
    })
}

fn parse_coords(s: &str) -> Result<Vec<f64>, String> {
    s.split(',')
        .map(|c| {
            c.trim()
                .parse::<f64>()
                .map_err(|_| format!("bad coordinate {c:?}"))
        })
        .collect()
}

/// Parses a coordinate flag and validates it against the dataset
/// dimensionality (a mismatched count would otherwise panic deep inside
/// the index with an unhelpful message).
fn parse_coords_dim(s: &str, dim: usize, flag: &str) -> Result<Vec<f64>, String> {
    let coords = parse_coords(s)?;
    if coords.len() != dim {
        return Err(format!(
            "--{flag} has {} coordinate(s) but the dataset is {dim}-dimensional",
            coords.len()
        ));
    }
    Ok(coords)
}

/// Parses `--lo`/`--hi` into the query rectangle. A NaN bound or an
/// inverted interval is a malformed value; ±∞ stays a valid open side.
fn parse_rect(opts: &Flags, dim: usize) -> Result<Rect, CliError> {
    let lo = parse_coords_dim(opts.require("lo")?, dim, "lo").map_err(CliError::BadArg)?;
    let hi = parse_coords_dim(opts.require("hi")?, dim, "hi").map_err(CliError::BadArg)?;
    if lo.iter().chain(&hi).any(|c| c.is_nan()) {
        return Err(CliError::BadArg("--lo/--hi must not be NaN".to_string()));
    }
    if lo.iter().zip(&hi).any(|(a, b)| a > b) {
        return Err(CliError::BadArg(
            "--lo must be coordinate-wise at most --hi".to_string(),
        ));
    }
    Ok(Rect::new(&lo, &hi))
}

/// Builds the query guard from `--deadline-ms` / `--limit`.
fn build_guard(opts: &Flags) -> Result<QueryGuard, CliError> {
    let mut guard = QueryGuard::new();
    if let Some(v) = opts.get("deadline-ms") {
        let ms: u64 = v.parse().map_err(|_| {
            CliError::BadArg(format!("--deadline-ms must be an integer, got {v:?}"))
        })?;
        guard = guard.with_deadline(Duration::from_millis(ms));
    }
    if let Some(v) = opts.get("limit") {
        let m: usize = v
            .parse()
            .map_err(|_| CliError::BadArg(format!("--limit must be an integer, got {v:?}")))?;
        guard = guard.with_max_results(m);
    }
    Ok(guard)
}

/// Runs a rect or ball query under `guard`: counted only, or collected
/// for printing. A deadline or cancellation keeps the partial answer;
/// `stats.truncated_reason` says which limit stopped it.
fn sink_query<I: KwQuery>(
    index: &I,
    shape: &I::Shape,
    tags: &[Keyword],
    guard: &QueryGuard,
    count_only: bool,
) -> Result<(Option<Vec<u32>>, QueryStats), CliError> {
    let mut stats = QueryStats::new();
    let mut hits = Vec::new();
    let outcome = if count_only {
        index.run(shape, tags, guard, &mut CountSink::new(), &mut stats)
    } else {
        index.run(shape, tags, guard, &mut hits, &mut stats)
    };
    match outcome {
        Ok(_) | Err(SkqError::DeadlineExceeded | SkqError::Cancelled) => {}
        Err(e) => return Err(CliError::BadArg(e.to_string())),
    }
    Ok(((!count_only).then_some(hits), stats))
}

fn resolve_tags(loaded: &Loaded, tags: &str) -> Result<Vec<Keyword>, String> {
    let mut ids = Vec::new();
    for t in tags.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        let id = loaded
            .dict
            .lookup(t)
            .ok_or_else(|| format!("tag {t:?} does not occur in the dataset"))?;
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    Ok(ids)
}

/// Tiny flag parser: `--name value` pairs plus bare boolean switches.
struct Flags(Vec<(String, String)>);

/// Flags that take no value.
const BOOL_FLAGS: &[&str] = &["stats", "count-only"];

/// The flags each command accepts, space-separated; any other `--name`
/// is a usage error.
fn accepted_flags(cmd: &str) -> &'static str {
    match cmd {
        "rect" => "lo hi tags count-only limit deadline-ms stats metrics trace",
        "ball" => "center radius tags count-only limit deadline-ms stats metrics trace",
        "nn" => "at t tags stats metrics trace",
        "save" => "k-max",
        "load" => "lo hi tag-ids",
        "recover" => "dim",
        _ => "",
    }
}

impl Flags {
    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("missing --{name}"))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }
}

fn parse_flags(cmd: &str, args: &[String]) -> Result<Flags, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let name = a
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got {a:?}"))?;
        if !accepted_flags(cmd).split(' ').any(|f| f == name) {
            return Err(format!("unknown flag --{name} for {cmd}"));
        }
        if BOOL_FLAGS.contains(&name) {
            out.push((name.to_string(), String::new()));
            continue;
        }
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        out.push((name.to_string(), value.clone()));
    }
    Ok(Flags(out))
}

fn demo_csv() -> String {
    "# price; rating; tags\n\
     120; 8.5; pool,free-parking,pet-friendly\n\
     250; 9.5; pool,pet-friendly,spa\n\
     150; 8.8; pool,free-parking,pet-friendly,gym\n\
     60;  6.9; free-parking\n\
     180; 7.5; pool,free-parking,pet-friendly\n\
     95;  9.1; free-parking,pet-friendly\n\
     199; 8.0; pool,free-parking,pet-friendly,spa\n"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_demo_csv() {
        let loaded = parse_csv(&demo_csv()).unwrap();
        assert_eq!(loaded.dataset.len(), 7);
        assert_eq!(loaded.dataset.dim(), 2);
        assert!(loaded.dict.lookup("pool").is_some());
        assert!(loaded.dict.lookup("sauna").is_none());
    }

    #[test]
    fn parse_rejects_bad_lines() {
        assert!(parse_csv("just-one-column\n").is_err());
        assert!(parse_csv("nope; a,b\n").is_err()); // bad coordinate
        assert!(parse_csv("1.0; 2.0; a\n3.0; b\n").is_err()); // inconsistent dims
        assert!(parse_csv("1.0; 2.0; \n").is_err()); // empty tags
        assert!(parse_csv("").is_err()); // empty file

        // Non-finite coordinates and more than MAX_DIM columns are
        // rejected by line number, like a non-numeric coordinate.
        for bad in ["nan; 2.0; a", "1.0; inf; a", "1;2;3;4;5;6;7;8;9; a"] {
            let Err(e) = parse_csv(&format!("# header\n{bad}\n")) else {
                panic!("{bad:?} parsed");
            };
            assert!(e.starts_with("line 2:"), "{e}");
        }
    }

    #[test]
    fn last_column_is_always_tags() {
        // A numeric last column is interpreted as a tag, by design.
        let loaded = parse_csv("1.0; 2.0\n").unwrap();
        assert_eq!(loaded.dataset.dim(), 1);
        assert!(loaded.dict.lookup("2.0").is_some());
    }

    #[test]
    fn flags_roundtrip() {
        let args: Vec<String> = ["--lo", "1,2", "--hi", "3,4"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = parse_flags("rect", &args).unwrap();
        assert_eq!(f.require("lo").unwrap(), "1,2");
        assert!(f.require("tags").is_err());
        assert!(parse_flags("rect", &["oops".to_string()]).is_err());
    }

    #[test]
    fn stats_flag_takes_no_value() {
        let args: Vec<String> = ["--stats", "--metrics", "out.prom", "--tags", "a,b"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = parse_flags("rect", &args).unwrap();
        assert!(f.has("stats"));
        assert_eq!(f.get("metrics"), Some("out.prom"));
        assert_eq!(f.require("tags").unwrap(), "a,b");
        assert!(!f.has("lo"));
    }

    #[test]
    fn coordinate_count_is_validated() {
        assert_eq!(parse_coords_dim("1,2", 2, "lo").unwrap(), vec![1.0, 2.0]);
        let err = parse_coords_dim("1,2,3", 2, "lo").unwrap_err();
        assert!(err.contains("--lo has 3 coordinate(s)"), "{err}");
        assert!(err.contains("2-dimensional"), "{err}");
        assert!(parse_coords_dim("1,x", 2, "hi").is_err());
    }

    #[test]
    fn coords_parse() {
        assert_eq!(parse_coords("1, 2.5,3").unwrap(), vec![1.0, 2.5, 3.0]);
        assert!(parse_coords("1,x").is_err());
    }

    #[test]
    fn count_only_flag_takes_no_value() {
        let args: Vec<String> = ["--count-only", "--limit", "5", "--tags", "a,b"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = parse_flags("rect", &args).unwrap();
        assert!(f.has("count-only"));
        assert_eq!(f.get("limit"), Some("5"));
    }

    #[test]
    fn end_to_end_count_only() {
        let loaded = parse_csv(&demo_csv()).unwrap();
        let tags = resolve_tags(&loaded, "pool,pet-friendly").unwrap();
        let index = OrpKwIndex::try_build(&loaded.dataset, tags.len()).unwrap();
        let q = Rect::new(&[100.0, 8.0], &[200.0, 10.0]);
        let guard = QueryGuard::new();
        let (hits, stats) = sink_query(&index, &q, &tags, &guard, true).unwrap();
        assert!(hits.is_none());
        assert_eq!(stats.emitted, 3);
        assert_eq!(stats.reported, 3);
    }

    fn string_args(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn malformed_flag_values_are_bad_args() {
        let dir = std::env::temp_dir().join("skq_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("demo.csv");
        std::fs::write(&data, demo_csv()).unwrap();
        let d = data.to_str().unwrap();
        let snap = dir.join("demo.skq");
        let snap = snap.to_str().unwrap();
        run(&string_args(&["save", d, snap])).unwrap();
        // A non-numeric coordinate in --lo is a malformed value (exit 2).
        let bad = [
            vec![
                "rect", d, "--lo", "abc,8", "--hi", "200,10", "--tags", "pool,spa",
            ],
            vec![
                "rect", d, "--lo", "100,8,9", "--hi", "200,10", "--tags", "pool,spa",
            ],
            vec![
                "rect", d, "--lo", "300,8", "--hi", "200,10", "--tags", "pool,spa",
            ],
            vec![
                "ball", d, "--center", "x,9", "--radius", "1", "--tags", "pool,spa",
            ],
            vec![
                "ball", d, "--center", "150,9", "--radius", "-1", "--tags", "pool,spa",
            ],
            vec!["nn", d, "--at", "oops", "--t", "3", "--tags", "pool,spa"],
            vec![
                "rect",
                d,
                "--lo",
                "1,8",
                "--hi",
                "200,10",
                "--tags",
                "pool,spa",
                "--deadline-ms",
                "soon",
            ],
            vec![
                "rect", d, "--lo", "1,8", "--hi", "200,10", "--tags", "pool,spa", "--limit", "-3",
            ],
            // A NaN bound compares false both ways; it must not reach
            // `Rect::new`.
            vec![
                "rect",
                d,
                "--lo",
                "nan,9",
                "--hi",
                "500,10",
                "--tags",
                "pool,pet-friendly",
            ],
            vec![
                "load",
                snap,
                "--lo",
                "nan,0",
                "--hi",
                "5,5",
                "--tag-ids",
                "0",
            ],
        ];
        for args in bad {
            assert!(
                matches!(run(&string_args(&args)), Err(CliError::BadArg(_))),
                "{args:?}"
            );
        }
        // Unknown commands and missing flags remain usage errors (exit 1).
        assert!(matches!(
            run(&string_args(&["bogus"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&string_args(&["rect", d, "--tags", "pool,spa"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn metrics_write_failure_is_bad_arg() {
        let dir = std::env::temp_dir().join("skq_cli_metrics_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("demo.csv");
        std::fs::write(&data, demo_csv()).unwrap();
        let d = data.to_str().unwrap();
        // The data file itself as a parent directory cannot be created:
        // the failure must surface as a one-line exit-2 error.
        let bad_out = format!("{d}/nested/out.prom");
        let args = string_args(&[
            "rect",
            d,
            "--lo",
            "100,8",
            "--hi",
            "200,10",
            "--tags",
            "pool,spa",
            "--metrics",
            &bad_out,
        ]);
        assert!(matches!(run(&args), Err(CliError::BadArg(_))));
        // A missing (but creatable) parent directory is created.
        let ok_out = dir.join("fresh/subdir/out.prom");
        let _ = std::fs::remove_dir_all(dir.join("fresh"));
        let args = string_args(&[
            "rect",
            d,
            "--lo",
            "100,8",
            "--hi",
            "200,10",
            "--tags",
            "pool,spa",
            "--metrics",
            ok_out.to_str().unwrap(),
        ]);
        run(&args).unwrap();
        let snapshot = std::fs::read_to_string(&ok_out).unwrap();
        assert!(snapshot.contains("skq_query_total"));
    }

    /// Writes `csv` to a fresh file for one test and returns its path.
    fn write_csv(test: &str, csv: &str) -> String {
        let dir = std::env::temp_dir().join(format!("skq_cli_{test}"));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        std::fs::write(&data, csv).unwrap();
        data.to_str().unwrap().to_string()
    }

    #[test]
    fn too_many_tags_is_a_bad_arg_not_a_panic() {
        let tags: Vec<String> = (0..17).map(|i| format!("t{i}")).collect();
        let tags = tags.join(",");
        let d = write_csv("too_many_tags", &format!("1.0; 2.0; {tags}\n"));
        let args = string_args(&["rect", &d, "--lo", "0,0", "--hi", "5,5", "--tags", &tags]);
        let Err(CliError::BadArg(msg)) = run(&args) else {
            panic!("17 tags must be a bad argument");
        };
        assert!(msg.contains("k > 16 keywords is unsupported"), "{msg}");
    }

    #[test]
    fn ball_on_8d_data_is_a_bad_arg_not_a_panic() {
        let d = write_csv("ball_8d", "1;2;3;4;5;6;7;8; a,b\n");
        let center = "1,2,3,4,5,6,7,8";
        let args = string_args(&[
            "ball", &d, "--center", center, "--radius", "1", "--tags", "a,b",
        ]);
        let Err(CliError::BadArg(msg)) = run(&args) else {
            panic!("a ball query on 8-d data must be a bad argument");
        };
        assert!(msg.contains("lifted dimension 9 exceeds"), "{msg}");
    }

    #[test]
    fn guard_flags_wire_through() {
        let loaded = parse_csv(&demo_csv()).unwrap();
        let tags = resolve_tags(&loaded, "pool,pet-friendly").unwrap();
        let index = OrpKwIndex::try_build(&loaded.dataset, tags.len()).unwrap();
        let q = Rect::new(&[0.0, 0.0], &[300.0, 10.0]);
        let opts = parse_flags("rect", &string_args(&["--limit", "2"])).unwrap();
        let guard = build_guard(&opts).unwrap();
        let (hits, stats) = sink_query(&index, &q, &tags, &guard, false).unwrap();
        assert_eq!(hits.unwrap().len(), 2);
        assert_eq!(stats.truncated_reason, Some(TruncatedReason::Limit));
    }

    #[test]
    fn unknown_flags_are_usage_errors() {
        let d = write_csv("unknown_flags", &demo_csv());
        let dir = std::env::temp_dir().join("skq_cli_unknown_flags_recover");
        let dir = dir.to_str().unwrap();
        let cases = [
            vec!["recover", dir, "--k", "9"],
            vec![
                "rect", &d, "--lo", "100,8", "--hi", "200,10", "--tags", "pool,spa", "--bogus", "1",
            ],
            vec![
                "nn", &d, "--at", "150,9", "--t", "3", "--tags", "pool,spa", "--limit", "2",
            ],
        ];
        for args in cases {
            let Err(CliError::Usage(msg)) = run(&string_args(&args)) else {
                panic!("{args:?} must be a usage error");
            };
            assert!(
                msg.contains(&format!("unknown flag {}", args[args.len() - 2])),
                "{msg}"
            );
        }
    }

    #[test]
    fn recover_refuses_a_missing_directory() {
        let dir = std::env::temp_dir().join("skq_cli_recover_missing");
        let _ = std::fs::remove_dir_all(&dir);
        let d = dir.to_str().unwrap();
        for args in [vec!["recover", d], vec!["recover", d, "--dim", "0"]] {
            let Err(CliError::BadArg(msg)) = run(&string_args(&args)) else {
                panic!("{args:?} must be a bad argument");
            };
            assert!(msg.contains("not an existing data directory"), "{msg}");
            assert!(!dir.exists(), "{args:?} created {d}");
        }
        // An existing directory with an invalid --dim gains no WAL.
        std::fs::create_dir_all(&dir).unwrap();
        let args = string_args(&["recover", d, "--dim", "0"]);
        assert!(matches!(run(&args), Err(CliError::BadArg(_))));
        assert!(!dir.join("wal").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_then_load_answers_like_rect() {
        let d = write_csv("save_load", &demo_csv());
        let snap = d.replace("data.csv", "demo.skq");
        run(&string_args(&["save", &d, &snap])).unwrap();
        let loaded = parse_csv(&demo_csv()).unwrap();
        let built = skq_core::suite::OrpKwSuite::try_build(&loaded.dataset, 3).unwrap();
        let bytes = std::fs::read(&snap).unwrap();
        let saved = skq_core::suite::OrpKwSuite::try_load(&bytes).unwrap();
        let q = Rect::new(&[100.0, 8.0], &[200.0, 10.0]);
        for tags in [
            "pool",
            "pool,pet-friendly",
            "pool,free-parking,pet-friendly",
        ] {
            let ids = resolve_tags(&loaded, tags).unwrap();
            let mut want = built.query(&q, &ids).unwrap();
            let mut got = saved.query(&q, &ids).unwrap();
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "{tags}");
        }
        let args = [
            "load",
            &snap,
            "--lo",
            "100,8",
            "--hi",
            "200,10",
            "--tag-ids",
            "0,2",
        ];
        run(&string_args(&args)).unwrap();
        // The d >= 3 engine has no snapshot encoding: a typed refusal.
        let d3 = write_csv("save_3d", "1;2;3; a,b\n4;5;6; a\n");
        let args = string_args(&["save", &d3, &d3.replace("data.csv", "d3.skq")]);
        let Err(CliError::BadArg(msg)) = run(&args) else {
            panic!("saving 3-d data must be a bad argument");
        };
        assert!(msg.contains("d >= 3"), "{msg}");
    }

    #[test]
    fn end_to_end_rect_query() {
        let loaded = parse_csv(&demo_csv()).unwrap();
        let tags = resolve_tags(&loaded, "pool,pet-friendly").unwrap();
        let index = OrpKwIndex::try_build(&loaded.dataset, tags.len()).unwrap();
        let q = Rect::new(&[100.0, 8.0], &[200.0, 10.0]);
        let mut hits = index.query(&q, &tags).unwrap();
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 2, 6]);
    }
}

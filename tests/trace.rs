//! Integration tests for the trace capture (`skq_obs::trace`) and the
//! benchmark trajectory (`skq_bench::trajectory`).
//!
//! The tracer is process-global, so every test that toggles it runs
//! under one mutex. This file is its own test binary (own process), so
//! the serialization does not interact with the other suites.

use std::sync::{Mutex, MutexGuard, OnceLock};

use skq_bench::json::Json;
use skq_bench::trajectory::{self, AllocCounters, BenchOptions, Scale};
use skq_obs::{trace, Span};
use structured_keyword_search::prelude::*;

/// Serializes tracer-toggling tests and resets the tracer afterwards.
fn tracer_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    trace::disable();
    guard
}

/// Chrome-trace events as `(name, phase, tid, args)` tuples.
fn exported_events(text: &str) -> Vec<(String, String, i64, Json)> {
    let doc = Json::parse(text).expect("exported trace must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    events
        .iter()
        .filter(|e| {
            // Skip the process-name metadata record.
            e.get("ph").and_then(Json::as_str) != Some("M")
        })
        .map(|e| {
            (
                e.get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                e.get("ph").and_then(Json::as_str).unwrap_or("").to_string(),
                e.get("tid").and_then(Json::as_f64).unwrap_or(-1.0) as i64,
                e.get("args").cloned().unwrap_or_else(Json::obj),
            )
        })
        .collect()
}

/// Runs one tiny traced CLI-style query so the capture holds a real
/// build span nested under a query span with telemetry attributes.
fn run_traced_query() {
    let mut parts = Vec::new();
    let mut dict = Dictionary::new();
    let a = dict.intern("a");
    let b = dict.intern("b");
    for i in 0..32 {
        parts.push((Point::new(&[i as f64, (i % 7) as f64]), vec![a, b]));
    }
    let dataset = Dataset::from_parts(parts);
    let root = Span::enter("orp.suite_query");
    let index = OrpKwIndex::try_build(&dataset, 2).unwrap();
    let mut sink = CountSink::new();
    let mut stats = QueryStats::new();
    let q = Rect::new(&[0.0, 0.0], &[40.0, 7.0]);
    let _ = index.query_sink(&q, &[a, b], &mut sink, &mut stats);
    skq_core::telemetry::record_query(
        "trace_itest",
        2,
        None,
        &stats,
        std::time::Duration::from_micros(5),
    );
    drop(root);
}

#[test]
fn export_is_valid_json_with_balanced_spans() {
    let _guard = tracer_lock();
    trace::enable();
    run_traced_query();
    let handle = std::thread::spawn(run_traced_query);
    handle.join().expect("traced thread");
    trace::disable();
    let text = trace::export_chrome();

    let events = exported_events(&text);
    assert!(!events.is_empty());
    // Per-thread begin/end events must pair up like brackets, with
    // matching names (Perfetto rejects captures violating this).
    let mut tids: Vec<i64> = events.iter().map(|e| e.2).collect();
    tids.sort_unstable();
    tids.dedup();
    assert!(tids.len() >= 2, "two threads must get distinct tids");
    for tid in tids {
        let mut stack: Vec<&str> = Vec::new();
        for (name, phase, etid, _) in &events {
            if *etid != tid {
                continue;
            }
            match phase.as_str() {
                "B" => stack.push(name),
                "E" => {
                    assert_eq!(stack.pop(), Some(name.as_str()), "E without matching B");
                }
                other => panic!("unexpected phase {other:?}"),
            }
        }
        assert!(stack.is_empty(), "unclosed spans on tid {tid}");
    }
    // The build span nests under the query span and telemetry
    // attributes ride on the query span's end event.
    let names: Vec<&str> = events.iter().map(|e| e.0.as_str()).collect();
    assert!(names.contains(&"orp.suite_query"));
    assert!(names.contains(&"orp.build"));
    let query_end = events
        .iter()
        .find(|(name, phase, _, _)| name == "orp.suite_query" && phase == "E")
        .expect("query end event");
    let args = &query_end.3;
    assert_eq!(args.get("kind").and_then(Json::as_str), Some("trace_itest"));
    assert!(args.get("nodes_visited").and_then(Json::as_f64).is_some());
    assert!(args
        .get("postings_scanned")
        .and_then(Json::as_f64)
        .is_some());
}

#[test]
fn attributes_round_trip_through_export() {
    let _guard = tracer_lock();
    trace::enable();
    {
        let _span = Span::enter("orp.suite_query");
        trace::attach_u64("answer", 42);
        trace::attach("ratio", trace::AttrValue::F64(1.5));
        trace::attach_str("label", "planted \"quote\"");
        trace::attach("flag", trace::AttrValue::Bool(true));
    }
    trace::disable();
    let events = exported_events(&trace::export_chrome());
    let (_, _, _, args) = events
        .iter()
        .find(|(name, phase, _, _)| name == "orp.suite_query" && phase == "E")
        .expect("span end event");
    assert_eq!(args.get("answer").and_then(Json::as_f64), Some(42.0));
    assert_eq!(args.get("ratio").and_then(Json::as_f64), Some(1.5));
    assert_eq!(
        args.get("label").and_then(Json::as_str),
        Some("planted \"quote\"")
    );
    assert_eq!(args.get("flag"), Some(&Json::Bool(true)));
}

#[test]
fn disabled_tracer_records_nothing() {
    let _guard = tracer_lock();
    trace::enable();
    trace::disable();
    run_traced_query();
    assert_eq!(trace::event_count(), 0);
    assert_eq!(trace::current_trace_id(), None);
}

#[test]
fn bench_smoke_produces_schema_valid_document() {
    let _guard = tracer_lock();
    let zero_probe = AllocCounters::default;
    let opts = BenchOptions {
        scale: Scale::Smoke,
        ..BenchOptions::default()
    };
    let doc = trajectory::run(opts, &zero_probe);
    trajectory::validate(&doc).expect("smoke document must satisfy its own schema");
    assert_eq!(
        doc.get("format").and_then(Json::as_str),
        Some(trajectory::FORMAT)
    );
    assert_eq!(doc.get("deterministic"), Some(&Json::Bool(true)));
    // Deterministic documents must render identically across runs.
    let again = trajectory::run(
        BenchOptions {
            scale: Scale::Smoke,
            ..BenchOptions::default()
        },
        &zero_probe,
    );
    assert_eq!(doc.render_pretty(2), again.render_pretty(2));
    // And self-diff reports no movement at all.
    let report = trajectory::diff(&doc, &again, 10.0).expect("diff");
    assert_eq!(report.regressions, 0);
    assert_eq!(report.improvements, 0);
    assert!(report.incomparable.is_empty());
}

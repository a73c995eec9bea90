//! Integration tests for the observability wiring: planner telemetry,
//! query-log records, and the Prometheus snapshot.
//!
//! The metrics registry is process-global and the test harness runs
//! tests in parallel, so every assertion here is on *deltas* of
//! counters with labels no other test uses, or on records this test
//! pushed itself.

use structured_keyword_search::core::planner::{Plan, PlannedOrpKw};
use structured_keyword_search::obs;
use structured_keyword_search::prelude::*;

fn dataset() -> Dataset {
    // Keyword 0 in every doc, keyword 1 in ~half: frequent enough that
    // a full-space query drives the planner to a real choice, and
    // deterministic so the test is stable.
    Dataset::from_parts(
        (0..600)
            .map(|i| {
                let x = (i % 30) as f64;
                let y = (i / 30) as f64;
                let mut doc = vec![0u32];
                if i % 2 == 0 {
                    doc.push(1);
                }
                doc.push(2 + (i % 7) as u32);
                (Point::new2(x, y), doc)
            })
            .collect(),
    )
}

#[test]
fn planned_query_increments_chosen_plan_counter() {
    let d = dataset();
    let planner = PlannedOrpKw::try_build(&d, 2, None).unwrap();
    let q = Rect::full(2);

    let chosen_before = |plan: Plan| {
        obs::global()
            .counter_value("skq_planner_chosen_total", &[("plan", plan.label())])
            .unwrap_or(0)
    };
    let before: Vec<u64> = [Plan::KeywordsOnly, Plan::StructuredOnly, Plan::Framework]
        .iter()
        .map(|&p| chosen_before(p))
        .collect();

    let (hits, stats) = planner.query_with_stats(&q, &[0, 1]).unwrap();
    assert_eq!(hits.len(), 300);

    let plans = [Plan::KeywordsOnly, Plan::StructuredOnly, Plan::Framework];
    let after: Vec<u64> = plans.iter().map(|&p| chosen_before(p)).collect();
    let idx = plans
        .iter()
        .position(|&p| stats.route == Some(p.into()))
        .expect("the chosen plan is recorded in the stats");
    assert_eq!(
        after[idx],
        before[idx] + 1,
        "chosen-plan counter for {:?} must increment",
        plans[idx]
    );
}

#[test]
fn planned_query_logs_predicted_and_actual_cost() {
    let d = dataset();
    let planner = PlannedOrpKw::try_build(&d, 2, None).unwrap();
    let (hits, stats) = planner
        .query_with_stats(&Rect::new(&[0.0, 0.0], &[10.0, 10.0]), &[0, 1])
        .unwrap();

    // The query log is global; scan recent records for ours.
    let records = obs::query_log().recent(obs::QUERY_LOG_CAPACITY);
    let record = records
        .iter()
        .rev()
        .find(|r| r.kind == "orp_planned" && r.reported == hits.len() as u64)
        .expect("planned query must appear in the query log");
    assert_eq!(record.k, 2);
    assert_eq!(record.plan, stats.route.map(Route::label));
    let predicted = record.predicted_cost.expect("predicted cost recorded");
    let actual = record.actual_cost.expect("actual cost recorded");
    assert!(predicted > 0.0 && predicted.is_finite());
    assert!(actual > 0.0 && actual.is_finite());
}

#[test]
fn index_build_populates_build_series() {
    let d = dataset();
    let reg = obs::global();
    let before = reg
        .counter_value("skq_build_total", &[("index", "orp_kw")])
        .unwrap_or(0);
    let _index = OrpKwIndex::try_build(&d, 2).unwrap();
    let after = reg
        .counter_value("skq_build_total", &[("index", "orp_kw")])
        .unwrap_or(0);
    assert!(after > before, "build counter must increase");

    let rendered = reg.render_prometheus();
    assert!(rendered.contains("# TYPE skq_build_total counter"));
    assert!(rendered.contains("skq_build_nodes_total{index=\"orp_kw\"}"));
    assert!(rendered.contains("# TYPE skq_build_duration_microseconds histogram"));
}

#[test]
fn suite_query_routes_appear_in_query_log() {
    let d = dataset();
    let suite = structured_keyword_search::core::suite::OrpKwSuite::try_build(&d, 2).unwrap();
    // The serving entry records one query-log entry per request.
    let guard = QueryGuard::new();
    let (hits, stats) = suite
        .try_query_guarded(&Rect::full(2), &[], &guard)
        .unwrap();
    assert_eq!(hits.len(), 600);
    assert_eq!(stats.route, Some(Route::RangeScan));
    let records = obs::query_log().recent(obs::QUERY_LOG_CAPACITY);
    let record = records
        .iter()
        .rev()
        .find(|r| r.kind == "orp_suite" && r.reported == 600)
        .expect("suite query must be logged");
    assert_eq!(record.plan, Some("range_scan"));
}

#[test]
fn traced_query_bumps_span_counter_and_logs_trace_pointer() {
    let d = dataset();
    let reg = obs::global();
    let before = reg.counter_value("skq_trace_spans_total", &[]).unwrap_or(0);
    obs::trace::enable();
    let planner = PlannedOrpKw::try_build(&d, 2, None).unwrap();
    let hits = planner
        .query(&Rect::new(&[0.0, 0.0], &[5.0, 5.0]), &[0, 1])
        .unwrap();
    obs::trace::disable();
    let after = reg.counter_value("skq_trace_spans_total", &[]).unwrap_or(0);
    assert!(after > before, "enabled tracing must count recorded spans");

    // The query-log record points into the exported capture, and the
    // slowest-query tracker holds a record (it survives ring eviction).
    let records = obs::query_log().recent(obs::QUERY_LOG_CAPACITY);
    let record = records
        .iter()
        .rev()
        .find(|r| {
            r.kind == "orp_planned" && r.reported == hits.len() as u64 && r.trace_id.is_some()
        })
        .expect("traced planned query must log its trace_id");
    assert!(record.trace_id.unwrap_or(0) >= 1, "trace ids start at 1");
    assert!(obs::query_log().slowest().is_some());
}

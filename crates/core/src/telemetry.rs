//! Export hooks from index build/query paths into the global
//! [`skq_obs`] metrics registry and query log.
//!
//! Everything here funnels through [`skq_obs::global`] so that any
//! binary (the CLI, the bench harness, a test) can snapshot one
//! consistent registry with
//! [`render_prometheus`](skq_obs::MetricsRegistry::render_prometheus).
//! The counters are relaxed atomics; the only lock is the registry
//! handle lookup, so instrumented paths stay cheap. Series follow the
//! `skq_<subsystem>_<quantity>_<unit>` naming scheme with the variable
//! parts (index/problem kind) as labels.

use std::time::Duration;

use skq_obs::{global, query_log, QueryRecord};

use crate::stats::QueryStats;

/// Records one index construction: wall time, structural size, and the
/// estimated memory footprint.
///
/// `index` labels the series (`"orp_kw"`, `"srp_kw"`, `"nn_linf"`, …);
/// `nodes` is the number of tree nodes created, `pivots` the total
/// pivot-set entries materialized across them (0 when the structure
/// does not expose it), and `bytes` the estimated resident size
/// (`space_words() * 8`).
pub fn record_build(index: &'static str, duration: Duration, nodes: u64, pivots: u64, bytes: u64) {
    let reg = global();
    let labels = [("index", index)];
    reg.counter("skq_build_total", &labels).inc();
    reg.histogram("skq_build_duration_microseconds", &labels)
        .observe(duration.as_micros() as u64);
    reg.counter("skq_build_nodes_total", &labels).add(nodes);
    reg.counter("skq_build_pivots_total", &labels).add(pivots);
    reg.gauge("skq_build_estimated_bytes", &labels)
        .set(bytes as f64);
    if skq_obs::trace::is_enabled() {
        // Annotate the innermost open span (the `<index>.build` span
        // entered by the build path) so the trace shows what got built.
        skq_obs::trace::attach_str("index", index);
        skq_obs::trace::attach_u64("nodes", nodes);
        skq_obs::trace::attach_u64("pivots", pivots);
        skq_obs::trace::attach_u64("estimated_bytes", bytes);
    }
}

/// Records one query execution: the `skq_query_*` series, the open
/// span's trace attributes, and one query-log record. `route` is the
/// execution path taken ([`Route::label`](crate::stats::Route::label))
/// for entries that route between several, `None` otherwise.
pub fn record_query(
    kind: &'static str,
    k: usize,
    route: Option<&'static str>,
    stats: &QueryStats,
    duration: Duration,
) {
    let reg = global();
    let labels = [("kind", kind)];
    reg.counter("skq_query_total", &labels).inc();
    reg.counter("skq_query_nodes_visited_total", &labels)
        .add(stats.nodes_visited);
    reg.counter("skq_query_objects_examined_total", &labels)
        .add(stats.objects_examined());
    reg.counter("skq_query_reported_total", &labels)
        .add(stats.reported);
    reg.histogram("skq_query_duration_microseconds", &labels)
        .observe(duration.as_micros() as u64);
    reg.histogram("skq_query_objects_examined", &labels)
        .observe(stats.objects_examined());
    let trace_id = skq_obs::trace::current_trace_id();
    if trace_id.is_some() {
        // Annotate the innermost open span (the query span entered by
        // the calling wrapper, still open when it records telemetry)
        // with the execution counters the paper's analysis bounds.
        use skq_obs::trace;
        trace::attach_str("kind", kind);
        trace::attach_u64("k", k as u64);
        trace::attach_u64("nodes_visited", stats.nodes_visited);
        trace::attach_u64("cells_pruned", stats.covered_nodes + stats.small_path_nodes);
        trace::attach_u64("crossing_nodes", stats.crossing_nodes);
        trace::attach_u64("postings_scanned", stats.list_scans);
        trace::attach_u64("pivot_scans", stats.pivot_scans);
        trace::attach_u64("sink_emissions", stats.emitted);
        trace::attach_u64("reported", stats.reported);
        if let Some(r) = route {
            trace::attach_str("plan", r);
        }
    }
    query_log().push(QueryRecord {
        kind,
        k,
        plan: route,
        nodes_visited: stats.nodes_visited,
        objects_examined: stats.objects_examined(),
        reported: stats.reported,
        duration,
        trace_id,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query_series_appear() {
        let before_builds = global()
            .counter_value("skq_build_total", &[("index", "telemetry_test")])
            .unwrap_or(0);
        record_build("telemetry_test", Duration::from_micros(120), 10, 4, 8_000);
        assert_eq!(
            global().counter_value("skq_build_total", &[("index", "telemetry_test")]),
            Some(before_builds + 1)
        );

        let stats = QueryStats {
            nodes_visited: 6,
            pivot_scans: 3,
            list_scans: 2,
            reported: 1,
            ..Default::default()
        };
        let before_examined = global()
            .counter_value(
                "skq_query_objects_examined_total",
                &[("kind", "telemetry_test")],
            )
            .unwrap_or(0);
        record_query("telemetry_test", 2, None, &stats, Duration::from_micros(40));
        assert_eq!(
            global().counter_value(
                "skq_query_objects_examined_total",
                &[("kind", "telemetry_test")]
            ),
            Some(before_examined + 5)
        );
        let rendered = global().render_prometheus();
        assert!(rendered.contains("skq_query_duration_microseconds_bucket"));
    }
}

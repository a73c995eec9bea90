//! `skq-obs` — zero-dependency observability for the skq workspace.
//!
//! The paper this workspace reproduces evaluates its indexes by
//! *counting structural quantities* (crossing nodes, objects examined —
//! Lemmas 9–10, Propositions 1–3), so first-class measurement is not an
//! afterthought here: it is the experiment harness. This crate provides
//! the substrate, deliberately std-only so it can sit below every other
//! crate:
//!
//! * [`MetricsRegistry`] — named counters, gauges, and log₂-bucketed
//!   [`Histogram`]s, all updated with relaxed atomics (no locks on the
//!   hot path once a handle is held);
//! * [`Span`] — RAII wall-time timers recording into histograms, e.g.
//!   `Span::enter("orp.query")`;
//! * [`QueryLog`] — a fixed-capacity ring buffer of recent
//!   [`QueryRecord`]s for post-hoc debugging, with a slowest-query
//!   tracker pointing into the trace buffer;
//! * [`trace`] — opt-in structured tracing: every [`Span`] becomes a
//!   nested begin/end event pair with typed attributes, exportable as
//!   chrome-trace/Perfetto JSON via [`trace::export_chrome`];
//! * two exposition formats — [`MetricsRegistry::render_prometheus`]
//!   (the text format scrapers ingest) and
//!   [`MetricsRegistry::report`] (human-readable).
//!
//! # Naming scheme
//!
//! Exported series follow Prometheus conventions with the `skq_`
//! prefix: `skq_<subsystem>_<quantity>_<unit>` for histograms and
//! gauges and `skq_<subsystem>_<thing>_total` for counters, with the
//! variable part (index kind, query kind, span name) carried in labels —
//! e.g. `skq_build_duration_microseconds{index="orp_kw"}`,
//! `skq_query_total{kind="orp_suite"}`,
//! `skq_span_duration_microseconds{span="orp.query"}`.
//!
//! # Global vs. local
//!
//! Library code records into [`global()`] / [`query_log()`] so the CLI
//! and harness can export everything process-wide; tests that need
//! isolation construct their own [`MetricsRegistry`] or reason about
//! counter deltas.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod expose;
mod histogram;
mod metrics;
mod querylog;
mod span;
pub mod trace;

pub use expose::{escape_label_value, sanitize_name};
pub use histogram::{bucket_index, bucket_upper_edge, Histogram, NUM_BUCKETS};
pub use metrics::{Counter, Gauge, MetricKind, MetricsRegistry};
pub use querylog::{QueryLog, QueryRecord};
pub use span::{Span, SPAN_METRIC};
pub use trace::{AttrValue, TraceEvent};

use std::sync::OnceLock;

/// Capacity of the [global query log](query_log).
pub const QUERY_LOG_CAPACITY: usize = 256;

static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
static QUERY_LOG: OnceLock<QueryLog> = OnceLock::new();

/// The process-wide metrics registry.
pub fn global() -> &'static MetricsRegistry {
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// The process-wide query log (capacity [`QUERY_LOG_CAPACITY`]).
pub fn query_log() -> &'static QueryLog {
    QUERY_LOG.get_or_init(|| QueryLog::new(QUERY_LOG_CAPACITY))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_shared() {
        global().counter("skq_obs_selftest_total", &[]).inc();
        assert!(
            global()
                .counter_value("skq_obs_selftest_total", &[])
                .unwrap()
                >= 1
        );
    }

    #[test]
    fn global_query_log_has_fixed_capacity() {
        assert_eq!(query_log().capacity(), QUERY_LOG_CAPACITY);
    }
}

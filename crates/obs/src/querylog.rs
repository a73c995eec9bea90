//! A fixed-capacity ring buffer of recent query records.
//!
//! Metrics aggregate; the query log keeps the last few hundred
//! individual executions — problem kind, `k`, the route taken, the
//! execution counters, and wall time — for
//! post-hoc debugging ("what did the slow queries have in common?").

use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// One recorded query execution.
#[derive(Clone, Debug, Default)]
pub struct QueryRecord {
    /// Problem kind (`"orp_suite"`, `"orp_dynamic"`, `"cli_rect"`, …).
    pub kind: &'static str,
    /// Number of query keywords.
    pub k: usize,
    /// Route taken, for entries that route between several (the
    /// suite's `Route::label`).
    pub plan: Option<&'static str>,
    /// Tree nodes visited.
    pub nodes_visited: u64,
    /// Objects examined (pivot + list scans).
    pub objects_examined: u64,
    /// Objects reported.
    pub reported: u64,
    /// Wall time of the execution.
    pub duration: Duration,
    /// Root-span id in the [trace buffer](crate::trace) when the query
    /// ran under tracing — the pointer from the log into the exported
    /// chrome-trace file (`args.trace_id` on every event of the query).
    pub trace_id: Option<u64>,
}

/// A bounded, thread-safe ring buffer of [`QueryRecord`]s.
///
/// Besides the ring, the log tracks the slowest record seen since the
/// last [`clear`](Self::clear) — the ring may have evicted it, but its
/// [`trace_id`](QueryRecord::trace_id) keeps pointing into the trace.
#[derive(Debug)]
pub struct QueryLog {
    capacity: usize,
    inner: Mutex<VecDeque<QueryRecord>>,
    slowest: Mutex<Option<QueryRecord>>,
}

impl QueryLog {
    /// An empty log holding at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(VecDeque::with_capacity(capacity.max(1))),
            slowest: Mutex::new(None),
        }
    }

    /// Appends a record, evicting the oldest when full.
    pub fn push(&self, record: QueryRecord) {
        {
            let mut s = self.slowest.lock().unwrap_or_else(PoisonError::into_inner);
            let is_slowest = match s.as_ref() {
                Some(r) => record.duration >= r.duration,
                None => true,
            };
            if is_slowest {
                *s = Some(record.clone());
            }
        }
        let mut q = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if q.len() == self.capacity {
            q.pop_front();
        }
        q.push_back(record);
    }

    /// The slowest record since the last [`clear`](Self::clear), even
    /// if the ring has already evicted it.
    pub fn slowest(&self) -> Option<QueryRecord> {
        self.slowest
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The most recent `n` records, oldest first.
    pub fn recent(&self, n: usize) -> Vec<QueryRecord> {
        let q = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let skip = q.len().saturating_sub(n);
        q.iter().skip(skip).cloned().collect()
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of records held.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Removes all records and resets the slowest-query tracker.
    pub fn clear(&self) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        *self.slowest.lock().unwrap_or_else(PoisonError::into_inner) = None;
    }

    /// One line per recent record, oldest first.
    pub fn report(&self, n: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for r in self.recent(n) {
            let plan = r.plan.unwrap_or("-");
            let _ = write!(
                out,
                "{} k={} plan={} visited={} examined={} reported={} {}µs",
                r.kind,
                r.k,
                plan,
                r.nodes_visited,
                r.objects_examined,
                r.reported,
                r.duration.as_micros()
            );
            if let Some(t) = r.trace_id {
                let _ = write!(out, " trace={t}");
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(k: usize) -> QueryRecord {
        QueryRecord {
            kind: "orp",
            k,
            ..Default::default()
        }
    }

    #[test]
    fn push_and_recent() {
        let log = QueryLog::new(8);
        log.push(rec(2));
        log.push(rec(3));
        let r = log.recent(10);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].k, 2);
        assert_eq!(r[1].k, 3);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let log = QueryLog::new(3);
        for k in 0..5 {
            log.push(rec(k));
        }
        assert_eq!(log.len(), 3);
        let ks: Vec<usize> = log.recent(3).iter().map(|r| r.k).collect();
        assert_eq!(ks, vec![2, 3, 4]);
    }

    #[test]
    fn recent_limits() {
        let log = QueryLog::new(10);
        for k in 0..6 {
            log.push(rec(k));
        }
        let ks: Vec<usize> = log.recent(2).iter().map(|r| r.k).collect();
        assert_eq!(ks, vec![4, 5]);
    }

    #[test]
    fn slowest_survives_ring_eviction() {
        let log = QueryLog::new(2);
        log.push(QueryRecord {
            kind: "slow",
            duration: Duration::from_micros(900),
            trace_id: Some(7),
            ..Default::default()
        });
        for k in 0..5 {
            log.push(QueryRecord {
                kind: "fast",
                k,
                duration: Duration::from_micros(10),
                ..Default::default()
            });
        }
        // The ring only holds the last two fast records…
        assert!(log.recent(10).iter().all(|r| r.kind == "fast"));
        // …but the slowest tracker still points at the slow one's trace.
        let slowest = log.slowest().expect("slowest tracked");
        assert_eq!(slowest.kind, "slow");
        assert_eq!(slowest.trace_id, Some(7));
        log.clear();
        assert!(log.slowest().is_none());
    }

    #[test]
    fn report_includes_trace_pointer() {
        let log = QueryLog::new(4);
        log.push(QueryRecord {
            kind: "orp",
            trace_id: Some(3),
            ..Default::default()
        });
        assert!(log.report(4).contains(" trace=3"), "{}", log.report(4));
    }

    #[test]
    fn report_includes_route() {
        let log = QueryLog::new(4);
        log.push(QueryRecord {
            kind: "orp_suite",
            k: 2,
            plan: Some("framework"),
            ..Default::default()
        });
        let r = log.report(4);
        assert!(r.contains("orp_suite k=2 plan=framework"), "{r}");
    }
}

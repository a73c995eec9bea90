//! Query guards: deadlines, cooperative cancellation, result budgets.
//!
//! A production query must never run unboundedly: the ROADMAP's service
//! setting needs per-request deadlines, client-driven cancellation, and
//! result-count caps. [`QueryGuard`] bundles the three limits and
//! [`GuardedSink`] enforces them on any [`ResultSink`] — the guard
//! checks run at each emission, so a traversal stops (via
//! `ControlFlow::Break`) at the first result produced after a limit is
//! exceeded. Guards are *cooperative*: a traversal that produces no
//! results between checks is bounded instead by the index's
//! output-sensitive cost `O(N^{1−1/k})` (Table 1), which is exactly
//! the regime where the paper guarantees fast termination anyway.
//!
//! ```
//! use skq_core::guard::{GuardedSink, QueryGuard};
//! use skq_core::sink::ResultSink;
//! use std::time::Duration;
//!
//! let guard = QueryGuard::new()
//!     .with_deadline(Duration::from_millis(50))
//!     .with_max_results(1_000);
//! let mut out = Vec::new();
//! let mut sink = GuardedSink::new(&mut out, &guard);
//! // … index.query_sink(&q, &kws, &mut sink, &mut stats) …
//! # let _ = sink.emit(7);
//! assert_eq!(out, vec![7]);
//! ```

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::SkqError;
use crate::sink::ResultSink;
use crate::stats::TruncatedReason;

/// A shared cancellation flag. Clones observe the same flag, so a
/// caller can hand one clone to a query (possibly on another thread)
/// and trip the other from a control path.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trips the token: every guarded query holding a clone stops at
    /// its next emission check.
    pub fn cancel(&self) {
        // relaxed: monotonic one-way latch; no data is published
        // through the flag, cancellation only needs eventual
        // visibility at the next emission check
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether [`cancel`](Self::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        // relaxed: yes/no latch read on the emission hot path; a
        // stale `false` only delays the stop by one check
        self.flag.load(Ordering::Relaxed)
    }
}

/// The limits a guarded query runs under. All three are optional and
/// independent; an empty guard never trips.
#[derive(Clone, Debug, Default)]
pub struct QueryGuard {
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    max_results: Option<u64>,
}

impl QueryGuard {
    /// A guard with no limits.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms a deadline `d` from **now** (the guard's construction, not
    /// the query's start — build the guard when the request arrives).
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(Instant::now() + d);
        self
    }

    /// Attaches a cancellation token (keep a clone to trip it).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Caps the number of results a guarded sink accepts.
    pub fn with_max_results(mut self, n: usize) -> Self {
        self.max_results = Some(n as u64);
        self
    }

    /// The armed result budget, if any.
    pub fn max_results(&self) -> Option<u64> {
        self.max_results
    }

    /// Checks the deadline and the cancellation token (not the result
    /// budget, which only a sink can track). This is the public entry
    /// point that yields `SkqError::DeadlineExceeded` / `Cancelled`;
    /// long non-emitting phases (e.g. a build) can poll it directly.
    pub fn check(&self) -> Result<(), SkqError> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(SkqError::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() > deadline {
                return Err(SkqError::DeadlineExceeded);
            }
        }
        Ok(())
    }
}

/// Enforces a [`QueryGuard`] around any inner [`ResultSink`].
///
/// Each emission first re-checks cancellation and the deadline, then
/// the result budget; the first violated limit is latched as the
/// sink's [`truncated_reason`](Self::truncated_reason) and every
/// subsequent emission returns `ControlFlow::Break` immediately. The
/// corresponding observability counter
/// (`skq_query_deadline_exceeded` / `skq_query_cancelled`) is bumped
/// once, at latch time.
pub struct GuardedSink<S> {
    inner: S,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    max_results: Option<u64>,
    accepted: u64,
    reason: Option<TruncatedReason>,
}

impl<S: ResultSink> GuardedSink<S> {
    /// Wraps `inner` with the limits of `guard`.
    pub fn new(inner: S, guard: &QueryGuard) -> Self {
        Self {
            inner,
            deadline: guard.deadline,
            cancel: guard.cancel.clone(),
            max_results: guard.max_results,
            accepted: 0,
            reason: None,
        }
    }

    /// Which limit tripped, if any.
    pub fn truncated_reason(&self) -> Option<TruncatedReason> {
        self.reason
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The wrapped sink, mutably (for sinks whose configuration changes
    /// between traversals sharing one guard).
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Consumes the guard, returning the wrapped sink.
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn trip(&mut self, reason: TruncatedReason) -> ControlFlow<()> {
        if self.reason.is_none() {
            self.reason = Some(reason);
            match reason {
                TruncatedReason::DeadlineExceeded => {
                    skq_obs::global()
                        .counter("skq_query_deadline_exceeded", &[])
                        .inc();
                }
                TruncatedReason::Cancelled => {
                    skq_obs::global().counter("skq_query_cancelled", &[]).inc();
                }
                TruncatedReason::Limit => {}
            }
        }
        ControlFlow::Break(())
    }
}

impl<S: ResultSink> ResultSink for GuardedSink<S> {
    fn emit(&mut self, id: u32) -> ControlFlow<()> {
        if self.reason.is_some() {
            return ControlFlow::Break(());
        }
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return self.trip(TruncatedReason::Cancelled);
        }
        if self.deadline.is_some_and(|d| Instant::now() > d) {
            return self.trip(TruncatedReason::DeadlineExceeded);
        }
        if self.max_results.is_some_and(|m| self.accepted >= m) {
            return self.trip(TruncatedReason::Limit);
        }
        let before = self.inner.emitted();
        let flow = self.inner.emit(id);
        self.accepted += self.inner.emitted() - before;
        if flow == ControlFlow::Break(()) {
            return ControlFlow::Break(());
        }
        // Latch the budget as soon as it fills so the traversal stops
        // *at* the m-th acceptance rather than on the (m+1)-th offer.
        if self.max_results.is_some_and(|m| self.accepted >= m) {
            return self.trip(TruncatedReason::Limit);
        }
        ControlFlow::Continue(())
    }

    fn emitted(&self) -> u64 {
        self.accepted
    }

    fn truncated(&self) -> bool {
        self.reason.is_some() || self.inner.truncated()
    }

    fn is_full(&self) -> bool {
        self.reason.is_some()
            || self.max_results.is_some_and(|m| self.accepted >= m)
            || self.inner.is_full()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;

    fn feed<S: ResultSink>(sink: &mut S, ids: impl IntoIterator<Item = u32>) -> usize {
        let mut offered = 0;
        for id in ids {
            offered += 1;
            if sink.emit(id) == ControlFlow::Break(()) {
                break;
            }
        }
        offered
    }

    #[test]
    fn empty_guard_never_trips() {
        let guard = QueryGuard::new();
        assert!(guard.check().is_ok());
        let mut sink = GuardedSink::new(Vec::new(), &guard);
        feed(&mut sink, 0..100);
        assert_eq!(sink.emitted(), 100);
        assert!(!sink.truncated());
        assert_eq!(sink.truncated_reason(), None);
    }

    #[test]
    fn max_results_latches_limit() {
        let guard = QueryGuard::new().with_max_results(3);
        let mut sink = GuardedSink::new(Vec::new(), &guard);
        let offered = feed(&mut sink, 0..100);
        assert_eq!(offered, 3, "traversal stops at the 3rd acceptance");
        assert_eq!(sink.emitted(), 3);
        assert!(sink.truncated());
        assert_eq!(sink.truncated_reason(), Some(TruncatedReason::Limit));
        assert!(sink.is_full());
        assert_eq!(sink.into_inner(), vec![0, 1, 2]);
    }

    #[test]
    fn cancellation_stops_emission() {
        let token = CancelToken::new();
        let guard = QueryGuard::new().with_cancel(token.clone());
        let mut sink = GuardedSink::new(Vec::new(), &guard);
        assert_eq!(sink.emit(1), ControlFlow::Continue(()));
        token.cancel();
        assert_eq!(sink.emit(2), ControlFlow::Break(()));
        assert_eq!(sink.truncated_reason(), Some(TruncatedReason::Cancelled));
        assert_eq!(sink.emitted(), 1);
        assert!(guard.check() == Err(SkqError::Cancelled));
    }

    #[test]
    fn expired_deadline_trips_immediately() {
        let guard = QueryGuard::new().with_deadline(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(guard.check(), Err(SkqError::DeadlineExceeded));
        let mut sink = GuardedSink::new(Vec::new(), &guard);
        assert_eq!(sink.emit(1), ControlFlow::Break(()));
        assert_eq!(
            sink.truncated_reason(),
            Some(TruncatedReason::DeadlineExceeded)
        );
        assert_eq!(sink.emitted(), 0);
    }

    #[test]
    fn guard_forwards_inner_break() {
        use crate::sink::{CountSink, LimitSink};
        let guard = QueryGuard::new().with_max_results(10);
        let mut sink = GuardedSink::new(LimitSink::new(CountSink::new(), 2), &guard);
        let offered = feed(&mut sink, 0..100);
        assert_eq!(offered, 2);
        assert_eq!(sink.emitted(), 2);
        assert!(
            sink.truncated(),
            "inner truncation is visible through the guard"
        );
        assert_eq!(
            sink.truncated_reason(),
            None,
            "the guard itself never tripped"
        );
    }
}

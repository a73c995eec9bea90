//! The one query contract (DESIGN.md §10).
//!
//! Every problem in the paper asks one question: report
//! `q ∩ D(w₁, …, w_k)`. The threshold query of Corollary 4 is the same
//! traversal stopped after `t` results, a count is the same traversal
//! with nothing stored, and a guarded query is the same traversal
//! under a deadline. [`KwQuery`] states the question once: an index
//! supplies a typed input check and its streaming traversal, and every
//! other way of asking — collect, count, at-least, guarded — is a
//! provided method over the sinks of [`crate::sink`].
//!
//! ```
//! use skq_core::dataset::Dataset;
//! use skq_core::orp::OrpKwIndex;
//! use skq_core::query::KwQuery;
//! use skq_core::{QueryGuard, QueryStats};
//! use skq_geom::{Point, Rect};
//!
//! let data = Dataset::from_parts(vec![
//!     (Point::new2(1.0, 1.0), vec![0, 1]),
//!     (Point::new2(2.0, 2.0), vec![0, 1]),
//!     (Point::new2(3.0, 3.0), vec![0]),
//! ]);
//! let index = OrpKwIndex::try_build(&data, 2)?;
//! let q = Rect::full(2);
//! assert_eq!(index.count(&q, &[0, 1])?, 2);
//! assert!(index.count_at_least(&q, &[0, 1], 2)?);
//!
//! // A result cap is a guard.
//! let mut out = Vec::new();
//! let mut stats = QueryStats::new();
//! let guard = QueryGuard::new().with_max_results(1);
//! let _ = index.run(&q, &[0, 1], &guard, &mut out, &mut stats)?;
//! assert_eq!(out.len(), 1);
//! assert!(stats.truncated);
//!
//! // Malformed input is a typed error, never a panic.
//! assert!(index.query(&q, &[0, 0]).is_err());
//! # Ok::<(), skq_core::SkqError>(())
//! ```

use std::ops::ControlFlow;

use skq_invidx::Keyword;

use crate::error::{validate, SkqError};
use crate::guard::{GuardedSink, QueryGuard};
use crate::sink::{CountSink, LimitSink, ResultSink};
use crate::stats::{QueryStats, TruncatedReason};

/// A keyword-search index with a structured constraint of type
/// [`Shape`](Self::Shape).
pub trait KwQuery {
    /// The geometric part of a query: a rectangle, a ball, a halfspace
    /// conjunction, or `()` for pure keyword search.
    type Shape: ?Sized;

    /// Typed rejection of a malformed query: a dimension mismatch, a
    /// NaN bound, or the wrong number of distinct keywords.
    ///
    /// # Errors
    ///
    /// [`SkqError::InvalidQuery`] naming what is wrong.
    fn check(&self, shape: &Self::Shape, keywords: &[Keyword]) -> Result<(), SkqError>;

    /// The streaming traversal: every matching object id is emitted
    /// into `sink`, which decides whether to store, count, or stop.
    /// Unchecked — input that [`check`](Self::check) rejects may panic
    /// here; [`run`](Self::run) is the checked entry.
    fn query_sink<S: ResultSink>(
        &self,
        shape: &Self::Shape,
        keywords: &[Keyword],
        sink: &mut S,
        stats: &mut QueryStats,
    ) -> ControlFlow<()>;

    /// The checked, guarded query every other method is written over:
    /// [`check`](Self::check), then the traversal into `sink` under
    /// `guard`. `stats` records the emitted count, truncation, and the
    /// guard's [`TruncatedReason`].
    ///
    /// A filled result budget (`with_max_results`) is a successful,
    /// truncated answer. A deadline or cancellation is an error; `sink`
    /// keeps the results emitted before the guard tripped.
    ///
    /// # Errors
    ///
    /// [`check`](Self::check)'s errors, [`SkqError::DeadlineExceeded`],
    /// and [`SkqError::Cancelled`].
    fn run<S: ResultSink>(
        &self,
        shape: &Self::Shape,
        keywords: &[Keyword],
        guard: &QueryGuard,
        sink: &mut S,
        stats: &mut QueryStats,
    ) -> Result<ControlFlow<()>, SkqError> {
        self.check(shape, keywords)?;
        let mut guarded = GuardedSink::new(&mut *sink, guard);
        let flow = self.query_sink(shape, keywords, &mut guarded, stats);
        let reason = guarded.truncated_reason();
        stats.emitted += guarded.emitted();
        stats.truncated |= guarded.truncated();
        stats.truncated_reason = stats.truncated_reason.or(reason);
        match reason {
            Some(TruncatedReason::DeadlineExceeded) => Err(SkqError::DeadlineExceeded),
            Some(TruncatedReason::Cancelled) => Err(SkqError::Cancelled),
            Some(TruncatedReason::Limit) | None => Ok(flow),
        }
    }

    /// Every matching object id, in traversal order.
    ///
    /// # Errors
    ///
    /// [`check`](Self::check)'s errors.
    fn query(&self, shape: &Self::Shape, keywords: &[Keyword]) -> Result<Vec<u32>, SkqError> {
        Ok(self.query_with_stats(shape, keywords)?.0)
    }

    /// [`query`](Self::query) plus the execution statistics.
    ///
    /// # Errors
    ///
    /// [`check`](Self::check)'s errors.
    fn query_with_stats(
        &self,
        shape: &Self::Shape,
        keywords: &[Keyword],
    ) -> Result<(Vec<u32>, QueryStats), SkqError> {
        let mut out = Vec::new();
        let mut stats = QueryStats::new();
        let _ = self.run(shape, keywords, &QueryGuard::new(), &mut out, &mut stats)?;
        Ok((out, stats))
    }

    /// The number of matching objects, with no result materialization
    /// (a [`CountSink`] run).
    ///
    /// # Errors
    ///
    /// [`check`](Self::check)'s errors.
    fn count(&self, shape: &Self::Shape, keywords: &[Keyword]) -> Result<u64, SkqError> {
        let mut sink = CountSink::new();
        let _ = self.run(
            shape,
            keywords,
            &QueryGuard::new(),
            &mut sink,
            &mut QueryStats::new(),
        )?;
        Ok(sink.count())
    }

    /// Whether at least `t ≥ 1` objects match: the threshold query of
    /// Corollary 4, `O(N^{1−1/k} · t^{1/k})` by early termination and
    /// allocation-free on the result side (a [`LimitSink`] over a
    /// [`CountSink`]).
    ///
    /// # Errors
    ///
    /// [`SkqError::InvalidQuery`] if `t = 0`, plus
    /// [`check`](Self::check)'s errors.
    fn count_at_least(
        &self,
        shape: &Self::Shape,
        keywords: &[Keyword],
        t: usize,
    ) -> Result<bool, SkqError> {
        validate::result_count(t)?;
        let mut probe = LimitSink::new(CountSink::new(), t);
        let _ = self.run(
            shape,
            keywords,
            &QueryGuard::new(),
            &mut probe,
            &mut QueryStats::new(),
        )?;
        Ok(probe.emitted() >= t as u64)
    }
}

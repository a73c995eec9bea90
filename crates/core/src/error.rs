//! Typed errors for the fallible construction and query surfaces.
//!
//! Every `try_build` entry point and every query (the
//! [`KwQuery`](crate::query::KwQuery) contract) returns [`SkqError`],
//! as do the snapshot codec and the serving layer. The one panicking
//! surface left, `Dataset::new`/`from_parts`, panics with the error's
//! `Display` text of its `try_` twin.

use std::fmt;

/// The error type shared by every fallible surface in `skq-core`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SkqError {
    /// The dataset violates a construction invariant: empty input,
    /// inconsistent dimensions, non-finite coordinates, or an object
    /// with an empty keyword set.
    InvalidDataset(String),
    /// The query is malformed for the target index: wrong
    /// dimensionality, wrong number of distinct keywords, NaN
    /// coordinates, or an out-of-domain parameter.
    InvalidQuery(String),
    /// A guarded query ran past its deadline; the sink holds the
    /// partial results emitted before the guard tripped.
    DeadlineExceeded,
    /// A guarded query observed its `CancelToken` in the cancelled
    /// state; the sink holds the partial results.
    Cancelled,
    /// The serving layer's admission control rejected the request:
    /// the job queue was at capacity, so accepting more work would only
    /// grow latency past every deadline.
    Overloaded {
        /// Queue depth observed when the request was rejected.
        queue_depth: usize,
    },
    /// A persistence-tier failure outside the snapshot bytes
    /// themselves: I/O, a missing snapshot name, or an index variant
    /// the paged format does not (yet) encode.
    Store {
        /// The backend or operation that failed (`mem`, `file`,
        /// `save`, …).
        backend: String,
        /// What went wrong, in one line.
        message: String,
    },
    /// A snapshot failed validation while loading: wrong magic, a
    /// future schema version, a checksum mismatch, truncation, or a
    /// decoded structure that violates an index invariant. Loading
    /// never panics on bad bytes — it returns this.
    Corrupted {
        /// The snapshot section being decoded when the damage was
        /// detected (`header`, `page`, `dataset`, `postings`, …).
        section: String,
        /// What the validator saw, in one line.
        detail: String,
    },
    /// An internal invariant violation or an injected fail point.
    Internal(String),
}

impl SkqError {
    /// Short machine-friendly label for the variant (used as a metric
    /// label and in the query log).
    pub fn kind(&self) -> &'static str {
        match self {
            SkqError::InvalidDataset(_) => "invalid_dataset",
            SkqError::InvalidQuery(_) => "invalid_query",
            SkqError::DeadlineExceeded => "deadline_exceeded",
            SkqError::Cancelled => "cancelled",
            SkqError::Overloaded { .. } => "overloaded",
            SkqError::Store { .. } => "store",
            SkqError::Corrupted { .. } => "corrupted",
            SkqError::Internal(_) => "internal",
        }
    }
}

impl fmt::Display for SkqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // The message alone: `Dataset::new`/`from_parts` panic with
            // `{self}` and existing callers match on these substrings.
            SkqError::InvalidDataset(msg) => f.write_str(msg),
            SkqError::InvalidQuery(msg) => f.write_str(msg),
            SkqError::DeadlineExceeded => f.write_str("query deadline exceeded"),
            SkqError::Cancelled => f.write_str("query cancelled"),
            SkqError::Overloaded { queue_depth } => {
                write!(
                    f,
                    "server overloaded: job queue full ({queue_depth} pending)"
                )
            }
            SkqError::Store { backend, message } => {
                write!(f, "store error ({backend}): {message}")
            }
            SkqError::Corrupted { section, detail } => {
                write!(f, "snapshot corrupted in section `{section}`: {detail}")
            }
            SkqError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for SkqError {}

/// Shared query-validation helpers behind every
/// [`KwQuery::check`](crate::query::KwQuery::check) (public so service
/// layers can pre-validate before cheaper unvalidated sink paths —
/// e.g. the brownout count-only rung).
pub mod validate {
    use std::ops::RangeInclusive;

    use super::SkqError;
    use skq_geom::{ConvexPolytope, Point, Rect};

    /// The build-time `k` range every framework-backed index accepts.
    pub fn build_k(k: usize) -> Result<(), SkqError> {
        build_ks(&(k..=k))
    }

    /// A non-empty range of build-time `k` inside `2..=16` — the `k`
    /// served by one multi-layer framework build.
    pub fn build_ks(ks: &RangeInclusive<usize>) -> Result<(), SkqError> {
        if ks.is_empty() {
            return Err(SkqError::InvalidQuery(format!(
                "the k range {ks:?} is empty"
            )));
        }
        if *ks.start() < 2 {
            return Err(SkqError::InvalidQuery(
                "the framework requires k >= 2 query keywords".into(),
            ));
        }
        if *ks.end() > 16 {
            return Err(SkqError::InvalidQuery(
                "k > 16 keywords is unsupported (and pointless: the bound degrades to O(N))".into(),
            ));
        }
        Ok(())
    }

    /// The number of distinct keywords, by pairwise comparison: query
    /// keyword sets are tiny (`k ≤ 16`), so this beats sorting a copy
    /// and allocates nothing.
    pub fn count_distinct(keywords: &[u32]) -> usize {
        keywords
            .iter()
            .enumerate()
            .filter(|&(i, w)| !keywords[..i].contains(w))
            .count()
    }

    /// Exactly `k` distinct keywords (the framework's query contract).
    pub fn distinct_keywords(keywords: &[u32], k: usize) -> Result<(), SkqError> {
        distinct_keywords_in(keywords, &(k..=k))
    }

    /// A distinct-keyword count inside `ks` (the contract of an index
    /// serving several `k`).
    pub fn distinct_keywords_in(
        keywords: &[u32],
        ks: &RangeInclusive<usize>,
    ) -> Result<(), SkqError> {
        let distinct = count_distinct(keywords);
        if !ks.contains(&distinct) {
            let (lo, hi) = (ks.start(), ks.end());
            let want = if lo == hi {
                format!("exactly {lo}")
            } else {
                format!("{lo} to {hi}")
            };
            return Err(SkqError::InvalidQuery(format!(
                "the index was built for {want} distinct keywords, got {distinct}"
            )));
        }
        Ok(())
    }

    /// A neighbour count or threshold `t ≥ 1` (`t = 0` asks for
    /// nothing, which is a malformed query rather than an empty one).
    pub fn result_count(t: usize) -> Result<(), SkqError> {
        if t == 0 {
            return Err(SkqError::InvalidQuery(
                "the result count t must be at least 1".into(),
            ));
        }
        Ok(())
    }

    /// Dimension match and NaN-free bounds (±∞ is a legitimate open
    /// side — `Rect::full` is a common query).
    pub fn rect_query(q: &Rect, dim: usize) -> Result<(), SkqError> {
        if q.dim() != dim {
            return Err(SkqError::InvalidQuery(format!(
                "query dimension mismatch: rect is {}-dimensional, index is {dim}-dimensional",
                q.dim()
            )));
        }
        for i in 0..dim {
            if q.lo(i).is_nan() || q.hi(i).is_nan() {
                return Err(SkqError::InvalidQuery(format!(
                    "query rectangle has a NaN bound in dimension {i}"
                )));
            }
        }
        Ok(())
    }

    /// Dimension match and NaN-free coefficients for a halfspace
    /// conjunction (an empty polytope — no constraints — is valid and
    /// means "unconstrained").
    pub fn polytope_query(q: &ConvexPolytope, dim: usize) -> Result<(), SkqError> {
        if let Some(d) = q.dim() {
            if d != dim {
                return Err(SkqError::InvalidQuery(format!(
                    "query dimension mismatch: constraints are {d}-dimensional, index is {dim}-dimensional"
                )));
            }
        }
        for (i, h) in q.halfspaces().iter().enumerate() {
            if h.bound().is_nan() || h.coeffs().iter().any(|c| c.is_nan()) {
                return Err(SkqError::InvalidQuery(format!(
                    "constraint {i} has a NaN coefficient or bound"
                )));
            }
        }
        Ok(())
    }

    /// Dimension match and fully finite coordinates (query points may
    /// not be at infinity — distances would be meaningless).
    pub fn point_query(p: &Point, dim: usize) -> Result<(), SkqError> {
        if p.dim() != dim {
            return Err(SkqError::InvalidQuery(format!(
                "query dimension mismatch: point is {}-dimensional, index is {dim}-dimensional",
                p.dim()
            )));
        }
        for i in 0..dim {
            if !p.get(i).is_finite() {
                return Err(SkqError::InvalidQuery(format!(
                    "query point has a non-finite coordinate in dimension {i}"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_preserves_validation_text() {
        let e = SkqError::InvalidDataset("a dataset needs a non-empty set of objects".into());
        assert_eq!(format!("{e}"), "a dataset needs a non-empty set of objects");
        assert_eq!(e.kind(), "invalid_dataset");
    }

    #[test]
    fn distinct_keywords_counts_without_sorting() {
        assert_eq!(validate::count_distinct(&[]), 0);
        assert_eq!(validate::count_distinct(&[5, 3, 5, 3, 9]), 3);
        assert!(validate::distinct_keywords(&[7, 2], 2).is_ok());
        let err = validate::distinct_keywords(&[7, 7], 2).unwrap_err();
        assert!(err.to_string().contains("got 1"), "{err}");
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn std::error::Error> = Box::new(SkqError::DeadlineExceeded);
        assert_eq!(e.to_string(), "query deadline exceeded");
    }
}

//! Deep structural validation (DESIGN.md §12).
//!
//! Every index exposes one checker, `validate()`, that re-derives the
//! paper's structural invariants from the *built* structure — not from
//! the build path's own bookkeeping — so a bug that corrupts an index
//! without tripping an assertion is still caught the moment a test
//! validates it. Violations carry a stable invariant *name*
//! (`"framework::pivot_partition"`, `"dynamic::carry_bound"`, …)
//! naming the broken lemma or contract, plus a human-readable detail
//! string locating the damage.
//!
//! The checkers are `O(index size)` per call (some are
//! `O(size · log size)` from re-sorting) and compile in every build.
//! The `debug-invariants` cargo feature only makes the suite snapshot
//! load path (`OrpKwSuite::try_load`) call them automatically.

use std::fmt;

/// A broken structural invariant: which one, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    invariant: &'static str,
    detail: String,
}

impl InvariantViolation {
    /// Creates a violation of the named invariant.
    pub fn new(invariant: &'static str, detail: impl Into<String>) -> Self {
        Self {
            invariant,
            detail: detail.into(),
        }
    }

    /// The stable invariant name, e.g. `"framework::pivot_partition"`.
    pub fn invariant(&self) -> &'static str {
        self.invariant
    }

    /// The human-readable description of the damage.
    pub fn detail(&self) -> &str {
        &self.detail
    }
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invariant {} violated: {}", self.invariant, self.detail)
    }
}

impl std::error::Error for InvariantViolation {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_display_names_the_invariant() {
        let v = InvariantViolation::new("framework::pivot_partition", "object 7 stored twice");
        assert_eq!(v.invariant(), "framework::pivot_partition");
        assert_eq!(
            v.to_string(),
            "invariant framework::pivot_partition violated: object 7 stored twice"
        );
    }
}

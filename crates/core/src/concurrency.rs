//! Shared concurrency plumbing.
//!
//! `skq-serve`'s worker pool needs two small decisions made once: what
//! a thread count of zero means, and what to default to when the caller
//! expresses no preference. This module is the single home for both.

/// Clamps a requested thread count to something that makes progress.
///
/// A zero-width pool would never complete any work, so the nearest
/// meaningful interpretation of `0` is sequential execution on one
/// thread. Every other request is taken at face value —
/// oversubscription is the caller's informed choice.
#[inline]
#[must_use]
pub fn effective_threads(requested: usize) -> usize {
    requested.max(1)
}

/// The machine's available parallelism, for callers that want a
/// hardware-sized default rather than an explicit count.
///
/// Falls back to 1 when the platform cannot report a value (the
/// documented `available_parallelism` failure mode), so the result is
/// always a valid input to a pool constructor.
#[must_use]
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_clamps_to_one() {
        assert_eq!(effective_threads(0), 1);
    }

    #[test]
    fn positive_counts_pass_through() {
        for t in [1usize, 2, 3, 8, 64, 1024] {
            assert_eq!(effective_threads(t), t);
        }
    }

    #[test]
    fn available_is_always_usable() {
        let t = available_threads();
        assert!(t >= 1);
        assert_eq!(effective_threads(t), t);
    }
}

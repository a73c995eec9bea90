//! The index-transformation framework (paper §3).
//!
//! The paper's primary technical contribution is a generic four-step
//! recipe that converts a *space-partitioning* geometric index into an
//! index supporting keyword predicates:
//!
//! 1. **Identify a space-partitioning index** — here abstracted as the
//!    [`Partitioner`] trait. Two instantiations are provided: the
//!    weighted kd-tree of §3 ([`KdPartitioner`]) and a Willard-style
//!    partition tree standing in for Appendix D's partition tree
//!    ([`WillardPartitioner`]).
//! 2. **Convert under general position** — [`TransformedIndex`] builds
//!    the tree over the *verbose set* (each object weighted by
//!    `|e.Doc|`), maintains *active* and *pivot* sets, classifies
//!    keywords as *large*/*small* per node against the threshold
//!    `N_u^{1−1/k}`, stores a per-node secondary structure (a sorted
//!    large-keyword table plus a `k`-dimensional emptiness bit array per
//!    child, see [`ComboTable`]), and materializes `D_u^act(w)` exactly
//!    when `w` is small at `u` but large at all proper ancestors. The
//!    built tree is a few flat arrays: a node arena over shared id
//!    pools, and per keyword layer a table slot per node over shared
//!    keyword, bit-word and list pools.
//! 3. **Bound the crossing sensitivity** — the query algorithm records
//!    covered/crossing classifications in
//!    [`QueryStats`](crate::QueryStats) so the harness can measure the
//!    crossing sensitivity the analysis bounds.
//! 4. **Remove general position** — callers normalize inputs (rank
//!    space for orthogonal problems, lexicographic tie-breaking by
//!    object id inside the partitioners otherwise).

mod combo;
mod index;
mod kd;
mod partitioner;
mod willard;

pub use combo::{for_each_k_subset, table_words, ComboTable};
pub use index::{FrameworkConfig, TransformedIndex};
pub use kd::{doc_weights, KdPartitioner, PackedRects};
pub use partitioner::{CellStore, Partitioner, SplitOutcome};
pub use willard::WillardPartitioner;

//! Keyword-search indexes with structured constraints.
//!
//! This crate implements the indexes of
//!
//! > Shangqi Lu and Yufei Tao. *Indexing for Keyword Search with
//! > Structured Constraints.* PODS 2023.
//!
//! The input is a set `D` of objects, each a point in `R^d` carrying a
//! non-empty document (a set of integer keywords). A query combines `k`
//! keywords with a geometric predicate; the indexes here answer such
//! queries in `~O(N^{1−1/k} · (1 + OUT^{1/k}))` time with (near-)linear
//! space, where `N = Σ_e |e.Doc|` is the input size and `OUT` the output
//! size — beating both naive solutions ("evaluate the geometry then
//! filter keywords" and vice versa) whenever `OUT = o(N)`.
//!
//! # Modules
//!
//! * [`dataset`] — input representation (`D`, `N`, `W`).
//! * [`framework`] — §3's four-step transformation framework, generic
//!   over a space-partitioning strategy (kd-tree and Willard partition
//!   tree included).
//! * [`dimred`] — §4's dimension-reduction technique (Theorem 2).
//! * One module per problem: [`orp`] (Theorems 1–2), [`rr`]
//!   (Corollary 3), [`nn_linf`] (Corollary 4), [`sp`]/[`lc`]
//!   (Theorems 5/12), [`srp`] (Corollary 6), [`nn_l2`] (Corollary 7),
//!   and [`ksi`] (§1.2's pure `k`-set intersection).
//! * [`naive`] — the two naive baselines plus a full scan, for every
//!   problem.
//! * [`dynamic`] — insertions/deletions via the logarithmic method
//!   (ORP-KW is a decomposable search problem).
//! * [`planner`] — a cost-based choice among the three strategies.
//! * [`suite`] — one index per `k ∈ 2..=k_max`, routed automatically.
//! * [`query`] — the one query contract, [`KwQuery`]: a typed input
//!   check plus a streaming traversal per index, with collect, count,
//!   at-least and guarded queries written once over sinks.
//! * [`sink`] — streaming result emission: every traversal reports
//!   through a [`sink::ResultSink`], so collecting, counting,
//!   limit-`t`, dedup, and tee behaviours compose without re-walking
//!   (or even materializing) result vectors.
//! * [`stats`] — query-execution statistics used by the experiment
//!   harness to measure the quantities in the paper's analysis
//!   (covered/crossing nodes of §3.3, type-1/type-2 nodes of §4).
//! * [`telemetry`] — export hooks feeding build/query/planner series
//!   into the process-wide `skq-obs` metrics registry and query log.
//! * [`concurrency`] — shared thread-count clamping used by [`batch`]
//!   and the `skq-serve` worker pool.
//! * [`persist`] — the paged snapshot codec behind the `skq-store`
//!   persistence tier: the [`persist::Persist`] trait plus the
//!   page-walk reader/writer with checksums and schema versioning.
//! * [`error`] / [`guard`] / [`failpoints`] — the robustness layer
//!   (DESIGN.md §11): typed errors for `try_build` and every query,
//!   deadline/cancellation/budget guards for queries, and chaos-test
//!   fail-point injection.
//! * [`invariants`] — the violation type of the single structural
//!   checker, each index's `validate()` (DESIGN.md §12).
//!
//! # Example
//!
//! ```
//! use skq_core::dataset::Dataset;
//! use skq_core::orp::OrpKwIndex;
//! use skq_core::query::KwQuery;
//! use skq_geom::{Point, Rect};
//!
//! // Hotels: (price, rating) plus feature tags as integer keywords.
//! const POOL: u32 = 0;
//! const PARKING: u32 = 1;
//! let dataset = Dataset::from_parts(vec![
//!     (Point::new2(120.0, 8.5), vec![POOL, PARKING]),
//!     (Point::new2(180.0, 9.0), vec![POOL]),
//!     (Point::new2(150.0, 8.8), vec![PARKING, POOL]),
//! ]);
//!
//! let index = OrpKwIndex::try_build(&dataset, 2)?;
//! let q = Rect::new(&[100.0, 8.0], &[200.0, 10.0]);
//! let mut hits = index.query(&q, &[POOL, PARKING])?;
//! hits.sort_unstable();
//! assert_eq!(hits, vec![0, 2]);
//! # Ok::<(), skq_core::SkqError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// The orchestration layers sit on every request path of the ROADMAP's
// service story, so they must not abort on recoverable conditions:
// clippy.toml bans `unwrap()`/`expect()` and the panic-family macros in
// them (tests re-allow; documented panicking wrappers carry justified
// allows audited by skq-lint).
#[warn(clippy::disallowed_methods, clippy::disallowed_macros)]
pub mod batch;
pub mod concurrency;
pub mod dataset;
pub mod dimred;
#[warn(clippy::disallowed_methods, clippy::disallowed_macros)]
pub mod dynamic;
pub mod error;
pub mod failpoints;
pub mod fastmap;
pub mod framework;
pub mod guard;
pub mod invariants;
pub mod ksi;
pub mod lc;
pub mod naive;
pub mod nn_l2;
pub mod nn_linf;
pub mod orp;
pub mod persist;
#[warn(clippy::disallowed_methods, clippy::disallowed_macros)]
pub mod planner;
pub mod query;
pub mod rr;
pub mod sink;
pub mod sp;
pub mod srp;
pub mod stats;
#[warn(clippy::disallowed_methods, clippy::disallowed_macros)]
pub mod suite;
pub mod telemetry;

pub use dataset::Dataset;
pub use error::SkqError;
pub use guard::{CancelToken, GuardedSink, QueryGuard};
pub use query::KwQuery;
pub use stats::{QueryStats, Route, TruncatedReason};

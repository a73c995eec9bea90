//! # structured-keyword-search
//!
//! Indexes for **keyword search with structured constraints**, a Rust
//! implementation of
//!
//! > Shangqi Lu and Yufei Tao. *Indexing for Keyword Search with
//! > Structured Constraints.* PODS 2023.
//!
//! Each object in a dataset is a point in `R^d` carrying a non-empty
//! *document* (a set of integer keywords). Queries combine `k`
//! keywords — "contains all of them" — with a geometric predicate:
//! a rectangle, a conjunction of linear constraints, a simplex, a
//! Euclidean ball, or nearest-neighbour prioritization. Both naive
//! strategies (evaluate the geometry then filter keywords, or intersect
//! postings lists then filter geometrically) can scan `Θ(N)` candidates
//! while reporting nothing; the indexes here answer every such query in
//! `~O(N^{1−1/k} · (1 + OUT^{1/k}))` time with (near-)linear space,
//! which is conditionally optimal.
//!
//! ## Quick start
//!
//! ```
//! use structured_keyword_search::prelude::*;
//!
//! // Hotels: (price, rating) + feature tags.
//! let mut dict = Dictionary::new();
//! let (pool, parking, pets) = (
//!     dict.intern("pool"),
//!     dict.intern("free-parking"),
//!     dict.intern("pet-friendly"),
//! );
//! let hotels = Dataset::from_parts(vec![
//!     (Point::new2(120.0, 8.5), vec![pool, parking, pets]),
//!     (Point::new2(250.0, 9.5), vec![pool, pets]),
//!     (Point::new2(150.0, 8.8), vec![pool, parking, pets]),
//! ]);
//!
//! // C1: price ∈ [100, 200] and rating ≥ 8, plus three keywords.
//! let index = OrpKwIndex::try_build(&hotels, 3)?;
//! let q = Rect::new(&[100.0, 8.0], &[200.0, 10.0]);
//! let mut hits = index.query(&q, &[pool, parking, pets])?;
//! hits.sort_unstable();
//! assert_eq!(hits, vec![0, 2]);
//!
//! // Every index asks the same question the same ways (`KwQuery`):
//! // count without materializing, or stop at a threshold.
//! assert_eq!(index.count(&q, &[pool, parking, pets])?, 2);
//! assert!(index.count_at_least(&q, &[pool, parking, pets], 1)?);
//! # Ok::<(), SkqError>(())
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`core`] | the paper's indexes: framework, dimension reduction, one module per problem, naive baselines |
//! | [`geom`] | geometry substrate: points, rectangles, halfspaces, simplices, kd-tree |
//! | [`invidx`] | inverted-index substrate: documents, dictionary, postings |
//! | [`workload`] | seeded synthetic data and query generators |
//! | [`obs`] | observability: metrics registry, span timers, query log, Prometheus exposition |
//! | [`serve`] | concurrent serving: worker pool, sharded job queue, epoch-based snapshot rotation |
//! | [`store`] | persistence tier: `IndexBackend` trait, paged snapshot codec, in-memory and file backends |
//!
//! See `DESIGN.md` for the architecture and `EXPERIMENTS.md` for the
//! empirical validation of the paper's Table 1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use skq_core as core;
pub use skq_geom as geom;
pub use skq_invidx as invidx;
pub use skq_obs as obs;
pub use skq_serve as serve;
pub use skq_store as store;
pub use skq_workload as workload;

/// The most commonly used types, re-exported flat.
///
/// The query contract rides along: every index answers through
/// [`KwQuery`](prelude::KwQuery), whose queries return
/// [`SkqError`](prelude::SkqError) on malformed input, and any query
/// can [`run`](prelude::KwQuery::run) under a
/// [`QueryGuard`](prelude::QueryGuard) (deadline,
/// [`CancelToken`](prelude::CancelToken), result budget) — truncation
/// is reported via [`TruncatedReason`](prelude::TruncatedReason) in the
/// query stats.
pub mod prelude {
    pub use skq_core::dataset::Dataset;
    pub use skq_core::error::SkqError;
    pub use skq_core::guard::{CancelToken, GuardedSink, QueryGuard};
    pub use skq_core::ksi::KsiIndex;
    pub use skq_core::lc::LcKwIndex;
    pub use skq_core::naive::{FullScan, KeywordsFirst, StructuredFirst};
    pub use skq_core::nn_l2::L2NnIndex;
    pub use skq_core::nn_linf::LinfNnIndex;
    pub use skq_core::orp::OrpKwIndex;
    pub use skq_core::query::KwQuery;
    pub use skq_core::rr::{RrKwIndex, RrKwLinear};
    pub use skq_core::sink::{
        CollectSink, CountSink, DedupSink, FilterSink, LimitSink, MapSink, ResultSink,
    };
    pub use skq_core::sp::{SpKwIndex, SpStrategy};
    pub use skq_core::srp::SrpKwIndex;
    pub use skq_core::stats::{QueryStats, Route, TruncatedReason};
    pub use skq_geom::{
        Ball, ConvexPolytope, Halfspace, KdTree, Point, Polygon, RankSpace, Rect, Region, Simplex,
    };
    pub use skq_invidx::{Dictionary, Document, InvertedIndex, Keyword, ObjectId};
    pub use skq_serve::{Pending, Reply, Request, Server, ServerConfig, SnapshotCell};
    pub use skq_store::{FileBackend, IndexBackend, MemBackend, Persist, SCHEMA_VERSION};
    pub use skq_workload::queries::QueryGen;
    pub use skq_workload::{KeywordModel, SpatialKeywordConfig, SpatialModel};
}

//! Concurrent serving layer for the ORP-KW suite.
//!
//! This crate turns the single-threaded query surfaces of `skq-core`
//! into a long-running service (DESIGN.md §14):
//!
//! * [`snapshot`] — epoch-based snapshot rotation: a rebuild publishes
//!   a fresh [`skq_core::suite::OrpKwSuite`] without blocking in-flight
//!   readers, who keep their `Arc` to the generation they started on.
//! * [`queue`] — a bounded job queue (one mutex, one condvar, untimed
//!   waits that cannot miss a wake-up) with a hard capacity, so
//!   admission control has a well-defined "full" signal.
//! * [`pool`] — the worker pool itself: N threads pull jobs, run them
//!   against the current snapshot under a [`skq_core::QueryGuard`]
//!   (deadline / cancellation / result budget), and survive per-request
//!   panics via a catch-unwind supervisor that respawns the loop.
//!
//! Everything is std-only and `#![forbid(unsafe_code)]`: rotation is
//! one reader-writer lock plus an atomic epoch, not an
//! arc-swap-style atomic pointer (which would need `unsafe`).
//!
//! The companion binary `skq-load` replays `skq-workload` scenarios
//! against a [`pool::Server`] at a target QPS and reports latency
//! percentiles from raw samples, each request timed from its due
//! instant.
//!
//! ```
//! use skq_core::suite::OrpKwSuite;
//! use skq_serve::{Request, Server, ServerConfig};
//! use skq_geom::Rect;
//!
//! let dataset = skq_workload::scenarios::city(500, 7);
//! let server = Server::start(OrpKwSuite::try_build(&dataset, 2)?, ServerConfig::default());
//! let reply = server.query(Request::new(Rect::full(2), vec![0, 1]))?;
//! assert_eq!(reply.generation, 1);
//! server.shutdown();
//! # Ok::<(), skq_core::SkqError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// Every module here sits on the request path, so clippy.toml bans
// `unwrap()`/`expect()` and the panic-family macros in them (tests
// re-allow; the worker's chaos-injection panic carries a justified allow
// audited by skq-lint).
#[warn(clippy::disallowed_methods, clippy::disallowed_macros)]
pub mod pool;
#[warn(clippy::disallowed_methods, clippy::disallowed_macros)]
pub mod queue;
#[warn(clippy::disallowed_methods, clippy::disallowed_macros)]
pub mod recover;
#[warn(clippy::disallowed_methods, clippy::disallowed_macros)]
pub mod snapshot;

pub use pool::{Pending, Reply, Request, Server, ServerConfig};
pub use queue::JobQueue;
pub use recover::RecoverySupervisor;
pub use snapshot::{SnapshotCell, Versioned};

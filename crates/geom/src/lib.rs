//! Geometry substrate for structured keyword search.
//!
//! This crate provides the purely geometric building blocks used by the
//! keyword-aware indexes in `skq-core`:
//!
//! * [`Point`] — a fixed-capacity point in up to [`MAX_DIM`] dimensions;
//! * [`Rect`] — axis-aligned (possibly unbounded) `d`-rectangles;
//! * [`Halfspace`] and [`ConvexPolytope`] — linear constraints `c · x ≤ b`
//!   and their conjunctions, the query shape of the LC-KW problem;
//! * [`Simplex`] — `d`-simplices, the query shape of the SP-KW problem;
//! * [`Polygon`] — 2D convex polygons, the cells of the partition tree;
//! * [`lift`] — the lifting map reducing spherical queries to halfspaces;
//! * [`RankSpace`] — the rank-space normalization of §3.4 of the paper;
//! * [`KdTree`] — a classical (keyword-oblivious) kd-tree used as the
//!   "structured-only" baseline of the paper's introduction.
//!
//! All predicates that the indexes use for *descending* a tree may be
//! conservative (they may report "crossing" when the truth is "disjoint")
//! because reported objects are always re-validated point-wise; predicates
//! used for *reporting* are exact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod halfspace;
pub mod kdtree;
pub mod lift;
pub mod point;
pub mod polygon;
pub mod rank;
pub mod rect;
pub mod region;
pub mod simplex;

pub use halfspace::{ConvexPolytope, Halfspace};
pub use kdtree::KdTree;
pub use lift::{lift_ball, lift_point, Ball};
pub use point::{Point, MAX_DIM};
pub use polygon::Polygon;
pub use rank::RankSpace;
pub use rect::Rect;
pub use region::Region;
pub use simplex::Simplex;

//! Seeded synthetic workloads for structured keyword search.
//!
//! The paper is a theory paper with no empirical section, so the
//! experiment harness validates its bounds on synthetic data. The
//! generators here are designed so that every quantity the bounds are
//! stated in — the input size `N`, the number of query keywords `k`,
//! the output size `OUT`, and geometric selectivity — can be swept
//! *independently*:
//!
//! * [`SpatialKeywordConfig`] — datasets of points with documents:
//!   uniform or clustered geometry, uniform or Zipf keyword
//!   frequencies, optional spatial correlation of keywords (tags that
//!   concentrate in regions, as in real POI data);
//! * [`queries`] — query generators with controlled selectivity;
//! * [`ksi`] — planted `k`-set-intersection instances with an exact,
//!   chosen intersection size;
//! * [`scenarios`] — one-call presets for the recurring workload shapes
//!   of the spatial-keyword literature (city POIs, web documents,
//!   sensor networks);
//! * [`adversarial`] — worst-case inputs for the partition trees: a
//!   strip along a tilted line and an annulus around a ball's boundary.
//!
//! Everything is deterministic given a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversarial;
pub mod ksi;
pub mod queries;
pub mod scenarios;
pub mod spatial;
pub mod zipf;

pub use spatial::{KeywordModel, SpatialKeywordConfig, SpatialModel};
pub use zipf::Zipf;

//! # skyline-core
//!
//! A faithful, production-quality implementation of **skyline diagrams** —
//! the Voronoi-diagram counterpart for skyline queries — from Liu, Yang,
//! Xiong, Pei, Luo, *"Skyline Diagram: Finding the Voronoi Counterpart for
//! Skyline Queries"*, ICDE 2018.
//!
//! Given `n` seed points, a skyline diagram partitions the query plane into
//! **skyline polyominoes**: maximal regions within which every query point
//! has the same skyline result. Three query semantics are supported:
//!
//! - **quadrant** skyline: competitors restricted to the first quadrant of
//!   the query ([`quadrant`], four engines, Section IV of the paper);
//! - **global** skyline: the union of all four per-quadrant skylines
//!   ([`global`]);
//! - **dynamic** skyline: all points mapped by coordinate-wise absolute
//!   distance to the query ([`dynamic`], three engines, Section V).
//!
//! High-dimensional generalizations of the quadrant engines live in
//! [`highd`] (Section IV-E).
//!
//! ## Quick example
//!
//! ```
//! use skyline_core::geometry::{Dataset, Point};
//! use skyline_core::quadrant::QuadrantEngine;
//! use skyline_core::diagram::merge::merge;
//!
//! let hotels = Dataset::from_coords([
//!     (1, 92), (3, 96), (12, 86), (5, 94), (15, 85), (8, 78),
//!     (16, 83), (13, 83), (6, 93), (21, 82), (11, 9),
//! ])?;
//!
//! // Build the quadrant skyline diagram with the O(n²) sweeping engine.
//! let diagram = QuadrantEngine::Sweeping.build(&hotels);
//!
//! // Every future skyline query is now a grid lookup.
//! let skyline = diagram.query(Point::new(10, 80));
//! assert_eq!(skyline.len(), 3); // {p3, p8, p10} in the paper's numbering
//!
//! // Merge cells into the polyomino partition.
//! let merged = merge(&diagram);
//! assert!(merged.len() < diagram.grid().cell_count());
//! # Ok::<(), skyline_core::Error>(())
//! ```
//!
//! ## Conventions
//!
//! All skylines minimize (smaller coordinates are better); coordinates are
//! `i64` and must fit within [`geometry::MAX_COORD`] so bisector arithmetic
//! stays exact. Quadrants are open: a point sharing an axis with the query
//! belongs to no quadrant (see [`query`] for the full boundary discussion).

// `deny`, not `forbid`: the counting-allocator hook in telemetry/mem.rs
// carries the workspace's one `#[allow(unsafe_code)]` (a GlobalAlloc impl
// cannot be written without `unsafe`), which `forbid` would reject.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod container;
pub mod diagram;
pub mod dominance;
pub mod dsg;
pub mod dynamic;
pub mod epoch;
mod error;
pub mod geometry;
pub mod global;
pub mod highd;
pub mod index;
pub mod invariants;
pub mod maintained;
pub mod parallel;
pub mod quadrant;
pub mod query;
pub mod repair;
pub mod result_set;
mod serialize;
pub mod skyband;
pub mod skyline;
pub mod sync;
pub mod telemetry;

#[cfg(test)]
pub(crate) mod test_data;

pub use error::{Error, Result};

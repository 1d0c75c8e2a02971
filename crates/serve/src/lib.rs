//! Concurrent snapshot-serving layer for skyline diagrams.
//!
//! The skyline diagram is a *precomputed* structure — the paper's whole
//! point is that queries become point locations. This crate supplies the
//! missing serving story: keep answering quadrant/global/dynamic/safe-zone
//! /trace requests from any number of threads while the underlying point
//! set changes.
//!
//! * [`server::SkylineServer`] owns the mutable state and publishes
//!   immutable [`snapshot::Snapshot`]s through an epoch chain
//!   ([`skyline_core::epoch`]): writers serialize on one mutex, readers
//!   are lock-free and always answer from one consistent epoch.
//! * [`arena::HandleArena`] serves the diagram itself: each snapshot maps
//!   every interned result to sorted handles at most once, so a diagram
//!   answer is point location plus a borrowed slice — no allocation, no
//!   lock, no cache to miss.
//! * [`workload`] drives deterministic closed-loop benchmarks whose
//!   checksums are bit-identical across reader counts and arena warmth;
//!   the differential stress harness (`tests/stress_diff.rs`) checks every
//!   concurrent answer against a fresh single-threaded recompute.
//! * [`openloop`] drives the same queries on a fixed-rate arrival
//!   schedule, measuring latency from *scheduled* arrival — the
//!   coordinated-omission-safe view of the tail — into per-family log2
//!   histograms, while folding the identical checksum.
//! * Snapshots persist: [`Snapshot::to_container`] dumps a published epoch
//!   into a versioned snapshot container ([`skyline_core::container`]) and
//!   [`SkylineServer::from_container`] cold-starts a server from those
//!   bytes without rebuilding any diagram (`skydiag save` / `skydiag
//!   load`, experiment E14).
//!
//! ```
//! use skyline_core::geometry::{Dataset, Point};
//! use skyline_serve::{ServerOptions, SkylineServer};
//!
//! let ds = Dataset::from_coords([(2, 9), (5, 4), (9, 1), (4, 6)])?;
//! let (server, _handles) = SkylineServer::with_dataset(&ds, ServerOptions::default());
//!
//! let mut reader = server.reader();           // lock-free after this line
//! let snap = reader.snapshot();               // pin the current epoch
//! let before = snap.quadrant(Point::new(3, 3));
//!
//! server.insert(Point::new(4, 4));            // buffered...
//! server.refresh();                           // ...published
//! assert_eq!(snap.quadrant(Point::new(3, 3)), before); // pinned epoch
//! assert_ne!(reader.snapshot().quadrant(Point::new(3, 3)), before);
//! # Ok::<(), skyline_core::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod openloop;
pub mod server;
pub mod snapshot;
pub mod workload;

pub use arena::{CacheStats, HandleArena};
pub use openloop::{run_open_loop, LatencyHistogram, OpenLoopReport, OpenLoopSpec, FAMILY_NAMES};
pub use server::{ServerOptions, SkylineServer, SnapshotReader};
pub use snapshot::Snapshot;
pub use workload::{QueryMix, WorkloadReport, WorkloadSpec};

//! Benchmark of the skyline serving paths: build, cold start, read and
//! publish, end to end and one layer at a time. See `README.md` beside
//! this crate for the metrics, the workloads and how to run it.

pub mod bench;
pub mod check;
pub mod gen;
pub mod report;
pub mod stats;

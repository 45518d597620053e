//! Benchmark of an H2Cloud under closed-loop clients: three workloads, each
//! reporting end-to-end metrics from an untraced run and per-layer metrics
//! from a traced one. See `README.md` for the workloads and the metrics.

pub mod hist;
pub mod probe;
pub mod report;
pub mod runner;
pub mod workload;

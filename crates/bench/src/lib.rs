//! Experiment harness: runs the four workloads through every
//! configuration of the paper's evaluation (§5) and computes the numbers
//! behind each figure and table.
//!
//! The `repro` binary drives this library; `cargo run -p rbcd-bench
//! --release --bin repro` regenerates everything, `repro <id>` one
//! experiment. Its `EXPERIMENTS` table (`src/bin/repro.rs`) defines
//! the ids and which of them `all` runs; DESIGN.md §5 maps each paper
//! result to its id.

#![warn(missing_docs)]

pub mod ab;
pub mod accuracy;
pub mod cli;
pub mod faults;
pub mod hybrid;
pub mod metrics;
pub mod overload;
pub mod report;
pub mod runner;
pub mod schema;
pub mod serve;

pub use metrics::{geomean, BenchmarkResult, CdComparison, SuiteResult};
pub use runner::{run_benchmark, run_gpu, run_gpu_traced, run_suite, RunOptions};

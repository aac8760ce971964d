//! # cextend-bench — experiment drivers and micro-benchmarks
//!
//! Reproduces every table and figure of the paper's evaluation (Section 6)
//! plus the ablations listed in DESIGN.md, generically over the registered
//! workloads (`census`, `retail`). The `experiments` binary drives
//! everything:
//!
//! ```sh
//! cargo run --release -p cextend-bench --bin experiments -- all
//! cargo run --release -p cextend-bench --bin experiments -- fig8a --scale-factor 0.05
//! cargo run --release -p cextend-bench --bin experiments -- table1 --workload retail
//! cargo run --release -p cextend-bench --bin experiments -- perf --runs 1 --out results/
//! ```
//!
//! Criterion micro-benchmarks (one per pipeline stage) live in `benches/`.

#![warn(missing_docs)]

pub mod benchdata;
pub mod experiments;
pub mod harness;

pub use benchdata::{dcdense_largest_partition, logistics_largest_partition};
pub use harness::{run_averaged, run_once, ExperimentOpts, RunResult, Table};

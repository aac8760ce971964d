//! The four benchmark workloads and the solver configuration they run at.
//!
//! Each workload is a registered `cextend_workloads` generator at a fixed
//! size with a fixed CC family and count; every workload uses `DcSet::All`.
//! README.md records why each was chosen and which layers it stresses.

use cextend_core::{SchedulerMode, SolverConfig};
use cextend_workloads::CcFamily;

/// Worker-pool width every measured solve runs at (`CEXTEND_SCHED_WORKERS`).
pub const WIDTH: usize = 2;

/// One benchmark workload.
#[derive(Debug)]
pub struct Spec {
    /// Benchmark workload name (`--workload`).
    pub name: &'static str,
    /// Registered generator (`cextend_workloads::workload_by_name`).
    pub generator: &'static str,
    /// Generator scale at full size (fraction 1).
    pub scale: f64,
    /// Generator knob overrides.
    pub knobs: &'static [(&'static str, i64)],
    /// CC family drawn for every completion step.
    pub family: CcFamily,
    /// CCs requested per completion step.
    pub n_ccs: usize,
}

/// The benchmark workloads, in presentation order.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "census-paper",
        generator: "census",
        scale: 20.0,
        knobs: &[("areas", 1024)],
        family: CcFamily::Good,
        n_ccs: 150,
    },
    Spec {
        name: "census-ilp",
        generator: "census",
        scale: 2.5,
        knobs: &[("areas", 1024)],
        family: CcFamily::Bad,
        n_ccs: 1001,
    },
    Spec {
        name: "dcdense-dense",
        generator: "dcdense",
        scale: 6.25,
        knobs: &[("rooms", 200)],
        family: CcFamily::Good,
        n_ccs: 150,
    },
    Spec {
        name: "logistics-star",
        generator: "logistics",
        scale: 12.0,
        knobs: &[],
        family: CcFamily::Good,
        n_ccs: 150,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// The production configuration: hybrid Phase 1 sharded across the pool,
/// parallel partition coloring, and the parallel step scheduler (which only
/// multi-step workloads use). The workload seed also seeds the solver.
pub fn solver_config(seed: u64) -> SolverConfig {
    SolverConfig::hybrid()
        .with_parallel_phase1(true)
        .with_parallel_coloring(true)
        .with_scheduler(SchedulerMode::Parallel)
        .with_seed(seed)
}

/// Pins the worker pool to `width` for every solve that follows. Call only
/// while no other thread runs: the pool reads the variable at each batch.
pub fn pin_width(width: usize) {
    std::env::set_var("CEXTEND_SCHED_WORKERS", width.to_string());
}

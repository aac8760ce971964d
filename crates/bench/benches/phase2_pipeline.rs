//! Macro-benchmark for the Phase II work-stealing pipeline: full solves on
//! a small DC-dense instance across coloring modes (serial vs the streamed
//! pipeline at pinned worker widths).
//!
//! Worker widths are pinned via `CEXTEND_SCHED_WORKERS`, so the arms are
//! machine-independent: on a 1-CPU runner the pipeline arms still exercise
//! the atomic work-stealing counter, the result channel and the
//! coordinator's in-order reassembly — their wall should sit within noise
//! of the serial arm there, and pull ahead with real cores. Every
//! configuration is asserted bit-identical to the serial reference solve
//! before being timed.

use cextend_bench::ExperimentOpts;
use cextend_core::{solve, SolverConfig};
use cextend_table::relations_equal_ordered;
use cextend_workloads::{CcFamily, DcSet};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_phase2_pipeline(c: &mut Criterion) {
    let opts = ExperimentOpts {
        workload: "dcdense".to_owned(),
        ..ExperimentOpts::default()
    };
    let data = opts.dataset(2, None, 0);
    let dcs = opts.dcs(DcSet::All);
    let ccs = opts.ccs(CcFamily::Good, opts.n_ccs, &data, 0);
    let instance = data.to_instance(ccs, dcs).unwrap();
    let reference = solve(&instance, &SolverConfig::hybrid()).unwrap();
    let mut group = c.benchmark_group("phase2_pipeline");
    group.sample_size(10);
    for (mode, workers) in [("serial", None), ("pipe2", Some("2")), ("pipe4", Some("4"))] {
        match workers {
            Some(w) => std::env::set_var("CEXTEND_SCHED_WORKERS", w),
            None => std::env::remove_var("CEXTEND_SCHED_WORKERS"),
        }
        let config = SolverConfig::hybrid().with_parallel_coloring(workers.is_some());
        let solution = solve(&instance, &config).unwrap();
        assert!(
            relations_equal_ordered(&solution.r1_hat, &reference.r1_hat)
                && relations_equal_ordered(&solution.r2_hat, &reference.r2_hat),
            "{mode} diverged from the serial reference"
        );
        group.bench_with_input(BenchmarkId::from_parameter(mode), &instance, |b, inst| {
            b.iter(|| solve(inst, &config).unwrap())
        });
    }
    std::env::remove_var("CEXTEND_SCHED_WORKERS");
    group.finish();
}

criterion_group!(benches, bench_phase2_pipeline);
criterion_main!(benches);

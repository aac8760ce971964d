//! Shared experiment machinery: workload-generic dataset/pipeline runners,
//! result records, table printing and JSON snapshots.
//!
//! Nothing here names a concrete schema: the workload (selected by
//! [`ExperimentOpts::workload`]) owns its generator knobs, CC families and
//! DC sets, and the runners consume the generic [`WorkloadData`].

use cextend_constraints::{CardinalityConstraint, DenialConstraint};
use cextend_core::metrics::{evaluate, median, EvaluationReport};
use cextend_core::snowflake::{solve_snowflake, SnowflakeStep};
use cextend_core::{solve, SchedulerMode, SolveStats, SolverConfig};
use cextend_obs::narrate;
use cextend_workloads::{
    workload_by_name, CcFamily, DcSet, Workload, WorkloadData, WorkloadParams,
};
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Build/environment metadata stamped into `BENCH_perf.json`, the `scale`
/// section and `trace.json` exports, so every committed artifact records
/// the build and worker configuration that produced it. None of these
/// fields participate in `perf-check`'s comparability gate (which reads a
/// fixed parameter list) — they are provenance, not parameters.
#[derive(Clone, Debug, Serialize)]
pub struct RunMeta {
    /// `git rev-parse --short HEAD`, when a git binary and repository are
    /// available (absent otherwise — e.g. release tarballs).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub git_commit: Option<String>,
    /// Worker-pool width an unbounded batch would run at
    /// ([`cextend_sched::pool_width`]): the `CEXTEND_SCHED_WORKERS`
    /// override when set, else detected hardware parallelism.
    pub pool_width: usize,
    /// The raw `CEXTEND_SCHED_WORKERS` value, when set (distinguishes a
    /// pinned pool from a detected one of the same width).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub sched_workers: Option<String>,
}

/// Captures [`RunMeta`] from the environment. Tolerates every failure
/// mode: no git binary, not a repository, unset variables.
pub fn run_meta() -> RunMeta {
    let git_commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty());
    RunMeta {
        git_commit,
        pool_width: cextend_sched::pool_width(usize::MAX),
        sched_workers: std::env::var("CEXTEND_SCHED_WORKERS").ok(),
    }
}

impl RunMeta {
    /// The metadata as key/value pairs for
    /// [`cextend_obs::Trace::to_chrome_json`]'s `otherData` section.
    pub fn as_pairs(&self) -> Vec<(String, String)> {
        let mut pairs = Vec::new();
        if let Some(commit) = &self.git_commit {
            pairs.push(("git_commit".to_owned(), commit.clone()));
        }
        pairs.push(("pool_width".to_owned(), self.pool_width.to_string()));
        if let Some(w) = &self.sched_workers {
            pairs.push(("sched_workers".to_owned(), w.clone()));
        }
        pairs
    }
}

/// Global experiment options (CLI-controlled).
#[derive(Clone, Debug)]
pub struct ExperimentOpts {
    /// Which registered workload to drive (`census`, `retail`, `supply`).
    pub workload: String,
    /// Multiplier applied to the workload's scale labels: the paper's `k×`
    /// becomes `k × scale_factor` here. The default 0.02 keeps every
    /// experiment laptop-sized; `--paper-scale` sets it to 1.0.
    pub scale_factor: f64,
    /// CC-set size (the paper uses 1001).
    pub n_ccs: usize,
    /// Independent runs to average over (the paper uses 3).
    pub runs: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Workload-owned generator knobs (e.g. census `areas`, retail
    /// `regions`); names are published by `WorkloadMeta::knobs`.
    pub knobs: BTreeMap<String, i64>,
    /// Where to write JSON snapshots (`None` disables).
    pub out_dir: Option<PathBuf>,
    /// Committed perf baseline `perf-check` compares against (`None` means
    /// `BENCH_perf.json` in the working directory).
    pub baseline: Option<PathBuf>,
    /// Step scheduler the solver runs chains with (`--scheduler`).
    pub scheduler: SchedulerMode,
    /// Shard Phase I's bulk work across the `CEXTEND_SCHED_WORKERS` pool
    /// (`--phase1 parallel|serial`); output is bit-identical either way.
    pub parallel_phase1: bool,
    /// `BENCH_history.jsonl` path `perf-trend` reads (`--history`; `None`
    /// means the file in the working directory, i.e. the committed one).
    pub history: Option<PathBuf>,
    /// Build label (git-describe-ish) stamped into `BENCH_history.jsonl`
    /// records (`--label`).
    pub label: String,
    /// Timestamp stamp for `BENCH_history.jsonl` records (`--stamp`) — the
    /// harness never reads clocks itself, so runs stay reproducible.
    pub stamp: String,
    /// Iteration count for generative experiments (`fuzz-spec`'s
    /// `--iters`).
    pub iters: usize,
}

impl Default for ExperimentOpts {
    fn default() -> Self {
        ExperimentOpts {
            workload: "census".to_owned(),
            scale_factor: 0.02,
            n_ccs: 150,
            runs: 3,
            seed: 7,
            knobs: BTreeMap::new(),
            out_dir: None,
            baseline: None,
            scheduler: SchedulerMode::Serial,
            parallel_phase1: false,
            history: None,
            label: "dev".to_owned(),
            stamp: "unstamped".to_owned(),
            iters: 25,
        }
    }
}

impl ExperimentOpts {
    /// Resolves the selected workload (panics on unknown names; the CLI
    /// validates user input before building opts). `spec:<path>` selects a
    /// spec-file workload, parsed and checked on every resolution.
    pub fn workload(&self) -> Box<dyn Workload> {
        if let Some(path) = self.workload.strip_prefix("spec:") {
            let loaded = cextend_spec::load_workload(std::path::Path::new(path))
                .unwrap_or_else(|e| panic!("{e}"));
            return Box::new(loaded);
        }
        workload_by_name(&self.workload)
            .unwrap_or_else(|| panic!("unknown workload `{}`", self.workload))
    }

    /// Generator parameters at the paper's scale label `k` (scaled by
    /// `scale_factor`), with the CLI knobs applied.
    pub fn params(&self, label: u32, r2_cols: Option<usize>, seed_offset: u64) -> WorkloadParams {
        WorkloadParams {
            scale: f64::from(label) * self.scale_factor,
            seed: self.seed + seed_offset,
            r2_cols,
            knobs: self.knobs.clone(),
        }
    }

    /// Generates data at scale label `k`. `r2_cols` of `None` uses the
    /// workload's default non-key `R2` column count.
    pub fn dataset(&self, label: u32, r2_cols: Option<usize>, seed_offset: u64) -> WorkloadData {
        self.workload()
            .generate(&self.params(label, r2_cols, seed_offset))
    }

    /// CC set of the given family for a dataset.
    pub fn ccs(
        &self,
        family: CcFamily,
        n: usize,
        data: &WorkloadData,
        seed_offset: u64,
    ) -> Vec<CardinalityConstraint> {
        self.workload()
            .ccs(family, n, data, self.seed + seed_offset)
    }

    /// DC set of the given kind for the selected workload.
    pub fn dcs(&self, set: DcSet) -> Vec<DenialConstraint> {
        self.workload().dcs(set)
    }

    /// The hybrid solver configuration with the CLI-selected step
    /// scheduler and Phase I sharding applied.
    pub fn solver_config(&self) -> SolverConfig {
        SolverConfig::hybrid()
            .with_scheduler(self.scheduler)
            .with_parallel_phase1(self.parallel_phase1)
    }

    /// The fully resolved knob map of the selected workload: every
    /// published knob at its default, overlaid with the CLI-provided
    /// values. Stamped into snapshots so they are reproducible from their
    /// own metadata.
    pub fn resolved_knobs(&self) -> BTreeMap<String, i64> {
        let mut knobs: BTreeMap<String, i64> = self
            .workload()
            .meta()
            .knobs
            .iter()
            .map(|&(name, default)| (name.to_owned(), default))
            .collect();
        for (name, &value) in &self.knobs {
            if knobs.contains_key(name) {
                knobs.insert(name.clone(), value);
            }
        }
        knobs
    }
}

/// The outcome of one pipeline run.
#[derive(Clone, Debug, Serialize)]
pub struct RunResult {
    /// Median relative CC error.
    pub cc_median: f64,
    /// Mean relative CC error.
    pub cc_mean: f64,
    /// Fraction of tuples violating some DC.
    pub dc_error: f64,
    /// Whether `R̂1 ⋈ R̂2` equals the view.
    pub join_recovered: bool,
    /// Total wall-clock seconds.
    pub wall_s: f64,
    /// Phase I seconds.
    pub phase1_s: f64,
    /// Phase II seconds.
    pub phase2_s: f64,
    /// Pairwise-comparison seconds (Figure 13 row 1).
    pub pairwise_s: f64,
    /// Algorithm 2 recursion seconds (Figure 13 row 2) — the `hasse_s`
    /// sub-stage of the Phase 1 breakdown.
    pub recursion_s: f64,
    /// ILP build+solve seconds (Figure 13 row 3).
    pub ilp_s: f64,
    /// ILP greedy-fill seconds (part of the Phase 1 breakdown).
    pub fill_s: f64,
    /// Local-search repair seconds (Phase 1 breakdown).
    pub repair_s: f64,
    /// Leftover-completion seconds (Phase 1 breakdown; Algorithm 2 lines
    /// 14–17).
    pub leftovers_s: f64,
    /// Baseline random-completion seconds (Phase 1 breakdown).
    pub random_s: f64,
    /// Conflict build + coloring seconds (Figure 13 row 4).
    pub coloring_s: f64,
    /// Conflict-hypergraph build seconds (Phase II sub-stage).
    pub conflict_s: f64,
    /// List-coloring + assignment-apply seconds (Phase II sub-stage; the
    /// pure-coloring slice of `coloring_s`).
    pub color_s: f64,
    /// Invalid-tuple placement seconds (Phase II sub-stage).
    pub invalid_s: f64,
    /// Fresh `R2` tuples minted.
    pub new_r2_tuples: usize,
    /// Per-CC relative errors (for Figure 9 distributions).
    #[serde(skip_serializing_if = "Vec::is_empty")]
    pub cc_errors: Vec<f64>,
}

impl RunResult {
    fn from(report: EvaluationReport, stats: SolveStats, wall: Duration) -> RunResult {
        let t = stats.timings;
        RunResult {
            cc_median: report.cc_median,
            cc_mean: report.cc_mean,
            dc_error: report.dc_error,
            join_recovered: report.join_recovered,
            wall_s: wall.as_secs_f64(),
            phase1_s: t.phase1().as_secs_f64(),
            phase2_s: t.phase2().as_secs_f64(),
            pairwise_s: t.pairwise_comparison.as_secs_f64(),
            recursion_s: t.recursion.as_secs_f64(),
            ilp_s: (t.ilp_build + t.ilp_solve).as_secs_f64(),
            fill_s: t.fill.as_secs_f64(),
            repair_s: t.repair.as_secs_f64(),
            leftovers_s: t.leftovers.as_secs_f64(),
            random_s: t.random.as_secs_f64(),
            coloring_s: (t.conflict_build + t.coloring + t.invalid_handling).as_secs_f64(),
            conflict_s: t.conflict_build.as_secs_f64(),
            color_s: t.coloring.as_secs_f64(),
            invalid_s: t.invalid_handling.as_secs_f64(),
            new_r2_tuples: stats.counters.new_r2_tuples,
            cc_errors: report.cc_errors,
        }
    }
}

/// Runs one pipeline once.
pub fn run_once(
    data: &WorkloadData,
    ccs: &[CardinalityConstraint],
    dcs: &[DenialConstraint],
    config: &SolverConfig,
) -> RunResult {
    let instance = data
        .to_instance(ccs.to_vec(), dcs.to_vec())
        .expect("generated instances validate");
    let start = Instant::now();
    let solution = solve(&instance, config).expect("solver never fails with augmentation on");
    let wall = start.elapsed();
    let report = evaluate(&instance, &solution).expect("evaluation");
    assert!(
        report.join_recovered,
        "join recovery is guaranteed (Proposition 5.5)"
    );
    RunResult::from(report, solution.stats, wall)
}

/// Averages the numeric fields of several runs (the paper averages over 3
/// independent runs). `join_recovered` ANDs; the first run's per-CC errors
/// are kept for distribution plots.
fn average_results(results: Vec<RunResult>) -> RunResult {
    let n = results.len() as f64;
    let avg = |f: fn(&RunResult) -> f64| results.iter().map(f).sum::<f64>() / n;
    RunResult {
        cc_median: avg(|r| r.cc_median),
        cc_mean: avg(|r| r.cc_mean),
        dc_error: avg(|r| r.dc_error),
        join_recovered: results.iter().all(|r| r.join_recovered),
        wall_s: avg(|r| r.wall_s),
        phase1_s: avg(|r| r.phase1_s),
        phase2_s: avg(|r| r.phase2_s),
        pairwise_s: avg(|r| r.pairwise_s),
        recursion_s: avg(|r| r.recursion_s),
        ilp_s: avg(|r| r.ilp_s),
        fill_s: avg(|r| r.fill_s),
        repair_s: avg(|r| r.repair_s),
        leftovers_s: avg(|r| r.leftovers_s),
        random_s: avg(|r| r.random_s),
        coloring_s: avg(|r| r.coloring_s),
        conflict_s: avg(|r| r.conflict_s),
        color_s: avg(|r| r.color_s),
        invalid_s: avg(|r| r.invalid_s),
        new_r2_tuples: results.iter().map(|r| r.new_r2_tuples).sum::<usize>() / results.len(),
        cc_errors: results
            .into_iter()
            .next()
            .map(|r| r.cc_errors)
            .unwrap_or_default(),
    }
}

/// Runs one pipeline `runs` times with distinct seeds, averaging the
/// numeric fields.
pub fn run_averaged(
    data: &WorkloadData,
    ccs: &[CardinalityConstraint],
    dcs: &[DenialConstraint],
    config: &SolverConfig,
    runs: usize,
) -> RunResult {
    average_results(
        (0..runs.max(1))
            .map(|i| run_once(data, ccs, dcs, &(*config).with_seed(config.seed + i as u64)))
            .collect(),
    )
}

/// One step's outcome in a chain run.
#[derive(Clone, Debug)]
pub struct StepRunResult {
    /// `Owner→Target` step label.
    pub step: String,
    /// CC-set size the step ran with.
    pub n_ccs: usize,
    /// `R1` rows the step actually solved (includes dimension tuples
    /// minted by earlier steps).
    pub n_r1: usize,
    /// `R2` rows of the step's input.
    pub n_r2: usize,
    /// The step's metrics.
    pub result: RunResult,
}

/// The outcome of one multi-step chain run: per-step metrics plus a chain
/// total aggregated through `SnowflakeSolution::total_stats`.
#[derive(Clone, Debug)]
pub struct ChainRunResult {
    /// Per-step outcomes, in completion order.
    pub steps: Vec<StepRunResult>,
    /// Chain totals: summed timings/counters, per-CC errors pooled across
    /// steps, worst-step DC error, all-steps join recovery.
    pub total: RunResult,
}

/// Builds the constrained chain steps for one (family, DC set) choice:
/// per-step CC/DC sets from [`Workload::step_ccs`] / [`Workload::step_dcs`].
/// Constraint generation (including the ground-truth augmented views the
/// targets are measured on) happens exactly once per call — averaged runs
/// reuse the result and only vary the solver seed.
pub fn chain_steps(
    workload: &dyn Workload,
    data: &WorkloadData,
    family: CcFamily,
    dc_set: DcSet,
    n_ccs: usize,
    seed: u64,
) -> Vec<SnowflakeStep> {
    data.steps
        .iter()
        .enumerate()
        .map(|(i, edge)| SnowflakeStep {
            edge: edge.clone(),
            ccs: workload.step_ccs(i, family, n_ccs, data, seed),
            dcs: workload.step_dcs(i, dc_set),
        })
        .collect()
}

/// Runs a workload's full FK-completion chain once: the chain is driven by
/// `cextend_core::snowflake::solve_snowflake`, and every step is evaluated
/// on its augmented view.
pub fn run_chain_once(
    workload: &dyn Workload,
    data: &WorkloadData,
    family: CcFamily,
    dc_set: DcSet,
    n_ccs: usize,
    seed: u64,
    config: &SolverConfig,
) -> ChainRunResult {
    let steps = chain_steps(workload, data, family, dc_set, n_ccs, seed);
    run_chain_with_steps(data, &steps, config)
}

/// Runs prebuilt chain steps once (the inner loop of the averaged runner).
pub fn run_chain_with_steps(
    data: &WorkloadData,
    steps: &[SnowflakeStep],
    config: &SolverConfig,
) -> ChainRunResult {
    let start = Instant::now();
    let solved = solve_snowflake(data.relations.clone(), steps, config)
        .expect("solver never fails with augmentation on");
    let wall = start.elapsed();

    let total_stats = solved.total_stats();
    let mut all_cc_errors: Vec<f64> = Vec::new();
    let mut worst_dc = 0.0f64;
    let mut all_recovered = true;
    let step_results: Vec<StepRunResult> = solved
        .steps
        .iter()
        .zip(steps)
        .map(|(outcome, step)| {
            all_cc_errors.extend_from_slice(&outcome.report.cc_errors);
            worst_dc = worst_dc.max(outcome.report.dc_error);
            all_recovered &= outcome.report.join_recovered;
            StepRunResult {
                step: outcome.label.clone(),
                n_ccs: step.ccs.len(),
                n_r1: outcome.n_r1,
                n_r2: outcome.n_r2,
                result: RunResult::from(outcome.report.clone(), outcome.stats, outcome.wall),
            }
        })
        .collect();
    let total_report = EvaluationReport {
        cc_median: median(&all_cc_errors),
        cc_mean: if all_cc_errors.is_empty() {
            0.0
        } else {
            all_cc_errors.iter().sum::<f64>() / all_cc_errors.len() as f64
        },
        cc_errors: all_cc_errors,
        dc_error: worst_dc,
        join_recovered: all_recovered,
    };
    ChainRunResult {
        steps: step_results,
        total: RunResult::from(total_report, total_stats, wall),
    }
}

/// Runs prebuilt chain steps `runs` times with distinct solver seeds,
/// averaging the numeric fields per step (and for the chain total). Use
/// this when the same steps drive several solver configurations — the
/// constraint sets are then identical across pipelines by construction.
pub fn run_chain_with_steps_averaged(
    data: &WorkloadData,
    steps: &[SnowflakeStep],
    config: &SolverConfig,
    runs: usize,
) -> ChainRunResult {
    let chains: Vec<ChainRunResult> = (0..runs.max(1))
        .map(|i| run_chain_with_steps(data, steps, &(*config).with_seed(config.seed + i as u64)))
        .collect();
    let n_steps = chains[0].steps.len();
    let steps = (0..n_steps)
        .map(|s| StepRunResult {
            step: chains[0].steps[s].step.clone(),
            n_ccs: chains[0].steps[s].n_ccs,
            n_r1: chains[0].steps[s].n_r1,
            n_r2: chains[0].steps[s].n_r2,
            result: average_results(chains.iter().map(|c| c.steps[s].result.clone()).collect()),
        })
        .collect();
    let total = average_results(chains.into_iter().map(|c| c.total).collect());
    ChainRunResult { steps, total }
}

/// Runs a chain `runs` times with distinct solver seeds, averaging the
/// numeric fields per step (and for the chain total). Constraint
/// generation happens once, before the run loop.
#[allow(clippy::too_many_arguments)] // mirrors run_chain_once plus `runs`
pub fn run_chain_averaged(
    workload: &dyn Workload,
    data: &WorkloadData,
    family: CcFamily,
    dc_set: DcSet,
    n_ccs: usize,
    seed: u64,
    config: &SolverConfig,
    runs: usize,
) -> ChainRunResult {
    let steps = chain_steps(workload, data, family, dc_set, n_ccs, seed);
    run_chain_with_steps_averaged(data, &steps, config, runs)
}

/// A printable experiment table.
///
/// Snapshots are stamped by [`Table::emit`] with everything needed to
/// reproduce them from their own metadata: the workload, the fully
/// resolved knob map, the scale factor (and fixed scale label, when the
/// experiment runs at one), the CC-set size, run count and base seed.
#[derive(Clone, Debug, Serialize)]
pub struct Table {
    /// Experiment id (e.g. `fig8a`).
    pub id: String,
    /// Workload the table was produced on (stamped by [`Table::emit`] so
    /// snapshot records stay attributable and schema-agnostic).
    pub workload: String,
    /// Human title matching the paper artifact.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
    /// Fully resolved workload knob map (stamped by [`Table::emit`]).
    pub knobs: BTreeMap<String, i64>,
    /// Scale factor applied to the workload's scale labels (stamped).
    pub scale_factor: f64,
    /// The fixed scale label the experiment ran at, when it does not sweep
    /// labels (sweeps carry the label per row instead).
    pub scale_label: Option<u32>,
    /// CC-set size requested (stamped).
    pub n_ccs: usize,
    /// Independent runs averaged per cell (stamped).
    pub runs: usize,
    /// Base RNG seed (stamped).
    pub seed: u64,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Table {
        Table {
            id: id.to_owned(),
            workload: String::new(),
            title: title.to_owned(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
            knobs: BTreeMap::new(),
            scale_factor: 0.0,
            scale_label: None,
            n_ccs: 0,
            runs: 0,
            seed: 0,
        }
    }

    /// Records the fixed scale label the experiment runs at.
    pub fn with_scale_label(mut self, label: u32) -> Table {
        self.scale_label = Some(label);
        self
    }

    /// Appends a row.
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Prints to stdout and writes a JSON snapshot when `out_dir` is set.
    /// The snapshot is stamped with the active workload name, the resolved
    /// knob map and the scale/seed parameters.
    pub fn emit(&self, opts: &ExperimentOpts) {
        println!("{}", self.render());
        if let Some(dir) = &opts.out_dir {
            let mut snapshot = self.clone();
            snapshot.workload = opts.workload.clone();
            snapshot.knobs = opts.resolved_knobs();
            snapshot.scale_factor = opts.scale_factor;
            snapshot.n_ccs = opts.n_ccs;
            snapshot.runs = opts.runs;
            snapshot.seed = opts.seed;
            std::fs::create_dir_all(dir).expect("create output dir");
            let path = dir.join(format!("{}.json", self.id));
            std::fs::write(
                &path,
                serde_json::to_string_pretty(&snapshot).expect("serialize"),
            )
            .expect("write snapshot");
            narrate!("[snapshot written to {}]\n", path.display());
        }
    }
}

/// Formats seconds compactly.
pub fn fmt_s(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}s")
    } else if s >= 1.0 {
        format!("{s:.2}s")
    } else {
        format!("{:.1}ms", s * 1000.0)
    }
}

/// Formats an error rate to three decimals.
pub fn fmt_err(e: f64) -> String {
    format!("{e:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns() {
        let mut t = Table::new("t", "demo", &["a", "long-header"]);
        t.push(vec!["x".into(), "1".into()]);
        let r = t.render();
        assert!(r.contains("long-header"));
        assert!(r.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("t", "demo", &["a"]);
        t.push(vec!["x".into(), "y".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_s(0.0123), "12.3ms");
        assert_eq!(fmt_s(2.5), "2.50s");
        assert_eq!(fmt_s(120.0), "120s");
        assert_eq!(fmt_err(0.25), "0.250");
    }

    fn smoke_opts(workload: &str) -> ExperimentOpts {
        ExperimentOpts {
            workload: workload.to_owned(),
            scale_factor: 0.005,
            n_ccs: 10,
            runs: 1,
            ..ExperimentOpts::default()
        }
    }

    #[test]
    fn smoke_run_once_census() {
        let opts = smoke_opts("census");
        let data = opts.dataset(1, None, 0);
        let ccs = opts.ccs(CcFamily::Good, 10, &data, 0);
        let dcs = opts.dcs(DcSet::Good);
        let r = run_once(&data, &ccs, &dcs, &SolverConfig::hybrid());
        assert!(r.join_recovered);
        assert_eq!(r.dc_error, 0.0);
    }

    #[test]
    fn smoke_run_once_retail() {
        let opts = smoke_opts("retail");
        let data = opts.dataset(1, None, 0);
        let ccs = opts.ccs(CcFamily::Bad, 10, &data, 0);
        let dcs = opts.dcs(DcSet::All);
        let r = run_once(&data, &ccs, &dcs, &SolverConfig::hybrid());
        assert!(r.join_recovered);
        assert_eq!(r.dc_error, 0.0);
    }

    #[test]
    fn knobs_reach_the_generator() {
        let mut opts = smoke_opts("census");
        opts.knobs.insert("areas".to_owned(), 3);
        let data = opts.dataset(1, None, 0);
        let area = data.r2().schema().col_id("Area").unwrap();
        assert!(data.r2().distinct_values(area).len() <= 3);
    }

    #[test]
    fn resolved_knobs_overlay_defaults() {
        let mut opts = smoke_opts("retail");
        opts.knobs.insert("regions".to_owned(), 4);
        opts.knobs.insert("areas".to_owned(), 3); // census-only: ignored
        let knobs = opts.resolved_knobs();
        assert_eq!(knobs.get("regions"), Some(&4));
        assert!(knobs.contains_key("max-group"), "defaults are stamped");
        assert!(!knobs.contains_key("areas"));
    }

    #[test]
    fn smoke_run_chain_supply() {
        let opts = smoke_opts("supply");
        let workload = opts.workload();
        let data = opts.dataset(1, None, 0);
        let chain = run_chain_once(
            workload.as_ref(),
            &data,
            CcFamily::Good,
            DcSet::All,
            10,
            opts.seed,
            &SolverConfig::hybrid(),
        );
        assert_eq!(chain.steps.len(), 2);
        for step in &chain.steps {
            assert_eq!(step.result.dc_error, 0.0, "{}", step.step);
            assert!(step.result.join_recovered, "{}", step.step);
        }
        assert_eq!(chain.total.dc_error, 0.0);
        assert!(chain.total.join_recovered);
        // The chain total aggregates the per-step timings.
        let wall_sum: f64 = chain.steps.iter().map(|s| s.result.phase1_s).sum();
        assert!((chain.total.phase1_s - wall_sum).abs() < 1e-9);
        // The Phase 1 sub-stages decompose phase1_s exactly.
        for r in chain
            .steps
            .iter()
            .map(|s| &s.result)
            .chain(std::iter::once(&chain.total))
        {
            let stage_sum = r.pairwise_s
                + r.recursion_s
                + r.ilp_s
                + r.fill_s
                + r.repair_s
                + r.leftovers_s
                + r.random_s;
            assert!((r.phase1_s - stage_sum).abs() < 1e-9);
        }
    }

    #[test]
    fn chain_runner_matches_run_once_on_one_step_workloads() {
        let opts = smoke_opts("retail");
        let workload = opts.workload();
        let data = opts.dataset(1, None, 0);
        let chain = run_chain_once(
            workload.as_ref(),
            &data,
            CcFamily::Good,
            DcSet::All,
            10,
            opts.seed,
            &SolverConfig::hybrid(),
        );
        assert_eq!(chain.steps.len(), 1);
        let ccs = opts.ccs(CcFamily::Good, 10, &data, 0);
        let flat = run_once(&data, &ccs, &opts.dcs(DcSet::All), &SolverConfig::hybrid());
        assert_eq!(chain.steps[0].result.cc_median, flat.cc_median);
        assert_eq!(chain.steps[0].result.dc_error, flat.dc_error);
        assert_eq!(chain.steps[0].result.new_r2_tuples, flat.new_r2_tuples);
    }
}

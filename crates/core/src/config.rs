//! Solver configuration: strategy selection for both phases.
//!
//! The paper's evaluation compares three pipelines over the same machinery
//! (Section 6.1); each is a preset here:
//!
//! | preset | Phase I | Phase II |
//! |---|---|---|
//! | [`SolverConfig::hybrid`] | hybrid (Alg. 2 + Alg. 1 with modified marginals) | conflict-graph coloring (Alg. 4) |
//! | [`SolverConfig::baseline`] | Alg. 1 without marginal rows, random completion | random FK among candidates |
//! | [`SolverConfig::baseline_with_marginals`] | Alg. 1 with all-way marginals | random FK among candidates |

pub use cextend_sched::SchedulerMode;

/// Which Phase I algorithm completes `V_join`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase1Strategy {
    /// Section 4.3: Algorithm 2 on clean (non-intersecting) diagrams,
    /// Algorithm 1 with modified marginals on the rest.
    Hybrid,
    /// Algorithm 1 on every CC (the Arasu-et-al.-style baseline). With
    /// `marginals = false` the hard per-bin rows are omitted and leftover
    /// rows are completed with random combos, as in the paper's baseline.
    IlpOnly {
        /// Add all-way marginal rows (the "baseline with marginals").
        marginals: bool,
    },
    /// Algorithm 2 only; CCs in diagrams with intersections are dropped
    /// (recorded in the stats). Useful for ablations.
    HasseOnly,
}

/// How Phase II assigns FK values.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase2Strategy {
    /// Algorithm 4: partitioned conflict hypergraphs + list coloring.
    Coloring,
    /// Baseline: uniform-random candidate key per tuple, DCs ignored.
    RandomAssignment,
}

/// Coloring engine for [`Phase2Strategy::Coloring`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ColoringMode {
    /// Greedy largest-first list coloring (Algorithm 3).
    Greedy,
    /// Exact backtracking search with a step budget, falling back to greedy
    /// when the budget is exhausted. Exponential worst case; used for the
    /// NAE-3SAT reduction and ablations.
    Exact {
        /// Backtracking step budget per partition.
        max_steps: usize,
    },
}

/// ILP arithmetic selection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IlpBackend {
    /// Exact rationals below `exact_var_limit` variables, floats above.
    Auto,
    /// Always exact rationals.
    Exact,
    /// Always `f64`.
    Float,
}

/// ILP solve settings.
#[derive(Clone, Copy, Debug)]
pub struct IlpSettings {
    /// Arithmetic backend.
    pub backend: IlpBackend,
    /// Problem size (variables + rows) up to which `Auto` stays exact.
    pub exact_var_limit: usize,
    /// Branch-and-bound node budget before falling back to
    /// largest-remainder rounding of the LP relaxation.
    pub bb_nodes: usize,
    /// Problem size (variables + rows) above which branch-and-bound is
    /// skipped entirely in favour of one LP solve plus rounding: every B&B
    /// node re-solves the LP from scratch, which is prohibitive on the
    /// thousands-of-variables programs the bad CC families produce.
    pub bb_max_size: usize,
    /// Materialize one variable per `(bin, combo)` pair like the original
    /// Arasu-style formulation, instead of only pairs that count toward
    /// some CC. The naive space is what makes the paper's baseline ILP its
    /// bottleneck; the reduction is this reproduction's documented
    /// optimization (DESIGN.md). Baseline presets default to `true`, the
    /// hybrid to `false`.
    pub naive_variables: bool,
    /// Greedy local-search passes over row-combo switches after the ILP
    /// fill, reducing residual CC deviation left by LP rounding (0
    /// disables). Clean-set CCs are protected, so Algorithm 2's exactness
    /// is unaffected. An extension beyond the paper (see DESIGN.md).
    pub repair_passes: usize,
}

impl Default for IlpSettings {
    fn default() -> Self {
        IlpSettings {
            backend: IlpBackend::Auto,
            exact_var_limit: 160,
            bb_nodes: 200,
            bb_max_size: 1200,
            naive_variables: false,
            repair_passes: 2,
        }
    }
}

/// Full solver configuration.
#[derive(Clone, Copy, Debug)]
pub struct SolverConfig {
    /// Phase I strategy.
    pub phase1: Phase1Strategy,
    /// Phase II strategy.
    pub phase2: Phase2Strategy,
    /// Coloring engine (only used by [`Phase2Strategy::Coloring`]).
    pub coloring: ColoringMode,
    /// ILP settings (only used when Phase I reaches Algorithm 1).
    pub ilp: IlpSettings,
    /// Color partitions on multiple threads (Section A.3). Deterministic:
    /// results are merged in partition order.
    pub parallel_coloring: bool,
    /// Shard Phase I's bulk work (per-CC row-match bitmaps, leftover-row
    /// completion) across the `CEXTEND_SCHED_WORKERS` pool. Deterministic:
    /// RNG draws come from fixed per-shard streams derived from the seed,
    /// so output is bit-identical to the serial path at any worker count.
    pub parallel_phase1: bool,
    /// Permit inventing fresh `R2` tuples for skipped/invalid tuples
    /// (Algorithm 4 lines 11–14). Disable to make the solver *decide*
    /// C-Extension instead of always succeeding.
    pub allow_augmenting_r2: bool,
    /// Complete **every** `R2` attribute column in Phase I instead of only
    /// the CC-referenced ones. Partitions then split on all `B` columns, as
    /// in the paper's Figure 12 experiment (runtime vs. number of `R2`
    /// columns); the default keeps the paper's "only columns used in S_CC"
    /// optimization.
    pub complete_all_r2_columns: bool,
    /// How `solve_snowflake` executes a chain's completion steps: in
    /// declared order, or level by level with independent steps running
    /// concurrently (results are bit-identical either way under a fixed
    /// seed — see `cextend_core::stepgraph`).
    pub scheduler: SchedulerMode,
    /// RNG seed (baseline random choices, tie-breaking).
    pub seed: u64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig::hybrid()
    }
}

impl SolverConfig {
    /// The paper's full approach.
    pub fn hybrid() -> SolverConfig {
        SolverConfig {
            phase1: Phase1Strategy::Hybrid,
            phase2: Phase2Strategy::Coloring,
            coloring: ColoringMode::Greedy,
            ilp: IlpSettings::default(),
            parallel_coloring: false,
            parallel_phase1: false,
            allow_augmenting_r2: true,
            complete_all_r2_columns: false,
            scheduler: SchedulerMode::Serial,
            seed: 0,
        }
    }

    /// The paper's baseline (Section 6.1, "Baseline"): one big ILP in the
    /// naive variable space, then random FK assignment.
    pub fn baseline() -> SolverConfig {
        SolverConfig {
            phase1: Phase1Strategy::IlpOnly { marginals: false },
            phase2: Phase2Strategy::RandomAssignment,
            ilp: IlpSettings {
                naive_variables: true,
                ..IlpSettings::default()
            },
            ..SolverConfig::hybrid()
        }
    }

    /// The paper's "baseline with marginals".
    pub fn baseline_with_marginals() -> SolverConfig {
        SolverConfig {
            phase1: Phase1Strategy::IlpOnly { marginals: true },
            phase2: Phase2Strategy::RandomAssignment,
            ilp: IlpSettings {
                naive_variables: true,
                ..IlpSettings::default()
            },
            ..SolverConfig::hybrid()
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> SolverConfig {
        self.seed = seed;
        self
    }

    /// Builder-style step-scheduler override.
    pub fn with_scheduler(mut self, scheduler: SchedulerMode) -> SolverConfig {
        self.scheduler = scheduler;
        self
    }

    /// Builder-style parallel-coloring override. Phase II conflict building
    /// and coloring are sharded by partition across the
    /// `CEXTEND_SCHED_WORKERS` pool when enabled; results are merged in
    /// partition order, so output is bit-identical to the serial path.
    pub fn with_parallel_coloring(mut self, parallel: bool) -> SolverConfig {
        self.parallel_coloring = parallel;
        self
    }

    /// Builder-style parallel-Phase-1 override. Per-CC row-match bitmap
    /// construction and leftover-row completion are sharded across the
    /// `CEXTEND_SCHED_WORKERS` pool when enabled; per-shard RNG streams are
    /// derived from the seed, so output is bit-identical to the serial
    /// path at any worker count.
    pub fn with_parallel_phase1(mut self, parallel: bool) -> SolverConfig {
        self.parallel_phase1 = parallel;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_pipelines() {
        let h = SolverConfig::hybrid();
        assert_eq!(h.phase1, Phase1Strategy::Hybrid);
        assert_eq!(h.phase2, Phase2Strategy::Coloring);
        assert!(h.allow_augmenting_r2);

        let b = SolverConfig::baseline();
        assert_eq!(b.phase1, Phase1Strategy::IlpOnly { marginals: false });
        assert_eq!(b.phase2, Phase2Strategy::RandomAssignment);

        let bm = SolverConfig::baseline_with_marginals();
        assert_eq!(bm.phase1, Phase1Strategy::IlpOnly { marginals: true });
    }

    #[test]
    fn seed_builder() {
        assert_eq!(SolverConfig::hybrid().with_seed(42).seed, 42);
    }

    #[test]
    fn parallel_coloring_builder() {
        assert!(!SolverConfig::hybrid().parallel_coloring);
        assert!(
            SolverConfig::hybrid()
                .with_parallel_coloring(true)
                .parallel_coloring
        );
    }

    #[test]
    fn parallel_phase1_builder() {
        assert!(!SolverConfig::hybrid().parallel_phase1);
        assert!(
            SolverConfig::hybrid()
                .with_parallel_phase1(true)
                .parallel_phase1
        );
    }

    #[test]
    fn scheduler_defaults_to_serial() {
        assert_eq!(SolverConfig::hybrid().scheduler, SchedulerMode::Serial);
        assert_eq!(
            SolverConfig::hybrid()
                .with_scheduler(SchedulerMode::Parallel)
                .scheduler,
            SchedulerMode::Parallel
        );
    }
}

//! One pass through the public layers: set up the input, solve, verify
//! the result from outside, and emit it as CSV — plus the correctness gate
//! every pass must clear.

use crate::spec::Spec;
use cextend_constraints::{CardinalityConstraint, DenialConstraint};
use cextend_core::metrics::{cc_relative_errors, dc_error, dc_error_on};
use cextend_core::snowflake::{solve_snowflake, AugmentedView, SnowflakeSolution, SnowflakeStep};
use cextend_core::{solve, CExtensionInstance, Solution, SolveCounters, SolverConfig};
use cextend_table::{fk_join, fk_join_on, relations_equal_ordered, Relation};
use cextend_workloads::{workload_by_name, DcSet, WorkloadData, WorkloadParams};
use std::io::{BufWriter, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The solver input of one workload.
pub enum Input {
    /// A one-step workload: one C-Extension instance.
    Single(Box<CExtensionInstance>),
    /// A multi-step schema graph, solved with `solve_snowflake`.
    Star(Vec<SnowflakeStep>),
}

/// Generated data, constraints and instance, with the time each took.
pub struct Setup {
    /// Relations, ground truth and completion steps.
    pub data: WorkloadData,
    /// What the solver receives.
    pub input: Input,
    /// Data generation seconds.
    pub generate_s: f64,
    /// CC generation seconds (targets are measured on the ground truth).
    pub ccgen_s: f64,
    /// DC set and instance construction seconds.
    pub instance_s: f64,
}

/// Generates `spec` at `fraction` of its full size from `seed`.
pub fn setup(spec: &Spec, seed: u64, fraction: f64) -> Result<Setup, String> {
    let workload = workload_by_name(spec.generator)
        .ok_or_else(|| format!("generator `{}` is not registered", spec.generator))?;
    let mut params = WorkloadParams::new(spec.scale * fraction, seed);
    for &(name, value) in spec.knobs {
        params = params.with_knob(name, value);
    }
    let t = Instant::now();
    let data = workload.generate(&params);
    let generate_s = secs(t);

    let t = Instant::now();
    let mut ccs: Vec<Vec<CardinalityConstraint>> = (0..data.n_steps())
        .map(|step| workload.step_ccs(step, spec.family, spec.n_ccs, &data, seed))
        .collect();
    let ccgen_s = secs(t);

    let t = Instant::now();
    let dcs: Vec<Vec<DenialConstraint>> = (0..data.n_steps())
        .map(|step| workload.step_dcs(step, DcSet::All))
        .collect();
    let input = if data.n_steps() == 1 {
        let ccs = ccs.pop().expect("one step");
        let dcs = dcs.into_iter().next().expect("one step");
        Input::Single(Box::new(
            data.to_instance(ccs, dcs).map_err(|e| e.to_string())?,
        ))
    } else {
        Input::Star(
            data.steps
                .iter()
                .zip(ccs)
                .zip(dcs)
                .map(|((edge, ccs), dcs)| SnowflakeStep {
                    edge: edge.clone(),
                    ccs,
                    dcs,
                })
                .collect(),
        )
    };
    let instance_s = secs(t);
    Ok(Setup {
        data,
        input,
        generate_s,
        ccgen_s,
        instance_s,
    })
}

/// A solver result.
pub enum Solved {
    /// `solve` on a one-step instance.
    Single(Box<Solution>),
    /// `solve_snowflake` on a multi-step schema graph.
    Star(SnowflakeSolution),
}

impl Solved {
    /// Solver counters, summed over steps.
    pub fn counters(&self) -> SolveCounters {
        match self {
            Solved::Single(s) => s.stats.counters,
            Solved::Star(s) => s.total_stats().counters,
        }
    }

    /// FK values the solve completed: `R1` rows, summed over steps.
    pub fn rows_completed(&self) -> usize {
        match self {
            Solved::Single(s) => s.r1_hat.n_rows(),
            Solved::Star(s) => s.steps.iter().map(|o| o.n_r1).sum(),
        }
    }

    /// Output relations, in the order they are emitted.
    pub fn relations(&self) -> Vec<&Relation> {
        match self {
            Solved::Single(s) => vec![&s.r1_hat, &s.r2_hat],
            Solved::Star(s) => s.tables.iter().collect(),
        }
    }
}

impl Setup {
    /// `R2` rows the solve started from, summed over steps.
    pub fn r2_rows(&self) -> usize {
        match &self.input {
            Input::Single(instance) => instance.r2.n_rows(),
            Input::Star(steps) => steps
                .iter()
                .map(|s| {
                    self.data
                        .relation(&s.edge.target)
                        .map_or(0, Relation::n_rows)
                })
                .sum(),
        }
    }

    /// Solves the input once, returning the result and its wall seconds. A
    /// solver error or panic is an `Err`. With `window`, a span of that name
    /// covers exactly the timed interval.
    pub fn solve(
        &self,
        config: &SolverConfig,
        window: Option<&'static str>,
    ) -> Result<(Solved, f64), String> {
        let outcome = match &self.input {
            Input::Single(instance) => catch_unwind(AssertUnwindSafe(|| {
                let t = Instant::now();
                let span = window.map(cextend_obs::span);
                let solution = solve(instance, config);
                drop(span);
                (solution.map(|s| Solved::Single(Box::new(s))), secs(t))
            })),
            Input::Star(steps) => {
                // solve_snowflake consumes its tables: copy them first,
                // outside the timed interval.
                let tables = self.data.relations.clone();
                catch_unwind(AssertUnwindSafe(|| {
                    let t = Instant::now();
                    let span = window.map(cextend_obs::span);
                    let solution = solve_snowflake(tables, steps, config);
                    drop(span);
                    (solution.map(Solved::Star), secs(t))
                }))
            }
        };
        match outcome {
            Ok((Ok(solved), s)) => Ok((solved, s)),
            Ok((Err(e), _)) => Err(format!("solve failed: {e}")),
            Err(panic) => Err(format!("solve panicked: {}", panic_message(&panic))),
        }
    }
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// What the outside check found, and what each part of it cost.
#[derive(Clone, Debug, Default)]
pub struct Check {
    /// Relative error of every CC, over all steps.
    pub cc_errors: Vec<f64>,
    /// Worst DC error over the steps (Proposition 5.5 requires 0).
    pub dc_error: f64,
    /// `R̂1 ⋈ R̂2` reproduces the completed view (single step), or every
    /// FK value joins to exactly one target row (multi-step).
    pub join_recovered: bool,
    /// Every completed FK column has no missing value.
    pub fk_complete: bool,
    /// Seconds spent on CC errors.
    pub cc_errors_s: f64,
    /// Seconds spent on the DC error.
    pub dc_error_s: f64,
    /// Seconds spent on join recovery.
    pub join_s: f64,
}

impl Check {
    /// Why the result breaks Proposition 5.5, if it does.
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.dc_error != 0.0 {
            out.push(format!("dc_error = {} (must be 0)", self.dc_error));
        }
        if !self.join_recovered {
            out.push("join recovery failed".to_owned());
        }
        if !self.fk_complete {
            out.push("FK column incomplete".to_owned());
        }
        out
    }
}

/// Checks a single-step result through the public parts of
/// `metrics::evaluate` (CC errors, join recovery, DC error) plus
/// `column_is_complete` on the FK column, timing each part.
pub fn verify_single(instance: &CExtensionInstance, solution: &Solution) -> Result<Check, String> {
    let t = Instant::now();
    let cc_errors =
        cc_relative_errors(&solution.vjoin, &instance.ccs).map_err(|e| e.to_string())?;
    let cc_errors_s = secs(t);
    let t = Instant::now();
    let joined = fk_join(&solution.r1_hat, &solution.r2_hat).map_err(|e| e.to_string())?;
    let join_recovered = relations_equal_ordered(&joined, &solution.vjoin);
    drop(joined);
    let join_s = secs(t);
    let t = Instant::now();
    let dc_error = dc_error(&solution.r1_hat, &instance.dcs).map_err(|e| e.to_string())?;
    let dc_error_s = secs(t);
    Ok(Check {
        cc_errors,
        dc_error,
        join_recovered,
        fk_complete: fk_complete(&solution.r1_hat),
        cc_errors_s,
        dc_error_s,
        join_s,
    })
}

fn fk_complete(r1_hat: &Relation) -> bool {
    r1_hat
        .schema()
        .fk_col()
        .is_some_and(|fk| r1_hat.column_is_complete(fk))
}

/// Checks a multi-step result on its final tables, step by step, the way
/// the workload measured its CC targets: the owner augmented with the
/// dimensions of earlier steps, joined to the step's target.
pub fn verify_star(steps: &[SnowflakeStep], tables: &[Relation]) -> Result<Check, String> {
    let mut check = Check {
        join_recovered: true,
        fk_complete: true,
        ..Check::default()
    };
    for (i, step) in steps.iter().enumerate() {
        let edge = &step.edge;
        let owner = tables
            .iter()
            .find(|t| t.name() == edge.owner)
            .ok_or_else(|| format!("no table `{}`", edge.owner))?;
        let fk = owner
            .schema()
            .col_id(&edge.fk_col)
            .ok_or_else(|| format!("no column `{}`", edge.fk_col))?;
        check.fk_complete &= owner.column_is_complete(fk);

        let t = Instant::now();
        let plan = AugmentedView::plan(
            tables,
            &steps[..i]
                .iter()
                .map(|s| s.edge.clone())
                .collect::<Vec<_>>(),
            edge,
        )
        .map_err(|e| e.to_string())?;
        let view = plan.build(tables, false).map_err(|e| e.to_string())?;
        let joined = fk_join_on(&view, &tables[plan.target_index()], &edge.fk_col);
        let joined = match joined {
            Ok(j) if j.n_rows() == view.n_rows() => Some(j),
            _ => None,
        };
        check.join_recovered &= joined.is_some();
        check.join_s += secs(t);

        let t = Instant::now();
        if let Some(joined) = &joined {
            let errors = cc_relative_errors(joined, &step.ccs).map_err(|e| e.to_string())?;
            check.cc_errors.extend(errors);
        }
        check.cc_errors_s += secs(t);

        let t = Instant::now();
        let err = dc_error_on(&view, &edge.fk_col, &step.dcs).map_err(|e| e.to_string())?;
        check.dc_error = check.dc_error.max(err);
        check.dc_error_s += secs(t);
    }
    Ok(check)
}

/// Verifies a result from outside, timing each part of the check.
pub fn verify(setup: &Setup, solved: &Solved) -> Result<Check, String> {
    match (&setup.input, solved) {
        (Input::Single(instance), Solved::Single(solution)) => verify_single(instance, solution),
        (Input::Star(steps), Solved::Star(solution)) => verify_star(steps, &solution.tables),
        _ => Err("result shape does not match the input".to_owned()),
    }
}

/// Writes every output relation as CSV into `dir`, returning the bytes
/// written.
pub fn emit(solved: &Solved, dir: &Path) -> Result<u64, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut bytes = 0;
    for rel in solved.relations() {
        let path = dir.join(format!("{}.csv", rel.name()));
        let file = std::fs::File::create(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        let mut out = BufWriter::new(file);
        cextend_table::csv::write_csv(rel, &mut out)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        out.flush()
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
    }
    Ok(bytes)
}

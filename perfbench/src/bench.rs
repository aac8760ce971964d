//! The two kinds of run: the end-to-end run (tracing off, repeated passes
//! for `--seconds`, medians) and the traced run (one pass per layer
//! question, per-layer metrics).

use crate::layers::{self, StageWalls};
use crate::pipeline::{emit, secs, setup, verify, Check, Setup, Solved};
use crate::spec::{pin_width, solver_config, Spec, WIDTH};
use cextend_core::metrics::median;
use cextend_obs::SpanEvent;
use cextend_table::{peak_rss_bytes, relations_equal_ordered, reset_peak_rss, MemStats};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// The span the benchmark opens around each traced solver call.
pub const SOLVE_SPAN: &str = "bench.solve";

/// One named metric value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// What one benchmark run reports.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Solves attempted.
    pub attempted: usize,
    /// Solves that failed the correctness gate (or errored).
    pub failed: usize,
    /// Why each failed solve failed.
    pub failures: Vec<String>,
    /// Metric values, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// `true` when every attempted solve passed the gate.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite value in full precision (JSON has no NaN or infinity).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nearest-rank percentile `p` of a sample (0 for an empty one).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of p50, p90, p99, p99.9 and p99.99 that leaves at least ten
/// samples above it (p50 when none does).
pub fn tail_percentile(n: usize) -> f64 {
    [99.99, 99.9, 99.0, 90.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

/// CC accuracy `1 / (1 + relative error)`: 1 for an exact CC, never 0.
fn accuracy(err: f64) -> f64 {
    1.0 / (1.0 + err)
}

fn max_of(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// What a solve did that must repeat exactly at one seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Fingerprint {
    fresh_r2: usize,
    conflict_edges: usize,
}

fn fingerprint(solved: &Solved) -> Fingerprint {
    let c = solved.counters();
    Fingerprint {
        fresh_r2: c.new_r2_tuples,
        conflict_edges: c.conflict_edges,
    }
}

/// One end-to-end pass.
#[derive(Clone, Debug)]
struct Pass {
    /// One sample per set-up run (see [`repeat`]).
    setup_s: Vec<f64>,
    solve_s: f64,
    /// One sample per verification run.
    verify_s: Vec<f64>,
    emit_s: f64,
    peak_rss_mb: f64,
    rows: usize,
    r2_rows: usize,
    fingerprint: Fingerprint,
    check: Check,
}

/// Passes an end-to-end run always makes: one warm-up pass and three warm
/// samples of every time measured after set-up.
pub const MIN_PASSES: usize = 4;

/// A stage shorter than this is run again within the pass, up to
/// [`MAX_REPEATS`] runs in all, and every run is one sample: a single short
/// run is easily swamped by a burst of load elsewhere on the host.
const STAGE_FLOOR_S: f64 = 0.5;

/// Most runs of one stage in one pass.
const MAX_REPEATS: usize = 4;

/// Runs `stage` until its runs add up to [`STAGE_FLOOR_S`] or it ran
/// [`MAX_REPEATS`] times. Returns the last result and each run's seconds;
/// earlier results are dropped after their run is timed.
fn repeat<T>(mut stage: impl FnMut() -> Result<T, String>) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let out = stage()?;
        times.push(secs(t));
        if times.len() >= MAX_REPEATS || times.iter().sum::<f64>() >= STAGE_FLOOR_S {
            return Ok((out, times));
        }
    }
}

/// Corrupts a result before it is checked. The self-test uses it to show
/// that a bad result counts as a failed run.
pub type Tamper = fn(&mut Solved);

fn one_pass(
    spec: &Spec,
    seed: u64,
    fraction: f64,
    out_dir: &Path,
    tamper: Option<Tamper>,
) -> Result<Pass, String> {
    reset_peak_rss();
    let (setup, setup_s) = repeat(|| setup(spec, seed, fraction))?;
    let (mut solved, solve_s) = setup.solve(&solver_config(seed), None)?;
    if let Some(tamper) = tamper {
        tamper(&mut solved);
    }
    let (check, verify_s) = repeat(|| verify(&setup, &solved))?;
    let t = Instant::now();
    emit(&solved, out_dir)?;
    let emit_s = secs(t);
    let peak = peak_rss_bytes().unwrap_or(0);
    Ok(Pass {
        setup_s,
        solve_s,
        verify_s,
        emit_s,
        peak_rss_mb: peak as f64 / (1024.0 * 1024.0),
        rows: solved.rows_completed(),
        r2_rows: setup.r2_rows(),
        fingerprint: fingerprint(&solved),
        check,
    })
}

/// The end-to-end run: full passes (set up, solve, verify, emit) until the
/// next would overrun `budget`, at least [`MIN_PASSES`]. Every pass is
/// gated; the metrics are medians over the passes (see below for the first
/// pass).
pub fn run_end_to_end(
    spec: &Spec,
    seed: u64,
    budget: Duration,
    fraction: f64,
    out_dir: &Path,
    tamper: Option<Tamper>,
) -> Outcome {
    pin_width(WIDTH);
    let mut out = Outcome::default();
    let mut passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    loop {
        let t = Instant::now();
        out.attempted += 1;
        match one_pass(spec, seed, fraction, out_dir, tamper) {
            Ok(pass) => {
                let mut why = pass.check.failures();
                if let Some(first) = passes.first() {
                    if pass.fingerprint != first.fingerprint {
                        why.push(format!(
                            "not deterministic: {:?} after {:?}",
                            pass.fingerprint, first.fingerprint
                        ));
                    }
                }
                if !why.is_empty() {
                    out.fail(format!("pass {}: {}", out.attempted, why.join("; ")));
                }
                eprintln!(
                    "pass {}: setup {:.3?} s, solve {:.3} s, verify {:.3?} s, emit {:.3} s, \
                     peak {:.1} MB, {:?}",
                    out.attempted,
                    pass.setup_s,
                    pass.solve_s,
                    pass.verify_s,
                    pass.emit_s,
                    pass.peak_rss_mb,
                    pass.fingerprint
                );
                passes.push(pass);
            }
            Err(e) => out.fail(format!("pass {}: {e}", out.attempted)),
        }
        let last = t.elapsed();
        if out.attempted >= MIN_PASSES && start.elapsed() + last > budget {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(out_dir);
    if passes.is_empty() {
        return out;
    }
    // The first pass warms the process (allocator, page tables); the times
    // after set-up are medians over the warm passes when there are any.
    let warm = if passes.len() > 1 {
        &passes[1..]
    } else {
        &passes[..]
    };
    let med = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let warm_med = |f: &dyn Fn(&Pass) -> f64| median(&warm.iter().map(f).collect::<Vec<_>>());
    let pooled = |ps: &[Pass], f: &dyn Fn(&Pass) -> &[f64]| {
        median(
            &ps.iter()
                .flat_map(|p| f(p).iter().copied())
                .collect::<Vec<_>>(),
        )
    };
    out.push("setup_s", "s", pooled(&passes, &|p| &p.setup_s));
    out.push("solve_s", "s", warm_med(&|p| p.solve_s));
    out.push("verify_s", "s", pooled(warm, &|p| &p.verify_s));
    out.push(
        "total_s",
        "s",
        warm_med(&|p| p.solve_s + median(&p.verify_s) + p.emit_s),
    );
    out.push(
        "rows_per_s",
        "1/s",
        warm_med(&|p| p.rows as f64 / p.solve_s),
    );
    out.push("peak_rss_mb", "MB", med(&|p| p.peak_rss_mb));
    out.push(
        "cc_acc_median",
        "ratio",
        med(&|p| accuracy(median(&p.check.cc_errors))),
    );
    out.push(
        "cc_acc_min",
        "ratio",
        med(&|p| accuracy(max_of(&p.check.cc_errors))),
    );
    out.push(
        "r2_growth",
        "ratio",
        med(&|p| {
            ratio(
                (p.r2_rows + p.fingerprint.fresh_r2) as f64,
                p.r2_rows as f64,
            )
        }),
    );
    out
}

/// A traced solve: the result, its stage walls and its counters.
struct Traced {
    solved: Solved,
    walls: StageWalls,
    counters: BTreeMap<String, u64>,
}

fn traced_solve(setup: &Setup, seed: u64) -> Result<Traced, String> {
    let _ = cextend_obs::take_trace();
    cextend_obs::set_recording(true);
    let result = setup.solve(&solver_config(seed), Some(SOLVE_SPAN));
    cextend_obs::set_recording(false);
    let trace = cextend_obs::take_trace();
    let (solved, _) = result?;
    let window: &SpanEvent = trace
        .spans
        .iter()
        .find(|s| s.name == SOLVE_SPAN)
        .ok_or("the solve span is missing from the trace")?;
    Ok(Traced {
        walls: layers::analyse(&trace.spans, window),
        solved,
        counters: trace.counters,
    })
}

/// Differences between two results of the same input and seed.
fn differences(a: &Solved, b: &Solved) -> Vec<String> {
    let mut out = Vec::new();
    if fingerprint(a) != fingerprint(b) {
        out.push(format!(
            "not deterministic: {:?} vs {:?}",
            fingerprint(a),
            fingerprint(b)
        ));
    }
    let same = a.relations().len() == b.relations().len()
        && a.relations()
            .iter()
            .zip(b.relations())
            .all(|(x, y)| relations_equal_ordered(x, y));
    if !same {
        out.push("output relations differ".to_owned());
    }
    out
}

/// The traced run: one untraced solve at width 2 (the warm-up and the
/// reference result, verified part by part and emitted), one traced solve
/// at width 2 (the stage walls) between two more untraced ones (the warm
/// twins the tracing overhead is measured against) and one traced solve at
/// width 1 (the speed-up reference). Every later result must equal the
/// reference exactly.
pub fn run_traced(spec: &Spec, seed: u64, fraction: f64, out_dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    match traced_metrics(spec, seed, fraction, out_dir, &mut out) {
        Ok(()) => {}
        Err(e) => {
            out.fail(e);
            out.metrics.clear();
        }
    }
    let _ = std::fs::remove_dir_all(out_dir);
    out
}

/// One untraced width-2 solve, checked against the reference; returns its
/// wall seconds.
fn untraced_solve(
    setup: &Setup,
    seed: u64,
    reference: &Solved,
    out: &mut Outcome,
) -> Result<f64, String> {
    out.attempted += 1;
    let (solved, solve_s) = setup.solve(&solver_config(seed), None)?;
    let why = differences(reference, &solved);
    if !why.is_empty() {
        out.fail(format!("untraced width {WIDTH}: {}", why.join("; ")));
    }
    Ok(solve_s)
}

fn traced_metrics(
    spec: &Spec,
    seed: u64,
    fraction: f64,
    out_dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    pin_width(WIDTH);
    let setup = setup(spec, seed, fraction)?;
    let heap =
        MemStats::capture(setup.data.relations.iter().chain(&setup.data.truth)).relation_heap_bytes;

    out.attempted += 1;
    let (reference, _) = setup.solve(&solver_config(seed), None)?;

    // Warm untraced twins on both sides of the traced solve, so that the
    // tracing overhead carries no bias from the order of the solves.
    let before_s = untraced_solve(&setup, seed, &reference, out)?;
    out.attempted += 1;
    let wide = traced_solve(&setup, seed)?;
    let why = differences(&reference, &wide.solved);
    if !why.is_empty() {
        out.fail(format!("traced width {WIDTH}: {}", why.join("; ")));
    }
    drop(wide.solved);
    let after_s = untraced_solve(&setup, seed, &reference, out)?;
    let untraced_s = (before_s + after_s) / 2.0;

    out.attempted += 1;
    pin_width(1);
    let narrow = traced_solve(&setup, seed);
    pin_width(WIDTH);
    let narrow = narrow?;
    let why = differences(&reference, &narrow.solved);
    if !why.is_empty() {
        out.fail(format!("traced width 1: {}", why.join("; ")));
    }
    drop(narrow.solved);

    let check = verify(&setup, &reference)?;
    let why = check.failures();
    if !why.is_empty() {
        out.fail(format!("reference solve: {}", why.join("; ")));
    }
    let t = Instant::now();
    let csv_bytes = emit(&reference, out_dir)?;
    let write_csv_s = secs(t);

    let c = reference.counters();
    let rows = reference.rows_completed() as f64;
    let w = &wide.walls;
    let counter = |name: &str| wide.counters.get(name).copied().unwrap_or(0) as f64;

    out.push("workloads.generate_s", "s", setup.generate_s);
    out.push("workloads.ccgen_s", "s", setup.ccgen_s);
    out.push("workloads.instance_s", "s", setup.instance_s);

    out.push("constraints.pairwise_wall_s", "s", w.wall("pairwise"));
    out.push("constraints.ccs_hasse", "count", c.s1_ccs as f64);
    out.push("constraints.ccs_ilp", "count", c.s2_ccs as f64);

    out.push("ilp.build_wall_s", "s", w.wall("ilp_build"));
    out.push("ilp.solve_wall_s", "s", w.wall("ilp_solve"));
    out.push("ilp.vars", "count", c.ilp_vars as f64);
    out.push("ilp.rows", "count", c.ilp_rows as f64);
    out.push("ilp.nodes", "count", c.ilp_nodes as f64);

    out.push("phase1.wall_s", "s", w.phase1_wall_s);
    out.push("phase1.busy_s", "s", w.phase1_busy_s);
    out.push("phase1.hasse_wall_s", "s", w.wall("hasse"));
    out.push("phase1.repair_wall_s", "s", w.wall("repair"));
    out.push("phase1.leftovers_wall_s", "s", w.wall("leftovers"));
    out.push("phase1.rng_draws", "count", counter("phase1.rng_draws"));
    out.push("phase1.shards", "count", counter("phase1.shards"));
    out.push("phase1.repair_moves", "count", c.repair_moves as f64);

    let edges = c.conflict_edges as f64;
    let dedup = counter("phase2.dedup_hits");
    let parts = &w.partition_ms;
    let tail = tail_percentile(parts.len());
    out.push("phase2.wall_s", "s", w.phase2_wall_s);
    out.push("phase2.conflict_wall_s", "s", w.wall("conflict_build"));
    out.push("phase2.conflict_busy_s", "s", w.busy("conflict_build"));
    out.push("phase2.partitions", "count", c.partitions as f64);
    out.push("phase2.conflict_edges", "count", edges);
    out.push("phase2.edges_per_row", "ratio", ratio(edges, rows));
    out.push("phase2.eq_probes", "count", counter("phase2.eq_probes"));
    out.push(
        "phase2.range_probes",
        "count",
        counter("phase2.range_probes"),
    );
    out.push(
        "phase2.scanned_candidates",
        "count",
        counter("phase2.scanned_candidates"),
    );
    out.push("phase2.dedup_ratio", "ratio", ratio(dedup, edges + dedup));
    out.push("phase2.part_p50_ms", "ms", median(parts));
    out.push("phase2.part_tail_ms", "ms", percentile(parts, tail));
    out.push("phase2.part_tail_pct", "%", tail);
    out.push("phase2.part_max_ms", "ms", max_of(parts));

    out.push("hypergraph.coloring_wall_s", "s", w.wall("coloring"));
    out.push("hypergraph.coloring_busy_s", "s", w.busy("coloring"));
    out.push(
        "hypergraph.skipped_vertices",
        "count",
        c.skipped_vertices as f64,
    );
    out.push(
        "hypergraph.skip_ratio",
        "ratio",
        ratio(c.skipped_vertices as f64, rows),
    );

    let width = WIDTH as f64;
    let n = &narrow.walls;
    out.push(
        "sched.phase1_eff",
        "ratio",
        ratio(w.phase1_busy_s, w.phase1_wall_s * width),
    );
    out.push(
        "sched.phase2_eff",
        "ratio",
        ratio(w.phase2_busy_s, w.phase2_wall_s * width),
    );
    out.push("sched.speedup_w1", "ratio", ratio(n.solve_s, w.solve_s));
    out.push(
        "sched.phase1_speedup_w1",
        "ratio",
        ratio(n.phase1_wall_s, w.phase1_wall_s),
    );
    out.push(
        "sched.phase2_speedup_w1",
        "ratio",
        ratio(n.phase2_wall_s, w.phase2_wall_s),
    );

    let (level_s, steps_s, step0_s, step1_s) = match &reference {
        Solved::Star(s) => {
            let step = |i: usize| s.steps.get(i).map_or(0.0, |o| o.wall.as_secs_f64());
            (
                s.levels.iter().map(|l| l.wall.as_secs_f64()).sum(),
                s.steps.iter().map(|o| o.wall.as_secs_f64()).sum(),
                step(0),
                step(1),
            )
        }
        Solved::Single(_) => (0.0, 0.0, 0.0, 0.0),
    };
    out.push("snowflake.level_wall_s", "s", level_s);
    out.push("snowflake.steps_sum_s", "s", steps_s);
    out.push("snowflake.step0_wall_s", "s", step0_s);
    out.push("snowflake.step1_wall_s", "s", step1_s);

    out.push("metrics.cc_errors_s", "s", check.cc_errors_s);
    out.push("metrics.dc_error_s", "s", check.dc_error_s);
    out.push("metrics.join_s", "s", check.join_s);

    out.push("table.write_csv_s", "s", write_csv_s);
    out.push("table.csv_mb", "MB", csv_bytes as f64 / (1024.0 * 1024.0));
    out.push(
        "table.relation_heap_mb",
        "MB",
        heap as f64 / (1024.0 * 1024.0),
    );

    out.push(
        "obs.trace_overhead",
        "ratio",
        ratio(w.solve_s, untraced_s) - 1.0,
    );
    out.push("obs.spans", "count", w.spans as f64);

    out.push("core.solve_s", "s", w.solve_s);
    out.push("core.unattributed_s", "s", w.unattributed_s);

    out.push("quality.cc_err_median", "ratio", median(&check.cc_errors));
    out.push("quality.cc_err_max", "ratio", max_of(&check.cc_errors));
    out.push(
        "quality.fresh_r2_frac",
        "ratio",
        ratio(c.new_r2_tuples as f64, setup.r2_rows() as f64),
    );
    Ok(())
}

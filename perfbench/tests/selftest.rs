//! Self-test of the benchmark: every workload runs at a tiny fraction of
//! its size, every metric named in `BENCHMARK.json` comes out with its
//! unit, the traced stage walls add up to the solve wall, and a corrupted
//! result counts as a failed run.

use perfbench::bench::{run_end_to_end, run_traced, Metric, Outcome, MIN_PASSES};
use perfbench::pipeline::{setup, Solved};
use perfbench::spec::{solver_config, spec, SPECS};
use serde::Value;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Fraction of each workload's full size the self-test runs at.
const TINY: f64 = 0.004;

/// Solves run one at a time: span recording and the worker-width pin are
/// process-wide.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn out_dir(test: &str) -> PathBuf {
    manifest_dir().join("out").join(format!("selftest-{test}"))
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(fields) => {
            &fields
                .iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("no `{key}`"))
                .1
        }
        _ => panic!("`{key}`: not an object"),
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        _ => panic!("not a string"),
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn manifest_metrics(section: &str) -> Vec<(String, String)> {
    let path = manifest_dir().join("..").join("BENCHMARK.json");
    let doc = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let doc = serde_json::from_str(&doc).expect("BENCHMARK.json parses");
    match field(&doc, section) {
        Value::Array(items) => items
            .iter()
            .map(|m| {
                (
                    text(field(m, "name")).to_owned(),
                    text(field(m, "unit")).to_owned(),
                )
            })
            .collect(),
        _ => panic!("`{section}` is not a list"),
    }
}

fn emitted(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|m| (m.name.to_owned(), m.unit.to_owned()))
        .collect()
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|m| m.name == name)
        .map(|m: &Metric| m.value)
        .unwrap_or_else(|| panic!("metric `{name}` missing"))
}

#[test]
fn manifest_workloads_are_the_benchmark_workloads() {
    let path = manifest_dir().join("..").join("BENCHMARK.json");
    let doc = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let Value::Array(items) = field(&doc, "workloads") else {
        panic!("`workloads` is not a list");
    };
    let names: Vec<&str> = items.iter().map(|w| text(field(w, "name"))).collect();
    let ours: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    assert_eq!(names, ours);
}

#[test]
fn end_to_end_runs_emit_every_metric_and_pass_the_gate() {
    let _serial = serial();
    let expected = manifest_metrics("end_to_end");
    for spec in &SPECS {
        let outcome = run_end_to_end(spec, 7, Duration::ZERO, TINY, &out_dir("e2e"), None);
        assert!(outcome.correct(), "{}: {:?}", spec.name, outcome.failures);
        assert_eq!(outcome.attempted, MIN_PASSES, "{}", spec.name);
        assert_eq!(emitted(&outcome), expected, "{}", spec.name);
        for m in &outcome.metrics {
            assert!(m.value > 0.0, "{}: {} is {}", spec.name, m.name, m.value);
        }
        let line = outcome.to_json();
        let parsed = serde_json::from_str(&line).expect("the result line is JSON");
        assert!(matches!(field(&parsed, "correct"), Value::Bool(true)));
    }
}

#[test]
fn traced_runs_emit_every_metric_and_walls_add_up() {
    let _serial = serial();
    let expected = manifest_metrics("per_layer");
    for spec in &SPECS {
        let outcome = run_traced(spec, 7, TINY, &out_dir("traced"));
        assert!(outcome.correct(), "{}: {:?}", spec.name, outcome.failures);
        assert_eq!(outcome.attempted, 5, "{}", spec.name);
        assert_eq!(emitted(&outcome), expected, "{}", spec.name);
        let solve = value(&outcome, "core.solve_s");
        let other = value(&outcome, "core.unattributed_s");
        let sum = value(&outcome, "phase1.wall_s") + value(&outcome, "phase2.wall_s") + other;
        assert!(other >= 0.0, "{}", spec.name);
        assert!(
            (sum - solve).abs() <= 0.02 * solve,
            "{}: stage walls {sum} vs solve {solve}",
            spec.name
        );
        assert!(value(&outcome, "phase1.wall_s") > 0.0, "{}", spec.name);
        assert!(value(&outcome, "phase2.wall_s") > 0.0, "{}", spec.name);
        assert!(value(&outcome, "obs.spans") > 0.0, "{}", spec.name);
    }
}

/// Nulls the first FK value of the result.
fn null_one_fk(solved: &mut Solved) {
    match solved {
        Solved::Single(s) => {
            let fk = s.r1_hat.schema().fk_col().expect("R1 has an FK");
            s.r1_hat.set(0, fk, None).expect("row 0 exists");
        }
        Solved::Star(s) => {
            let owner = &mut s.tables[0];
            let fk = owner.schema().col_id("warehouse_id").expect("FK column");
            owner.set(0, fk, None).expect("row 0 exists");
        }
    }
}

/// Moves a second census `Owner` into the first owner's household: two
/// owners may not share one.
fn merge_two_owners(solved: &mut Solved) {
    let Solved::Single(s) = solved else {
        panic!("census is single-step");
    };
    let r1 = &mut s.r1_hat;
    let rel = r1.schema().col_id("Rel").expect("Rel column");
    let fk = r1.schema().fk_col().expect("FK column");
    let owners: Vec<usize> = (0..r1.n_rows())
        .filter(|&r| r1.get(r, rel) == Some(cextend_table::Value::str("Owner")))
        .collect();
    let (a, b) = (owners[0], owners[1]);
    assert_ne!(r1.get(a, fk), r1.get(b, fk), "owners start apart");
    let household = r1.get(a, fk);
    r1.set(b, fk, household).expect("row exists");
}

#[test]
fn a_nulled_fk_value_counts_as_a_failed_run() {
    let _serial = serial();
    for name in ["census-paper", "logistics-star"] {
        let spec = spec(name).unwrap();
        let outcome = run_end_to_end(
            spec,
            7,
            Duration::ZERO,
            TINY,
            &out_dir("null-fk"),
            Some(null_one_fk),
        );
        assert!(!outcome.correct(), "{name}");
        assert_eq!(
            (outcome.attempted, outcome.failed),
            (MIN_PASSES, MIN_PASSES),
            "{name}"
        );
        assert!(
            outcome.failures[0].contains("FK column incomplete"),
            "{name}: {:?}",
            outcome.failures
        );
    }
}

#[test]
fn merged_conflicting_rows_count_as_a_failed_run() {
    let _serial = serial();
    let spec = spec("census-paper").unwrap();
    let outcome = run_end_to_end(
        spec,
        7,
        Duration::ZERO,
        TINY,
        &out_dir("merge"),
        Some(merge_two_owners),
    );
    assert_eq!(
        (outcome.attempted, outcome.failed),
        (MIN_PASSES, MIN_PASSES)
    );
    assert!(
        outcome.failures[0].contains("dc_error"),
        "{:?}",
        outcome.failures
    );
}

#[test]
fn setups_repeat_exactly_for_one_seed() {
    let _serial = serial();
    let spec = spec("dcdense-dense").unwrap();
    let a = setup(spec, 11, TINY).unwrap();
    let b = setup(spec, 11, TINY).unwrap();
    let (sa, _) = a.solve(&solver_config(11), None).unwrap();
    let (sb, _) = b.solve(&solver_config(11), None).unwrap();
    assert_eq!(sa.counters(), sb.counters());
    for (x, y) in sa.relations().into_iter().zip(sb.relations()) {
        assert!(cextend_table::relations_equal_ordered(x, y));
    }
}

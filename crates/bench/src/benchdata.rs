//! Shared inputs for the criterion micro-benchmarks.
//!
//! The `conflict_build` and `coloring` benches both measure the largest
//! real `V_join` partition of a generated `dcdense` view; extracting it
//! lives here so the two benches are guaranteed to time the same input
//! (same partition-selection rule, same DC binding). The `coloring` bench
//! also times the largest carrier partition of `logistics`, the
//! pair-dominated shape of the benchmark's `logistics-star` workload.

use cextend_constraints::BoundDc;
use cextend_table::{Relation, RowId};
use cextend_workloads::DcSet;
use std::collections::BTreeMap;

use crate::harness::ExperimentOpts;

/// The rows of the largest partition of `view` by the values of `cols`,
/// with the partition's key (ties go to the greatest key).
fn largest_partition(view: &Relation, cols: &[&str]) -> (Vec<String>, Vec<RowId>) {
    let ids: Vec<_> = cols
        .iter()
        .map(|c| view.schema().col_id(c).expect("partition column in view"))
        .collect();
    let mut by_combo: BTreeMap<Vec<String>, Vec<RowId>> = BTreeMap::new();
    for r in view.rows() {
        let key = ids
            .iter()
            .map(|&c| view.get(r, c).expect("complete").to_string())
            .collect();
        by_combo.entry(key).or_default().push(r);
    }
    by_combo
        .into_iter()
        .max_by_key(|(_, rows)| rows.len())
        .expect("non-empty view")
}

/// Generates `dcdense` at scale `label` (default harness scale factor) and
/// returns its ground-truth join view, the rows of the largest
/// `(Room, Shift)` partition, and the chosen DC set bound against the view.
pub fn dcdense_largest_partition(label: u32, set: DcSet) -> (Relation, Vec<RowId>, Vec<BoundDc>) {
    let opts = ExperimentOpts {
        workload: "dcdense".to_owned(),
        ..ExperimentOpts::default()
    };
    let data = opts.dataset(label, None, 0);
    let view = data.truth_join();
    let (_, rows) = largest_partition(&view, &["Room", "Shift"]);
    let dcs = opts
        .workload()
        .dcs(set)
        .iter()
        .map(|d| d.bind(view.schema(), view.name()).expect("DCs bind"))
        .collect();
    (view, rows, dcs)
}

/// Generates `logistics` at scale `label` (default harness scale factor)
/// and returns the ground-truth view of its carrier step, the rows of the
/// largest `(Mode, Reach)` partition, the step's full DC set bound against
/// the view, and the number of carriers matching the partition — one
/// candidate color each, as in Algorithm 4. Every step-1 DC is a pair DC,
/// so the partition's conflict graph is all pair edges.
pub fn logistics_largest_partition(label: u32) -> (Relation, Vec<RowId>, Vec<BoundDc>, usize) {
    const STEP: usize = 1;
    const KEY: [&str; 2] = ["Mode", "Reach"];
    let opts = ExperimentOpts {
        workload: "logistics".to_owned(),
        ..ExperimentOpts::default()
    };
    let data = opts.dataset(label, None, 0);
    let view = data.step_truth_view(STEP);
    let (key, rows) = largest_partition(&view, &KEY);
    let carriers = data.relation("Carriers").expect("Carriers exists");
    let key_cols = KEY.map(|c| carriers.schema().col_id(c).expect("key column in Carriers"));
    let n_candidates = carriers
        .rows()
        .filter(|&r| {
            key_cols
                .iter()
                .zip(&key)
                .all(|(&c, k)| carriers.get(r, c).expect("complete").to_string() == *k)
        })
        .count();
    let dcs = opts
        .workload()
        .step_dcs(STEP, DcSet::All)
        .iter()
        .map(|d| d.bind(view.schema(), view.name()).expect("DCs bind"))
        .collect();
    (view, rows, dcs, n_candidates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_the_largest_and_dcs_bind() {
        let (view, rows, dcs) = dcdense_largest_partition(1, DcSet::All);
        assert!(!rows.is_empty());
        assert!(rows.len() >= view.n_rows() / 12, "largest of ≤6 combos");
        assert_eq!(dcs.len(), 7, "the full dcdense DC set");
        assert!(rows.iter().all(|&r| r < view.n_rows()));
    }

    #[test]
    fn logistics_partition_is_the_largest_mode_with_its_carriers() {
        let (view, rows, dcs, n_candidates) = logistics_largest_partition(10);
        assert!(rows.len() >= view.n_rows() / 4, "largest of 4 modes");
        assert_eq!(dcs.len(), 6, "DC rows 5-8 expand to 6 primitive DCs");
        assert!(n_candidates > 0 && n_candidates < rows.len());
        let mode = view.schema().col_id("Mode").expect("Mode in view");
        let first = view.get(rows[0], mode);
        assert!(rows.iter().all(|&r| view.get(r, mode) == first));
    }
}

//! Stage walls and busy times computed from the raw spans of one traced
//! solve.
//!
//! A stage's **wall** is the length of the union of its spans' intervals
//! across threads (the time at least one thread was in it); its **busy**
//! time is the sum of their durations. Phase 2's work-stealing pipeline
//! overlaps conflict building and coloring on different workers, so only
//! the union is a wall that adds up: `phase1.wall` + `phase2.wall` +
//! `unattributed` equals the solve wall exactly, where `phase2.wall` counts
//! only time no Phase 1 stage runs (the two overlap only when a multi-step
//! workload solves steps concurrently).

use cextend_obs::SpanEvent;
use std::collections::BTreeMap;

/// Phase 1 stage span names (`core::phase1`).
pub const PHASE1_STAGES: [&str; 8] = [
    "pairwise",
    "hasse",
    "ilp_build",
    "ilp_solve",
    "fill",
    "repair",
    "leftovers",
    "random",
];

/// Phase 2 stage span names (`core::phase2`).
pub const PHASE2_STAGES: [&str; 3] = ["conflict_build", "coloring", "invalid"];

/// A half-open interval in trace nanoseconds.
pub type Interval = (u64, u64);

fn interval(s: &SpanEvent) -> Interval {
    (s.ts_ns, s.ts_ns.saturating_add(s.dur_ns))
}

/// Sorted, disjoint union of `ivs`.
pub fn union(mut ivs: Vec<Interval>) -> Vec<Interval> {
    ivs.sort_unstable();
    let mut out: Vec<Interval> = Vec::with_capacity(ivs.len());
    for (start, end) in ivs {
        match out.last_mut() {
            Some(last) if start <= last.1 => last.1 = last.1.max(end),
            _ => out.push((start, end)),
        }
    }
    out
}

/// Total length of a disjoint union.
pub fn length(u: &[Interval]) -> u64 {
    u.iter().map(|&(s, e)| e - s).sum()
}

/// Length of the overlap of two disjoint unions.
pub fn overlap(a: &[Interval], b: &[Interval]) -> u64 {
    let (mut i, mut j, mut total) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let start = a[i].0.max(b[j].0);
        let end = a[i].1.min(b[j].1);
        if start < end {
            total += end - start;
        }
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

fn ns_to_s(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Stage walls and busy times of one traced solve.
#[derive(Clone, Debug, Default)]
pub struct StageWalls {
    /// Solve wall seconds (the benchmark's own span around the call).
    pub solve_s: f64,
    /// Per stage name: (wall seconds, busy seconds).
    pub stages: BTreeMap<&'static str, (f64, f64)>,
    /// Union of the Phase 1 stages.
    pub phase1_wall_s: f64,
    /// Worker-seconds of Phase 1: stage time on the solving thread, minus
    /// the time it waited on its pool, plus the pool's task time.
    pub phase1_busy_s: f64,
    /// Union of the Phase 2 stages, less any time a Phase 1 stage ran.
    pub phase2_wall_s: f64,
    /// Sum of the Phase 2 stage spans over all threads.
    pub phase2_busy_s: f64,
    /// Solve wall not covered by any Phase 1 or Phase 2 stage.
    pub unattributed_s: f64,
    /// Per colored partition, conflict build plus coloring milliseconds.
    pub partition_ms: Vec<f64>,
    /// Spans recorded inside the solve window.
    pub spans: usize,
}

impl StageWalls {
    /// Wall seconds of one stage (0 when it never ran).
    pub fn wall(&self, stage: &str) -> f64 {
        self.stages.get(stage).map_or(0.0, |w| w.0)
    }

    /// Busy seconds of one stage (0 when it never ran).
    pub fn busy(&self, stage: &str) -> f64 {
        self.stages.get(stage).map_or(0.0, |w| w.1)
    }
}

/// Analyses the spans of one traced solve. `window` is the span the
/// benchmark opened around the solver call; spans outside it, and spans
/// of the window's own name, are ignored.
pub fn analyse(spans: &[SpanEvent], window: &SpanEvent) -> StageWalls {
    let (w0, w1) = interval(window);
    let inside: Vec<&SpanEvent> = spans
        .iter()
        .filter(|s| s.ts_ns >= w0 && s.ts_ns + s.dur_ns <= w1 && s.name != window.name)
        .collect();
    let named = |names: &[&str]| -> Vec<&SpanEvent> {
        inside
            .iter()
            .copied()
            .filter(|s| names.contains(&s.name.as_ref()))
            .collect()
    };
    let union_of = |spans: &[&SpanEvent]| union(spans.iter().map(|s| interval(s)).collect());

    let mut stages = BTreeMap::new();
    for name in PHASE1_STAGES.iter().chain(&PHASE2_STAGES) {
        let of = named(&[name]);
        if !of.is_empty() {
            let busy: u64 = of.iter().map(|s| s.dur_ns).sum();
            stages.insert(*name, (ns_to_s(length(&union_of(&of))), ns_to_s(busy)));
        }
    }
    let p1 = named(&PHASE1_STAGES);
    let p2 = named(&PHASE2_STAGES);
    let p1_union = union_of(&p1);
    let p2_union = union_of(&p2);
    let p1_wall = length(&p1_union);
    let p2_wall = length(&p2_union) - overlap(&p2_union, &p1_union);
    let solve_ns = window.dur_ns;
    StageWalls {
        solve_s: ns_to_s(solve_ns),
        stages,
        phase1_wall_s: ns_to_s(p1_wall),
        phase1_busy_s: ns_to_s(phase1_busy(&inside, &p1)),
        phase2_wall_s: ns_to_s(p2_wall),
        phase2_busy_s: ns_to_s(p2.iter().map(|s| s.dur_ns).sum()),
        unattributed_s: ns_to_s(solve_ns.saturating_sub(p1_wall + p2_wall)),
        partition_ms: partition_latencies(&inside),
        spans: inside.len(),
    }
}

/// Phase 1 worker-seconds. The solving thread blocks while its pool runs
/// `task:` spans, so each Phase 1 stage contributes its own duration minus
/// the union of the pool tasks it waited on, and the tasks contribute their
/// durations. A task belongs to the latest-starting Phase 1 stage on
/// another thread that encloses it; the step tasks of the snowflake
/// scheduler (which enclose whole solves) are not pool work.
fn phase1_busy(inside: &[&SpanEvent], p1: &[&SpanEvent]) -> u64 {
    let solves: Vec<&SpanEvent> = inside
        .iter()
        .copied()
        .filter(|s| s.name == "solve")
        .collect();
    let encloses = |outer: &SpanEvent, inner: &SpanEvent| {
        outer.ts_ns <= inner.ts_ns && inner.ts_ns + inner.dur_ns <= outer.ts_ns + outer.dur_ns
    };
    let mut waited: Vec<Vec<Interval>> = vec![Vec::new(); p1.len()];
    let mut task_ns = 0;
    for task in inside.iter().filter(|s| s.name.starts_with("task:")) {
        if solves
            .iter()
            .any(|v| v.tid == task.tid && encloses(task, v))
        {
            continue;
        }
        let owner = p1
            .iter()
            .enumerate()
            .filter(|(_, stage)| stage.tid != task.tid && encloses(stage, task))
            .max_by_key(|(_, stage)| stage.ts_ns);
        if let Some((i, _)) = owner {
            waited[i].push(interval(task));
            task_ns += task.dur_ns;
        }
    }
    let own: u64 = p1
        .iter()
        .zip(waited)
        .map(|(stage, w)| stage.dur_ns.saturating_sub(length(&union(w))))
        .sum();
    own + task_ns
}

/// Per-partition latencies: on each thread, a `conflict_build` span
/// immediately followed (in record order) by a `coloring` span is one
/// partition built and colored. The coordinator's partitioning and apply
/// stages never pair up that way.
fn partition_latencies(inside: &[&SpanEvent]) -> Vec<f64> {
    let mut per_thread: BTreeMap<u64, Vec<&SpanEvent>> = BTreeMap::new();
    for s in inside {
        per_thread.entry(s.tid).or_default().push(s);
    }
    let mut out = Vec::new();
    for spans in per_thread.values() {
        for pair in spans.windows(2) {
            let (build, color) = (pair[0], pair[1]);
            if build.name == "conflict_build"
                && color.name == "coloring"
                && color.ts_ns >= build.ts_ns + build.dur_ns
            {
                out.push((build.dur_ns + color.dur_ns) as f64 / 1e6);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn span(name: &'static str, tid: u64, ts: u64, dur: u64) -> SpanEvent {
        SpanEvent {
            name: Cow::Borrowed(name),
            tid,
            ts_ns: ts,
            dur_ns: dur,
        }
    }

    #[test]
    fn union_and_overlap() {
        let u = union(vec![(5, 8), (0, 2), (1, 3), (8, 9)]);
        assert_eq!(u, vec![(0, 3), (5, 9)]);
        assert_eq!(length(&u), 7);
        assert_eq!(overlap(&u, &[(2, 6)]), 2);
        assert_eq!(overlap(&u, &[]), 0);
    }

    #[test]
    fn overlapping_phase2_workers_are_not_double_counted() {
        // Two workers build and color partitions concurrently.
        let window = span("bench.solve", 1, 0, 100);
        let spans = vec![
            span("hasse", 1, 0, 20),
            span("conflict_build", 1, 20, 5),
            span("conflict_build", 2, 30, 30),
            span("coloring", 2, 60, 10),
            span("conflict_build", 3, 30, 20),
            span("coloring", 3, 50, 30),
            span("invalid", 1, 85, 5),
            window.clone(),
        ];
        let w = analyse(&spans, &window);
        assert_eq!(w.phase1_wall_s, 20e-9);
        // Phase 2 union: [20,25) + [30,80) + [85,90) = 60 ns.
        assert_eq!(w.phase2_wall_s, 60e-9);
        assert_eq!(w.phase2_busy_s, 100e-9);
        assert_eq!(w.wall("conflict_build"), 35e-9);
        assert_eq!(w.busy("conflict_build"), 55e-9);
        assert!((w.phase1_wall_s + w.phase2_wall_s + w.unattributed_s - w.solve_s).abs() < 1e-15);
        let mut parts = w.partition_ms.clone();
        parts.sort_by(f64::total_cmp);
        assert_eq!(parts, vec![40e-6, 50e-6]);
    }

    #[test]
    fn phase1_busy_counts_pool_tasks_instead_of_the_wait() {
        let window = span("bench.solve", 1, 0, 100);
        let spans = vec![
            // The solving thread spends 40 ns in `hasse`, 30 of them
            // waiting on two workers that each work 25 ns.
            span("task:0", 2, 10, 25),
            span("task:1", 3, 12, 25),
            span("hasse", 1, 0, 40),
            window.clone(),
        ];
        let w = analyse(&spans, &window);
        assert_eq!(w.phase1_wall_s, 40e-9);
        // 40 − |[10,37)| + 25 + 25 = 63 ns.
        assert!((w.phase1_busy_s - 63e-9).abs() < 1e-15);
    }

    #[test]
    fn concurrent_steps_do_not_exceed_the_solve_wall() {
        // Step A's Phase 2 overlaps step B's Phase 1.
        let window = span("bench.solve", 1, 0, 100);
        let spans = vec![
            span("hasse", 2, 0, 30),
            span("coloring", 2, 30, 40),
            span("hasse", 3, 0, 60),
            span("coloring", 3, 60, 30),
            span("solve", 2, 0, 75),
            span("task:0", 2, 0, 76),
            span("solve", 3, 0, 95),
            span("task:1", 3, 0, 96),
            window.clone(),
        ];
        let w = analyse(&spans, &window);
        assert_eq!(w.phase1_wall_s, 60e-9);
        assert_eq!(w.phase2_wall_s, 30e-9);
        assert!((w.unattributed_s - 10e-9).abs() < 1e-15);
        // Step tasks are not pool work: busy is the stages' own time.
        assert!((w.phase1_busy_s - 90e-9).abs() < 1e-15);
    }
}

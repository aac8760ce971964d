//! The edge-id incidence reference for the coloring kernels.
//!
//! Before the co-member index, every kernel walked each vertex's incident
//! edge ids and read the edge's other members back out of the edge buffer.
//! This module keeps that formulation, over an incidence list it builds
//! itself from [`Hypergraph::edges`], as the one reference the production
//! kernels are property-tested against: same processing order, same
//! forbidden sets, same choices, hence equal colorings, skipped lists,
//! fresh lists and exact-search outcomes.

use crate::coloring::CandidateLists;
use crate::exact::ExactResult;
use crate::graph::{Color, Coloring, EdgeId, Hypergraph, VertexId};
use std::collections::HashSet;

/// Incident edge ids per vertex, ascending.
fn incidence(g: &Hypergraph) -> Vec<Vec<EdgeId>> {
    let mut inc = vec![Vec::new(); g.n_vertices()];
    for (e, vs) in g.edges().enumerate() {
        for &v in vs {
            inc[v as usize].push(e as EdgeId);
        }
    }
    inc
}

/// Uncolored vertices by non-increasing degree, ties by id.
fn order(inc: &[Vec<EdgeId>], coloring: &Coloring) -> Vec<VertexId> {
    let mut vs: Vec<VertexId> = (0..inc.len() as VertexId)
        .filter(|&v| !coloring.is_colored(v))
        .collect();
    vs.sort_by(|&a, &b| {
        inc[b as usize]
            .len()
            .cmp(&inc[a as usize].len())
            .then(a.cmp(&b))
    });
    vs
}

/// Colors that would make an edge incident to `v` monochromatic.
fn forbidden(
    g: &Hypergraph,
    inc: &[Vec<EdgeId>],
    coloring: &Coloring,
    v: VertexId,
) -> HashSet<Color> {
    inc[v as usize]
        .iter()
        .filter_map(|&e| {
            let others: Vec<Option<Color>> = g
                .edge(e)
                .iter()
                .filter(|&&u| u != v)
                .map(|&u| coloring.get(u))
                .collect();
            let first = others[0]?;
            others.iter().all(|&c| c == Some(first)).then_some(first)
        })
        .collect()
}

/// Algorithm 3: each uncolored vertex takes `min(L(v) \ forbidden)`.
pub(crate) fn coloring_lf(
    g: &Hypergraph,
    coloring: &mut Coloring,
    candidates: &CandidateLists<'_>,
) -> Vec<VertexId> {
    let inc = incidence(g);
    let mut skipped = Vec::new();
    for v in order(&inc, coloring) {
        let f = forbidden(g, &inc, coloring, v);
        match candidates.get(v).iter().filter(|c| !f.contains(c)).min() {
            Some(&c) => coloring.set(v, c),
            None => skipped.push(v),
        }
    }
    skipped
}

/// Fresh-color completion: reuse the first permitted fresh color, else mint.
pub(crate) fn color_skipped_with_fresh(
    g: &Hypergraph,
    coloring: &mut Coloring,
    skipped: &[VertexId],
    next_color: Color,
) -> Vec<Color> {
    let inc = incidence(g);
    let mut fresh: Vec<Color> = Vec::new();
    for &v in skipped {
        let f = forbidden(g, &inc, coloring, v);
        let c = match fresh.iter().find(|c| !f.contains(c)) {
            Some(&c) => c,
            None => {
                fresh.push(next_color + fresh.len() as Color);
                *fresh.last().expect("just pushed")
            }
        };
        coloring.set(v, c);
    }
    fresh
}

/// Backtracking in degree order, candidates in list order, one step per
/// candidate tried.
pub(crate) fn exact_list_coloring(
    g: &Hypergraph,
    partial: &Coloring,
    candidates: &CandidateLists<'_>,
    max_steps: usize,
) -> ExactResult {
    let inc = incidence(g);
    let order = order(&inc, partial);
    let mut coloring = partial.clone();
    let mut steps = 0usize;
    match dfs(
        g,
        &inc,
        &mut coloring,
        candidates,
        &order,
        &mut steps,
        max_steps,
    ) {
        Some(true) => ExactResult::Colorable(coloring),
        Some(false) => ExactResult::Uncolorable,
        None => ExactResult::Unknown,
    }
}

/// `Some(found)`, or `None` once the budget is spent.
fn dfs(
    g: &Hypergraph,
    inc: &[Vec<EdgeId>],
    coloring: &mut Coloring,
    candidates: &CandidateLists<'_>,
    order: &[VertexId],
    steps: &mut usize,
    max_steps: usize,
) -> Option<bool> {
    let Some((&v, rest)) = order.split_first() else {
        return Some(true);
    };
    for &c in candidates.get(v) {
        *steps += 1;
        if *steps > max_steps {
            return None;
        }
        if forbidden(g, inc, coloring, v).contains(&c) {
            continue;
        }
        coloring.set(v, c);
        if dfs(g, inc, coloring, candidates, rest, steps, max_steps)? {
            return Some(true);
        }
        coloring.unset(v);
    }
    Some(false)
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Vertices of the generated graphs.
    const N: u32 = 10;
    /// Colors drawn by precolorings and candidate lists.
    const K: u32 = 6;

    /// One insertion: `(arity 2..=4, raw vertex ids, through the unchecked
    /// fast path?)`.
    type RawEdge = (usize, (u32, u32, u32, u32), bool);

    /// Builds a graph of `n` vertices from raw edges, mixing `add_edge`
    /// with `add_sorted_edge_unchecked`. An unchecked insertion skips any
    /// vertex set already present, and a checked one skips sets inserted
    /// unchecked, as the unchecked contract requires of its callers.
    /// `pairs_only` cuts every edge to its first two vertices, the shape
    /// the index builds through its all-pairs path.
    fn build(n: usize, raw: &[RawEdge], pairs_only: bool) -> Hypergraph {
        let mut g = Hypergraph::new(n);
        let mut all: HashSet<Vec<VertexId>> = HashSet::new();
        let mut unchecked: HashSet<Vec<VertexId>> = HashSet::new();
        for &(arity, (a, b, c, d), fast) in raw {
            let arity = if pairs_only { 2 } else { arity };
            let mut vs: Vec<VertexId> = [a, b, c, d][..arity]
                .iter()
                .map(|&v| v % n as u32)
                .collect();
            vs.sort_unstable();
            vs.dedup();
            if vs.len() < 2 {
                continue;
            }
            if fast {
                if all.insert(vs.clone()) {
                    unchecked.insert(vs.clone());
                    g.add_sorted_edge_unchecked(&vs);
                }
            } else if !unchecked.contains(&vs) {
                all.insert(vs);
                // Unsorted input exercises add_edge's own normalization.
                g.add_edge(&[a % n as u32, b % n as u32, c % n as u32, d % n as u32][..arity]);
            }
        }
        g
    }

    fn precolor(n: usize, colors: &[Option<u32>]) -> Coloring {
        let mut c = Coloring::new(n);
        for (v, &col) in colors.iter().take(n).enumerate() {
            if let Some(col) = col.filter(|&x| x < K) {
                c.set(v as VertexId, col);
            }
        }
        c
    }

    fn arb_edges() -> impl Strategy<Value = Vec<RawEdge>> {
        proptest::collection::vec(
            (
                2usize..5,
                (0u32..N, 0u32..N, 0u32..N, 0u32..N),
                proptest::bool::ANY,
            ),
            0..30,
        )
    }

    /// A precoloring draw: `Some(c)` with `c ≥ K` leaves the vertex
    /// uncolored, so about three vertices in eight start colored.
    fn arb_precolor() -> impl Strategy<Value = Vec<Option<u32>>> {
        proptest::collection::vec(proptest::option::of(0u32..2 * K), N as usize)
    }

    /// `(kind, shared list, per-vertex lists)`: kind 0 is the shared
    /// ascending `0..len`, kind 1 the shared list as drawn (unsorted, may
    /// repeat), kind 2 the per-vertex lists.
    fn arb_lists() -> impl Strategy<Value = (u32, Vec<u32>, Vec<Vec<u32>>)> {
        (
            0u32..3,
            proptest::collection::vec(0u32..K + 3, 0..6),
            proptest::collection::vec(proptest::collection::vec(0u32..K + 3, 0..5), N as usize),
        )
    }

    fn with_lists<R>(
        (kind, shared, per_vertex): &(u32, Vec<u32>, Vec<Vec<u32>>),
        f: impl FnOnce(&CandidateLists<'_>) -> R,
    ) -> R {
        match kind {
            0 => {
                let ascending: Vec<Color> = (0..shared.len() as Color).collect();
                f(&CandidateLists::Shared(&ascending))
            }
            1 => f(&CandidateLists::Shared(shared)),
            _ => f(&CandidateLists::PerVertex(per_vertex)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Greedy coloring, then fresh-color completion, matches the
        /// edge-id reference exactly: same colorings, skipped lists and
        /// fresh lists.
        #[test]
        fn greedy_and_fresh_match_the_incidence_reference(
            n in 2usize..(N as usize + 1),
            raw in arb_edges(),
            pairs_only in proptest::bool::ANY,
            pre in arb_precolor(),
            lists in arb_lists(),
        ) {
            let g = build(n, &raw, pairs_only);
            let mut lists = lists;
            lists.2.truncate(n);
            let partial = precolor(n, &pre);
            let (mut got, mut want) = (partial.clone(), partial);
            let got_skipped = with_lists(&lists, |l| crate::coloring_lf(&g, &mut got, l));
            let want_skipped = with_lists(&lists, |l| coloring_lf(&g, &mut want, l));
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(&got_skipped, &want_skipped);
            let got_fresh = crate::color_skipped_with_fresh(&g, &mut got, &got_skipped, 100);
            let want_fresh = color_skipped_with_fresh(&g, &mut want, &want_skipped, 100);
            prop_assert_eq!(&got_fresh, &want_fresh);
            prop_assert_eq!(&got, &want);
            prop_assert!(got.is_complete());
        }

        /// The exact solver matches the reference search step for step:
        /// same outcome, same coloring, same budget cut-off.
        #[test]
        fn exact_search_matches_the_incidence_reference(
            n in 2usize..(N as usize + 1),
            raw in arb_edges(),
            pairs_only in proptest::bool::ANY,
            pre in arb_precolor(),
            lists in arb_lists(),
            budget in 1usize..400,
        ) {
            let g = build(n, &raw, pairs_only);
            let mut lists = lists;
            lists.2.truncate(n);
            let partial = precolor(n, &pre);
            let got = with_lists(&lists, |l| crate::exact_list_coloring(&g, &partial, l, budget));
            let want = with_lists(&lists, |l| exact_list_coloring(&g, &partial, l, budget));
            prop_assert_eq!(got, want);
        }
    }
}

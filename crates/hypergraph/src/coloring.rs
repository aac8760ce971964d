//! Greedy largest-first list coloring — Algorithm 3 of the paper.
//!
//! Uncolored vertices are processed in non-increasing degree order. For each
//! vertex `v`, a color `c` is *forbidden* if some edge containing `v` has all
//! its other vertices already colored `c` (coloring `v` with `c` would make
//! the edge monochromatic). The vertex takes the smallest permitted candidate
//! color; if none remains it is *skipped* and returned to the caller, which
//! resolves skips by minting fresh colors (= fresh `R2` tuples, lines 11–14
//! of Algorithm 4).

use crate::graph::{Color, Coloring, EdgeId, Hypergraph, VertexId};

/// A generation-stamped forbidden-color set: `mark`/`is_marked` are O(1)
/// array reads and "clearing" between vertices is a stamp increment — no
/// per-vertex hashing or `HashSet` churn on the coloring hot path. Colors
/// index candidate FK values, so they are dense small integers; the array
/// grows to the largest color actually forbidden. Color `c` lives in slot
/// `c + 1`; slot 0 absorbs marks of "no color", so the kernels mark an
/// `Option<Color>` without branching on it — whether a partner is colored
/// yet is a coin flip mid-coloring, and mispredicting that branch cost
/// about two thirds of the pair loop's time.
struct ForbiddenSet {
    stamp_of: Vec<u32>,
    stamp: u32,
}

impl ForbiddenSet {
    fn new() -> ForbiddenSet {
        ForbiddenSet {
            stamp_of: Vec::new(),
            stamp: 0,
        }
    }

    /// Starts a fresh (empty) forbidden set for the next vertex.
    fn next_vertex(&mut self) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // One wrap per 2^32 vertices: reset the stamps instead of
            // letting stale marks alias the new generation.
            self.stamp_of.iter_mut().for_each(|s| *s = 0);
            self.stamp = 1;
        }
    }

    /// Forbids `c`; `None` is a no-op.
    #[inline]
    fn mark(&mut self, c: Option<Color>) {
        let i = c.map_or(0, |c| c as usize + 1);
        if i >= self.stamp_of.len() {
            self.stamp_of.resize(i + 1, 0);
        }
        self.stamp_of[i] = self.stamp;
    }

    fn is_marked(&self, c: Color) -> bool {
        self.stamp_of.get(c as usize + 1) == Some(&self.stamp)
    }
}

/// Candidate color lists: either one shared list for every vertex (the
/// common case inside a `V_join` partition, where candidates are the keys of
/// `R2` matching the partition's `B` values) or a list per vertex (used for
/// invalid tuples, which may take any key).
#[derive(Clone, Debug)]
pub enum CandidateLists<'a> {
    /// Every vertex draws from the same list.
    Shared(&'a [Color]),
    /// Vertex `v` draws from `lists[v]`.
    PerVertex(&'a [Vec<Color>]),
}

impl CandidateLists<'_> {
    /// The candidate list for `v`.
    pub fn get(&self, v: VertexId) -> &[Color] {
        match self {
            CandidateLists::Shared(l) => l,
            CandidateLists::PerVertex(ls) => &ls[v as usize],
        }
    }
}

/// Runs largest-first list coloring, extending the partial `coloring`
/// in place. Returns the vertices that could not be colored (skipped),
/// in processing order.
///
/// Matches Algorithm 3: already-colored vertices are left untouched; each
/// uncolored vertex gets `min(L(v) \ forbidden)` or is skipped. A shared
/// list that is sorted ascending (Phase II always passes `0..n`) takes its
/// first permitted color instead of scanning the whole list for the minimum.
pub fn coloring_lf(
    g: &Hypergraph,
    coloring: &mut Coloring,
    candidates: &CandidateLists<'_>,
) -> Vec<VertexId> {
    assert_eq!(
        coloring.len(),
        g.n_vertices(),
        "coloring must cover exactly the graph's vertices"
    );
    let mut skipped = Vec::new();
    let order: Vec<VertexId> = g
        .vertices_by_degree_desc()
        .into_iter()
        .filter(|&v| !coloring.is_colored(v))
        .collect();
    let sorted_shared = match candidates {
        CandidateLists::Shared(l) => l.is_sorted(),
        CandidateLists::PerVertex(_) => false,
    };
    let mut forbidden = ForbiddenSet::new();
    for v in order {
        mark_forbidden(g, coloring, v, &mut forbidden);
        let mut permitted = candidates
            .get(v)
            .iter()
            .copied()
            .filter(|&c| !forbidden.is_marked(c));
        let choice = if sorted_shared {
            permitted.next()
        } else {
            permitted.min()
        };
        match choice {
            Some(c) => coloring.set(v, c),
            None => skipped.push(v),
        }
    }
    skipped
}

/// Starts a fresh forbidden set for `v` and marks every color that would
/// make an incident edge monochromatic: a pair partner's color, the shared
/// color of an arity-3 edge's two other members, and the lone color of a
/// wider edge whose other members are all colored alike.
fn mark_forbidden(g: &Hypergraph, coloring: &Coloring, v: VertexId, forbidden: &mut ForbiddenSet) {
    forbidden.next_vertex();
    let m = g.co_members(v);
    for &u in m.pairs {
        forbidden.mark(coloring.get(u));
    }
    for &[a, b] in m.triples {
        let (ca, cb) = (coloring.get(a), coloring.get(b));
        forbidden.mark(if ca == cb { ca } else { None });
    }
    for &e in m.wide {
        forbidden.mark(lone_uncolored_color(g, coloring, e, v));
    }
}

/// If every vertex of `e` other than `v` is colored and they all share one
/// color, returns that color (it is forbidden for `v`).
fn lone_uncolored_color(
    g: &Hypergraph,
    coloring: &Coloring,
    e: EdgeId,
    v: VertexId,
) -> Option<Color> {
    let mut color: Option<Color> = None;
    for &u in g.edge(e) {
        if u == v {
            continue;
        }
        match coloring.get(u) {
            None => return None,
            Some(c) => match color {
                None => color = Some(c),
                Some(prev) if prev != c => return None,
                Some(_) => {}
            },
        }
    }
    color
}

/// Colors the `skipped` vertices with fresh colors starting at `next_color`,
/// reusing a fresh color across skips when doing so keeps all edges
/// non-monochromatic (the paper adds "the least number of new colors").
/// Returns the fresh colors actually used, in allocation order.
///
/// Per vertex this is `O(degree + |fresh|)`: the forbidden colors are
/// collected in one pass over the co-member lists, then the first
/// non-forbidden fresh color is taken (cliques of skipped vertices would
/// otherwise cost `O(|skipped|² · degree)`).
pub fn color_skipped_with_fresh(
    g: &Hypergraph,
    coloring: &mut Coloring,
    skipped: &[VertexId],
    next_color: Color,
) -> Vec<Color> {
    let mut fresh: Vec<Color> = Vec::new();
    let mut forbidden = ForbiddenSet::new();
    for &v in skipped {
        mark_forbidden(g, coloring, v, &mut forbidden);
        let reuse = fresh.iter().copied().find(|&c| !forbidden.is_marked(c));
        let c = reuse.unwrap_or_else(|| {
            let c = next_color + fresh.len() as Color;
            fresh.push(c);
            c
        });
        coloring.set(v, c);
    }
    fresh
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::is_proper_complete;

    /// The running example's Chicago partition (Figure 7, solid edges among
    /// tuples 1..7): owners {1,2,3,4} pairwise conflicting, plus
    /// age-constrained spouse/child edges.
    fn chicago_graph() -> Hypergraph {
        let mut g = Hypergraph::new(7);
        // Vertices 0..3 are owners (pids 1..4): pairwise edges.
        for i in 0..4u32 {
            for j in (i + 1)..4 {
                g.add_edge(&[i, j]);
            }
        }
        // Spouse (pid 5 = vertex 4) conflicts with old owners (75 vs 24).
        g.add_edge(&[0, 4]);
        g.add_edge(&[1, 4]);
        // Children (pids 6,7 = vertices 5,6) conflict with multi-lingual
        // owner age 25 (pid 4 = vertex 3): 10 < 25 − 12 is false, so only
        // with owner 75 multi-lingual (pid 2 = vertex 1): 10 < 75 − 50.
        g.add_edge(&[1, 5]);
        g.add_edge(&[1, 6]);
        g
    }

    #[test]
    fn greedy_colors_running_example_partition() {
        let g = chicago_graph();
        let mut c = Coloring::new(7);
        let colors: Vec<Color> = vec![0, 1, 2, 3]; // four Chicago households
        let skipped = coloring_lf(&g, &mut c, &CandidateLists::Shared(&colors));
        assert!(skipped.is_empty());
        assert!(is_proper_complete(&g, &c));
    }

    #[test]
    fn insufficient_colors_cause_skips_then_fresh_colors_fix_them() {
        // Triangle with a single candidate color: two vertices get skipped.
        let mut g = Hypergraph::new(3);
        g.add_edge(&[0, 1]);
        g.add_edge(&[1, 2]);
        g.add_edge(&[0, 2]);
        let mut c = Coloring::new(3);
        let skipped = coloring_lf(&g, &mut c, &CandidateLists::Shared(&[7]));
        assert_eq!(skipped.len(), 2);
        let fresh = color_skipped_with_fresh(&g, &mut c, &skipped, 100);
        assert!(is_proper_complete(&g, &c));
        // A triangle needs two fresh colors beyond the single shared one?
        // No: colors {7, 100, 100} would be improper only on the edge
        // between the two fresh vertices — so a second fresh color is
        // needed exactly when the skipped vertices are adjacent.
        assert_eq!(fresh.len(), 2);
    }

    #[test]
    fn fresh_colors_are_reused_when_skipped_vertices_are_independent() {
        // Path 0-1-2 with no candidate colors at all: all three skipped;
        // vertices 0 and 2 are not adjacent, so they can share one fresh
        // color.
        let mut g = Hypergraph::new(3);
        g.add_edge(&[0, 1]);
        g.add_edge(&[1, 2]);
        let mut c = Coloring::new(3);
        let empty: Vec<Color> = vec![];
        let skipped = coloring_lf(&g, &mut c, &CandidateLists::Shared(&empty));
        assert_eq!(skipped.len(), 3);
        let fresh = color_skipped_with_fresh(&g, &mut c, &skipped, 50);
        assert!(is_proper_complete(&g, &c));
        assert_eq!(fresh.len(), 2);
    }

    #[test]
    fn respects_preexisting_partial_coloring() {
        let mut g = Hypergraph::new(2);
        g.add_edge(&[0, 1]);
        let mut c = Coloring::new(2);
        c.set(0, 3);
        let skipped = coloring_lf(&g, &mut c, &CandidateLists::Shared(&[3, 4]));
        assert!(skipped.is_empty());
        assert_eq!(c.get(0), Some(3)); // untouched
        assert_eq!(c.get(1), Some(4)); // 3 forbidden by the edge
    }

    #[test]
    fn takes_smallest_permitted_color() {
        let g = Hypergraph::new(1);
        let mut c = Coloring::new(1);
        coloring_lf(&g, &mut c, &CandidateLists::Shared(&[9, 2, 5]));
        assert_eq!(c.get(0), Some(2));
    }

    #[test]
    fn per_vertex_lists() {
        let mut g = Hypergraph::new(2);
        g.add_edge(&[0, 1]);
        let lists = vec![vec![1], vec![1, 2]];
        let mut c = Coloring::new(2);
        let skipped = coloring_lf(&g, &mut c, &CandidateLists::PerVertex(&lists));
        assert!(skipped.is_empty());
        // Vertex 0 has degree == vertex 1; order ties broken by id, so 0
        // takes color 1 and 1 must take 2.
        assert_eq!(c.get(0), Some(1));
        assert_eq!(c.get(1), Some(2));
    }

    #[test]
    fn hyperedge_forbids_only_when_all_others_share_color() {
        let mut g = Hypergraph::new(3);
        g.add_edge(&[0, 1, 2]);
        let mut c = Coloring::new(3);
        c.set(0, 1);
        c.set(1, 2);
        // Vertex 2 may take 1 or 2: the 3-edge already has two colors.
        let skipped = coloring_lf(&g, &mut c, &CandidateLists::Shared(&[1]));
        assert!(skipped.is_empty());
        assert!(is_proper_complete(&g, &c));
    }

    #[test]
    fn paper_example_5_3_coloring() {
        // Example 5.3: the full conflict graph over all 9 tuples (dashed
        // edges included) with candidate colors 1..6. The paper reports the
        // assignment c = [2,1,3,4,3,2,2,5,6] under its ordering; we verify
        // that our deterministic order produces *a* proper coloring using
        // only the six candidates.
        let mut g = Hypergraph::new(9);
        // Owners: pids 1,2,3,4,8,9 → vertices 0,1,2,3,7,8 pairwise.
        let owners = [0u32, 1, 2, 3, 7, 8];
        for (i, &a) in owners.iter().enumerate() {
            for &b in &owners[i + 1..] {
                g.add_edge(&[a, b]);
            }
        }
        // Spouse pid5 (v4) with owners aged 75 (v0, v1).
        g.add_edge(&[0, 4]);
        g.add_edge(&[1, 4]);
        // Children pid6,7 (v5, v6) with multi-lingual owner 75 (v1).
        g.add_edge(&[1, 5]);
        g.add_edge(&[1, 6]);
        let mut c = Coloring::new(9);
        let colors: Vec<Color> = (1..=6).collect();
        let skipped = coloring_lf(&g, &mut c, &CandidateLists::Shared(&colors));
        assert!(skipped.is_empty());
        assert!(is_proper_complete(&g, &c));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::graph::{edge_is_monochromatic, Hypergraph};
    use proptest::prelude::*;

    fn arb_graph() -> impl Strategy<Value = Hypergraph> {
        (
            2usize..12,
            proptest::collection::vec((0u32..12, 0u32..12), 0..30),
        )
            .prop_map(|(n, pairs)| {
                let mut g = Hypergraph::new(n);
                for (a, b) in pairs {
                    let (a, b) = (a % n as u32, b % n as u32);
                    g.add_edge(&[a, b]);
                }
                g
            })
    }

    proptest! {
        /// Whatever the greedy does, it never *creates* a monochromatic
        /// edge: every fully-colored edge in the output is non-mono, and
        /// after fresh-color completion the coloring is proper.
        #[test]
        fn greedy_plus_fresh_is_always_proper(g in arb_graph(), n_colors in 0u32..4) {
            let colors: Vec<Color> = (0..n_colors).collect();
            let mut c = Coloring::new(g.n_vertices());
            let skipped = coloring_lf(&g, &mut c, &CandidateLists::Shared(&colors));
            for e in 0..g.n_edges() as u32 {
                prop_assert!(!edge_is_monochromatic(&g, &c, e));
            }
            color_skipped_with_fresh(&g, &mut c, &skipped, 1000);
            prop_assert!(crate::graph::is_proper_complete(&g, &c));
        }

        /// Greedy never skips when the shared candidate list is larger than
        /// the maximum degree (classic greedy-coloring guarantee; edges here
        /// are size-2).
        #[test]
        fn no_skips_with_enough_colors(g in arb_graph()) {
            let max_deg = (0..g.n_vertices() as u32).map(|v| g.degree(v)).max().unwrap_or(0);
            let colors: Vec<Color> = (0..=max_deg as u32).collect();
            let mut c = Coloring::new(g.n_vertices());
            let skipped = coloring_lf(&g, &mut c, &CandidateLists::Shared(&colors));
            prop_assert!(skipped.is_empty());
        }
    }
}

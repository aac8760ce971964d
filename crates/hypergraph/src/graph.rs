//! Conflict hypergraphs (Definition 5.1 of the paper).
//!
//! Vertices are the tuples of `R1`; a hyperedge `{t1..tk}` records that a
//! foreign-key denial constraint forbids those tuples from all receiving the
//! same FK value. A *proper* coloring — at least two distinct colors inside
//! every edge — therefore corresponds exactly to a DC-satisfying FK
//! assignment (Proposition 5.2).

use std::collections::HashMap;
use std::sync::OnceLock;

/// Vertex index.
pub type VertexId = u32;
/// Edge index.
pub type EdgeId = u32;
/// A color (stands for one candidate FK value).
pub type Color = u32;

/// Identity hasher for the dedup map: edge fingerprints are already
/// splitmix64-finalized, so feeding them through SipHash again only burns
/// cycles — tens of millions of times on DC-dense conflict graphs.
#[derive(Clone, Copy, Debug, Default)]
struct FingerprintHasher(u64);

impl std::hash::Hasher for FingerprintHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("fingerprint keys hash via write_u64");
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

type FingerprintState = std::hash::BuildHasherDefault<FingerprintHasher>;

/// Co-member index: per vertex, the *other* members of its incident edges,
/// split by edge arity. Each list is a CSR (`*_offsets[v] .. *_offsets[v+1]`
/// delimits `v`'s entries) filled in ascending edge id.
#[derive(Clone, Debug)]
struct CoMemberIndex {
    pair_offsets: Vec<u32>,
    /// For each pair edge `{v, u}`: `u`.
    pairs: Vec<VertexId>,
    triple_offsets: Vec<u32>,
    /// For each arity-3 edge `{v, a, b}`: `[a, b]`, ascending.
    triples: Vec<[VertexId; 2]>,
    wide_offsets: Vec<u32>,
    /// For each edge of arity ≥ 4: its id.
    wide: Vec<EdgeId>,
}

/// The edges incident to one vertex, as read from the co-member index:
/// pair edges by partner, arity-3 edges by their two other members, and
/// wider edges by id (see [`Hypergraph::co_members`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct CoMembers<'a> {
    /// The partner of each incident pair edge.
    pub pairs: &'a [VertexId],
    /// The two other members of each incident arity-3 edge, ascending.
    pub triples: &'a [[VertexId; 2]],
    /// The ids of incident edges with four or more vertices.
    pub wide: &'a [EdgeId],
}

/// Exclusive prefix sum of per-vertex counts stored at `offsets[v + 1]`.
fn prefix_sum(offsets: &mut [u32]) {
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
}

impl CoMemberIndex {
    /// Builds the index over `n` vertices from the edges `edges()` yields
    /// in id order: a counting pass bucketed by arity, prefix sums, and a
    /// fill pass in ascending edge id.
    fn build<'a, I>(n: usize, edges: impl Fn() -> I) -> CoMemberIndex
    where
        I: Iterator<Item = &'a [VertexId]>,
    {
        let mut pair_offsets = vec![0u32; n + 1];
        let mut triple_offsets = vec![0u32; n + 1];
        let mut wide_offsets = vec![0u32; n + 1];
        for vs in edges() {
            let counts = match vs.len() {
                2 => &mut pair_offsets,
                3 => &mut triple_offsets,
                _ => &mut wide_offsets,
            };
            for &v in vs {
                counts[v as usize + 1] += 1;
            }
        }
        prefix_sum(&mut pair_offsets);
        prefix_sum(&mut triple_offsets);
        prefix_sum(&mut wide_offsets);
        let mut pairs = vec![0 as VertexId; pair_offsets[n] as usize];
        let mut triples = vec![[0 as VertexId; 2]; triple_offsets[n] as usize];
        let mut wide = vec![0 as EdgeId; wide_offsets[n] as usize];
        let mut next_pair = pair_offsets[..n].to_vec();
        let mut next_triple = triple_offsets[..n].to_vec();
        let mut next_wide = wide_offsets[..n].to_vec();
        for (e, vs) in edges().enumerate() {
            match *vs {
                [a, b] => {
                    for (v, u) in [(a, b), (b, a)] {
                        pairs[next_pair[v as usize] as usize] = u;
                        next_pair[v as usize] += 1;
                    }
                }
                [a, b, c] => {
                    for (v, others) in [(a, [b, c]), (b, [a, c]), (c, [a, b])] {
                        triples[next_triple[v as usize] as usize] = others;
                        next_triple[v as usize] += 1;
                    }
                }
                _ => {
                    for &v in vs {
                        wide[next_wide[v as usize] as usize] = e as EdgeId;
                        next_wide[v as usize] += 1;
                    }
                }
            }
        }
        CoMemberIndex {
            pair_offsets,
            pairs,
            triple_offsets,
            triples,
            wide_offsets,
            wide,
        }
    }
}

/// A hypergraph with a co-member incidence index and edge deduplication.
///
/// Edges live in one flat CSR-style buffer (`edge_offsets` delimits edge
/// `e`'s vertices inside `edge_vertices`) instead of one `Box<[VertexId]>`
/// per edge, so DC-dense conflict graphs cost two amortized `Vec` pushes
/// per edge rather than two heap allocations (the key + the stored edge).
/// Duplicate detection hashes the sorted vertex list to a 64-bit
/// fingerprint; fingerprint collisions between *distinct* edges are
/// resolved exactly by comparing the stored vertex slices, so dedup
/// semantics are identical to the old exact-key set.
///
/// Incidence is a **co-member index**, built lazily: nothing is spent per
/// edge at insertion time, and the first degree or co-member query
/// materializes it in two linear passes with exact-size allocations (the
/// conflict pipeline adds every edge before coloring reads any incidence).
/// It stores, per vertex, the partner of each pair edge, the two other
/// members of each arity-3 edge and the id of each wider edge, so the
/// coloring kernels read partner colours straight from sequential lists
/// instead of chasing edge ids into the edge buffer. Adding an edge
/// afterwards drops the index; the next query rebuilds it.
#[derive(Clone, Debug)]
pub struct Hypergraph {
    n: usize,
    /// Edge `e` spans `edge_vertices[edge_offsets[e] .. edge_offsets[e+1]]`.
    edge_offsets: Vec<u32>,
    edge_vertices: Vec<VertexId>,
    co_members: OnceLock<CoMemberIndex>,
    /// Fingerprint → first edge with that fingerprint. Collisions between
    /// distinct edges overflow into `seen_overflow` (checked linearly —
    /// effectively never populated).
    seen: HashMap<u64, EdgeId, FingerprintState>,
    seen_overflow: Vec<(u64, EdgeId)>,
    /// Scratch buffer for sorting incoming edges without allocating.
    scratch: Vec<VertexId>,
}

/// 64-bit fingerprint of a sorted vertex list (FNV-1a over the ids plus a
/// final splitmix64 finalizer for avalanche).
fn fingerprint(vs: &[VertexId]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in vs {
        h ^= u64::from(v);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h ^= vs.len() as u64;
    // splitmix64 finalizer.
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

impl Default for Hypergraph {
    /// The empty hypergraph. A derived `Default` would leave
    /// `edge_offsets` without its leading `0` sentinel and break
    /// `n_edges()`; go through [`Hypergraph::new`] instead.
    fn default() -> Hypergraph {
        Hypergraph::new(0)
    }
}

impl Hypergraph {
    /// A hypergraph on `n` isolated vertices.
    pub fn new(n: usize) -> Hypergraph {
        Hypergraph {
            n,
            edge_offsets: vec![0],
            edge_vertices: Vec::new(),
            co_members: OnceLock::new(),
            seen: HashMap::default(),
            seen_overflow: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Number of vertices.
    pub fn n_vertices(&self) -> usize {
        self.n
    }

    /// Number of (distinct) edges.
    pub fn n_edges(&self) -> usize {
        self.edge_offsets.len() - 1
    }

    #[inline]
    fn edge_slice(&self, e: EdgeId) -> &[VertexId] {
        let lo = self.edge_offsets[e as usize] as usize;
        let hi = self.edge_offsets[e as usize + 1] as usize;
        &self.edge_vertices[lo..hi]
    }

    /// Adds an edge over `vertices`. Vertices are sorted and deduplicated;
    /// degenerate edges (fewer than 2 distinct vertices) and duplicates of
    /// existing edges are ignored and return `None`.
    ///
    /// # Panics
    /// Panics if a vertex id is out of range.
    pub fn add_edge(&mut self, vertices: &[VertexId]) -> Option<EdgeId> {
        let mut vs = std::mem::take(&mut self.scratch);
        vs.clear();
        vs.extend_from_slice(vertices);
        vs.sort_unstable();
        vs.dedup();
        let id = self.add_sorted_edge_inner(&vs);
        self.scratch = vs;
        id
    }

    /// [`Hypergraph::add_edge`] for vertices already sorted ascending with
    /// no duplicates (the conflict builder emits edges in canonical order).
    ///
    /// # Panics
    /// Panics in debug builds if `vertices` is not strictly ascending, and
    /// in all builds if a vertex id is out of range.
    pub fn add_sorted_edge(&mut self, vertices: &[VertexId]) -> Option<EdgeId> {
        debug_assert!(
            vertices.windows(2).all(|w| w[0] < w[1]),
            "add_sorted_edge requires strictly ascending vertices"
        );
        self.add_sorted_edge_inner(vertices)
    }

    fn add_sorted_edge_inner(&mut self, vs: &[VertexId]) -> Option<EdgeId> {
        if vs.len() < 2 {
            return None;
        }
        for &v in vs {
            assert!(
                (v as usize) < self.n,
                "vertex {v} out of range (n = {})",
                self.n
            );
        }
        let fp = fingerprint(vs);
        if let Some(&first) = self.seen.get(&fp) {
            if self.edge_slice(first) == vs {
                return None;
            }
            // Genuine 64-bit collision between distinct edges: check (and
            // store into) the exact overflow list.
            if self
                .seen_overflow
                .iter()
                .any(|&(f, e)| f == fp && self.edge_slice(e) == vs)
            {
                return None;
            }
        }
        let id = self.n_edges() as EdgeId;
        match self.seen.entry(fp) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(id);
            }
            std::collections::hash_map::Entry::Occupied(_) => self.seen_overflow.push((fp, id)),
        }
        self.edge_vertices.extend_from_slice(vs);
        self.edge_offsets.push(self.edge_vertices.len() as u32);
        self.co_members.take();
        Some(id)
    }

    /// Adds an edge the **caller guarantees** is sorted ascending, has at
    /// least two distinct vertices, and duplicates no edge in the graph —
    /// skipping the fingerprint/dedup bookkeeping entirely. This is the
    /// bulk-emission path for clique-shaped DCs, whose pair enumeration is
    /// duplicate-free by construction: the cost per edge drops to the two
    /// CSR pushes.
    ///
    /// Because the edge is *not* entered into the dedup table, a later
    /// [`add_edge`](Hypergraph::add_edge)/[`add_sorted_edge`](Hypergraph::add_sorted_edge)
    /// of the same vertex set would store a duplicate — callers mixing
    /// checked and unchecked insertion must dedup against their unchecked
    /// edges themselves (the conflict builder keeps per-vertex clique
    /// registries for exactly this).
    ///
    /// # Panics
    /// Panics in debug builds if `vertices` is not strictly ascending or
    /// has fewer than two vertices, and in all builds if a vertex id is
    /// out of range.
    #[inline]
    pub fn add_sorted_edge_unchecked(&mut self, vertices: &[VertexId]) -> EdgeId {
        debug_assert!(
            vertices.len() >= 2 && vertices.windows(2).all(|w| w[0] < w[1]),
            "add_sorted_edge_unchecked requires ≥2 strictly ascending vertices"
        );
        for &v in vertices {
            assert!(
                (v as usize) < self.n,
                "vertex {v} out of range (n = {})",
                self.n
            );
        }
        let id = self.n_edges() as EdgeId;
        self.edge_vertices.extend_from_slice(vertices);
        self.edge_offsets.push(self.edge_vertices.len() as u32);
        self.co_members.take();
        id
    }

    /// Pre-reserves storage for `edges` additional edges of `arity`
    /// vertices each (bulk clique emission sizes its output exactly).
    pub fn reserve_edges(&mut self, edges: usize, arity: usize) {
        self.edge_offsets.reserve(edges);
        self.edge_vertices.reserve(edges * arity);
    }

    /// The vertices of edge `e`, sorted ascending.
    pub fn edge(&self, e: EdgeId) -> &[VertexId] {
        self.edge_slice(e)
    }

    /// All edges.
    pub fn edges(&self) -> impl Iterator<Item = &[VertexId]> {
        (0..self.n_edges() as EdgeId).map(|e| self.edge_slice(e))
    }

    /// The co-member index, built on first use. When every edge is a pair
    /// (the common Phase II shape) the build walks the vertex buffer in
    /// strides of two instead of through the edge offsets, which cut the
    /// build of a 3.7M-edge partition by about a fifth.
    fn index(&self) -> &CoMemberIndex {
        self.co_members.get_or_init(|| {
            if self.edge_vertices.len() == 2 * self.n_edges() {
                CoMemberIndex::build(self.n, || {
                    let (pairs, _) = self.edge_vertices.as_chunks::<2>();
                    pairs.iter().map(|p| p.as_slice())
                })
            } else {
                CoMemberIndex::build(self.n, || self.edges())
            }
        })
    }

    /// The edges incident to `v`, by co-member: pair partners, the other two
    /// members of each arity-3 edge, and the ids of wider edges. Each list
    /// is in ascending edge id.
    #[inline]
    pub(crate) fn co_members(&self, v: VertexId) -> CoMembers<'_> {
        let idx = self.index();
        let range =
            |offsets: &[u32]| offsets[v as usize] as usize..offsets[v as usize + 1] as usize;
        CoMembers {
            pairs: &idx.pairs[range(&idx.pair_offsets)],
            triples: &idx.triples[range(&idx.triple_offsets)],
            wide: &idx.wide[range(&idx.wide_offsets)],
        }
    }

    /// Degree of `v` = number of incident edges.
    pub fn degree(&self, v: VertexId) -> usize {
        let m = self.co_members(v);
        m.pairs.len() + m.triples.len() + m.wide.len()
    }

    /// Vertices sorted by non-increasing degree (ties by vertex id, for
    /// determinism) — the processing order of Algorithm 3. Degrees are read
    /// once into a flat key vector before the sort, so the comparator does
    /// not chase the index `O(n log n)` times.
    pub fn vertices_by_degree_desc(&self) -> Vec<VertexId> {
        let mut vs: Vec<VertexId> = (0..self.n as VertexId).collect();
        let degrees: Vec<usize> = vs.iter().map(|&v| self.degree(v)).collect();
        vs.sort_by(|&a, &b| {
            degrees[b as usize]
                .cmp(&degrees[a as usize])
                .then(a.cmp(&b))
        });
        vs
    }
}

/// A (partial) assignment of colors to vertices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Coloring {
    colors: Vec<Option<Color>>,
}

impl Coloring {
    /// An empty coloring on `n` vertices.
    pub fn new(n: usize) -> Coloring {
        Coloring {
            colors: vec![None; n],
        }
    }

    /// Number of vertices covered.
    pub fn len(&self) -> usize {
        self.colors.len()
    }

    /// `true` if there are no vertices.
    pub fn is_empty(&self) -> bool {
        self.colors.is_empty()
    }

    /// Color of `v`, if assigned.
    #[inline]
    pub fn get(&self, v: VertexId) -> Option<Color> {
        self.colors[v as usize]
    }

    /// Assigns a color.
    pub fn set(&mut self, v: VertexId, c: Color) {
        self.colors[v as usize] = Some(c);
    }

    /// Removes the color of `v` (used by the exact solver on backtrack).
    pub fn unset(&mut self, v: VertexId) {
        self.colors[v as usize] = None;
    }

    /// `true` if `v` has a color.
    pub fn is_colored(&self, v: VertexId) -> bool {
        self.colors[v as usize].is_some()
    }

    /// Number of colored vertices.
    pub fn n_colored(&self) -> usize {
        self.colors.iter().filter(|c| c.is_some()).count()
    }

    /// `true` if every vertex has a color.
    pub fn is_complete(&self) -> bool {
        self.colors.iter().all(Option::is_some)
    }

    /// Iterates over `(vertex, color)` pairs for colored vertices.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, Color)> + '_ {
        self.colors
            .iter()
            .enumerate()
            .filter_map(|(v, c)| c.map(|c| (v as VertexId, c)))
    }
}

/// `true` if edge `e` is *monochromatic under the partial coloring*: every
/// vertex is colored and they all share one color. Such an edge is a DC
/// violation.
pub fn edge_is_monochromatic(g: &Hypergraph, coloring: &Coloring, e: EdgeId) -> bool {
    let vs = g.edge(e);
    let Some(first) = coloring.get(vs[0]) else {
        return false;
    };
    vs[1..].iter().all(|&v| coloring.get(v) == Some(first))
}

/// `true` if the coloring is complete and no edge is monochromatic — i.e. a
/// proper coloring in the sense of Proposition 5.2.
pub fn is_proper_complete(g: &Hypergraph, coloring: &Coloring) -> bool {
    coloring.is_complete()
        && (0..g.n_edges() as EdgeId).all(|e| !edge_is_monochromatic(g, coloring, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_edge_dedups_and_sorts() {
        let mut g = Hypergraph::new(4);
        assert_eq!(g.add_edge(&[2, 0]), Some(0));
        assert_eq!(g.edge(0), &[0, 2]);
        // Same edge in different order: duplicate.
        assert_eq!(g.add_edge(&[0, 2]), None);
        // Degenerate edges rejected.
        assert_eq!(g.add_edge(&[1]), None);
        assert_eq!(g.add_edge(&[1, 1]), None);
        assert_eq!(g.n_edges(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_vertex_panics() {
        let mut g = Hypergraph::new(2);
        g.add_edge(&[0, 5]);
    }

    #[test]
    fn degrees_and_order() {
        let mut g = Hypergraph::new(4);
        g.add_edge(&[0, 1]);
        g.add_edge(&[0, 2]);
        g.add_edge(&[0, 3]);
        g.add_edge(&[1, 2]);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.vertices_by_degree_desc(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn monochromatic_detection() {
        let mut g = Hypergraph::new(3);
        g.add_edge(&[0, 1, 2]);
        let mut c = Coloring::new(3);
        c.set(0, 5);
        c.set(1, 5);
        // Not monochromatic while a vertex is uncolored.
        assert!(!edge_is_monochromatic(&g, &c, 0));
        c.set(2, 5);
        assert!(edge_is_monochromatic(&g, &c, 0));
        assert!(!is_proper_complete(&g, &c));
        c.set(2, 6);
        assert!(is_proper_complete(&g, &c));
    }

    #[test]
    fn hyperedge_needs_only_two_distinct_colors() {
        // A 3-edge with colors (1, 1, 2) is proper: the DC quantifies over
        // *all* k tuples sharing the FK, so two owners + one with a
        // different household do not violate it.
        let mut g = Hypergraph::new(3);
        g.add_edge(&[0, 1, 2]);
        let mut c = Coloring::new(3);
        c.set(0, 1);
        c.set(1, 1);
        c.set(2, 2);
        assert!(is_proper_complete(&g, &c));
    }

    #[test]
    fn default_is_the_empty_hypergraph() {
        let g = Hypergraph::default();
        assert_eq!(g.n_vertices(), 0);
        assert_eq!(g.n_edges(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn sorted_edge_fast_path_matches_add_edge() {
        let mut g = Hypergraph::new(5);
        assert_eq!(g.add_sorted_edge(&[0, 2, 4]), Some(0));
        assert_eq!(g.add_edge(&[4, 0, 2]), None); // same set, any order
        assert_eq!(g.add_sorted_edge(&[0, 2, 4]), None);
        assert_eq!(g.add_sorted_edge(&[2]), None);
        assert_eq!(g.edge(0), &[0, 2, 4]);
        assert_eq!(g.n_edges(), 1);
        assert_eq!(g.degree(2), 1);
    }

    #[test]
    fn unchecked_edges_interleave_with_checked() {
        let mut g = Hypergraph::new(6);
        g.reserve_edges(3, 2);
        assert_eq!(g.add_sorted_edge_unchecked(&[0, 1]), 0);
        assert_eq!(g.add_sorted_edge(&[1, 2]), Some(1));
        assert_eq!(g.add_sorted_edge_unchecked(&[3, 5]), 2);
        assert_eq!(g.n_edges(), 3);
        assert_eq!(g.edge(0), &[0, 1]);
        assert_eq!(g.edge(2), &[3, 5]);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.co_members(5).pairs, &[3]);
        // Checked insertion still dedups against *checked* edges…
        assert_eq!(g.add_sorted_edge(&[1, 2]), None);
        // …but by contract does not see unchecked ones (the caller dedups).
        assert_eq!(g.add_sorted_edge(&[0, 1]), Some(3));
    }

    #[test]
    fn co_members_split_edges_by_arity() {
        let mut g = Hypergraph::new(7);
        g.add_edge(&[3, 1]);
        g.add_edge(&[1, 4, 2]);
        g.add_sorted_edge_unchecked(&[0, 1, 5, 6]);
        g.add_edge(&[1, 0]);
        g.add_edge(&[2, 3, 4]);
        let m = g.co_members(1);
        assert_eq!(m.pairs, &[3, 0]);
        assert_eq!(m.triples, &[[2, 4]]);
        assert_eq!(m.wide, &[2]);
        assert_eq!(g.degree(1), 4);
        let m = g.co_members(4);
        assert!(m.pairs.is_empty() && m.wide.is_empty());
        assert_eq!(m.triples, &[[1, 2], [2, 3]]);
        assert!(g.co_members(6).pairs.is_empty());
        assert_eq!(g.co_members(6).wide, &[2]);
    }

    #[test]
    fn index_is_rebuilt_after_an_edge_is_added_past_a_query() {
        let mut g = Hypergraph::new(4);
        g.add_edge(&[0, 1]);
        assert_eq!(g.degree(2), 0);
        assert_eq!(g.vertices_by_degree_desc(), vec![0, 1, 2, 3]);
        g.add_edge(&[2, 3]);
        g.add_sorted_edge_unchecked(&[1, 2, 3]);
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.co_members(2).pairs, &[3]);
        assert_eq!(g.co_members(2).triples, &[[1, 3]]);
        assert_eq!(g.vertices_by_degree_desc(), vec![1, 2, 3, 0]);
        g.add_sorted_edge(&[0, 1, 2, 3]);
        assert_eq!(g.co_members(0).wide, &[3]);
        assert_eq!(g.degree(3), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unchecked_edge_still_bounds_checks() {
        let mut g = Hypergraph::new(2);
        g.add_sorted_edge_unchecked(&[0, 7]);
    }

    #[test]
    fn csr_storage_keeps_edges_addressable() {
        let mut g = Hypergraph::new(6);
        let edges: [&[VertexId]; 3] = [&[0, 1], &[1, 2, 3], &[4, 5]];
        for e in edges {
            g.add_edge(e);
        }
        assert_eq!(g.n_edges(), 3);
        for (i, e) in g.edges().enumerate() {
            assert_eq!(e, edges[i]);
            assert_eq!(g.edge(i as EdgeId), edges[i]);
        }
    }

    #[test]
    fn coloring_bookkeeping() {
        let mut c = Coloring::new(3);
        assert!(!c.is_complete());
        assert_eq!(c.n_colored(), 0);
        c.set(1, 9);
        assert!(c.is_colored(1));
        assert_eq!(c.get(1), Some(9));
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![(1, 9)]);
    }
}

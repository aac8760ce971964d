//! # cextend-hypergraph — conflict hypergraphs and list coloring
//!
//! Phase II of the paper (Section 5) models foreign-key assignment as *list
//! coloring* of a *conflict hypergraph*: vertices are `R1` tuples, a
//! hyperedge joins every tuple set that would violate a denial constraint if
//! it shared an FK value, colors are candidate FK values, and a proper
//! coloring (≥ 2 colors inside every edge) is exactly a DC-satisfying
//! assignment (Proposition 5.2).
//!
//! - [`Hypergraph`], [`Coloring`] — the graph model with dedup, degrees and
//!   the co-member incidence index the kernels read.
//! - [`coloring_lf`] — greedy largest-first list coloring (Algorithm 3).
//! - [`color_skipped_with_fresh`] — minting the fewest fresh colors for
//!   skipped vertices (lines 11–14 of Algorithm 4).
//! - [`exact_list_coloring`] — backtracking exact solver for validation,
//!   ablations and the NAE-3SAT completeness tests.
//!
//! ```
//! use cextend_hypergraph::{coloring_lf, CandidateLists, Coloring, Hypergraph};
//!
//! // Two homeowners may not share a household.
//! let mut g = Hypergraph::new(2);
//! g.add_edge(&[0, 1]);
//! let mut coloring = Coloring::new(2);
//! let households = [10, 11];
//! let skipped = coloring_lf(&g, &mut coloring, &CandidateLists::Shared(&households));
//! assert!(skipped.is_empty());
//! assert_ne!(coloring.get(0), coloring.get(1));
//! ```

#![warn(missing_docs)]

mod coloring;
mod exact;
mod graph;
#[cfg(test)]
mod reference;

pub use coloring::{color_skipped_with_fresh, coloring_lf, CandidateLists};
pub use exact::{exact_list_coloring, ExactResult};
pub use graph::{
    edge_is_monochromatic, is_proper_complete, Color, Coloring, EdgeId, Hypergraph, VertexId,
};

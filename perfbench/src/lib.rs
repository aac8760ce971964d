//! The repository benchmark: four workloads driven through the solver's
//! public layers, timed from outside, with a correctness gate on every
//! solve and per-layer walls computed from a traced run. See README.md.

pub mod bench;
pub mod layers;
pub mod pipeline;
pub mod spec;

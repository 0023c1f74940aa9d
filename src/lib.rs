//! # mogul-suite
//!
//! Umbrella crate for the Mogul workspace: it re-exports the public crates so
//! the runnable examples under `examples/` and the cross-crate integration
//! tests under `tests/` have a single, convenient entry point.
//!
//! Library users should normally depend on the individual crates
//! (`mogul-core`, `mogul-graph`, `mogul-data`, `mogul-eval`, `mogul-serve`,
//! `mogul-sparse`) directly.

#![forbid(unsafe_code)]

pub use mogul_core as core;
pub use mogul_data as data;
pub use mogul_eval as eval;
pub use mogul_graph as graph;
pub use mogul_serve as serve;
pub use mogul_sparse as sparse;

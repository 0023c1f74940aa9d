//! # mogul-eval
//!
//! Evaluation harness reproducing the experimental section (Section 5) of
//! *Scaling Manifold Ranking Based Image Retrieval* (VLDB 2014).
//!
//! * [`metrics`] — `P@k` (agreement with the inverse-matrix answer) and
//!   *retrieval precision* (agreement with ground-truth labels), the two
//!   accuracy measures of Section 5.2.1.
//! * [`timer`] — wall-clock measurement helpers.
//! * [`report`] — plain-text tables used by every figure/table runner.
//! * [`scenarios`] — shared setup: synthetic dataset → k-NN graph → solvers.
//! * [`experiments`] — one module per figure/table of the paper; each exposes
//!   a `run` function returning a [`report::Table`] with the same rows or
//!   series the paper plots.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod metrics;
pub mod report;
pub mod scenarios;
pub mod timer;

pub use report::Table;
pub use scenarios::{Scenario, ScenarioConfig};

/// Errors produced by this crate (shared with the substrates).
pub use mogul_sparse::error::{Result, SparseError as EvalError};

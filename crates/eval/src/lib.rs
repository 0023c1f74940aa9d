//! # mogul-eval
//!
//! Evaluation harness reproducing the experimental section (Section 5) of
//! *Scaling Manifold Ranking Based Image Retrieval* (VLDB 2014).
//!
//! * [`metrics`] — `P@k` (agreement with the inverse-matrix answer) and
//!   *retrieval precision* (agreement with ground-truth labels), the two
//!   accuracy measures of Section 5.2.1.
//! * [`timer`] — the one clock: [`timer::time_alternating`] runs
//!   [`timer::REPETITIONS`] rounds of every method a table compares, in
//!   alternating order, and reports each method's median round.
//! * [`report`] — plain-text tables used by every figure/table runner.
//! * [`scenarios`] — shared setup: synthetic dataset → k-NN graph → solvers,
//!   and the paper's fixed settings ([`scenarios::ALPHA`] = 0.99, a
//!   [`scenarios::KNN_K`] = 5 graph, [`scenarios::TOP_K`] = 5 answers,
//!   [`scenarios::NUM_QUERIES`] queries, [`scenarios::EMR_ANCHORS`] EMR
//!   anchors, [`scenarios::SEED`]).
//! * [`experiments`] — one module per figure/table of the paper; each exposes
//!   a `run` function returning a [`report::Table`] with the same rows or
//!   series the paper plots.
//!
//! Nothing here is configurable but the dataset scale
//! ([`mogul_data::suite::SuiteScale`]): the settings are constants, each in
//! the module that uses it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod metrics;
pub mod report;
pub mod scenarios;
pub mod timer;

pub use report::Table;
pub use scenarios::Scenario;

/// Errors produced by this crate (shared with the substrates).
pub use mogul_sparse::error::{Result, SparseError as EvalError};

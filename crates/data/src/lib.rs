//! # mogul-data
//!
//! Synthetic labelled datasets for the Mogul workspace.
//!
//! The paper evaluates on four real image datasets (COIL-100, PubFig,
//! NUS-WIDE, INRIA/BIGANN) that are not available offline. Each generator in
//! this crate produces a synthetic stand-in that preserves the structural
//! property Manifold Ranking exploits — points lying on low-dimensional
//! manifolds whose clusters carry the ground-truth semantics — at a
//! configurable scale:
//!
//! * [`coil`] — objects × poses on closed 1-D manifolds (rings), like the
//!   COIL-100 turntable images.
//! * [`faces`] — many moderately overlapping, unbalanced Gaussian clusters in
//!   a low-dimensional attribute space, like the PubFig attribute vectors.
//! * [`web`] — noisy elongated manifold segments plus background clutter,
//!   like NUS-WIDE colour moments of web images.
//! * [`sift`] — hierarchically generated, quantized descriptor-like vectors,
//!   like the INRIA/BIGANN SIFT features.
//!
//! All generators are deterministic given a seed and return a [`Dataset`]
//! with ground-truth labels used for the retrieval-precision metric.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)]

pub mod coil;
pub mod dataset;
pub mod faces;
pub mod sift;
pub mod suite;
pub mod synth;
pub mod web;

pub use coil::{coil_like, CoilLikeConfig};
pub use dataset::Dataset;
pub use faces::{attribute_like, AttributeLikeConfig};
pub use sift::{sift_like, SiftLikeConfig};
pub use suite::{standard_suite, DatasetSpec, SuiteScale};
pub use web::{web_like, WebLikeConfig};

/// Errors produced by this crate (shared with the sparse substrate).
pub use mogul_sparse::error::{Result, SparseError as DataError};

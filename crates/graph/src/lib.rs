//! # mogul-graph
//!
//! Graph substrate for the Mogul manifold-ranking library: k-NN graph
//! construction, heat-kernel edge weights, graph clustering and the
//! cluster-aware node ordering of Algorithm 1 in the paper.
//!
//! * [`Graph`] — undirected weighted graph in adjacency-list form.
//! * [`knn`] — exact (threaded, pivot-partitioned) and approximate (partition-based)
//!   k-nearest-neighbour graph construction over feature vectors.
//! * [`adjacency`] — adjacency matrix, degree vector, the symmetric
//!   normalization `C^{-1/2} A C^{-1/2}` and the ranking system matrix
//!   `W = I − α S` used throughout the paper.
//! * [`clustering`] — modularity-based clustering (the role played by
//!   Shiokawa et al. \[17\] in the paper), k-means, and spectral clustering
//!   (used by the FMR baseline).
//! * [`ordering`] — Algorithm 1: the node permutation that makes the
//!   Incomplete Cholesky factor singly bordered block diagonal (Lemma 3).
//! * [`persist`] — bit-exact (de)serialization of graphs and orderings for
//!   the on-disk index format (`mogul-core::persist`).

#![deny(missing_docs)]
#![forbid(unsafe_code)]
// Index-based loops mirror the adjacency/permutation arithmetic of the paper.
#![allow(clippy::needless_range_loop)]

pub mod adjacency;
pub mod clustering;
pub mod graph;
pub mod knn;
pub mod ordering;
pub mod persist;
#[cfg(test)]
mod reference;

pub use clustering::labels::Clustering;
pub use graph::Graph;
pub use knn::{knn_graph, KnnConfig};
pub use ordering::{ClusterRange, NodeOrdering};

/// Errors produced by this crate (re-export of the sparse-crate error type —
/// graph construction failures are all dimension/precondition violations of
/// the same kind).
pub use mogul_sparse::error::{Result, SparseError as GraphError};

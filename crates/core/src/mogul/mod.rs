//! **Mogul**: O(n) top-k Manifold Ranking (Section 4 of the paper).
//!
//! Mogul combines two ideas:
//!
//! 1. **Approximate score computation** (Section 4.2): the system matrix
//!    `W = I − α C'^{-1/2} A' C'^{-1/2}` is factorized with Incomplete
//!    Cholesky (`L D Lᵀ`, pattern fixed to `W`) after the cluster-aware node
//!    permutation of Algorithm 1, so scores follow from forward and back
//!    substitution over `O(n)` non-zeros (Equations (4)–(7), Lemmas 1–2).
//! 2. **Pruning by upper-bounding estimation** (Section 4.3): thanks to the
//!    singly-bordered block-diagonal structure of `L` (Lemma 3), scores of a
//!    whole cluster can be upper-bounded from the border scores alone
//!    (Definitions 1–2, Lemmas 6–7); clusters whose bound falls below the
//!    current top-k threshold are skipped entirely (Algorithm 2).
//!
//! The same machinery with the *complete* factorization (no dropped fill-in)
//! is **MogulE** (Section 4.6.1), which returns exactly the inverse-matrix
//! answer. Out-of-sample queries are handled by
//! [`crate::out_of_sample::OutOfSampleIndex`].

mod batch;
mod bounds;
mod index;
mod layout;
#[cfg(test)]
mod reference;
mod search;

pub use batch::{BatchWorkspace, SearchWorkspace, PANEL_WIDTH};
pub use bounds::ClusterBounds;
pub use index::{Factorization, MogulConfig, MogulIndex, PrecomputeStats};
pub(crate) use layout::{SearchLayout, StrictRows};
pub use search::{SearchMode, SearchStats};

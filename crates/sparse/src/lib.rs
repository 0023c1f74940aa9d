//! # mogul-sparse
//!
//! Sparse and dense linear-algebra substrate for the Mogul manifold-ranking
//! library (Fujiwara et al., *Scaling Manifold Ranking Based Image Retrieval*,
//! VLDB 2014).
//!
//! The paper's machinery is built almost entirely out of a handful of
//! numerical kernels that this crate provides from scratch:
//!
//! * [`CsrMatrix`] / [`CooMatrix`] — compressed sparse row storage for the
//!   k-NN adjacency matrix and everything derived from it.
//! * [`Permutation`] — the node permutation matrix `P` of Section 4.2.2
//!   (`A' = P A Pᵀ`).
//! * [`triangular`] — the three panel sweeps of Equations (4) and (5) over
//!   CSR unit-triangular factors (forward substitution, diagonal scaling,
//!   back substitution), each taking a whole panel of right-hand sides per
//!   traversal and writing into a caller-owned buffer. `mogul-core`'s engine
//!   runs its own sweeps over its search layout; these remain for the
//!   benchmark ladder's width-8 rungs.
//! * [`kernel`] — the lane-kernel trait under every panel sweep and under the
//!   tile distance kernel of k-NN graph construction: a scalar reference
//!   implementation and an AVX2 implementation picked by CPUID in one
//!   dispatcher, bit-identical by construction.
//! * [`FeatureMatrix`] — the one contiguous, validated store of item feature
//!   vectors every layer above reads from.
//! * [`parallel`] — the audited `available_parallelism` policy
//!   ([`effective_threads`]) every thread-count knob resolves through.
//! * [`ldl`] — the `L D Lᵀ` factorization: one serial row recurrence
//!   (Equations (6) and (7)) over the pattern a [`Factorization`] rule picks —
//!   the lower triangle of `W` for Mogul's incomplete Cholesky, the full fill
//!   for MogulE's complete ("Modified Cholesky", Section 4.6.1) one.
//! * [`eigen`] / [`lowrank`] — Lanczos and Jacobi eigensolvers plus truncated
//!   low-rank approximation, used by the FMR baseline and spectral clustering.
//! * [`woodbury`] — Woodbury-identity solves: the anchor-graph form used by
//!   the EMR baseline, and the general [`WoodburyCorrection`] low-rank update
//!   kernel used by incremental index updates (`mogul-core::update`).
//! * [`dense`] — dense matrices with LU decomposition and inversion, used by
//!   the `O(n³)` Inverse baseline and for verification in tests.
//! * [`persist`] — the byte-level codec of the on-disk index format: bit-exact
//!   `f64`/CSR/feature/permutation (de)serialization, the decoder of format
//!   v1's CSR `L D Lᵀ` factors (v1 files still load; nothing writes them),
//!   plus the FNV-1a section checksum (the container lives in
//!   `mogul-core::persist`).
//!
//! All numerics use `f64`. The crate has no third-party dependencies.
//! The `unsafe_code` lint is denied crate-wide and allowed on [`kernel`] alone
//! (the AVX2 intrinsics and their `target_feature` shell).

#![deny(missing_docs)]
#![deny(unsafe_code)]
// Index-based loops are used deliberately throughout the numerical kernels:
// they mirror the paper's equations and index several arrays in lockstep.
#![allow(clippy::needless_range_loop)]

pub mod coo;
pub mod csr;
pub mod dense;
pub mod eigen;
pub mod error;
pub mod features;
#[allow(unsafe_code)]
pub mod kernel;
pub mod ldl;
pub mod lowrank;
pub mod parallel;
pub mod permutation;
pub mod persist;
pub mod stats;
pub mod triangular;
pub mod vector;
pub mod woodbury;

pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use error::{Result, SparseError};
pub use features::FeatureMatrix;
pub use kernel::{active_kernel, set_kernel_override, KernelKind};
pub use ldl::{factorize, Factorization, LdlFactors};
pub use parallel::effective_threads;
pub use permutation::Permutation;
pub use woodbury::{CorrectionWorkspace, WoodburyCorrection};

//! # mogul-core
//!
//! Top-k Manifold Ranking: the **Mogul** algorithm of Fujiwara et al.
//! (*Scaling Manifold Ranking Based Image Retrieval*, VLDB 2014) together
//! with every baseline the paper compares against.
//!
//! Manifold Ranking scores the nodes of a k-NN graph with respect to a query
//! node as `x* = (1 − α)(I − α C^{-1/2} A C^{-1/2})^{-1} q` (Equation (2)).
//! The solvers in this crate compute (exactly or approximately) the top-k
//! nodes under that score:
//!
//! | Solver | Paper section | Complexity | Notes |
//! |---|---|---|---|
//! | [`exact::InverseSolver`] | §3 | `O(n³)` time, `O(n²)` space | dense inverse; the reference answer |
//! | [`iterative::IterativeSolver`] | §2 (Zhou et al.) | `O(n t)` | power iteration until convergence |
//! | [`fmr::FmrSolver`] | §2 (He et al.) | block-wise low rank | spectral partition + truncated eigendecomposition |
//! | [`emr::EmrSolver`] | §2 (Xu et al.) | `O(n d + d³)` | anchor graph + Woodbury identity |
//! | [`mogul::MogulIndex`] | §4 | `O(n)` | incomplete `LDLᵀ` + cluster pruning (the paper's contribution) |
//! | [`mogul::MogulIndex`] (exact mode) | §4.6.1 | `O(m)` | complete `LDLᵀ` (MogulE) |
//! | [`out_of_sample::OutOfSampleIndex`] | §4.6.2 | `O(n)` | queries outside the database |
//!
//! [`update::IndexBuilder`] is the one precomputation pipeline (k-NN graph —
//! exact, or approximate for larger collections — → clustering → ordering →
//! factorization → out-of-sample layer): its index answers in-database and
//! out-of-sample queries through [`update::IndexSnapshot`], and the same
//! builder feeds the shards of a [`shard::ShardedIndex`].
//!
//! Beyond the paper, [`update`] makes the index **mutable after precompute**:
//! inserts and removals are applied as Woodbury low-rank corrections against
//! the existing factorization and published as immutable, epoch-versioned
//! [`update::IndexSnapshot`]s (the unit the `mogul-serve` crate swaps
//! atomically for zero-downtime updates). [`persist`] makes it **durable**:
//! a versioned, checksummed on-disk format (`MOG1`) that saves a complete
//! serving-ready index — factors, ordering, bounds, features, graph and the
//! clean-epoch updatable state — and loads it back with zero precompute and
//! bit-identical query answers. [`shard`] makes it **partitionable**: a
//! [`shard::ShardedIndex`] splits the corpus into `S` cluster-aligned
//! independent shards (parallel precompute, scatter-gather top-k with
//! lossless in-database shard skipping, per-shard rebuild debt, and a
//! checksummed multi-file manifest).
//!
//! All solvers implement the [`Ranker`] trait so the evaluation harness can
//! treat them uniformly.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
// Index-based loops mirror the forward/back-substitution recurrences of the paper.
#![allow(clippy::needless_range_loop)]

pub mod emr;
pub mod exact;
pub mod fmr;
pub mod iterative;
pub mod mogul;
pub mod out_of_sample;
pub mod params;
pub mod persist;
pub mod ranking;
pub mod shard;
pub mod topk;
pub mod update;
pub mod wal;

pub use emr::{EmrConfig, EmrSolver};
pub use exact::InverseSolver;
pub use fmr::{FmrConfig, FmrSolver};
pub use iterative::{IterativeConfig, IterativeSolver};
pub use mogul::{
    BatchWorkspace, Factorization, MogulConfig, MogulIndex, PrecomputeStats, SearchMode,
    SearchStats, SearchWorkspace, PANEL_WIDTH,
};
pub use out_of_sample::{
    OosWorkspace, OutOfSampleConfig, OutOfSampleIndex, OutOfSampleResult, Query,
};
pub use params::MrParams;
pub use persist::{IndexFileInfo, PersistError};
pub use ranking::{RankedNode, Ranker, TopKResult};
pub use shard::{
    inspect_manifest, load_sharded, save_sharded, HealthyLegs, LegPolicy, ShardManifestInfo,
    ShardRouter, ShardScatterStats, ShardedConfig, ShardedIndex, ShardedSnapshot, ShardedWorkspace,
};
pub use topk::{f64_sort_key, BoundedTopK};
pub use update::{
    IndexBuilder, IndexDelta, IndexSnapshot, RebuildDebt, RebuildPolicy, SnapshotWorkspace,
    UpdatableIndex, UpdateOp, UpdateReport,
};
pub use wal::{RecoveryOutcome, RecoveryReport, ReplayReport, Wal, WalError, WalOp, WalSync};

/// Errors produced by this crate (shared with the substrates).
pub use mogul_sparse::error::{Result, SparseError as CoreError};

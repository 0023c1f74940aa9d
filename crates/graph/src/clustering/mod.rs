//! Graph and vector clustering algorithms.
//!
//! * [`labels`] — the [`Clustering`] assignment type shared by every
//!   algorithm.
//! * [`modularity`] — incremental-aggregation modularity clustering
//!   (Louvain-style). This plays the role of the Shiokawa et al. \[17\]
//!   clustering the paper uses inside Algorithm 1: linear-time, maximizes
//!   within-cluster edges, and chooses the number of clusters automatically.
//! * [`mod@kmeans`] — Lloyd's k-means over feature vectors; used for EMR's
//!   anchor points and by spectral clustering.
//! * [`spectral`] — normalized spectral clustering; used by the FMR baseline
//!   to partition the adjacency matrix into blocks.
//! * [`partition`] — cluster-aligned corpus partitioning for the sharded
//!   multi-index (`mogul-core::shard`).

pub mod kmeans;
pub mod labels;
pub mod modularity;
pub mod partition;
pub mod spectral;

pub use kmeans::{kmeans, KmeansConfig, KmeansResult};
pub use labels::Clustering;
pub use modularity::{modularity_clustering, modularity_score, ModularityConfig};
pub use partition::{partition_points, PartitionConfig};
pub use spectral::{spectral_clustering, SpectralConfig};

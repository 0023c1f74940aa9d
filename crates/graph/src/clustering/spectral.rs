//! Normalized spectral clustering.
//!
//! The FMR baseline (He et al. \[8\] in the paper) partitions the k-NN graph
//! with spectral clustering before applying a per-block low-rank
//! approximation. The classic normalized-cut pipeline is implemented here:
//! embed the nodes with the leading eigenvectors of the symmetrically
//! normalized adjacency `D^{-1/2} A D^{-1/2}` (computed with the Lanczos
//! solver from `mogul-sparse`), row-normalize the embedding, then run
//! k-means on the embedded points.

use crate::adjacency::symmetric_normalization;
use crate::clustering::kmeans::{kmeans, KmeansConfig};
use crate::clustering::labels::Clustering;
use crate::graph::Graph;
use crate::{GraphError, Result};
use mogul_sparse::eigen::lanczos_largest;
use mogul_sparse::FeatureMatrix;

/// Configuration for [`spectral_clustering`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectralConfig {
    /// Number of clusters (and of embedding dimensions).
    pub num_clusters: usize,
    /// Seed for the Lanczos start vector and the k-means initialization.
    pub seed: u64,
    /// Maximum Lloyd iterations of the embedded k-means.
    pub kmeans_max_iter: usize,
}

impl SpectralConfig {
    /// Convenience constructor fixing only the number of clusters.
    pub fn with_clusters(num_clusters: usize) -> Self {
        SpectralConfig {
            num_clusters,
            seed: 42,
            kmeans_max_iter: 50,
        }
    }
}

/// Spectral clustering of a weighted undirected graph into
/// `config.num_clusters` groups.
pub fn spectral_clustering(graph: &Graph, config: &SpectralConfig) -> Result<Clustering> {
    let n = graph.num_nodes();
    if config.num_clusters == 0 {
        return Err(GraphError::InvalidInput(
            "spectral clustering requires at least one cluster".into(),
        ));
    }
    if n == 0 {
        return Ok(Clustering::from_labels(&[]));
    }
    let k = config.num_clusters.min(n);
    if k == 1 {
        return Ok(Clustering::single_cluster(n));
    }
    if graph.num_edges() == 0 {
        // No structure to exploit: fall back to singletons capped at k via
        // round-robin so the requested cluster count is respected.
        let labels: Vec<usize> = (0..n).map(|i| i % k).collect();
        return Ok(Clustering::from_labels(&labels));
    }

    let adjacency = graph.adjacency_matrix();
    let s = symmetric_normalization(&adjacency)?;
    let subspace = (2 * k + 20).min(n);
    let pairs = lanczos_largest(&s, k, subspace, config.seed)?;
    let found = pairs.len().max(1);

    // Connected components: each component contributes a degenerate unit
    // eigenvalue that a single-start Lanczos iteration cannot separate, so
    // the component id is appended to the embedding explicitly. This keeps
    // disconnected graphs cleanly partitioned along component boundaries.
    let components = graph.connected_components();
    let num_components = components.iter().copied().max().map_or(0, |m| m + 1);

    // Row-normalized spectral embedding (+ component indicator).
    let indicators = if num_components > 1 {
        num_components
    } else {
        0
    };
    let width = found + indicators;
    let mut embedding = vec![0.0; n * width];
    for (i, row) in embedding.chunks_exact_mut(width).enumerate() {
        let (spectral, indicator) = row.split_at_mut(found);
        for (j, v) in spectral.iter_mut().enumerate() {
            *v = pairs.vectors.get(i, j);
        }
        mogul_sparse::vector::normalize(spectral);
        if indicators > 0 {
            // Weight the indicator strongly so k-means never merges across
            // components while components outnumber the requested clusters.
            indicator[components[i]] = 2.0;
        }
    }

    let km = kmeans(
        &FeatureMatrix::from_vec(width, embedding)?,
        &KmeansConfig {
            k,
            max_iter: config.kmeans_max_iter,
            tol: 1e-7,
            seed: config.seed,
        },
    )?;
    Ok(km.clustering)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_cliques_graph() -> Graph {
        let size = 6;
        let mut g = Graph::empty(2 * size);
        for base in [0, size] {
            for i in 0..size {
                for j in (i + 1)..size {
                    g.add_edge(base + i, base + j, 1.0).unwrap();
                }
            }
        }
        g.add_edge(0, size, 0.01).unwrap();
        g
    }

    #[test]
    fn separates_two_cliques() {
        let g = two_cliques_graph();
        let clustering = spectral_clustering(&g, &SpectralConfig::with_clusters(2)).unwrap();
        assert_eq!(clustering.num_clusters(), 2);
        for i in 1..6 {
            assert!(clustering.same_cluster(0, i));
            assert!(clustering.same_cluster(6, 6 + i));
        }
        assert!(!clustering.same_cluster(0, 6));
    }

    #[test]
    fn single_cluster_and_empty_graph() {
        let g = two_cliques_graph();
        let one = spectral_clustering(&g, &SpectralConfig::with_clusters(1)).unwrap();
        assert_eq!(one.num_clusters(), 1);
        let empty = Graph::empty(0);
        let c = spectral_clustering(&empty, &SpectralConfig::with_clusters(3)).unwrap();
        assert!(c.is_empty());
    }

    #[test]
    fn edgeless_graph_still_returns_k_clusters() {
        let g = Graph::empty(7);
        let c = spectral_clustering(&g, &SpectralConfig::with_clusters(3)).unwrap();
        assert_eq!(c.len(), 7);
        assert_eq!(c.num_clusters(), 3);
    }

    #[test]
    fn rejects_zero_clusters() {
        let g = two_cliques_graph();
        assert!(spectral_clustering(&g, &SpectralConfig::with_clusters(0)).is_err());
    }

    #[test]
    fn cluster_count_clamped_to_nodes() {
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let c = spectral_clustering(&g, &SpectralConfig::with_clusters(10)).unwrap();
        assert!(c.num_clusters() <= 3);
        assert_eq!(c.len(), 3);
    }
}

//! Algorithm 1: the cluster-aware node ordering.
//!
//! The permutation produced here is what turns the Incomplete Cholesky factor
//! `L` into a *singly bordered block diagonal* matrix (Lemma 3): nodes that
//! only have within-cluster edges are laid out cluster by cluster, nodes that
//! have cross-cluster edges are moved to the final "border" cluster `C_N`,
//! and within each cluster nodes are arranged in ascending order of their
//! within-cluster edge count so that the left side of `W` stays sparse.

use crate::clustering::labels::Clustering;
use crate::graph::Graph;
use crate::Result;
use mogul_sparse::Permutation;

/// A contiguous range of permuted node indices belonging to one cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterRange {
    /// First permuted index of the cluster.
    pub start: usize,
    /// Number of nodes in the cluster.
    pub len: usize,
}

impl ClusterRange {
    /// One-past-the-end permuted index.
    #[inline]
    pub fn end(&self) -> usize {
        self.start + self.len
    }

    /// `true` if the permuted index `idx` lies inside this cluster.
    #[inline]
    pub fn contains(&self, idx: usize) -> bool {
        idx >= self.start && idx < self.end()
    }

    /// Iterate over the permuted indices of the cluster.
    pub fn indices(&self) -> std::ops::Range<usize> {
        self.start..self.end()
    }

    /// `true` when the cluster holds no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The output of Algorithm 1: a node permutation plus the cluster layout in
/// the permuted index space. The final cluster is always the border cluster
/// `C_N` (nodes with cross-cluster edges); it may be empty.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeOrdering {
    /// Node permutation `P` (`new = permuted`, `old = original node id`).
    pub permutation: Permutation,
    /// Contiguous clusters in permuted space; the last entry is `C_N`.
    pub clusters: Vec<ClusterRange>,
}

impl NodeOrdering {
    /// Number of nodes covered by the ordering.
    pub fn len(&self) -> usize {
        self.permutation.len()
    }

    /// `true` when the ordering covers zero nodes.
    pub fn is_empty(&self) -> bool {
        self.permutation.is_empty()
    }

    /// Number of clusters (including the border cluster).
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Index of the border cluster `C_N` (always the last one).
    pub fn border_cluster(&self) -> usize {
        self.clusters.len() - 1
    }

    /// The border cluster range.
    pub fn border_range(&self) -> ClusterRange {
        self.clusters[self.border_cluster()]
    }

    /// Cluster index of a *permuted* node index.
    pub fn cluster_of_permuted(&self, permuted: usize) -> usize {
        // Clusters are contiguous and ordered; binary search on start offsets.
        match self.clusters.binary_search_by_key(&permuted, |c| c.start) {
            Ok(pos) => {
                // `permuted` is the start of cluster `pos`, but empty clusters
                // share start offsets; advance to the cluster that contains it.
                let mut p = pos;
                while p < self.clusters.len() && !self.clusters[p].contains(permuted) {
                    p += 1;
                }
                p.min(self.clusters.len() - 1)
            }
            Err(pos) => {
                let mut p = pos.saturating_sub(1);
                while p + 1 < self.clusters.len() && !self.clusters[p].contains(permuted) {
                    p += 1;
                }
                p
            }
        }
    }

    /// Cluster index of an *original* node id.
    pub fn cluster_of_node(&self, node: usize) -> usize {
        self.cluster_of_permuted(self.permutation.new_index(node))
    }

    /// Consistency check used by tests, debug assertions and the MOG1
    /// loader: clusters tile `0..n` contiguously and the permutation is a
    /// bijection. A cluster whose end overflows fails it (a decoded length
    /// may be any `u64`; a wrapped end could tile `0..n` with overlapping
    /// clusters).
    pub fn validate(&self) -> bool {
        let mut cursor = 0usize;
        for c in &self.clusters {
            match c.start.checked_add(c.len) {
                Some(end) if c.start == cursor => cursor = end,
                _ => return false,
            }
        }
        cursor == self.len()
    }
}

/// Run Algorithm 1: derive the Mogul node ordering from a graph and a
/// clustering of its nodes.
pub fn mogul_ordering(graph: &Graph, clustering: &Clustering) -> Result<NodeOrdering> {
    clustering.check_len(graph.num_nodes())?;
    let n = graph.num_nodes();
    let num_input_clusters = clustering.num_clusters();

    // Lines 3-7: nodes with cross-cluster edges move to the border cluster.
    let mut in_border = vec![false; n];
    for u in 0..n {
        for &(v, _) in graph.neighbors(u) {
            if clustering.label(u) != clustering.label(v) {
                in_border[u] = true;
                break;
            }
        }
    }

    // Final cluster id per node: original cluster for interior nodes, a fresh
    // id for border nodes.
    let border_id = num_input_clusters;
    let final_label: Vec<usize> = (0..n)
        .map(|u| {
            if in_border[u] {
                border_id
            } else {
                clustering.label(u)
            }
        })
        .collect();

    // Within-cluster edge count e(u) with respect to the *final* assignment.
    let within_edges: Vec<usize> = (0..n)
        .map(|u| graph.count_neighbors_where(u, |v| final_label[v] == final_label[u]))
        .collect();

    // Collect members per final cluster.
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); num_input_clusters + 1];
    for u in 0..n {
        members[final_label[u]].push(u);
    }

    // Lines 8-17: lay clusters out one by one, nodes in ascending order of
    // within-cluster edges (ties broken by node id for determinism).
    let mut new_to_old = Vec::with_capacity(n);
    let mut clusters = Vec::new();
    for (cluster_id, mut nodes) in members.into_iter().enumerate() {
        let is_border = cluster_id == border_id;
        if nodes.is_empty() && !is_border {
            continue; // interior clusters emptied by the border extraction
        }
        nodes.sort_by_key(|&u| (within_edges[u], u));
        let start = new_to_old.len();
        let len = nodes.len();
        new_to_old.extend(nodes);
        clusters.push(ClusterRange { start, len });
        if is_border {
            // Border cluster is always last; nothing follows.
            break;
        }
    }
    // Ensure the border cluster exists even when no interior cluster had
    // cross-cluster edges (e.g. a fully disconnected clustering).
    if clusters.is_empty() || new_to_old.len() != n {
        // This can only happen if the border id was skipped above because
        // the loop broke early; rebuild defensively.
        return Err(crate::GraphError::InvalidInput(
            "internal error: ordering did not cover all nodes".into(),
        ));
    }

    let permutation = Permutation::from_new_to_old(new_to_old)?;
    let ordering = NodeOrdering {
        permutation,
        clusters,
    };
    debug_assert!(ordering.validate());
    Ok(ordering)
}

/// A uniformly random ordering with a single (border) cluster. This is the
/// "Random" configuration of Figures 6 and 8 in the paper.
pub fn random_ordering(n: usize, seed: u64) -> NodeOrdering {
    let mut ids: Vec<usize> = (0..n).collect();
    // Fisher-Yates with a small xorshift generator.
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        ids.swap(i, j);
    }
    NodeOrdering {
        permutation: Permutation::from_new_to_old(ids).expect("shuffle produces a bijection"),
        clusters: vec![ClusterRange { start: 0, len: n }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::modularity::{modularity_clustering, ModularityConfig};

    /// Two triangles joined by one bridge edge: nodes 2 and 3 become border nodes.
    fn bridged_triangles() -> (Graph, Clustering) {
        let g = Graph::from_edges(
            6,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (0, 2, 1.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (3, 5, 1.0),
                (2, 3, 1.0),
            ],
        )
        .unwrap();
        let clustering = Clustering::from_labels(&[0, 0, 0, 1, 1, 1]);
        (g, clustering)
    }

    #[test]
    fn a_tiling_that_wraps_past_usize_max_fails_validation() {
        let (g, c) = bridged_triangles();
        let mut ordering = mogul_ordering(&g, &c).unwrap();
        assert!(ordering.validate());
        // Cluster 0 runs to the end of the address space and wraps to 0,
        // so a third cluster from 0 to n would close the tiling in
        // wrapping arithmetic while overlapping the first.
        let first = ordering.clusters[0];
        ordering.clusters = vec![
            first,
            ClusterRange {
                start: first.end(),
                len: usize::MAX - first.end() + 1,
            },
            ClusterRange { start: 0, len: 6 },
        ];
        assert!(!ordering.validate());
    }

    #[test]
    fn border_nodes_move_to_last_cluster() {
        let (g, c) = bridged_triangles();
        let ordering = mogul_ordering(&g, &c).unwrap();
        assert!(ordering.validate());
        assert_eq!(ordering.len(), 6);
        assert_eq!(ordering.num_clusters(), 3);
        let border = ordering.border_range();
        assert_eq!(border.len, 2);
        // Nodes 2 and 3 (the bridge endpoints) are the border nodes.
        let border_nodes: Vec<usize> = border
            .indices()
            .map(|p| ordering.permutation.old_index(p))
            .collect();
        let mut sorted = border_nodes.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![2, 3]);
        // Interior clusters contain only nodes from one original cluster.
        for cluster_idx in 0..ordering.border_cluster() {
            let range = ordering.clusters[cluster_idx];
            let labels: std::collections::HashSet<usize> = range
                .indices()
                .map(|p| c.label(ordering.permutation.old_index(p)))
                .collect();
            assert_eq!(labels.len(), 1);
        }
    }

    #[test]
    fn interior_nodes_have_no_cross_cluster_edges() {
        let (g, c) = bridged_triangles();
        let ordering = mogul_ordering(&g, &c).unwrap();
        let border_idx = ordering.border_cluster();
        for u in 0..g.num_nodes() {
            if ordering.cluster_of_node(u) == border_idx {
                continue;
            }
            for &(v, _) in g.neighbors(u) {
                let cv = ordering.cluster_of_node(v);
                assert!(
                    cv == ordering.cluster_of_node(u) || cv == border_idx,
                    "interior node {u} has an edge into another interior cluster"
                );
            }
        }
    }

    #[test]
    fn nodes_sorted_by_within_cluster_degree() {
        // A star inside one cluster: the hub has the most within-cluster
        // edges and must come last within its cluster.
        let g = Graph::from_edges(
            5,
            &[
                (0, 1, 1.0),
                (0, 2, 1.0),
                (0, 3, 1.0),
                (0, 4, 1.0),
                (1, 2, 1.0),
            ],
        )
        .unwrap();
        let c = Clustering::single_cluster(5);
        let ordering = mogul_ordering(&g, &c).unwrap();
        // Single input cluster with no cross-cluster edges → one interior
        // cluster plus an empty border cluster.
        assert_eq!(ordering.num_clusters(), 2);
        assert!(ordering.border_range().is_empty());
        let interior = ordering.clusters[0];
        let last_node = ordering.permutation.old_index(interior.end() - 1);
        assert_eq!(last_node, 0, "hub must be ordered last");
        let first_node = ordering.permutation.old_index(0);
        assert!(first_node == 3 || first_node == 4, "leaves come first");
    }

    #[test]
    fn cluster_lookup_is_consistent() {
        let (g, c) = bridged_triangles();
        let ordering = mogul_ordering(&g, &c).unwrap();
        for p in 0..ordering.len() {
            let cluster = ordering.cluster_of_permuted(p);
            assert!(ordering.clusters[cluster].contains(p));
            let node = ordering.permutation.old_index(p);
            assert_eq!(ordering.cluster_of_node(node), cluster);
        }
    }

    #[test]
    fn end_to_end_with_modularity_clustering() {
        // Two cliques bridged by one edge; the pipeline should produce at
        // least two interior clusters plus a small border.
        let mut g = Graph::empty(12);
        for base in [0, 6] {
            for i in 0..6 {
                for j in (i + 1)..6 {
                    g.add_edge(base + i, base + j, 1.0).unwrap();
                }
            }
        }
        g.add_edge(0, 6, 0.01).unwrap();
        let clustering = modularity_clustering(&g, &ModularityConfig::default());
        let ordering = mogul_ordering(&g, &clustering).unwrap();
        assert!(ordering.validate());
        assert!(ordering.num_clusters() >= 3);
        assert_eq!(ordering.border_range().len, 2);
    }

    #[test]
    fn random_orderings() {
        let rnd = random_ordering(50, 7);
        assert!(rnd.validate());
        assert_eq!(rnd.len(), 50);
        assert!(
            !rnd.permutation.is_identity(),
            "50-element shuffle should move something"
        );
        // Same seed → same permutation; different seed → (almost surely) different.
        assert_eq!(random_ordering(50, 7), random_ordering(50, 7));
        assert_ne!(random_ordering(50, 7), random_ordering(50, 8));
    }

    #[test]
    fn empty_graph_ordering() {
        let g = Graph::empty(0);
        let c = Clustering::from_labels(&[]);
        let ordering = mogul_ordering(&g, &c).unwrap();
        assert!(ordering.is_empty());
        assert_eq!(ordering.num_clusters(), 1);
        assert!(ordering.border_range().is_empty());
    }

    #[test]
    fn mismatched_clustering_is_rejected() {
        let g = Graph::empty(3);
        let c = Clustering::from_labels(&[0, 0]);
        assert!(mogul_ordering(&g, &c).is_err());
    }
}

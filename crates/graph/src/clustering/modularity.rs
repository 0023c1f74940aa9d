//! Modularity-based graph clustering (incremental aggregation).
//!
//! Algorithm 1 of the paper divides the k-NN graph "by the state-of-the-art
//! clustering approach by Shiokawa et al. \[17\]", whose defining properties —
//! the only ones the paper relies on — are: (1) it maximizes modularity by
//! incrementally aggregating nodes, so within-cluster edges dominate, (2) it
//! runs in time linear in the number of edges, and (3) the number of clusters
//! is chosen automatically. The classic Louvain procedure implemented here
//! (greedy local moving + graph aggregation) has exactly those properties; the
//! substitution is documented in `DESIGN.md`.

use crate::clustering::labels::Clustering;
use crate::graph::Graph;

/// Configuration of the modularity clustering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModularityConfig {
    /// Maximum number of aggregation levels (each level is one local-moving
    /// pass followed by a graph contraction).
    pub max_levels: usize,
    /// Maximum number of sweeps over all nodes within one local-moving pass.
    pub max_sweeps: usize,
    /// Minimum total modularity gain per level required to continue.
    pub min_gain: f64,
}

impl Default for ModularityConfig {
    fn default() -> Self {
        ModularityConfig {
            max_levels: 12,
            max_sweeps: 16,
            min_gain: 1e-7,
        }
    }
}

/// Modularity `Q` of a clustering of a weighted graph.
///
/// `Q = Σ_c [ Σ_in(c) / 2m − (Σ_tot(c) / 2m)² ]` where `Σ_in(c)` is twice the
/// weight of intra-cluster edges, `Σ_tot(c)` the summed weighted degree of
/// the cluster and `m` the total edge weight.
pub fn modularity_score(graph: &Graph, clustering: &Clustering) -> f64 {
    let m = graph.total_weight();
    if m <= 0.0 {
        return 0.0;
    }
    let two_m = 2.0 * m;
    let k = clustering.num_clusters();
    let mut sigma_in = vec![0.0; k];
    let mut sigma_tot = vec![0.0; k];
    for u in 0..graph.num_nodes() {
        let cu = clustering.label(u);
        sigma_tot[cu] += graph.weighted_degree(u);
        for &(v, w) in graph.neighbors(u) {
            if clustering.label(v) == cu {
                sigma_in[cu] += w; // each intra edge counted twice overall
            }
        }
    }
    (0..k)
        .map(|c| sigma_in[c] / two_m - (sigma_tot[c] / two_m).powi(2))
        .sum()
}

/// Weighted graph in contracted (community) space used between levels.
struct LevelGraph {
    /// Adjacency lists including self-loops (`(neighbor, weight)`).
    adj: Vec<Vec<(usize, f64)>>,
    /// Self-loop weight per node (intra-community weight folded during
    /// contraction).
    self_loops: Vec<f64>,
    total_weight: f64,
}

impl LevelGraph {
    fn from_graph(graph: &Graph) -> Self {
        let n = graph.num_nodes();
        let mut adj = Vec::with_capacity(n);
        for u in 0..n {
            adj.push(graph.neighbors(u).to_vec());
        }
        LevelGraph {
            adj,
            self_loops: vec![0.0; n],
            total_weight: graph.total_weight(),
        }
    }

    fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    fn weighted_degree(&self, u: usize) -> f64 {
        self.adj[u].iter().map(|&(_, w)| w).sum::<f64>() + self.self_loops[u]
    }

    /// One full Louvain local-moving pass. The moving is inherently
    /// sequential — each move reads the community state left by every
    /// earlier move, which is what makes Louvain converge.
    fn local_moving(&self, config: &ModularityConfig) -> (Vec<usize>, f64) {
        let n = self.num_nodes();
        let two_m = 2.0 * self.total_weight;
        let mut community: Vec<usize> = (0..n).collect();
        let degrees: Vec<f64> = (0..n).map(|u| self.weighted_degree(u)).collect();
        let mut sigma_tot: Vec<f64> = degrees.clone();
        let mut total_gain = 0.0;
        if two_m <= 0.0 {
            return (community, 0.0);
        }

        let mut neighbor_weights: std::collections::HashMap<usize, f64> =
            std::collections::HashMap::new();
        let mut candidates: Vec<(usize, f64)> = Vec::new();
        for _ in 0..config.max_sweeps {
            let mut moved = false;
            for u in 0..n {
                let cu = community[u];
                // Weights from u to each neighbouring community.
                neighbor_weights.clear();
                for &(v, w) in &self.adj[u] {
                    if v == u {
                        continue;
                    }
                    *neighbor_weights.entry(community[v]).or_insert(0.0) += w;
                }
                // Temporarily remove u from its community.
                sigma_tot[cu] -= degrees[u];
                let w_to_own = neighbor_weights.get(&cu).copied().unwrap_or(0.0);

                // Gain of joining community c: k_{u,c} − Σ_tot(c)·k_u / 2m
                // (constant terms dropped; removal cost handled via w_to_own).
                // The tie-breaking epsilon is relative to the node's weighted
                // degree so that graphs with very small absolute edge weights
                // (e.g. heat-kernel weights of far-apart points) still move.
                // Candidates are scanned in ascending community order: the
                // HashMap's iteration order is randomized per instance, and
                // letting it pick among near-ties would make the clustering
                // differ from run to run (and process to process).
                let epsilon = 1e-12 * degrees[u].max(f64::MIN_POSITIVE);
                let mut best_community = cu;
                let mut best_gain = w_to_own - sigma_tot[cu] * degrees[u] / two_m;
                candidates.clear();
                candidates.extend(neighbor_weights.iter().map(|(&c, &w)| (c, w)));
                candidates.sort_unstable_by_key(|&(c, _)| c);
                for &(c, w_uc) in &candidates {
                    if c == cu {
                        continue;
                    }
                    let gain = w_uc - sigma_tot[c] * degrees[u] / two_m;
                    if gain > best_gain + epsilon {
                        best_gain = gain;
                        best_community = c;
                    }
                }
                sigma_tot[best_community] += degrees[u];
                if best_community != cu {
                    let old_gain = w_to_own - sigma_tot[cu] * degrees[u] / two_m;
                    total_gain += (best_gain - old_gain) / self.total_weight.max(1e-300);
                    community[u] = best_community;
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }
        (community, total_gain)
    }

    /// Contract communities into super-nodes.
    fn aggregate(&self, community: &[usize]) -> (LevelGraph, Vec<usize>) {
        // Renumber communities contiguously.
        let clustering = Clustering::from_labels(community);
        let k = clustering.num_clusters();
        let mut adj_maps: Vec<std::collections::HashMap<usize, f64>> =
            vec![std::collections::HashMap::new(); k];
        let mut self_loops = vec![0.0; k];
        for u in 0..self.num_nodes() {
            let cu = clustering.label(u);
            self_loops[cu] += self.self_loops[u];
            for &(v, w) in &self.adj[u] {
                let cv = clustering.label(v);
                if cu == cv {
                    // Each undirected intra edge visited twice; fold half each time.
                    self_loops[cu] += w / 2.0;
                } else {
                    *adj_maps[cu].entry(cv).or_insert(0.0) += w;
                }
            }
        }
        let adj: Vec<Vec<(usize, f64)>> = adj_maps
            .into_iter()
            .map(|m| {
                let mut v: Vec<(usize, f64)> = m.into_iter().collect();
                v.sort_unstable_by_key(|&(id, _)| id);
                v
            })
            .collect();
        (
            LevelGraph {
                adj,
                self_loops,
                total_weight: self.total_weight,
            },
            clustering.labels().to_vec(),
        )
    }
}

/// Modularity clustering of a weighted undirected graph.
///
/// Returns a [`Clustering`] over the graph's nodes; the number of clusters is
/// determined automatically (nodes of disconnected components never merge).
pub fn modularity_clustering(graph: &Graph, config: &ModularityConfig) -> Clustering {
    let n = graph.num_nodes();
    if n == 0 {
        return Clustering::from_labels(&[]);
    }
    if graph.num_edges() == 0 {
        return Clustering::singletons(n);
    }

    // node → current community in the original index space
    let mut assignment: Vec<usize> = (0..n).collect();
    let mut level = LevelGraph::from_graph(graph);

    for _ in 0..config.max_levels {
        let (community, gain) = level.local_moving(config);
        let changed = community.iter().enumerate().any(|(i, &c)| c != i);
        if !changed {
            break;
        }
        let (next_level, renumbered) = level.aggregate(&community);
        // Re-map the original assignment through this level's communities.
        for a in assignment.iter_mut() {
            *a = renumbered[*a];
        }
        let converged = next_level.num_nodes() == level.num_nodes() || gain < config.min_gain;
        level = next_level;
        if converged {
            break;
        }
    }
    Clustering::from_labels(&assignment)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated cliques joined by a single weak edge.
    fn two_cliques(size: usize) -> Graph {
        let n = 2 * size;
        let mut g = Graph::empty(n);
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
        let g = two_cliques(6);
        let clustering = modularity_clustering(&g, &ModularityConfig::default());
        assert_eq!(clustering.num_clusters(), 2);
        for i in 0..6 {
            assert!(clustering.same_cluster(0, i));
            assert!(clustering.same_cluster(6, 6 + i));
        }
        assert!(!clustering.same_cluster(0, 6));
    }

    #[test]
    fn modularity_of_good_clustering_beats_trivial() {
        let g = two_cliques(5);
        let good = modularity_clustering(&g, &ModularityConfig::default());
        let single = Clustering::single_cluster(g.num_nodes());
        let singles = Clustering::singletons(g.num_nodes());
        let q_good = modularity_score(&g, &good);
        let q_single = modularity_score(&g, &single);
        let q_singles = modularity_score(&g, &singles);
        assert!(q_good > q_single);
        assert!(q_good > q_singles);
        assert!(q_good > 0.3, "expected strong modularity, got {q_good}");
    }

    #[test]
    fn repeated_runs_return_the_identical_clustering() {
        // 1280 nodes (256 cliques of 5 in a ring): every local-moving pass
        // fills a freshly seeded `HashMap` per run, so an answer that leaned
        // on its iteration order (PR 10's bug) would differ between runs.
        let clique = 5usize;
        let groups = 256usize;
        let n = clique * groups;
        let mut g = Graph::empty(n);
        for c in 0..groups {
            let base = c * clique;
            for i in 0..clique {
                for j in (i + 1)..clique {
                    g.add_edge(base + i, base + j, 1.0).unwrap();
                }
            }
            let b = ((c + 1) % groups) * clique + 1;
            g.add_edge(base, b, 0.05).unwrap();
        }
        let config = ModularityConfig::default();
        let first = modularity_clustering(&g, &config);
        for run in 1..3 {
            assert_eq!(first, modularity_clustering(&g, &config), "run {run}");
        }
    }

    #[test]
    fn ring_of_cliques_finds_all_groups() {
        // Four cliques of 5 nodes connected in a ring by single edges.
        let clique = 5usize;
        let groups = 4usize;
        let n = clique * groups;
        let mut g = Graph::empty(n);
        for c in 0..groups {
            let base = c * clique;
            for i in 0..clique {
                for j in (i + 1)..clique {
                    g.add_edge(base + i, base + j, 1.0).unwrap();
                }
            }
        }
        for c in 0..groups {
            let a = c * clique;
            let b = ((c + 1) % groups) * clique + 1;
            g.add_edge(a, b, 0.05).unwrap();
        }
        let clustering = modularity_clustering(&g, &ModularityConfig::default());
        assert_eq!(clustering.num_clusters(), groups);
        // Every clique is pure.
        for c in 0..groups {
            let base = c * clique;
            for i in 1..clique {
                assert!(clustering.same_cluster(base, base + i));
            }
        }
    }

    #[test]
    fn disconnected_components_stay_separate() {
        let mut g = Graph::empty(6);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(1, 2, 1.0).unwrap();
        g.add_edge(3, 4, 1.0).unwrap();
        g.add_edge(4, 5, 1.0).unwrap();
        let clustering = modularity_clustering(&g, &ModularityConfig::default());
        assert!(clustering.num_clusters() >= 2);
        assert!(!clustering.same_cluster(0, 3));
    }

    #[test]
    fn degenerate_inputs() {
        let empty = Graph::empty(0);
        assert_eq!(
            modularity_clustering(&empty, &ModularityConfig::default()).num_clusters(),
            0
        );
        let edgeless = Graph::empty(4);
        let c = modularity_clustering(&edgeless, &ModularityConfig::default());
        assert_eq!(c.num_clusters(), 4);
        assert_eq!(modularity_score(&edgeless, &c), 0.0);
        let pair = Graph::from_edges(2, &[(0, 1, 1.0)]).unwrap();
        let c = modularity_clustering(&pair, &ModularityConfig::default());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn modularity_score_range() {
        let g = two_cliques(4);
        let c = modularity_clustering(&g, &ModularityConfig::default());
        let q = modularity_score(&g, &c);
        assert!(q > -1.0 && q <= 1.0);
    }
}

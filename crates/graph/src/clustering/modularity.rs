//! Modularity-based graph clustering (incremental aggregation).
//!
//! Algorithm 1 of the paper divides the k-NN graph "by the state-of-the-art
//! clustering approach by Shiokawa et al. \[17\]", whose defining properties —
//! the only ones the paper relies on — are: (1) it maximizes modularity by
//! incrementally aggregating nodes, so within-cluster edges dominate, (2) it
//! runs in time linear in the number of edges, and (3) the number of clusters
//! is chosen automatically. The classic Louvain procedure implemented here
//! (greedy local moving + graph aggregation) has exactly those properties; the
//! substitution is documented in `docs/ARCHITECTURE.md` ("Louvain stands in
//! for Shiokawa et al.").
//!
//! Both phases run on flat arrays: a level graph is CSR, and the weights
//! from a node (or a community) to its neighbouring communities gather in a
//! dense buffer indexed by community with a list of the entries touched, so
//! a sweep costs time linear in the edges with no hashing.

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

/// Weighted graph in contracted (community) space used between levels, in
/// CSR form: node `u`'s `(neighbour, weight)` pairs are
/// `edges[offsets[u]..offsets[u + 1]]`, ascending by neighbour and without
/// self-loops (a contracted community's internal weight is its self-loop).
struct LevelGraph {
    offsets: Vec<usize>,
    edges: Vec<(usize, f64)>,
    /// Self-loop weight per node (intra-community weight folded during
    /// contraction).
    self_loops: Vec<f64>,
    total_weight: f64,
}

/// Per-community weights gathered over a run of edges: a dense buffer
/// indexed by community plus the list of communities it touched, so that
/// reading and clearing cost the run's length rather than the community
/// count. Each community's weights are summed in edge order, starting from
/// `0.0`.
struct CommunityWeights {
    weight: Vec<f64>,
    seen: Vec<bool>,
    touched: Vec<usize>,
}

impl CommunityWeights {
    fn new(communities: usize) -> Self {
        CommunityWeights {
            weight: vec![0.0; communities],
            seen: vec![false; communities],
            touched: Vec::new(),
        }
    }

    fn add(&mut self, community: usize, w: f64) {
        if !self.seen[community] {
            self.seen[community] = true;
            self.weight[community] = 0.0;
            self.touched.push(community);
        }
        self.weight[community] += w;
    }

    fn get(&self, community: usize) -> Option<f64> {
        self.seen[community].then(|| self.weight[community])
    }

    /// Sort the touched communities ascending: the order every scan of them
    /// follows, so that near-ties resolve the same way from run to run.
    fn sort_touched(&mut self) {
        self.touched.sort_unstable();
    }

    fn clear(&mut self) {
        for &c in &self.touched {
            self.seen[c] = false;
        }
        self.touched.clear();
    }
}

impl LevelGraph {
    fn from_graph(graph: &Graph) -> Self {
        let n = graph.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut edges = Vec::with_capacity(2 * graph.num_edges());
        offsets.push(0);
        for u in 0..n {
            edges.extend_from_slice(graph.neighbors(u));
            offsets.push(edges.len());
        }
        LevelGraph {
            offsets,
            edges,
            self_loops: vec![0.0; n],
            total_weight: graph.total_weight(),
        }
    }

    fn num_nodes(&self) -> usize {
        self.self_loops.len()
    }

    fn neighbors(&self, u: usize) -> &[(usize, f64)] {
        &self.edges[self.offsets[u]..self.offsets[u + 1]]
    }

    fn weighted_degree(&self, u: usize) -> f64 {
        self.neighbors(u).iter().map(|&(_, w)| w).sum::<f64>() + self.self_loops[u]
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

        let mut neighbor_weights = CommunityWeights::new(n);
        for _ in 0..config.max_sweeps {
            let mut moved = false;
            for u in 0..n {
                let cu = community[u];
                // Weights from u to each neighbouring community.
                for &(v, w) in self.neighbors(u) {
                    if v != u {
                        neighbor_weights.add(community[v], w);
                    }
                }
                // Temporarily remove u from its community.
                sigma_tot[cu] -= degrees[u];
                let w_to_own = neighbor_weights.get(cu).unwrap_or(0.0);

                // Gain of joining community c: k_{u,c} − Σ_tot(c)·k_u / 2m
                // (constant terms dropped; removal cost handled via w_to_own).
                // The tie-breaking epsilon is relative to the node's weighted
                // degree so that graphs with very small absolute edge weights
                // (e.g. heat-kernel weights of far-apart points) still move.
                // Candidates are scanned in ascending community order, so a
                // near-tie resolves the same way in every run.
                let epsilon = 1e-12 * degrees[u].max(f64::MIN_POSITIVE);
                let mut best_community = cu;
                let mut best_gain = w_to_own - sigma_tot[cu] * degrees[u] / two_m;
                neighbor_weights.sort_touched();
                for &c in &neighbor_weights.touched {
                    if c == cu {
                        continue;
                    }
                    let gain = neighbor_weights.weight[c] - sigma_tot[c] * degrees[u] / two_m;
                    if gain > best_gain + epsilon {
                        best_gain = gain;
                        best_community = c;
                    }
                }
                neighbor_weights.clear();
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
    ///
    /// Members are grouped per community by a counting sort (ascending node
    /// order inside each), so every community's self-loop and every
    /// `(community, community)` weight is summed in ascending member order,
    /// each member's edges in adjacency order.
    fn aggregate(&self, community: &[usize]) -> (LevelGraph, Vec<usize>) {
        // Renumber communities contiguously.
        let clustering = Clustering::from_labels(community);
        let k = clustering.num_clusters();
        let labels = clustering.labels();
        let mut starts = vec![0usize; k + 1];
        for &c in labels {
            starts[c + 1] += 1;
        }
        for c in 0..k {
            starts[c + 1] += starts[c];
        }
        let mut members = vec![0usize; labels.len()];
        let mut cursor = starts[..k].to_vec();
        for (u, &c) in labels.iter().enumerate() {
            members[cursor[c]] = u;
            cursor[c] += 1;
        }

        let mut offsets = Vec::with_capacity(k + 1);
        let mut edges = Vec::new();
        let mut self_loops = vec![0.0; k];
        let mut weights = CommunityWeights::new(k);
        offsets.push(0);
        for cu in 0..k {
            for &u in &members[starts[cu]..starts[cu + 1]] {
                self_loops[cu] += self.self_loops[u];
                for &(v, w) in self.neighbors(u) {
                    let cv = labels[v];
                    if cu == cv {
                        // Each undirected intra edge visited twice; fold half each time.
                        self_loops[cu] += w / 2.0;
                    } else {
                        weights.add(cv, w);
                    }
                }
            }
            weights.sort_touched();
            edges.extend(weights.touched.iter().map(|&cv| (cv, weights.weight[cv])));
            weights.clear();
            offsets.push(edges.len());
        }
        (
            LevelGraph {
                offsets,
                edges,
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
pub(crate) mod tests {
    use super::*;
    use crate::reference;

    /// Every level of the array Louvain, recorded like the oracle's: the
    /// driver loop of [`modularity_clustering`] without the relabelling.
    pub(crate) fn levels(graph: &Graph, config: &ModularityConfig) -> Vec<reference::Level> {
        let mut trace = Vec::new();
        if graph.num_nodes() == 0 || graph.num_edges() == 0 {
            return trace;
        }
        let mut level = LevelGraph::from_graph(graph);
        for _ in 0..config.max_levels {
            let (community, gain) = level.local_moving(config);
            let unchanged = community.iter().enumerate().all(|(i, &c)| c == i);
            let rows = (0..level.num_nodes()).map(|u| level.neighbors(u));
            trace.push(reference::Level::new(
                rows,
                &level.self_loops,
                community.clone(),
                gain,
            ));
            if unchanged {
                break;
            }
            let (next_level, _) = level.aggregate(&community);
            let converged = next_level.num_nodes() == level.num_nodes() || gain < config.min_gain;
            level = next_level;
            if converged {
                break;
            }
        }
        trace
    }

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
        // 1280 nodes (256 cliques of 5 in a ring): an answer that leaned on
        // anything but the graph (a hash map's per-instance iteration order
        // was once such a thing) would differ between runs.
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

    /// Two copies of `graph` side by side, with no edge between them.
    fn disjoint_pair(graph: &Graph) -> Graph {
        let n = graph.num_nodes();
        let edges = (0..2 * n).flat_map(|u| {
            graph
                .neighbors(u % n)
                .iter()
                .filter(move |&&(v, _)| v > u % n)
                .map(move |&(v, w)| (u, v + u / n * n, w))
        });
        Graph::from_first_proposals(2 * n, edges, |w| w).unwrap()
    }

    #[test]
    fn matches_the_hash_map_louvain_on_random_graphs() {
        let config = ModularityConfig::default();
        let (mut multi_level, mut cases) = (0, 0);
        for seed in 0..12u64 {
            for (n, groups, isolated) in [(40, 3, 0), (200, 12, 5), (600, 30, 17)] {
                for tied in [true, false] {
                    let g = reference::random_graph(seed, n, groups, isolated, tied);
                    for g in [disjoint_pair(&g), g] {
                        let (want, want_levels) = reference::modularity_clustering(&g, &config);
                        let got = modularity_clustering(&g, &config);
                        assert_eq!(got, want, "seed {seed} n {} tied {tied}", g.num_nodes());
                        assert!(
                            levels(&g, &config) == want_levels,
                            "seed {seed} tied {tied}"
                        );
                        multi_level += usize::from(want_levels.len() >= 3);
                        cases += 1;
                    }
                }
            }
        }
        // Most cases contract at least twice, so the later levels' CSR
        // graphs (self-loops, aggregated weight bits) are compared too.
        assert!(
            multi_level * 2 > cases,
            "{multi_level} of {cases} multi-level"
        );
    }

    #[test]
    fn matches_the_hash_map_louvain_under_tight_limits() {
        // One sweep per level and a high gain floor stop Louvain early, on
        // levels whose communities are still far from converged.
        for (max_levels, max_sweeps, min_gain) in [(1, 1, 0.0), (3, 1, 1e-7), (12, 2, 1e-2)] {
            let config = ModularityConfig {
                max_levels,
                max_sweeps,
                min_gain,
            };
            for seed in 0..6u64 {
                let g = reference::random_graph(seed, 300, 10, 3, seed % 2 == 0);
                let (want, want_levels) = reference::modularity_clustering(&g, &config);
                assert_eq!(modularity_clustering(&g, &config), want, "seed {seed}");
                assert!(levels(&g, &config) == want_levels, "seed {seed}");
            }
        }
    }

    #[test]
    fn modularity_score_range() {
        let g = two_cliques(4);
        let c = modularity_clustering(&g, &ModularityConfig::default());
        let q = modularity_score(&g, &c);
        assert!(q > -1.0 && q <= 1.0);
    }
}

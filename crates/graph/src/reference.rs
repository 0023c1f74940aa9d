//! Test oracles for the array build path: the hash-map Louvain, the
//! edge-by-edge graph build and the COO + `scale_rows_cols` + `add_scaled`
//! assembly that the array versions replaced, with their arithmetic and
//! their order of operations unchanged, so that every label, weight and bit
//! of `W` can be compared with `==`.

use crate::clustering::labels::Clustering;
use crate::clustering::modularity::ModularityConfig;
use crate::graph::Graph;
use crate::knn::heat_kernel_weight;
use crate::{GraphError, Result};
use mogul_sparse::{CooMatrix, CsrMatrix};
use std::collections::HashMap;

/// `Clustering::from_labels` by a hash map of first appearances.
pub(crate) fn from_labels(raw: &[usize]) -> Clustering {
    let mut remap: HashMap<usize, usize> = HashMap::new();
    let labels: Vec<usize> = raw
        .iter()
        .map(|&l| {
            let next = remap.len();
            *remap.entry(l).or_insert(next)
        })
        .collect();
    let clustering = Clustering::from_labels(&labels);
    assert_eq!(
        clustering.labels(),
        &labels[..],
        "labels already contiguous"
    );
    clustering
}

struct LevelGraph {
    adj: Vec<Vec<(usize, f64)>>,
    self_loops: Vec<f64>,
    total_weight: f64,
}

impl LevelGraph {
    fn weighted_degree(&self, u: usize) -> f64 {
        self.adj[u].iter().map(|&(_, w)| w).sum::<f64>() + self.self_loops[u]
    }

    fn local_moving(&self, config: &ModularityConfig) -> (Vec<usize>, f64) {
        let n = self.adj.len();
        let two_m = 2.0 * self.total_weight;
        let mut community: Vec<usize> = (0..n).collect();
        let degrees: Vec<f64> = (0..n).map(|u| self.weighted_degree(u)).collect();
        let mut sigma_tot: Vec<f64> = degrees.clone();
        let mut total_gain = 0.0;
        if two_m <= 0.0 {
            return (community, 0.0);
        }
        let mut neighbor_weights: HashMap<usize, f64> = HashMap::new();
        let mut candidates: Vec<(usize, f64)> = Vec::new();
        for _ in 0..config.max_sweeps {
            let mut moved = false;
            for u in 0..n {
                let cu = community[u];
                neighbor_weights.clear();
                for &(v, w) in &self.adj[u] {
                    if v == u {
                        continue;
                    }
                    *neighbor_weights.entry(community[v]).or_insert(0.0) += w;
                }
                sigma_tot[cu] -= degrees[u];
                let w_to_own = neighbor_weights.get(&cu).copied().unwrap_or(0.0);
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

    fn aggregate(&self, community: &[usize]) -> (LevelGraph, Vec<usize>) {
        let clustering = from_labels(community);
        let k = clustering.num_clusters();
        let mut adj_maps: Vec<HashMap<usize, f64>> = vec![HashMap::new(); k];
        let mut self_loops = vec![0.0; k];
        for u in 0..self.adj.len() {
            let cu = clustering.label(u);
            self_loops[cu] += self.self_loops[u];
            for &(v, w) in &self.adj[u] {
                let cv = clustering.label(v);
                if cu == cv {
                    self_loops[cu] += w / 2.0;
                } else {
                    *adj_maps[cu].entry(cv).or_insert(0.0) += w;
                }
            }
        }
        let adj = adj_maps
            .into_iter()
            .map(|m| {
                let mut v: Vec<(usize, f64)> = m.into_iter().collect();
                v.sort_unstable_by_key(|&(id, _)| id);
                v
            })
            .collect();
        let level = LevelGraph {
            adj,
            self_loops,
            total_weight: self.total_weight,
        };
        (level, clustering.labels().to_vec())
    }
}

/// One local-moving pass of a Louvain run: the level graph it ran on
/// (neighbour ids with weight bits, self-loop bits), the communities it
/// found and the bits of its modularity gain.
#[derive(Debug, PartialEq)]
pub(crate) struct Level {
    pub(crate) adj: Vec<Vec<(usize, u64)>>,
    pub(crate) self_loops: Vec<u64>,
    pub(crate) community: Vec<usize>,
    pub(crate) gain: u64,
}

impl Level {
    pub(crate) fn new<'a>(
        adj: impl Iterator<Item = &'a [(usize, f64)]>,
        self_loops: &[f64],
        community: Vec<usize>,
        gain: f64,
    ) -> Self {
        Level {
            adj: adj
                .map(|row| row.iter().map(|&(v, w)| (v, w.to_bits())).collect())
                .collect(),
            self_loops: self_loops.iter().map(|w| w.to_bits()).collect(),
            community,
            gain: gain.to_bits(),
        }
    }
}

/// The hash-map Louvain, with every level it ran.
pub(crate) fn modularity_clustering(
    graph: &Graph,
    config: &ModularityConfig,
) -> (Clustering, Vec<Level>) {
    let n = graph.num_nodes();
    if n == 0 {
        return (from_labels(&[]), Vec::new());
    }
    if graph.num_edges() == 0 {
        return (Clustering::singletons(n), Vec::new());
    }
    let mut assignment: Vec<usize> = (0..n).collect();
    let mut level = LevelGraph {
        adj: (0..n).map(|u| graph.neighbors(u).to_vec()).collect(),
        self_loops: vec![0.0; n],
        total_weight: graph.total_weight(),
    };
    let mut levels = Vec::new();
    for _ in 0..config.max_levels {
        let (community, gain) = level.local_moving(config);
        let unchanged = community.iter().enumerate().all(|(i, &c)| c == i);
        let rows = level.adj.iter().map(|row| &row[..]);
        levels.push(Level::new(rows, &level.self_loops, community.clone(), gain));
        if unchanged {
            break;
        }
        let (next_level, renumbered) = level.aggregate(&community);
        for a in assignment.iter_mut() {
            *a = renumbered[*a];
        }
        let converged = next_level.adj.len() == level.adj.len() || gain < config.min_gain;
        level = next_level;
        if converged {
            break;
        }
    }
    (from_labels(&assignment), levels)
}

/// `graph_from_neighbor_lists` as one `has_edge` search and one sorted
/// `add_edge` insert per listed pair.
pub(crate) fn graph_from_neighbor_lists(
    neighbor_lists: &[Vec<(usize, f64)>],
    sigma: f64,
) -> Result<Graph> {
    if sigma <= 0.0 || !sigma.is_finite() {
        return Err(GraphError::InvalidInput(format!(
            "heat-kernel bandwidth must be positive and finite, got {sigma}"
        )));
    }
    let mut graph = Graph::empty(neighbor_lists.len());
    for (i, list) in neighbor_lists.iter().enumerate() {
        for &(j, d) in list {
            if i == j || graph.has_edge(i, j) {
                continue;
            }
            graph.add_edge(i, j, heat_kernel_weight(d, sigma))?;
        }
    }
    Ok(graph)
}

/// `Graph::adjacency_matrix` through a COO staging copy and its sort.
pub(crate) fn adjacency_matrix(graph: &Graph) -> CsrMatrix {
    let n = graph.num_nodes();
    let mut coo = CooMatrix::with_capacity(n, n, 2 * graph.num_edges());
    for u in 0..n {
        for &(v, w) in graph.neighbors(u) {
            coo.push(u, v, w).unwrap();
        }
    }
    coo.to_csr()
}

/// `W = I − α S` as a scaled copy `S` and a merged sum.
pub(crate) fn ranking_system_matrix(adjacency: &CsrMatrix, alpha: f64) -> Result<CsrMatrix> {
    let s = crate::adjacency::symmetric_normalization(adjacency)?;
    Ok(add_scaled(
        &CsrMatrix::identity(adjacency.nrows()),
        -alpha,
        &s,
    ))
}

/// The sparse sum `a + alpha * b` over the union of the two patterns,
/// dropping entries that cancel to exactly zero.
fn add_scaled(a: &CsrMatrix, alpha: f64, b: &CsrMatrix) -> CsrMatrix {
    assert_eq!((a.nrows(), a.ncols()), (b.nrows(), b.ncols()));
    let mut indptr = vec![0];
    let mut indices = Vec::new();
    let mut values = Vec::new();
    for i in 0..a.nrows() {
        let (ac, av) = a.row(i);
        let (bc, bv) = b.row(i);
        let (mut pa, mut pb) = (0usize, 0usize);
        while pa < ac.len() || pb < bc.len() {
            let (col, val) = if pb >= bc.len() || (pa < ac.len() && ac[pa] < bc[pb]) {
                pa += 1;
                (ac[pa - 1], av[pa - 1])
            } else if pa >= ac.len() || bc[pb] < ac[pa] {
                pb += 1;
                (bc[pb - 1], alpha * bv[pb - 1])
            } else {
                pa += 1;
                pb += 1;
                (ac[pa - 1], av[pa - 1] + alpha * bv[pb - 1])
            };
            if val != 0.0 {
                indices.push(col);
                values.push(val);
            }
        }
        indptr.push(indices.len());
    }
    CsrMatrix::from_raw_parts(a.nrows(), a.ncols(), indptr, indices, values).unwrap()
}

/// Assert two graphs hold the same ids and the same weight bits.
pub(crate) fn assert_same_graph(got: &Graph, want: &Graph) {
    assert_eq!(got.num_nodes(), want.num_nodes());
    assert_eq!(got.num_edges(), want.num_edges());
    for u in 0..want.num_nodes() {
        let bits = |g: &Graph| -> Vec<(usize, u64)> {
            g.neighbors(u)
                .iter()
                .map(|&(v, w)| (v, w.to_bits()))
                .collect()
        };
        assert_eq!(bits(got), bits(want), "neighbours of node {u}");
    }
}

/// Assert two CSR matrices hold the same shape, pattern and value bits.
pub(crate) fn assert_same_csr(got: &CsrMatrix, want: &CsrMatrix) {
    assert_eq!((got.nrows(), got.ncols()), (want.nrows(), want.ncols()));
    assert_eq!(got.indptr(), want.indptr());
    assert_eq!(got.indices(), want.indices());
    let bits = |m: &CsrMatrix| -> Vec<u64> { m.values().iter().map(|v| v.to_bits()).collect() };
    assert_eq!(bits(got), bits(want));
}

/// SplitMix64: a small deterministic stream for random test graphs.
pub(crate) struct Stream(u64);

impl Stream {
    pub(crate) fn new(seed: u64) -> Self {
        Stream(seed)
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub(crate) fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    /// Uniform in `(0, 1]`.
    pub(crate) fn unit(&mut self) -> f64 {
        ((self.next() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// A random weighted graph on `n` nodes: `groups` dense groups (contiguous
/// id ranges) joined by sparse cross edges, the last `isolated` nodes left
/// without edges. With `tied`, every weight is one of 1, 2 or 4 halves so
/// that modularity gains tie exactly; else weights are continuous.
pub(crate) fn random_graph(
    seed: u64,
    n: usize,
    groups: usize,
    isolated: usize,
    tied: bool,
) -> Graph {
    let mut rng = Stream::new(seed);
    let active = n - isolated;
    let weight = |rng: &mut Stream| {
        if tied {
            [0.5, 1.0, 2.0][rng.below(3)]
        } else {
            rng.unit()
        }
    };
    let mut edges = Vec::new();
    for u in 0..active {
        let group = u * groups / active;
        let (lo, hi) = (
            (group * active).div_ceil(groups),
            ((group + 1) * active).div_ceil(groups),
        );
        for _ in 0..3 {
            let v = lo + rng.below(hi - lo);
            if v != u {
                edges.push((u, v, weight(&mut rng)));
            }
        }
        if rng.below(8) == 0 {
            let v = rng.below(active);
            if v != u {
                edges.push((u, v, weight(&mut rng)));
            }
        }
    }
    Graph::from_edges(n, &edges).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::modularity;
    use crate::knn::{estimate_sigma, exact_knn_indices};
    use mogul_data::web::{web_like, WebLikeConfig};

    /// The build path's graph stage on small `web_like` corpora of the
    /// benchmark's three shapes (noisy, clean, churn): k-NN lists → graph →
    /// clustering → `A` → `W`, every stage against its oracle.
    #[test]
    fn graph_stage_matches_on_the_corpus_shapes() {
        let shapes = [
            (1_500, 32, 8, 0.2, 10),
            (1_500, 64, 30, 0.02, 10),
            (1_000, 32, 5, 0.2, 5),
        ];
        for (items, dim, topics, background_fraction, k) in shapes {
            let features = web_like(&WebLikeConfig {
                num_points: items,
                num_topics: topics,
                dim,
                background_fraction,
                ..WebLikeConfig::default()
            })
            .unwrap()
            .features()
            .clone();
            let lists = exact_knn_indices(&features, k, 1).unwrap();
            let sigma = estimate_sigma(&lists);
            let want = graph_from_neighbor_lists(&lists, sigma).unwrap();
            let graph = crate::knn::graph_from_neighbor_lists(&lists, sigma).unwrap();
            assert_same_graph(&graph, &want);

            let config = ModularityConfig::default();
            let (labels, levels) = modularity_clustering(&want, &config);
            assert!(levels.len() >= 2, "{items} x {dim}: one level");
            assert_eq!(modularity::modularity_clustering(&graph, &config), labels);
            assert!(modularity::tests::levels(&graph, &config) == levels);

            let a = graph.adjacency_matrix();
            assert_same_csr(&a, &adjacency_matrix(&want));
            assert_same_csr(
                &crate::adjacency::ranking_system_matrix(&a, 0.99).unwrap(),
                &ranking_system_matrix(&a, 0.99).unwrap(),
            );
        }
    }
}

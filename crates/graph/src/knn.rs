//! k-nearest-neighbour graph construction.
//!
//! Manifold Ranking models the image database as a k-NN graph: every image is
//! a node, and two nodes share an undirected edge when one is among the k
//! nearest neighbours of the other; the edge weight is the heat kernel
//! `A_ij = exp(−d²(u_i, u_j) / 2σ²)` (Section 3 of the paper, k is typically
//! 5–20).
//!
//! Two construction paths are provided, both over a
//! [`FeatureMatrix`] (the `&[Vec<f64>]` entry points [`knn_graph`] and
//! [`approximate_knn_graph`] pack one first):
//!
//! * [`exact_knn_indices`] — threaded brute-force search (exact, `O(n² m)`),
//!   the reference used for small and medium datasets: a blocked scan that
//!   hands tiles of rows to the lane-across-rows distance kernel
//!   ([`tile_sq_distances`]).
//! * [`approximate_knn_indices`] — partition-based approximate search that
//!   only scans a few nearby partitions per query, for the larger synthetic
//!   datasets (the paper's INRIA-scale regime).
//!
//! [`nearest_rows`] is the single-query counterpart: the nearest rows of one
//! vector, used by incremental inserts and corrected out-of-sample queries.

use crate::graph::Graph;
use crate::{GraphError, Result};
use mogul_sparse::kernel::tile_sq_distances;
use mogul_sparse::vector::squared_euclidean_unchecked;
use mogul_sparse::FeatureMatrix;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// How edge weights are derived from distances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeWeighting {
    /// Heat kernel `exp(−d² / 2σ²)`; `sigma = None` estimates σ as the
    /// standard deviation of all k-NN distances (the paper's convention of
    /// using "the standard variation of the function scores").
    HeatKernel {
        /// Kernel bandwidth; `None` → estimated from the data.
        sigma: Option<f64>,
    },
    /// Every edge gets weight 1.
    Binary,
    /// `1 / (d + ε)` weights.
    InverseDistance,
}

/// Configuration for k-NN graph construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnnConfig {
    /// Number of nearest neighbours per node (the paper uses 5).
    pub k: usize,
    /// Edge weighting scheme.
    pub weighting: EdgeWeighting,
    /// Number of worker threads for the brute-force search (0 → all cores).
    pub threads: usize,
}

impl Default for KnnConfig {
    fn default() -> Self {
        KnnConfig {
            k: 5,
            weighting: EdgeWeighting::HeatKernel { sigma: None },
            threads: 0,
        }
    }
}

impl KnnConfig {
    /// Convenience constructor with the paper's defaults and a given `k`.
    pub fn with_k(k: usize) -> Self {
        KnnConfig {
            k,
            ..KnnConfig::default()
        }
    }
}

/// A row and its squared distance to a query, ordered by `(d², row)`: the
/// one total order every nearest-row selection in the workspace ranks by.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Candidate {
    d2: f64,
    row: usize,
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Distances over a `FeatureMatrix` are finite and non-negative.
        self.d2.total_cmp(&other.d2).then(self.row.cmp(&other.row))
    }
}

/// The `k` least [`Candidate`]s of a stream: a max-heap whose root is the
/// worst one kept.
struct KBest {
    k: usize,
    heap: BinaryHeap<Candidate>,
}

impl KBest {
    fn new(k: usize) -> Self {
        // `k` may come from a file or off the wire: it must not size a buffer.
        KBest {
            k,
            heap: BinaryHeap::new(),
        }
    }

    /// The `d²` above which no row can be admitted any more (`∞` until `k`
    /// are held).
    fn bound(&self) -> f64 {
        match self.heap.peek() {
            Some(worst) if self.heap.len() >= self.k => worst.d2,
            _ => f64::INFINITY,
        }
    }

    fn offer(&mut self, d2: f64, row: usize) {
        let candidate = Candidate { d2, row };
        if self.heap.len() < self.k {
            self.heap.push(candidate);
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if candidate < *worst {
                *worst = candidate;
            }
        }
    }

    /// `(row, d²)` pairs, least first.
    fn into_sorted(self) -> Vec<(usize, f64)> {
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|c| (c.row, c.d2))
            .collect()
    }
}

/// The `k` rows of `features` nearest to `query` among those `skip` does not
/// reject, as `(row, d²)` pairs in ascending `(d², row)` order — the one
/// single-query scan behind incremental inserts and the out-of-sample phase 1
/// of a corrected snapshot. `query` must be `features.dim()` wide.
pub fn nearest_rows(
    features: &FeatureMatrix,
    query: &[f64],
    k: usize,
    skip: impl Fn(usize) -> bool,
) -> Vec<(usize, f64)> {
    assert_eq!(query.len(), features.dim(), "query and feature widths");
    let mut best = KBest::new(k);
    for (row, x) in features.rows().enumerate() {
        if !skip(row) {
            best.offer(squared_euclidean_unchecked(query, x), row);
        }
    }
    best.into_sorted()
}

/// Rows per tile of the blocked scan (the width of the lane kernels' panels).
const TILE_LANES: usize = 8;

/// Queries that take turns on a tile while it is hot in L1. A block streams
/// the whole corpus past the core once, so the block size divides that
/// traffic; past 16 the scan is compute-bound and nothing more is gained.
const QUERY_BLOCK: usize = 16;

/// Exact k-NN lists for every point (brute force over tiles of rows, threaded
/// with scoped threads). Entry `i` holds the `k` nearest other points of
/// point `i` as `(index, distance)` pairs sorted by ascending distance.
///
/// The lists do not depend on the thread count or on the tiling: each pair's
/// squared distance has the bits of `squared_euclidean_unchecked` (see
/// [`tile_sq_distances`]), and the `k` kept are the least under `(d², index)`.
pub fn exact_knn_indices(
    features: &FeatureMatrix,
    k: usize,
    threads: usize,
) -> Result<Vec<Vec<(usize, f64)>>> {
    blocked_knn::<TILE_LANES, QUERY_BLOCK>(features, k, threads)
}

fn blocked_knn<const LANES: usize, const BLOCK: usize>(
    features: &FeatureMatrix,
    k: usize,
    threads: usize,
) -> Result<Vec<Vec<(usize, f64)>>> {
    let n = features.len();
    if n == 0 {
        return Err(GraphError::InvalidInput(
            "cannot build a k-NN graph over zero points".into(),
        ));
    }
    if k == 0 {
        return Err(GraphError::InvalidInput("k must be at least 1".into()));
    }
    let k = k.min(n - 1);
    let mut results: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    if k == 0 {
        return Ok(results);
    }
    let tiles = features.pack_tiles(LANES);
    let blocks = n.div_ceil(BLOCK);
    let workers = mogul_sparse::effective_threads(threads).min(blocks);
    // Whole query blocks per worker.
    let chunk = blocks.div_ceil(workers) * BLOCK;
    std::thread::scope(|scope| {
        for (idx, slot) in results.chunks_mut(chunk).enumerate() {
            let tiles = &tiles;
            scope
                .spawn(move || scan_queries::<LANES, BLOCK>(features, tiles, k, idx * chunk, slot));
        }
    });
    Ok(results)
}

/// Fill `out[i]` with the neighbour list of point `first + i`: per block of
/// queries, one pass over the tiles, each tile visited by every query of the
/// block before the next tile is loaded.
fn scan_queries<const LANES: usize, const BLOCK: usize>(
    features: &FeatureMatrix,
    tiles: &[f64],
    k: usize,
    first: usize,
    out: &mut [Vec<(usize, f64)>],
) {
    let n = features.len();
    for (b, block) in out.chunks_mut(BLOCK).enumerate() {
        let first = first + b * BLOCK;
        let mut best: Vec<KBest> = block.iter().map(|_| KBest::new(k)).collect();
        for (t, tile) in tiles.chunks_exact(features.dim() * LANES).enumerate() {
            for (i, best) in best.iter_mut().enumerate() {
                let query = first + i;
                // A tile whose every row is already beyond the k-th best is
                // dropped part-way through its coordinates.
                let Some(d2) = tile_sq_distances::<LANES>(tile, features.row(query), best.bound())
                else {
                    continue;
                };
                for (lane, &d2) in d2.iter().enumerate() {
                    let row = t * LANES + lane;
                    // Lanes past `n` pad the last tile.
                    if row < n && row != query {
                        best.offer(d2, row);
                    }
                }
            }
        }
        for (list, best) in block.iter_mut().zip(best) {
            *list = by_distance(best.into_sorted());
        }
    }
}

/// Turn `(row, d²)` pairs into a neighbour list: `(row, distance)` pairs in
/// ascending `(distance, row)` order. Not the order of the input even when
/// that was sorted: `sqrt` can merge two distinct `d²`.
pub fn by_distance(nearest: Vec<(usize, f64)>) -> Vec<(usize, f64)> {
    let mut list: Vec<(usize, f64)> = nearest
        .into_iter()
        .map(|(row, d2)| (row, d2.sqrt()))
        .collect();
    list.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    list
}

/// Approximate k-NN lists using random-center partitioning: points are
/// assigned to the nearest of `num_partitions` randomly chosen centers, and
/// each query only scans its own partition plus the `probes − 1` next-nearest
/// partitions. Falls back to exact search for tiny inputs.
pub fn approximate_knn_indices(
    features: &FeatureMatrix,
    k: usize,
    num_partitions: usize,
    probes: usize,
    seed: u64,
) -> Result<Vec<Vec<(usize, f64)>>> {
    let n = features.len();
    if k == 0 {
        return Err(GraphError::InvalidInput("k must be at least 1".into()));
    }
    let num_partitions = num_partitions.clamp(1, n.max(1));
    if num_partitions <= 1 || n <= 4 * k {
        return exact_knn_indices(features, k, 0);
    }
    let probes = probes.clamp(1, num_partitions);
    let k = k.min(n - 1);

    // Pick partition centers deterministically from the seed.
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut centers: Vec<usize> = Vec::with_capacity(num_partitions);
    while centers.len() < num_partitions {
        let c = (next() % n as u64) as usize;
        if !centers.contains(&c) {
            centers.push(c);
        }
    }

    // Assign every point to its nearest center.
    let mut partition_of = vec![0usize; n];
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); num_partitions];
    for i in 0..n {
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (p, &c) in centers.iter().enumerate() {
            let d = squared_euclidean_unchecked(features.row(i), features.row(c));
            if d < best_d {
                best_d = d;
                best = p;
            }
        }
        partition_of[i] = best;
        members[best].push(i);
    }

    // For each query, scan its own partition plus the nearest few others.
    let mut results: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
    for i in 0..n {
        let mut center_order: Vec<(usize, f64)> = centers
            .iter()
            .enumerate()
            .map(|(p, &c)| {
                (
                    p,
                    squared_euclidean_unchecked(features.row(i), features.row(c)),
                )
            })
            .collect();
        center_order.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal));
        let mut candidates: Vec<usize> = Vec::new();
        for &(p, _) in center_order.iter().take(probes) {
            candidates.extend(members[p].iter().copied());
        }
        if !candidates.contains(&partition_of[i]) {
            candidates.extend(members[partition_of[i]].iter().copied());
        }
        let mut scored: Vec<(usize, f64)> = candidates
            .into_iter()
            .filter(|&j| j != i)
            .map(|j| {
                let d2 = squared_euclidean_unchecked(features.row(i), features.row(j));
                (j, d2.sqrt())
            })
            .collect();
        scored.sort_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or(Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        scored.dedup_by_key(|e| e.0);
        scored.truncate(k);
        results.push(scored);
    }
    Ok(results)
}

/// Estimate the heat-kernel bandwidth σ from the supplied k-NN distances.
///
/// The paper defines σ loosely as "the standard variation of the function
/// scores"; in high-dimensional feature spaces k-NN distances concentrate
/// (mean ≫ standard deviation), and a bandwidth equal to the raw standard
/// deviation would drive every edge weight to zero. The estimator therefore
/// uses the classical choice `σ = mean k-NN distance`, widened to the
/// standard deviation whenever the spread is larger than the mean, and falls
/// back to 1.0 for fully degenerate inputs (e.g. all-duplicate points).
pub fn estimate_sigma(neighbor_lists: &[Vec<(usize, f64)>]) -> f64 {
    let distances: Vec<f64> = neighbor_lists
        .iter()
        .flat_map(|l| l.iter().map(|&(_, d)| d))
        .collect();
    if distances.is_empty() {
        return 1.0;
    }
    let mean = distances.iter().sum::<f64>() / distances.len() as f64;
    let var = distances
        .iter()
        .map(|d| (d - mean) * (d - mean))
        .sum::<f64>()
        / distances.len() as f64;
    let std = var.sqrt();
    let sigma = mean.max(std);
    if sigma > 1e-12 {
        sigma
    } else {
        1.0
    }
}

/// Convert neighbour lists to an undirected weighted graph using the given
/// weighting scheme. An edge is created when either endpoint lists the other
/// (the union rule), matching the paper's "two nodes are connected … if they
/// are k-nearest neighbors".
pub fn graph_from_neighbor_lists(
    neighbor_lists: &[Vec<(usize, f64)>],
    weighting: EdgeWeighting,
) -> Result<Graph> {
    let n = neighbor_lists.len();
    let sigma = match weighting {
        EdgeWeighting::HeatKernel { sigma } => {
            sigma.unwrap_or_else(|| estimate_sigma(neighbor_lists))
        }
        _ => 1.0,
    };
    if sigma <= 0.0 || !sigma.is_finite() {
        return Err(GraphError::InvalidInput(format!(
            "heat-kernel bandwidth must be positive and finite, got {sigma}"
        )));
    }
    let mut graph = Graph::empty(n);
    for (i, list) in neighbor_lists.iter().enumerate() {
        for &(j, d) in list {
            if i == j {
                continue;
            }
            if graph.has_edge(i, j) {
                continue;
            }
            let weight = match weighting {
                EdgeWeighting::HeatKernel { .. } => {
                    let w = (-d * d / (2.0 * sigma * sigma)).exp();
                    // Guard against underflow to zero for far-apart pairs.
                    w.max(1e-300)
                }
                EdgeWeighting::Binary => 1.0,
                EdgeWeighting::InverseDistance => 1.0 / (d + 1e-12),
            };
            graph.add_edge(i, j, weight)?;
        }
    }
    Ok(graph)
}

/// Build the k-NN graph of a set of feature vectors with exact (brute force)
/// search: pack them into a [`FeatureMatrix`] (which rejects an empty, ragged
/// or non-finite set) and run [`exact_knn_indices`].
///
/// This is the paper's preprocessing step shared by every ranking method.
pub fn knn_graph(features: &[Vec<f64>], config: KnnConfig) -> Result<Graph> {
    let features = FeatureMatrix::from_rows(features)?;
    let lists = exact_knn_indices(&features, config.k, config.threads)?;
    graph_from_neighbor_lists(&lists, config.weighting)
}

/// Build an approximate k-NN graph (partition-based candidate generation).
pub fn approximate_knn_graph(
    features: &[Vec<f64>],
    config: KnnConfig,
    num_partitions: usize,
    probes: usize,
    seed: u64,
) -> Result<Graph> {
    let features = FeatureMatrix::from_rows(features)?;
    let lists = approximate_knn_indices(&features, config.k, num_partitions, probes, seed)?;
    graph_from_neighbor_lists(&lists, config.weighting)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_cluster_rows() -> Vec<Vec<f64>> {
        // 6 points: two tight clusters far apart.
        vec![
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![0.0, 0.1],
            vec![10.0, 10.0],
            vec![10.1, 10.0],
            vec![10.0, 10.1],
        ]
    }

    fn two_clusters() -> FeatureMatrix {
        FeatureMatrix::from_rows(&two_cluster_rows()).unwrap()
    }

    /// The textbook: every pair, a full sort, the first `k`.
    fn brute_force(rows: &[Vec<f64>], k: usize) -> Vec<Vec<(usize, f64)>> {
        (0..rows.len())
            .map(|i| {
                let mut all: Vec<(f64, usize)> = (0..rows.len())
                    .filter(|&j| j != i)
                    .map(|j| {
                        let mut d2 = 0.0;
                        for (a, b) in rows[i].iter().zip(&rows[j]) {
                            d2 += (a - b) * (a - b);
                        }
                        (d2, j)
                    })
                    .collect();
                all.sort_by(|a, b| a.partial_cmp(b).unwrap());
                all.truncate(k);
                let mut list: Vec<(usize, f64)> =
                    all.into_iter().map(|(d2, j)| (j, d2.sqrt())).collect();
                list.sort_by(|a, b| (a.1, a.0).partial_cmp(&(b.1, b.0)).unwrap());
                list
            })
            .collect()
    }

    fn bits(lists: &[Vec<(usize, f64)>]) -> Vec<Vec<(usize, u64)>> {
        lists
            .iter()
            .map(|l| l.iter().map(|&(j, d)| (j, d.to_bits())).collect())
            .collect()
    }

    /// Every tiling and thread count against the textbook, ids and bits.
    fn check_against_brute_force(rows: &[Vec<f64>], k: usize) {
        let n = rows.len();
        let features = FeatureMatrix::from_rows(rows).unwrap();
        let want = bits(&brute_force(rows, k.min(n - 1)));
        for threads in [1, 2, 3, n] {
            let scans = [
                blocked_knn::<1, 1>(&features, k, threads),
                blocked_knn::<3, 2>(&features, k, threads),
                blocked_knn::<8, 4>(&features, k, threads),
                blocked_knn::<16, 5>(&features, k, threads),
                exact_knn_indices(&features, k, threads),
            ];
            for (scan, got) in scans.into_iter().enumerate() {
                assert_eq!(
                    bits(&got.unwrap()),
                    want,
                    "n {n} dim {} k {k} threads {threads} tiling {scan}",
                    features.dim()
                );
            }
        }
    }

    #[test]
    fn blocked_scan_equals_brute_force_on_seeded_points() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
        };
        for n in [1usize, 2, 7, 8, 9, 65] {
            for dim in [1usize, 7, 8, 9, 33] {
                let rows: Vec<Vec<f64>> =
                    (0..n).map(|_| (0..dim).map(|_| next()).collect()).collect();
                for k in [1, 3, n.saturating_sub(1).max(1), n + 4] {
                    check_against_brute_force(&rows, k);
                }
            }
        }
    }

    #[test]
    fn blocked_scan_equals_brute_force_under_exact_ties() {
        // All-duplicate points: every d² is 0 and only the index ranks.
        check_against_brute_force(&vec![vec![1.5, -2.0, 0.25]; 19], 4);
        // An integer grid: most k-th distances are shared by several points,
        // so rows whose d² equals the bound are offered (and lose on index),
        // and tiles whose partial sums only equal it must not be dropped.
        let grid: Vec<Vec<f64>> = (0..81)
            .map(|i| vec![(i % 9) as f64, (i / 9) as f64])
            .collect();
        for k in [1, 2, 4, 5, 8, 80] {
            check_against_brute_force(&grid, k);
        }
        // The same grid along 12 coordinates, so ties survive past the first
        // abandonment check.
        let deep: Vec<Vec<f64>> = grid
            .iter()
            .map(|p| (0..12).map(|d| p[d % 2]).collect())
            .collect();
        check_against_brute_force(&deep, 4);
    }

    #[test]
    fn k_best_ranks_by_distance_then_row() {
        let mut best = KBest::new(2);
        assert_eq!(best.bound(), f64::INFINITY);
        for (d2, row) in [(4.0, 9), (1.0, 5), (1.0, 7), (1.0, 3), (0.5, 8), (1.0, 4)] {
            best.offer(d2, row);
        }
        // A tie with the bound and a smaller row displaces the larger row.
        assert_eq!(best.bound(), 1.0);
        assert_eq!(best.into_sorted(), vec![(8, 0.5), (3, 1.0)]);
        let mut none = KBest::new(0);
        none.offer(1.0, 0);
        assert!(none.into_sorted().is_empty());
    }

    #[test]
    fn exact_knn_finds_cluster_mates() {
        let feats = two_clusters();
        let lists = exact_knn_indices(&feats, 2, 2).unwrap();
        assert_eq!(lists.len(), 6);
        for (i, list) in lists.iter().enumerate() {
            assert_eq!(list.len(), 2);
            for &(j, d) in list {
                assert_ne!(i, j);
                // Neighbours stay within the same cluster of 3 points.
                assert_eq!(i / 3, j / 3, "point {i} matched {j}");
                assert!(d < 1.0);
            }
        }
    }

    #[test]
    fn knn_distances_are_sorted() {
        let feats = two_clusters();
        let lists = exact_knn_indices(&feats, 3, 1).unwrap();
        for list in lists {
            for w in list.windows(2) {
                assert!(w[0].1 <= w[1].1);
            }
        }
    }

    #[test]
    fn k_larger_than_dataset_is_clamped() {
        let feats = FeatureMatrix::from_vec(1, vec![0.0, 1.0, 2.0]).unwrap();
        let lists = exact_knn_indices(&feats, 10, 1).unwrap();
        for list in lists {
            assert_eq!(list.len(), 2);
        }
    }

    #[test]
    fn input_validation() {
        let config = KnnConfig::with_k(3);
        assert!(knn_graph(&[], config).is_err());
        assert!(knn_graph(&[vec![]], config).is_err());
        assert!(knn_graph(&[vec![1.0], vec![1.0, 2.0]], config).is_err());
        assert!(knn_graph(&[vec![f64::NAN], vec![0.0]], config).is_err());
        assert!(approximate_knn_graph(&[vec![f64::INFINITY], vec![0.0]], config, 1, 1, 7).is_err());
        assert!(exact_knn_indices(&two_clusters(), 0, 1).is_err());
        let empty = FeatureMatrix::from_vec(2, Vec::new()).unwrap();
        assert!(exact_knn_indices(&empty, 3, 1).is_err());
        assert!(approximate_knn_indices(&empty, 3, 4, 1, 7).is_err());
    }

    #[test]
    fn heat_kernel_graph_weights_are_in_unit_interval() {
        let g = knn_graph(&two_cluster_rows(), KnnConfig::with_k(2)).unwrap();
        assert_eq!(g.num_nodes(), 6);
        assert!(g.num_edges() >= 6);
        for u in 0..g.num_nodes() {
            for &(_, w) in g.neighbors(u) {
                assert!(w > 0.0 && w <= 1.0);
            }
        }
        // No cross-cluster edges for k=2 on this dataset.
        for u in 0..3 {
            for &(v, _) in g.neighbors(u) {
                assert!(v < 3);
            }
        }
    }

    #[test]
    fn binary_and_inverse_distance_weightings() {
        let feats = two_clusters();
        let lists = exact_knn_indices(&feats, 2, 1).unwrap();
        let binary = graph_from_neighbor_lists(&lists, EdgeWeighting::Binary).unwrap();
        for u in 0..binary.num_nodes() {
            for &(_, w) in binary.neighbors(u) {
                assert_eq!(w, 1.0);
            }
        }
        let inv = graph_from_neighbor_lists(&lists, EdgeWeighting::InverseDistance).unwrap();
        for u in 0..inv.num_nodes() {
            for &(_, w) in inv.neighbors(u) {
                assert!(w > 1.0); // distances are < 1 here
            }
        }
    }

    #[test]
    fn explicit_sigma_is_respected_and_validated() {
        let feats = two_clusters();
        let lists = exact_knn_indices(&feats, 2, 1).unwrap();
        let g = graph_from_neighbor_lists(&lists, EdgeWeighting::HeatKernel { sigma: Some(0.05) })
            .unwrap();
        assert!(g.num_edges() > 0);
        assert!(
            graph_from_neighbor_lists(&lists, EdgeWeighting::HeatKernel { sigma: Some(0.0) })
                .is_err()
        );
    }

    #[test]
    fn sigma_estimation_degenerate_cases() {
        assert_eq!(estimate_sigma(&[]), 1.0);
        assert_eq!(estimate_sigma(&[vec![]]), 1.0);
        // All-equal distances: the mean is used directly.
        let sigma = estimate_sigma(&[vec![(1, 2.0), (2, 2.0)]]);
        assert!((sigma - 2.0).abs() < 1e-12);
        // All-zero distances (duplicate points): falls back to 1.0.
        let sigma = estimate_sigma(&[vec![(1, 0.0), (2, 0.0)]]);
        assert_eq!(sigma, 1.0);
        // Concentrated distances (mean >> std): σ tracks the mean so edge
        // weights stay well away from underflow.
        let sigma = estimate_sigma(&[vec![(1, 10.0), (2, 10.1), (3, 9.9)]]);
        assert!(sigma > 9.0);
    }

    #[test]
    fn duplicate_points_still_build_a_graph() {
        let feats = vec![vec![1.0, 1.0]; 5];
        let g = knn_graph(&feats, KnnConfig::with_k(2)).unwrap();
        assert_eq!(g.num_nodes(), 5);
        assert!(g.num_edges() > 0);
    }

    #[test]
    fn approximate_knn_mostly_agrees_with_exact() {
        // Grid of points: approximate search with several probes should
        // recover the large majority of true neighbours.
        let mut feats = Vec::new();
        for i in 0..12 {
            for j in 0..12 {
                feats.extend([i as f64, j as f64]);
            }
        }
        let feats = FeatureMatrix::from_vec(2, feats).unwrap();
        let exact = exact_knn_indices(&feats, 4, 0).unwrap();
        let approx = approximate_knn_indices(&feats, 4, 9, 4, 42).unwrap();
        let mut hits = 0usize;
        let mut total = 0usize;
        for (e, a) in exact.iter().zip(approx.iter()) {
            let aset: std::collections::HashSet<usize> = a.iter().map(|&(j, _)| j).collect();
            for &(j, _) in e {
                total += 1;
                if aset.contains(&j) {
                    hits += 1;
                }
            }
        }
        let recall = hits as f64 / total as f64;
        assert!(recall > 0.7, "approximate recall too low: {recall}");
    }

    #[test]
    fn approximate_falls_back_to_exact_for_tiny_inputs() {
        let feats = two_clusters();
        let exact = exact_knn_indices(&feats, 2, 1).unwrap();
        let approx = approximate_knn_indices(&feats, 2, 4, 1, 7).unwrap();
        assert_eq!(exact, approx);
    }

    #[test]
    fn nearest_rows_ranks_by_distance_then_row_and_honours_the_skip() {
        let feats = two_clusters();
        // Rows 1 and 2 are equidistant from the query: the lower row first.
        let hits = nearest_rows(&feats, &[0.05, 0.05], 3, |_| false);
        let d2 = |row: usize| squared_euclidean_unchecked(&[0.05, 0.05], feats.row(row));
        assert_eq!(hits, vec![(0, d2(0)), (1, d2(1)), (2, d2(2))]);
        assert_eq!(d2(1), d2(2));
        let hits = nearest_rows(&feats, &[0.05, 0.05], 2, |row| row == 1);
        assert_eq!(hits, vec![(0, d2(0)), (2, d2(2))]);
        // Fewer eligible rows than `k`, and an unbounded `k`.
        let hits = nearest_rows(&feats, &[0.05, 0.05], usize::MAX, |row| row < 4);
        assert_eq!(hits, vec![(4, d2(4)), (5, d2(5))]);
    }
}

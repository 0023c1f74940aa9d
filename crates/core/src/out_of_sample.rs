//! Out-of-sample queries (Section 4.6.2 of the paper).
//!
//! When the query image is not part of the database, Mogul does **not**
//! rebuild the k-NN graph or the factorization. Instead the query vector `q`
//! is populated with the query's nearest database neighbours: the nearest
//! cluster is found through per-cluster average features (centroids), the
//! neighbours are drawn from that cluster, and their heat-kernel similarities
//! become the weights of a multi-node query vector processed by the ordinary
//! Algorithm 2 search. Both phases are `O(n)`; Table 2 of the paper breaks
//! the total time into exactly these two parts.

use crate::mogul::{MogulIndex, SearchMode, SearchStats, SearchWorkspace};
use crate::ranking::{check_k, TopKResult};
use crate::topk::{f64_sort_key, BoundedTopK, Entry};
use crate::{CoreError, Result};
use mogul_sparse::vector::squared_euclidean_unchecked;
use mogul_sparse::FeatureMatrix;
use std::sync::Arc;
use std::time::Instant;

/// The workspace of the out-of-sample entry points — the same struct as
/// [`SearchWorkspace`], which also carries the phase-1 scratch.
///
/// An out-of-sample query has two phases (Section 4.6.2): the nearest-cluster
/// / nearest-neighbour scan that builds the weighted query vector, and the
/// ordinary Algorithm 2 search over it. Keeping the scratch of both in a
/// caller-owned workspace lets a serving loop (see `mogul-serve`) answer
/// repeated queries with zero heap allocations on the substitution/pruning
/// path after warm-up; results are bit-identical to the allocating
/// [`OutOfSampleIndex::query`].
pub type OosWorkspace = SearchWorkspace;

/// Recycled phase-1 buffers (held by [`SearchWorkspace`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct NeighborScratch {
    /// Buffer of the bounded nearest-cluster selection
    /// (`(centroid distance² key, cluster)` pairs).
    cluster_order: Vec<(u64, usize)>,
    /// Buffer of the bounded nearest-neighbour selection.
    candidates: Vec<Entry<(u64, usize), (usize, f64)>>,
    /// `(node, euclidean distance)` pairs of the selected neighbours,
    /// nearest first.
    scored: Vec<(usize, f64)>,
    /// Normalized heat-kernel weighted multi-node query vector.
    weights: Vec<(usize, f64)>,
}

/// Configuration of the out-of-sample query path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutOfSampleConfig {
    /// How many database neighbours form the query vector.
    pub num_neighbors: usize,
    /// How many nearest clusters (by centroid distance) are scanned when
    /// collecting neighbours. 1 reproduces the paper exactly; larger values
    /// trade a little speed for robustness on fragmented clusterings.
    pub cluster_probes: usize,
}

impl Default for OutOfSampleConfig {
    fn default() -> Self {
        OutOfSampleConfig {
            num_neighbors: 5,
            cluster_probes: 1,
        }
    }
}

/// One lane of a query panel, asked for with its own `k`. Either kind is a
/// seed of the ordinary Algorithm 2 (Section 4.6.2): an `Item` is its own
/// node with weight 1, excluded from its own answer, and a `Feature` is
/// phase 1's heat-kernel weights over its nearest database nodes. An
/// `Item` is an original node id of an [`OutOfSampleIndex`], a stable id of
/// an [`IndexSnapshot`](crate::update::IndexSnapshot) and a global id of a
/// [`ShardedSnapshot`](crate::ShardedSnapshot).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query<'a> {
    /// An item already in the database.
    Item(usize),
    /// An arbitrary feature vector.
    Feature(&'a [f64]),
}

/// Result of one query lane, including the timing breakdown that Table 2
/// of the paper reports (an [`Query::Item`] lane has no neighbours and no
/// phase-1 time).
#[derive(Debug, Clone, Default)]
pub struct OutOfSampleResult {
    /// Top-k database nodes.
    pub top_k: TopKResult,
    /// Database nodes used to form the query vector (nearest first).
    pub neighbors: Vec<usize>,
    /// Seconds spent finding the nearest cluster and neighbours.
    pub nearest_neighbor_secs: f64,
    /// Seconds of the top-k search: the lane's even share of its panel's
    /// phase-2 time, whatever kind its panel mates are.
    pub top_k_secs: f64,
    /// Work counters of the top-k search.
    pub stats: SearchStats,
}

impl OutOfSampleResult {
    /// Total query time in seconds.
    pub fn total_secs(&self) -> f64 {
        self.nearest_neighbor_secs + self.top_k_secs
    }
}

/// An out-of-sample query index: a [`MogulIndex`] plus the database features
/// and per-cluster centroids.
#[derive(Debug, Clone)]
pub struct OutOfSampleIndex {
    index: MogulIndex,
    /// Shared with the writer and the snapshots of an updatable index.
    features: Arc<FeatureMatrix>,
    /// Centroid of each ordering cluster, one row per cluster (the row of an
    /// empty cluster is never read).
    centroids: FeatureMatrix,
    /// Members (original node ids) of each ordering cluster.
    members: Vec<Vec<usize>>,
    config: OutOfSampleConfig,
}

impl OutOfSampleIndex {
    /// Attach database features (row `i` being node `i`) to a prebuilt
    /// [`MogulIndex`] and compute its per-cluster centroids.
    pub fn new(
        index: MogulIndex,
        features: Arc<FeatureMatrix>,
        config: OutOfSampleConfig,
    ) -> Result<Self> {
        if features.len() != index.num_nodes() {
            return Err(CoreError::InvalidInput(format!(
                "index covers {} nodes but {} feature vectors were supplied",
                index.num_nodes(),
                features.len()
            )));
        }
        if config.num_neighbors == 0 {
            return Err(CoreError::InvalidInput(
                "out-of-sample queries need at least one neighbour".into(),
            ));
        }

        // Cluster membership and centroids in the original node id space.
        let ordering = index.ordering();
        let num_clusters = ordering.num_clusters();
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); num_clusters];
        for permuted in 0..ordering.len() {
            let cluster = ordering.cluster_of_permuted(permuted);
            members[cluster].push(ordering.permutation.old_index(permuted));
        }
        let dim = features.dim();
        let mut centroids = vec![0.0; num_clusters * dim];
        for (centroid, cluster_members) in centroids.chunks_exact_mut(dim).zip(&members) {
            for &node in cluster_members {
                for (c, v) in centroid.iter_mut().zip(features.row(node)) {
                    *c += v;
                }
            }
            if !cluster_members.is_empty() {
                for c in centroid.iter_mut() {
                    *c /= cluster_members.len() as f64;
                }
            }
        }

        Ok(OutOfSampleIndex {
            index,
            features,
            centroids: FeatureMatrix::from_vec(dim, centroids)?,
            members,
            config,
        })
    }

    /// The wrapped Mogul index.
    pub fn index(&self) -> &MogulIndex {
        &self.index
    }

    /// The database feature vectors, row `i` being original node `i`.
    pub fn features(&self) -> &Arc<FeatureMatrix> {
        &self.features
    }

    /// Dimensionality of the database feature vectors.
    pub fn feature_dim(&self) -> usize {
        self.features.dim()
    }

    /// Centroids of the non-empty clusters, with their cluster numbers.
    fn live_centroids(&self) -> impl Iterator<Item = (usize, &[f64])> {
        self.centroids
            .rows()
            .enumerate()
            .filter(|&(cluster, _)| !self.members[cluster].is_empty())
    }

    /// The out-of-sample query configuration.
    pub fn config(&self) -> OutOfSampleConfig {
        self.config
    }

    /// Answer an out-of-sample query given its raw feature vector.
    ///
    /// Allocates fresh scratch per call; loops that answer many queries
    /// should reuse an [`OosWorkspace`] via [`OutOfSampleIndex::query_in`].
    pub fn query(&self, feature: &[f64], k: usize) -> Result<OutOfSampleResult> {
        self.query_in(&mut OosWorkspace::new(), feature, k)
    }

    /// [`OutOfSampleIndex::query`] with caller-owned scratch: the batch of
    /// one feature.
    pub fn query_in(
        &self,
        ws: &mut OosWorkspace,
        feature: &[f64],
        k: usize,
    ) -> Result<OutOfSampleResult> {
        let mut results = self.query_batch_in(ws, &[feature], k)?;
        Ok(results.pop().expect("a batch of one yields one result"))
    }

    /// [`OutOfSampleIndex::query`] over many feature vectors: the lanes of
    /// [`OutOfSampleIndex::query_lanes_in`].
    pub fn query_batch_in(
        &self,
        ws: &mut SearchWorkspace,
        features: &[&[f64]],
        k: usize,
    ) -> Result<Vec<OutOfSampleResult>> {
        let lanes: Vec<_> = features.iter().map(|&f| (Query::Feature(f), k)).collect();
        self.query_lanes_in(ws, &lanes)
    }

    /// Queries of either kind, each with its own `k` — the one query body of
    /// this index. Each lane resolves to a seed ([`Query`]; phase 1 — nearest
    /// cluster(s) by centroid, nearest neighbours inside them — for a
    /// feature), and phase 2 packs the seeds into
    /// [`PANEL_WIDTH`](crate::PANEL_WIDTH)-wide panels of the Algorithm 2
    /// engine, whatever their kinds and `k`: the factor structure is
    /// traversed once per panel instead of once per query. Rankings,
    /// neighbours and work counters of a lane do not depend on its panel
    /// mates; only the timing split does — `top_k_secs` is each lane's even
    /// share of its panel's phase-2 wall clock, whatever kind its panel
    /// mates are. One invalid lane fails the whole call.
    pub fn query_lanes_in(
        &self,
        ws: &mut SearchWorkspace,
        lanes: &[(Query, usize)],
    ) -> Result<Vec<OutOfSampleResult>> {
        // Each lane's answer, phase 1 filled in while it is staged.
        let mut out = Vec::with_capacity(lanes.len());
        let searched =
            self.index
                .search_panels_in(ws, lanes, SearchMode::Pruned, |ws, &(query, k)| {
                    check_k(k)?;
                    let mut result = OutOfSampleResult::default();
                    let pushed = match query {
                        Query::Item(node) => {
                            self.index
                                .batch_push_lane(ws, &[(node, 1.0)], Some(node), k)
                        }
                        Query::Feature(feature) => {
                            let nn_start = Instant::now();
                            self.collect_query_weights(&mut ws.neighbors, feature)?;
                            result.nearest_neighbor_secs = nn_start.elapsed().as_secs_f64();
                            result.neighbors =
                                ws.neighbors.scored.iter().map(|&(n, _)| n).collect();
                            let weights = std::mem::take(&mut ws.neighbors.weights);
                            let pushed = self.index.batch_push_lane(ws, &weights, None, k);
                            ws.neighbors.weights = weights;
                            pushed
                        }
                    };
                    out.push(result);
                    pushed
                })?;
        for (result, (top_k, stats, top_k_secs)) in out.iter_mut().zip(searched) {
            (result.top_k, result.stats, result.top_k_secs) = (top_k, stats, top_k_secs);
        }
        Ok(out)
    }

    /// Smallest squared Euclidean distance from `feature` to any non-empty
    /// cluster centroid of this index, or `None` when the index holds no
    /// non-empty cluster or `feature` has the wrong dimension.
    ///
    /// This is the routing signal of the sharded index: a query or insert is
    /// sent to the shard whose nearest centroid is nearest overall — the same
    /// centroids phase 1 of the out-of-sample search probes, so routing and
    /// in-shard cluster selection agree with each other.
    pub fn min_centroid_distance2(&self, feature: &[f64]) -> Option<f64> {
        if feature.len() != self.feature_dim() || !feature.iter().all(|v| v.is_finite()) {
            return None;
        }
        self.live_centroids()
            .map(|(_, c)| squared_euclidean_unchecked(feature, c))
            .min_by(f64::total_cmp)
    }

    /// Phase 1 of Section 4.6.2: validate `feature`, find the nearest
    /// non-empty cluster(s), select the `num_neighbors` nearest members, and
    /// leave the selected `(node, distance)` pairs in `ws.scored` (nearest
    /// first) and the normalized heat-kernel query vector in `ws.weights`.
    ///
    /// Both selections run through the shared bounded top-k collector
    /// (`O(n log k)`, no full sort); ties are pinned to the earlier
    /// candidate, matching the stable sort this replaced.
    fn collect_query_weights(&self, ws: &mut NeighborScratch, feature: &[f64]) -> Result<()> {
        check_feature(feature, self.feature_dim())?;
        let non_empty = self.live_centroids().count();
        if non_empty == 0 {
            return Err(CoreError::InvalidInput(
                "the database holds no non-empty clusters".into(),
            ));
        }
        let probes = self.config.cluster_probes.max(1).min(non_empty);
        let mut nearest_clusters =
            BoundedTopK::with_buffer(probes, std::mem::take(&mut ws.cluster_order));
        for (cluster, c) in self.live_centroids() {
            let d2 = squared_euclidean_unchecked(feature, c);
            nearest_clusters.offer((f64_sort_key(d2), cluster));
        }
        let cluster_order = nearest_clusters.into_sorted_vec();

        // Nearest neighbours across the probed clusters; the tie-break
        // position follows the probe order (nearest cluster first), exactly
        // like the concatenate-then-stable-sort this replaces.
        let mut nearest = BoundedTopK::with_buffer(
            self.config.num_neighbors,
            std::mem::take(&mut ws.candidates),
        );
        let mut position = 0usize;
        for &(_, cluster) in &cluster_order {
            for &node in &self.members[cluster] {
                let d = squared_euclidean_unchecked(feature, self.features.row(node)).sqrt();
                nearest.offer(Entry {
                    key: (f64_sort_key(d), position),
                    value: (node, d),
                });
                position += 1;
            }
        }
        ws.cluster_order = cluster_order;
        let mut picked = nearest.into_sorted_vec();
        ws.scored.clear();
        ws.scored.extend(picked.iter().map(|e| e.value));
        picked.clear();
        ws.candidates = picked;

        heat_kernel_weights(&ws.scored, &mut ws.weights);
        Ok(())
    }
}

/// Validate an out-of-sample query feature against the indexed dimension
/// `dim`: the right length, every component finite.
pub(crate) fn check_feature(feature: &[f64], dim: usize) -> Result<()> {
    if feature.len() != dim {
        return Err(CoreError::DimensionMismatch {
            op: "out-of-sample query feature",
            left: (1, dim),
            right: (1, feature.len()),
        });
    }
    if !feature.iter().all(|v| v.is_finite()) {
        return Err(CoreError::InvalidInput(
            "query feature contains non-finite values".into(),
        ));
    }
    Ok(())
}

/// Heat-kernel weights of an out-of-sample query over its selected
/// `(node, distance)` neighbours, written to `weights`: `σ` is the mean
/// distance, each weight is `exp(−d²/2σ²)`, and the weights are normalized
/// to sum 1 (uniform when every one of them underflows).
pub(crate) fn heat_kernel_weights(scored: &[(usize, f64)], weights: &mut Vec<(usize, f64)>) {
    let sigma = {
        let mean: f64 = scored.iter().map(|&(_, d)| d).sum::<f64>() / scored.len().max(1) as f64;
        mean.max(1e-12)
    };
    weights.clear();
    weights.extend(
        scored
            .iter()
            .map(|&(node, d)| (node, (-d * d / (2.0 * sigma * sigma)).exp())),
    );
    let total: f64 = weights.iter().map(|&(_, w)| w).sum();
    if total > 1e-300 {
        for w in weights.iter_mut() {
            w.1 /= total;
        }
    } else {
        let uniform = 1.0 / weights.len().max(1) as f64;
        for w in weights.iter_mut() {
            w.1 = uniform;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mogul::MogulConfig;
    use mogul_data::coil::{coil_like, CoilLikeConfig};
    use mogul_graph::knn::{knn_graph, KnnConfig};

    fn build_index() -> (
        mogul_data::Dataset,
        Vec<(Vec<f64>, usize)>,
        OutOfSampleIndex,
    ) {
        let data = coil_like(&CoilLikeConfig {
            num_objects: 6,
            poses_per_object: 16,
            dim: 12,
            noise: 0.02,
            ..Default::default()
        })
        .unwrap();
        let (db, queries) = data.split_out_queries(6, 11).unwrap();
        let graph = knn_graph(db.features(), KnnConfig::with_k(5)).unwrap();
        let index = MogulIndex::build(&graph, MogulConfig::default()).unwrap();
        let features = Arc::new(db.features().clone());
        let oos = OutOfSampleIndex::new(index, features, OutOfSampleConfig::default()).unwrap();
        (db, queries, oos)
    }

    #[test]
    fn out_of_sample_retrieval_finds_the_right_object() {
        let (db, queries, oos) = build_index();
        let mut correct = 0usize;
        let mut total = 0usize;
        for (feature, label) in &queries {
            let result = oos.query(feature, 5).unwrap();
            assert_eq!(result.top_k.len(), 5);
            assert!(!result.neighbors.is_empty());
            assert!(result.total_secs() >= 0.0);
            for node in result.top_k.nodes() {
                total += 1;
                if db.label(node) == *label {
                    correct += 1;
                }
            }
        }
        let precision = correct as f64 / total as f64;
        assert!(
            precision > 0.7,
            "out-of-sample retrieval precision too low: {precision}"
        );
    }

    #[test]
    fn workspace_reuse_matches_allocating_query() {
        // One workspace reused across every query must reproduce the
        // allocating API bit for bit (ranking, neighbours and work counters;
        // wall-clock timings naturally differ).
        let (_, queries, oos) = build_index();
        let mut ws = OosWorkspace::new();
        for (feature, _) in &queries {
            let fresh = oos.query(feature, 5).unwrap();
            let reused = oos.query_in(&mut ws, feature, 5).unwrap();
            assert_eq!(fresh.top_k, reused.top_k);
            assert_eq!(fresh.neighbors, reused.neighbors);
            assert_eq!(fresh.stats, reused.stats);
        }
    }

    #[test]
    fn timing_breakdown_is_reported() {
        let (_, queries, oos) = build_index();
        let result = oos.query(&queries[0].0, 3).unwrap();
        assert!(result.nearest_neighbor_secs >= 0.0);
        assert!(result.top_k_secs >= 0.0);
        assert!(result.total_secs() >= result.top_k_secs);
    }

    #[test]
    fn neighbors_come_from_one_or_few_clusters() {
        let (_, queries, oos) = build_index();
        let result = oos.query(&queries[1].0, 4).unwrap();
        assert!(result.neighbors.len() <= OutOfSampleConfig::default().num_neighbors);
        // All neighbours are valid database nodes.
        for &n in &result.neighbors {
            assert!(n < oos.index().num_nodes());
        }
    }

    #[test]
    fn validation() {
        let (db, queries, oos) = build_index();
        // Wrong feature dimension.
        assert!(oos.query(&[1.0, 2.0], 3).is_err());
        // Non-finite feature.
        let mut bad = queries[0].0.clone();
        bad[0] = f64::NAN;
        assert!(oos.query(&bad, 3).is_err());
        // k = 0.
        assert!(oos.query(&queries[0].0, 0).is_err());

        // Mismatched feature count at construction.
        let graph = knn_graph(db.features(), KnnConfig::with_k(5)).unwrap();
        let index = MogulIndex::build(&graph, MogulConfig::default()).unwrap();
        let three = Arc::new(db.features().select_rows(0..3));
        let result = OutOfSampleIndex::new(index.clone(), three, Default::default());
        assert!(matches!(result, Err(CoreError::InvalidInput(_))));
        // Zero neighbours.
        assert!(OutOfSampleIndex::new(
            index,
            Arc::new(db.features().clone()),
            OutOfSampleConfig {
                num_neighbors: 0,
                cluster_probes: 1
            }
        )
        .is_err());
    }
}

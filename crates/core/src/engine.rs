//! High-level retrieval engine: the "downstream user" API.
//!
//! The lower-level types (`MogulIndex`, `OutOfSampleIndex`, the k-NN graph
//! builders) expose every knob of the paper. Most applications, however, just
//! want "index these feature vectors, then give me the top-k for a query" —
//! that is what [`RetrievalEngine`] provides: one builder call performs the
//! whole precomputation pipeline (k-NN graph → clustering → ordering →
//! factorization → centroids) and the engine then answers both in-database
//! and out-of-sample queries.

use crate::mogul::{Factorization, MogulConfig, MogulIndex, PrecomputeStats, SearchWorkspace};
use crate::out_of_sample::{OosWorkspace, OutOfSampleConfig, OutOfSampleIndex, OutOfSampleResult};
use crate::params::MrParams;
use crate::ranking::TopKResult;
use crate::{CoreError, Result};
use mogul_graph::knn::{
    approximate_knn_indices, estimate_sigma, exact_knn_indices, graph_from_neighbor_lists,
    EdgeWeighting,
};
use mogul_graph::Graph;
use mogul_sparse::FeatureMatrix;
use std::sync::Arc;

/// How the k-NN graph is constructed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphConstruction {
    /// Exact (threaded, pivot-partitioned) k-NN search.
    Exact,
    /// Partition-based approximate k-NN search; `partitions` random centers,
    /// `probes` partitions scanned per query point.
    Approximate {
        /// Number of random partitions.
        partitions: usize,
        /// Partitions scanned per point.
        probes: usize,
    },
}

/// Builder for [`RetrievalEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetrievalEngineBuilder {
    /// Manifold Ranking α.
    pub alpha: f64,
    /// Number of nearest neighbours of the k-NN graph.
    pub knn_k: usize,
    /// Exact or approximate graph construction.
    pub graph: GraphConstruction,
    /// Incomplete (Mogul) or complete (MogulE) factorization.
    pub factorization: Factorization,
    /// Number of database neighbours used for out-of-sample queries.
    pub out_of_sample_neighbors: usize,
    /// Seed used by the approximate graph construction.
    pub seed: u64,
}

impl Default for RetrievalEngineBuilder {
    fn default() -> Self {
        RetrievalEngineBuilder {
            alpha: 0.99,
            knn_k: 5,
            graph: GraphConstruction::Exact,
            factorization: Factorization::Incomplete,
            out_of_sample_neighbors: 5,
            seed: 2014,
        }
    }
}

impl RetrievalEngineBuilder {
    /// Use the exact (MogulE) factorization.
    pub fn exact_ranking(mut self) -> Self {
        self.factorization = Factorization::Complete;
        self
    }

    /// Override the Manifold Ranking α.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Override the k-NN graph degree.
    pub fn knn_k(mut self, k: usize) -> Self {
        self.knn_k = k;
        self
    }

    /// Use approximate k-NN graph construction (for larger collections).
    pub fn approximate_graph(mut self, partitions: usize, probes: usize) -> Self {
        self.graph = GraphConstruction::Approximate { partitions, probes };
        self
    }

    /// Build the engine, consuming the feature vectors (one per item).
    pub fn build(self, features: Vec<Vec<f64>>) -> Result<RetrievalEngine> {
        if features.is_empty() {
            return Err(CoreError::InvalidInput(
                "cannot build a retrieval engine over zero items".into(),
            ));
        }
        let features = Arc::new(FeatureMatrix::from_rows(&features)?);
        Ok(RetrievalEngine {
            oos: self.assemble(features, 0)?.oos,
        })
    }

    /// The one precomputation pipeline behind [`RetrievalEngineBuilder::build`]
    /// and the updatable `IndexBuilder`: neighbour lists (the exact scan on
    /// `threads` workers, `0` = one per core) → heat-kernel graph with the
    /// bandwidth estimated from those lists → [`MogulIndex::build`] →
    /// out-of-sample layer over the same feature store.
    pub(crate) fn assemble(
        &self,
        features: Arc<FeatureMatrix>,
        threads: usize,
    ) -> Result<Assembly> {
        let params = MrParams::new(self.alpha)?;
        let lists = match self.graph {
            GraphConstruction::Exact => exact_knn_indices(&features, self.knn_k, threads)?,
            GraphConstruction::Approximate { partitions, probes } => {
                // The low-level builder silently clamps out-of-range values;
                // at this level a nonsensical configuration is a caller bug
                // and deserves a loud, descriptive error.
                if partitions == 0 || probes == 0 {
                    return Err(CoreError::InvalidInput(format!(
                        "approximate graph construction needs at least one partition and one \
                         probe (got partitions = {partitions}, probes = {probes})"
                    )));
                }
                if probes > partitions {
                    return Err(CoreError::InvalidInput(format!(
                        "approximate graph construction cannot probe {probes} partitions when \
                         only {partitions} exist (probes must be ≤ partitions)"
                    )));
                }
                approximate_knn_indices(&features, self.knn_k, partitions, probes, self.seed)?
            }
        };
        // Pinned here so an updatable index weights inserted edges on the
        // scale of the initial graph.
        let sigma = estimate_sigma(&lists);
        let graph =
            graph_from_neighbor_lists(&lists, EdgeWeighting::HeatKernel { sigma: Some(sigma) })?;
        let config = MogulConfig {
            params,
            factorization: self.factorization,
            ..MogulConfig::default()
        };
        let oos = OutOfSampleIndex::with_features(
            MogulIndex::build(&graph, config)?,
            features,
            OutOfSampleConfig {
                num_neighbors: self.out_of_sample_neighbors,
                cluster_probes: 1,
            },
        )?;
        Ok(Assembly {
            sigma,
            graph,
            config,
            oos,
        })
    }
}

/// What [`RetrievalEngineBuilder::assemble`] leaves behind: the queryable
/// index plus what an updatable index keeps to edit it.
pub(crate) struct Assembly {
    /// Heat-kernel bandwidth the graph was weighted with.
    pub(crate) sigma: f64,
    /// The k-NN graph the index was factorized from.
    pub(crate) graph: Graph,
    /// Configuration the index was built with.
    pub(crate) config: MogulConfig,
    /// The index with its out-of-sample layer.
    pub(crate) oos: OutOfSampleIndex,
}

/// A ready-to-query retrieval engine over a fixed collection of items.
///
/// The engine is immutable after construction and `Send + Sync`, so one
/// instance can be shared across threads (see the `mogul-serve` crate for a
/// ready-made concurrent serving layer on top of it).
///
/// ```
/// use mogul_core::RetrievalEngine;
///
/// // Twelve items along a line: nearby items rank highest.
/// let features: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64, 0.0]).collect();
/// let engine = RetrievalEngine::builder().knn_k(3).build(features)?;
///
/// let top = engine.query_by_id(0, 3)?;       // query with an indexed item
/// assert_eq!(top.len(), 3);
/// assert!(!top.contains(0));                 // the query itself is excluded
///
/// let oos = engine.query_by_feature(&[2.5, 0.0], 3)?; // query with a new vector
/// assert_eq!(oos.top_k.len(), 3);
/// # Ok::<(), mogul_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RetrievalEngine {
    oos: OutOfSampleIndex,
}

impl RetrievalEngine {
    /// Start building an engine with the paper's default parameters.
    pub fn builder() -> RetrievalEngineBuilder {
        RetrievalEngineBuilder::default()
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.oos.index().num_nodes()
    }

    /// `true` when the engine indexes zero items (never constructed that way).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The underlying Mogul index (ordering, factors, statistics).
    pub fn index(&self) -> &MogulIndex {
        self.oos.index()
    }

    /// The underlying out-of-sample index (Mogul index + database features
    /// and per-cluster centroids).
    pub fn out_of_sample(&self) -> &OutOfSampleIndex {
        &self.oos
    }

    /// Consume the engine, yielding the out-of-sample index — the form the
    /// `mogul-serve` crate shares behind an `Arc` across query workers.
    pub fn into_out_of_sample(self) -> OutOfSampleIndex {
        self.oos
    }

    /// Precomputation statistics of the underlying index.
    pub fn precompute_stats(&self) -> PrecomputeStats {
        self.oos.index().precompute_stats()
    }

    /// Top-k items for a query that is part of the collection (the query
    /// itself is excluded from the result).
    pub fn query_by_id(&self, item: usize, k: usize) -> Result<TopKResult> {
        self.oos.index().search(item, k)
    }

    /// [`RetrievalEngine::query_by_id`] with caller-owned scratch:
    /// bit-identical results, zero allocation on the hot substitution and
    /// pruning path once the workspace is warm.
    pub fn query_by_id_in(
        &self,
        ws: &mut SearchWorkspace,
        item: usize,
        k: usize,
    ) -> Result<TopKResult> {
        self.oos.index().search_in(ws, item, k)
    }

    /// Top-k items for an arbitrary feature vector (out-of-sample query).
    pub fn query_by_feature(&self, feature: &[f64], k: usize) -> Result<OutOfSampleResult> {
        self.oos.query(feature, k)
    }

    /// [`RetrievalEngine::query_by_feature`] with caller-owned scratch (see
    /// [`OosWorkspace`]).
    pub fn query_by_feature_in(
        &self,
        ws: &mut OosWorkspace,
        feature: &[f64],
        k: usize,
    ) -> Result<OutOfSampleResult> {
        self.oos.query_in(ws, feature, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mogul_data::coil::{coil_like, CoilLikeConfig};

    fn features() -> (mogul_data::Dataset, Vec<Vec<f64>>) {
        let data = coil_like(&CoilLikeConfig {
            num_objects: 6,
            poses_per_object: 18,
            dim: 12,
            ..Default::default()
        })
        .unwrap();
        let features = data.features().to_vec();
        (data, features)
    }

    #[test]
    fn default_engine_answers_both_query_kinds() {
        let (data, feats) = features();
        let engine = RetrievalEngine::builder().build(feats).unwrap();
        assert_eq!(engine.len(), data.len());
        assert!(!engine.is_empty());
        assert!(engine.precompute_stats().l_nnz > 0);

        let in_sample = engine.query_by_id(0, 5).unwrap();
        assert_eq!(in_sample.len(), 5);
        assert!(!in_sample.contains(0));
        let same_object = in_sample
            .nodes()
            .iter()
            .filter(|&&n| data.label(n) == data.label(0))
            .count();
        assert!(same_object >= 4);

        let oos = engine.query_by_feature(data.feature(7), 5).unwrap();
        assert_eq!(oos.top_k.len(), 5);
        let same_object = oos
            .top_k
            .nodes()
            .iter()
            .filter(|&&n| data.label(n) == data.label(7))
            .count();
        assert!(same_object >= 3);
    }

    #[test]
    fn builder_options_are_respected() {
        let (_, feats) = features();
        let engine = RetrievalEngine::builder()
            .exact_ranking()
            .alpha(0.9)
            .knn_k(8)
            .build(feats.clone())
            .unwrap();
        assert_eq!(engine.index().factorization(), Factorization::Complete);
        assert!((engine.index().params().alpha - 0.9).abs() < 1e-12);

        let approx = RetrievalEngine::builder()
            .approximate_graph(10, 3)
            .build(feats)
            .unwrap();
        let top = approx.query_by_id(3, 4).unwrap();
        assert_eq!(top.len(), 4);
    }

    #[test]
    fn builder_validation() {
        assert!(RetrievalEngine::builder().build(vec![]).is_err());
        let (_, feats) = features();
        assert!(RetrievalEngine::builder().alpha(1.5).build(feats).is_err());
    }

    #[test]
    fn approximate_graph_parameters_are_validated() {
        let (_, feats) = features();
        // probes > partitions used to silently degrade (the low-level builder
        // clamps); the engine now rejects it up front with a clear message.
        for (partitions, probes) in [(4, 5), (0, 1), (4, 0), (0, 0)] {
            let err = RetrievalEngine::builder()
                .approximate_graph(partitions, probes)
                .build(feats.clone())
                .unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains("partition") || msg.contains("probe"),
                "unhelpful error for partitions={partitions}, probes={probes}: {msg}"
            );
        }
        // A valid configuration still builds.
        assert!(RetrievalEngine::builder()
            .approximate_graph(5, 5)
            .build(feats)
            .is_ok());
    }

    #[test]
    fn workspace_entry_points_match_allocating_queries() {
        let (data, feats) = features();
        let engine = RetrievalEngine::builder().build(feats).unwrap();
        let mut search_ws = crate::mogul::SearchWorkspace::new();
        let mut oos_ws = OosWorkspace::new();
        for item in [0usize, 5, 17] {
            assert_eq!(
                engine.query_by_id(item, 4).unwrap(),
                engine.query_by_id_in(&mut search_ws, item, 4).unwrap()
            );
        }
        let fresh = engine.query_by_feature(data.feature(3), 4).unwrap();
        let reused = engine
            .query_by_feature_in(&mut oos_ws, data.feature(3), 4)
            .unwrap();
        assert_eq!(fresh.top_k, reused.top_k);
        assert_eq!(fresh.neighbors, reused.neighbors);
    }
}

//! Shared experiment setup: synthetic dataset → k-NN graph → query workload,
//! at the paper's fixed settings (§5).

use crate::Result;
use mogul_core::MrParams;
use mogul_data::suite::{standard_suite, DatasetSpec, SuiteScale};
use mogul_graph::knn::{knn_graph, KnnConfig};
use mogul_graph::Graph;

/// Manifold Ranking `α` of every experiment.
pub const ALPHA: f64 = 0.99;
/// Nearest neighbours of every k-NN graph.
pub const KNN_K: usize = 5;
/// Answer nodes per query.
pub const TOP_K: usize = 5;
/// Query nodes sampled per dataset when averaging.
pub const NUM_QUERIES: usize = 10;
/// Seed of query selection, held-out splits and random orderings.
pub const SEED: u64 = 2014;
/// EMR anchor points where a figure does not sweep them.
pub const EMR_ANCHORS: usize = 10;

/// Manifold Ranking parameters at [`ALPHA`].
pub fn params() -> Result<MrParams> {
    MrParams::new(ALPHA)
}

/// One prepared dataset: features, labels, k-NN graph and query workload.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The dataset specification (name + generated data).
    pub spec: DatasetSpec,
    /// The k-NN graph over the dataset's features.
    pub graph: Graph,
    /// In-database query nodes used for averaged measurements.
    pub queries: Vec<usize>,
}

impl Scenario {
    /// Build a scenario from a dataset specification.
    pub fn build(spec: DatasetSpec) -> Result<Scenario> {
        let graph = knn_graph(spec.dataset.features(), KnnConfig::with_k(KNN_K))?;
        let queries = pick_queries(spec.dataset.len(), NUM_QUERIES, SEED);
        Ok(Scenario {
            spec,
            graph,
            queries,
        })
    }

    /// Dataset display name.
    pub fn name(&self) -> &'static str {
        self.spec.name
    }

    /// Number of points / graph nodes.
    pub fn len(&self) -> usize {
        self.spec.dataset.len()
    }

    /// `true` when the dataset is empty (never the case for the suite).
    pub fn is_empty(&self) -> bool {
        self.spec.dataset.is_empty()
    }
}

/// Deterministically spread `count` query indices over `0..n`.
pub fn pick_queries(n: usize, count: usize, seed: u64) -> Vec<usize> {
    if n == 0 || count == 0 {
        return Vec::new();
    }
    let count = count.min(n);
    let offset = (seed as usize) % n;
    (0..count).map(|i| (offset + i * n / count) % n).collect()
}

/// Build all four standard scenarios in the paper's size order.
pub fn standard_scenarios(scale: SuiteScale) -> Result<Vec<Scenario>> {
    limited_scenarios(scale, usize::MAX)
}

/// Build only the first `limit` standard scenarios (smallest datasets first);
/// used by tests and by experiments that are too expensive for the larger
/// datasets.
pub fn limited_scenarios(scale: SuiteScale, limit: usize) -> Result<Vec<Scenario>> {
    standard_suite(scale)?
        .into_iter()
        .take(limit)
        .map(Scenario::build)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_are_deterministic_and_in_range() {
        let q = pick_queries(100, 10, 7);
        assert_eq!(q.len(), 10);
        assert!(q.iter().all(|&i| i < 100));
        assert_eq!(q, pick_queries(100, 10, 7));
        assert_ne!(q, pick_queries(100, 10, 8));
        assert!(pick_queries(0, 5, 1).is_empty());
        assert!(pick_queries(10, 0, 1).is_empty());
        assert_eq!(pick_queries(3, 10, 0).len(), 3);
    }

    #[test]
    fn limited_scenarios_build_graphs() {
        let scenarios = limited_scenarios(SuiteScale::Tiny, 1).unwrap();
        assert_eq!(scenarios.len(), 1);
        let s = &scenarios[0];
        assert_eq!(s.name(), "COIL-100-like");
        assert!(!s.is_empty());
        assert_eq!(s.graph.num_nodes(), s.len());
        assert!(s.graph.num_edges() > 0);
        assert_eq!(s.queries.len(), NUM_QUERIES);
        assert!(params().is_ok());
    }
}

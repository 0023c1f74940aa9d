//! Mogul's query-independent precomputation (Sections 4.2.1–4.2.2).
//!
//! Everything here happens once per database: cluster the k-NN graph, derive
//! the node permutation of Algorithm 1, permute `W = I − α C^{-1/2} A C^{-1/2}`,
//! factorize it (`L D Lᵀ`, incomplete or complete), and precompute the
//! per-cluster quantities of the upper-bounding estimation. Queries are then
//! answered by [`super::search`].

use crate::mogul::bounds::ClusterBounds;
use crate::mogul::layout::{SearchLayout, StrictRows};
use crate::params::MrParams;
use crate::Result;
use mogul_graph::adjacency::ranking_system_matrix;
use mogul_graph::clustering::modularity::{modularity_clustering, ModularityConfig};
use mogul_graph::ordering::{mogul_ordering, NodeOrdering};
use mogul_graph::Graph;
use mogul_sparse::ldl::{factorize, LdlFactors};
use mogul_sparse::CsrMatrix;
use std::sync::OnceLock;
use std::time::Instant;

pub use mogul_sparse::ldl::Factorization;

/// Configuration of the index construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MogulConfig {
    /// Manifold Ranking parameters.
    pub params: MrParams,
    /// Which factorization to use.
    pub factorization: Factorization,
    /// Modularity-clustering configuration used by Algorithm 1 when the
    /// caller does not supply an ordering.
    pub clustering: ModularityConfig,
}

impl Default for MogulConfig {
    fn default() -> Self {
        MogulConfig {
            params: MrParams::default(),
            factorization: Factorization::Incomplete,
            clustering: ModularityConfig::default(),
        }
    }
}

impl MogulConfig {
    /// The MogulE (exact) configuration with default parameters.
    pub fn exact() -> Self {
        MogulConfig {
            factorization: Factorization::Complete,
            ..MogulConfig::default()
        }
    }
}

/// Wall-clock breakdown and size statistics of the precomputation, used by
/// the Figure 8 experiment and the memory-cost discussion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecomputeStats {
    /// Seconds spent clustering the graph and building the permutation
    /// (zero when a precomputed ordering was supplied).
    pub ordering_secs: f64,
    /// Seconds spent assembling and permuting `W`.
    pub assembly_secs: f64,
    /// Seconds spent in the `L D Lᵀ` factorization.
    pub factorization_secs: f64,
    /// Seconds spent laying the factors out for search (transposing `L`,
    /// folding `D` into it, the border segments) and precomputing the upper
    /// bounds.
    pub bounds_secs: f64,
    /// Non-zeros stored in `L` (including the unit diagonal).
    pub l_nnz: usize,
    /// Number of pivots the incomplete factorization had to boost
    /// (always 0 for the complete factorization).
    pub boosted_pivots: usize,
    /// Fill-in: entries of `L` beyond the lower triangle of `W` (0 for the
    /// incomplete factorization, whose pattern is that triangle).
    pub fill_in: usize,
}

impl PrecomputeStats {
    /// Total precomputation time in seconds.
    pub fn total_secs(&self) -> f64 {
        self.ordering_secs + self.assembly_secs + self.factorization_secs + self.bounds_secs
    }
}

/// The Mogul search index: permutation, factors and pruning metadata.
#[derive(Debug, Clone)]
pub struct MogulIndex {
    pub(crate) params: MrParams,
    pub(crate) factorization: Factorization,
    pub(crate) ordering: NodeOrdering,
    /// The factors as the Algorithm 2 sweeps read them: the index's only
    /// copy of `L` and `D`.
    pub(crate) layout: SearchLayout,
    pub(crate) bounds: ClusterBounds,
    pub(crate) stats: PrecomputeStats,
    /// [`MogulIndex::factor_l`]'s CSR, derived from `layout` on first call.
    pub(crate) unit_lower: OnceLock<CsrMatrix>,
}

impl MogulIndex {
    /// Build the index with the default pipeline: modularity clustering →
    /// Algorithm 1 ordering → permuted factorization → bound precomputation.
    pub fn build(graph: &Graph, config: MogulConfig) -> Result<Self> {
        let start = Instant::now();
        let clustering = modularity_clustering(graph, &config.clustering);
        let ordering = mogul_ordering(graph, &clustering)?;
        let ordering_secs = start.elapsed().as_secs_f64();
        Self::build_with_ordering_timed(graph, config, ordering, ordering_secs)
    }

    /// Build the index from a caller-supplied node ordering (used for the
    /// "Random" ordering ablations of Figures 6 and 8, and by tests).
    pub fn build_with_ordering(
        graph: &Graph,
        config: MogulConfig,
        ordering: NodeOrdering,
    ) -> Result<Self> {
        Self::build_with_ordering_timed(graph, config, ordering, 0.0)
    }

    fn build_with_ordering_timed(
        graph: &Graph,
        config: MogulConfig,
        ordering: NodeOrdering,
        ordering_secs: f64,
    ) -> Result<Self> {
        let n = graph.num_nodes();
        if ordering.len() != n {
            return Err(crate::CoreError::InvalidInput(format!(
                "ordering covers {} nodes but the graph has {n}",
                ordering.len()
            )));
        }

        let assembly_start = Instant::now();
        let adjacency = graph.adjacency_matrix();
        let w = ranking_system_matrix(&adjacency, config.params.alpha)?;
        let w_permuted = w.permute_symmetric(&ordering.permutation)?;
        let assembly_secs = assembly_start.elapsed().as_secs_f64();

        let fact_start = Instant::now();
        let LdlFactors {
            l,
            d,
            boosted_pivots,
        } = factorize(&w_permuted, config.factorization)?;
        let factorization_secs = fact_start.elapsed().as_secs_f64();
        let l_nnz = l.nnz();
        let fill_in = l_nnz - n - w_permuted.lower_triangle(false).nnz();

        // The CSR `L` lives only until its upper rows are laid out.
        let bounds_start = Instant::now();
        let upper = StrictRows::upper_of_unit_lower(&l)?;
        drop(l);
        let layout = SearchLayout::new(upper, d, &ordering)?;
        let bounds = ClusterBounds::precompute(&layout, &ordering);
        let stats = PrecomputeStats {
            ordering_secs,
            assembly_secs,
            factorization_secs,
            bounds_secs: bounds_start.elapsed().as_secs_f64(),
            l_nnz,
            boosted_pivots,
            fill_in,
        };

        Ok(MogulIndex {
            params: config.params,
            factorization: config.factorization,
            ordering,
            layout,
            bounds,
            stats,
            unit_lower: OnceLock::new(),
        })
    }

    /// Number of nodes in the indexed graph.
    pub fn num_nodes(&self) -> usize {
        self.ordering.len()
    }

    /// Manifold Ranking parameters baked into the index.
    pub fn params(&self) -> MrParams {
        self.params
    }

    /// Which factorization the index uses.
    pub fn factorization(&self) -> Factorization {
        self.factorization
    }

    /// The node ordering (permutation + cluster layout) of Algorithm 1.
    pub fn ordering(&self) -> &NodeOrdering {
        &self.ordering
    }

    /// The unit lower-triangular factor `L` in the permuted index space, as
    /// CSR with an explicit unit diagonal (used by the Figure 6
    /// sparsity-pattern experiment and by tests).
    ///
    /// The index stores `L` only in its search layout, so the first call
    /// derives this CSR from the layout's `U = Lᵀ` rows (bit for bit the
    /// factorization's output: the values are moved, never recomputed) and
    /// caches it. That is a diagnostic allocation of `O(nnz)` `usize`s,
    /// which [`MogulIndex::memory_bytes`] counts once it exists; no query
    /// reads it.
    pub fn factor_l(&self) -> &CsrMatrix {
        self.unit_lower.get_or_init(|| self.layout.unit_lower())
    }

    /// The diagonal factor `D`.
    pub fn factor_d(&self) -> &[f64] {
        self.layout.d()
    }

    /// Precomputation statistics (time breakdown, factor sizes).
    pub fn precompute_stats(&self) -> PrecomputeStats {
        self.stats
    }

    /// Estimated memory footprint of the index in bytes: the factors in
    /// their search layout (`L · D` and `U` rows, `D`, the border segments),
    /// the permutation and the bound metadata — all `O(n)` structures
    /// (Theorem 3) — plus [`MogulIndex::factor_l`]'s CSR once a caller has
    /// asked for it.
    pub fn memory_bytes(&self) -> usize {
        let idx = std::mem::size_of::<usize>();
        let val = std::mem::size_of::<f64>();
        let perm = 2 * self.ordering.len() * idx;
        let bounds: usize = (0..self.ordering.num_clusters())
            .map(|c| self.bounds.border_columns(c).len() * (idx + val) + val)
            .sum();
        let l = self
            .unit_lower
            .get()
            .map_or(0, |l| l.nnz() * (idx + val) + (l.nrows() + 1) * idx);
        perm + bounds + self.layout.memory_bytes() + l
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mogul_graph::ordering::random_ordering;

    fn two_cliques() -> Graph {
        let size = 6;
        let mut g = Graph::empty(2 * size);
        for base in [0, size] {
            for i in 0..size {
                for j in (i + 1)..size {
                    g.add_edge(base + i, base + j, 1.0).unwrap();
                }
            }
        }
        g.add_edge(0, size, 0.05).unwrap();
        g
    }

    #[test]
    fn build_produces_consistent_structures() {
        let g = two_cliques();
        let index = MogulIndex::build(&g, MogulConfig::default()).unwrap();
        assert_eq!(index.num_nodes(), 12);
        assert_eq!(index.factor_d().len(), 12);
        assert_eq!(index.factor_l().nrows(), 12);
        assert!(index.ordering().validate());
        assert!(index.ordering().num_clusters() >= 3);
        assert_eq!(index.factorization(), Factorization::Incomplete);
        assert!(index.memory_bytes() > 0);
        let stats = index.precompute_stats();
        assert!(stats.total_secs() >= 0.0);
        assert!(stats.l_nnz >= 12);
        assert_eq!(stats.fill_in, 0);
    }

    #[test]
    fn exact_mode_uses_complete_factorization() {
        let g = two_cliques();
        let approx = MogulIndex::build(&g, MogulConfig::default()).unwrap();
        let exact = MogulIndex::build(&g, MogulConfig::exact()).unwrap();
        assert_eq!(exact.factorization(), Factorization::Complete);
        assert_eq!(exact.precompute_stats().boosted_pivots, 0);
        // The complete factor has at least as many non-zeros as the
        // incomplete one (Section 5.2.1 observes the same on COIL-100).
        assert!(exact.precompute_stats().l_nnz >= approx.precompute_stats().l_nnz);
    }

    #[test]
    fn factor_is_block_structured_under_mogul_ordering() {
        let g = two_cliques();
        let index = MogulIndex::build(&g, MogulConfig::default()).unwrap();
        let ordering = index.ordering();
        let border = ordering.border_range();
        // Lemma 3: no strictly-lower entry connects two different interior clusters.
        for (i, j, v) in index.factor_l().iter() {
            if i == j || v == 0.0 {
                continue;
            }
            if border.contains(i) || border.contains(j) {
                continue;
            }
            assert_eq!(
                ordering.cluster_of_permuted(i),
                ordering.cluster_of_permuted(j),
                "interior cross-cluster entry at ({i},{j})"
            );
        }
    }

    #[test]
    fn custom_ordering_is_accepted_and_validated() {
        let g = two_cliques();
        let ordering = random_ordering(12, 5);
        let index = MogulIndex::build_with_ordering(&g, MogulConfig::default(), ordering).unwrap();
        assert_eq!(index.ordering().num_clusters(), 1);
        assert_eq!(index.precompute_stats().ordering_secs, 0.0);

        let wrong = random_ordering(5, 1);
        assert!(MogulIndex::build_with_ordering(&g, MogulConfig::default(), wrong).is_err());
    }
}

//! Mogul's top-k search (Algorithm 2 of the paper).
//!
//! Given the precomputed [`MogulIndex`], a query is answered in three steps:
//!
//! 1. Forward substitution of `L' y = q'` restricted to the query cluster
//!    `C_Q` and the border cluster `C_N` — every other entry of `y` is zero
//!    (Lemma 4).
//! 2. Back substitution of `U x' = y` for `C_N`, then for `C_Q`; these scores
//!    seed the top-k set `K` and its threshold `θ`.
//! 3. For every remaining cluster, the upper-bounding estimation
//!    `x̄'_{C_i}` (Section 4.3) is compared against `θ`; clusters that cannot
//!    contain an answer are skipped, the rest are scored via Lemma 5.
//!
//! The search also supports weighted multi-node query vectors, which is how
//! out-of-sample queries are processed (Section 4.6.2).
//!
//! The procedure itself lives in the panel engine ([`super::batch`]); the
//! entry points here stage one query as a panel of one and run it. Each comes
//! in two flavours: a convenient allocating form ([`MogulIndex::search`], …)
//! and a `*_in` form taking a caller-owned [`SearchWorkspace`] so repeated
//! queries reuse the scratch — the form the concurrent serving layer
//! (`mogul-serve`) runs per worker. Both produce bit-identical results.

use crate::mogul::batch::SearchWorkspace;
use crate::mogul::index::{Factorization, MogulIndex};
use crate::ranking::{check_k, Ranker, TopKResult};
use crate::Result;

/// How much of Mogul's machinery the search uses. The three modes correspond
/// to the three curves of Figure 5 in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMode {
    /// Full Algorithm 2: restricted substitution plus cluster pruning.
    Pruned,
    /// Restricted substitution (Lemmas 4–5) but no pruning: the scores of
    /// every cluster are computed ("W/O estimation" in Figure 5).
    NoPruning,
    /// Plain forward/back substitution over all nodes, ignoring the sparse
    /// structure ("Incomplete Cholesky" in Figure 5).
    FullSubstitution,
}

/// Counters describing how much work one search performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Interior clusters that were candidates for pruning.
    pub clusters_considered: usize,
    /// Clusters skipped thanks to the upper-bounding estimation.
    pub clusters_pruned: usize,
    /// Nodes whose approximate score was actually computed.
    pub nodes_scored: usize,
    /// Upper-bound evaluations performed.
    pub bound_evaluations: usize,
}

impl SearchStats {
    /// Fold another search's counters into this one.
    ///
    /// Scatter-gather over a sharded index answers one logical query with
    /// several per-shard searches; the caller-visible stats must be the sum
    /// of all of them, not whichever shard happened to finish last.
    pub fn merge(&mut self, other: &SearchStats) {
        self.clusters_considered += other.clusters_considered;
        self.clusters_pruned += other.clusters_pruned;
        self.nodes_scored += other.nodes_scored;
        self.bound_evaluations += other.bound_evaluations;
    }
}

impl MogulIndex {
    /// Top-k search for an in-database query node using the full Algorithm 2
    /// (restricted substitution + pruning). The query node itself is excluded
    /// from the result.
    ///
    /// Allocates fresh scratch per call; loops that answer many queries
    /// should reuse a [`SearchWorkspace`] via [`MogulIndex::search_in`].
    pub fn search(&self, query: usize, k: usize) -> Result<TopKResult> {
        self.search_in(&mut SearchWorkspace::new(), query, k)
    }

    /// [`MogulIndex::search`] with caller-owned scratch: bit-identical
    /// results, zero heap allocation on the substitution/pruning path once
    /// the workspace is warm.
    pub fn search_in(
        &self,
        ws: &mut SearchWorkspace,
        query: usize,
        k: usize,
    ) -> Result<TopKResult> {
        Ok(self
            .search_with_stats_in(ws, query, k, SearchMode::Pruned)?
            .0)
    }

    /// Top-k search with an explicit [`SearchMode`] and work counters.
    pub fn search_with_stats(
        &self,
        query: usize,
        k: usize,
        mode: SearchMode,
    ) -> Result<(TopKResult, SearchStats)> {
        self.search_with_stats_in(&mut SearchWorkspace::new(), query, k, mode)
    }

    /// [`MogulIndex::search_with_stats`] with caller-owned scratch.
    pub fn search_with_stats_in(
        &self,
        ws: &mut SearchWorkspace,
        query: usize,
        k: usize,
        mode: SearchMode,
    ) -> Result<(TopKResult, SearchStats)> {
        let mut results = self.search_batch_in(ws, &[query], k, mode)?;
        Ok(results.pop().expect("a batch of one yields one result"))
    }

    /// Top-k search for a weighted query vector given in *original* node ids
    /// (used for out-of-sample queries where `q` holds the query's neighbours).
    pub fn search_weighted(
        &self,
        query_weights: &[(usize, f64)],
        k: usize,
        mode: SearchMode,
    ) -> Result<(TopKResult, SearchStats)> {
        self.search_weighted_in(&mut SearchWorkspace::new(), query_weights, k, mode)
    }

    /// [`MogulIndex::search_weighted`] with caller-owned scratch.
    pub fn search_weighted_in(
        &self,
        ws: &mut SearchWorkspace,
        query_weights: &[(usize, f64)],
        k: usize,
        mode: SearchMode,
    ) -> Result<(TopKResult, SearchStats)> {
        check_k(k)?;
        let mut results = self.search_panels_in(ws, &[query_weights], mode, |ws, weights| {
            self.batch_push_lane(ws, weights, None, k)
        })?;
        let (top, stats, _) = results.pop().expect("a panel of one yields one result");
        Ok((top, stats))
    }

    /// Approximate ranking scores of **all** nodes (original node order),
    /// computed without pruning. This is what the accuracy experiments
    /// (P@k, retrieval precision) consume.
    pub fn all_scores(&self, query: usize) -> Result<Vec<f64>> {
        self.all_scores_in(&mut SearchWorkspace::new(), query)
    }

    /// [`MogulIndex::all_scores`] with caller-owned scratch (the returned
    /// score vector itself is still freshly allocated).
    pub fn all_scores_in(&self, ws: &mut SearchWorkspace, query: usize) -> Result<Vec<f64>> {
        self.batch_begin(ws);
        // Every score is returned: no collector runs, so `k` is unused.
        self.batch_push_lane(ws, &[(query, 1.0)], None, 0)?;
        let mut scores = Vec::new();
        self.scores_staged_in(ws, &mut scores, |_, _| Ok(()))?;
        Ok(scores)
    }

    /// [`MogulIndex::solve_ranking_system_batch_in`] for one dense right-hand
    /// side — the panel of width one.
    pub fn solve_ranking_system_in(
        &self,
        ws: &mut SearchWorkspace,
        rhs: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<()> {
        self.solve_ranking_system_batch_in(ws, rhs, 1, out)
    }
}

impl Ranker for MogulIndex {
    fn name(&self) -> &'static str {
        match self.factorization {
            Factorization::Incomplete => "Mogul",
            Factorization::Complete => "MogulE",
        }
    }

    fn num_nodes(&self) -> usize {
        self.ordering.len()
    }

    fn top_k(&self, query: usize, k: usize) -> Result<TopKResult> {
        self.search(query, k)
    }

    fn scores(&self, query: usize) -> Result<Vec<f64>> {
        self.all_scores(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::InverseSolver;
    use crate::mogul::index::MogulConfig;
    use crate::params::MrParams;
    use mogul_data::coil::{coil_like, CoilLikeConfig};
    use mogul_graph::knn::{knn_graph, KnnConfig};
    use mogul_graph::Graph;

    fn clique_chain() -> Graph {
        // Three cliques of 5 nodes connected in a chain by weak edges.
        let clique = 5;
        let groups = 3;
        let mut g = Graph::empty(clique * groups);
        for c in 0..groups {
            let base = c * clique;
            for i in 0..clique {
                for j in (i + 1)..clique {
                    g.add_edge(base + i, base + j, 1.0).unwrap();
                }
            }
        }
        g.add_edge(4, 5, 0.05).unwrap();
        g.add_edge(9, 10, 0.05).unwrap();
        g
    }

    fn coil_graph() -> (mogul_data::Dataset, Graph) {
        let data = coil_like(&CoilLikeConfig {
            num_objects: 6,
            poses_per_object: 18,
            dim: 12,
            noise: 0.02,
            ..Default::default()
        })
        .unwrap();
        let graph = knn_graph(data.features(), KnnConfig::with_k(5)).unwrap();
        (data, graph)
    }

    #[test]
    fn pruned_and_unpruned_searches_agree() {
        // Lemma 7 safety: pruning never changes the returned top-k set.
        let (_, graph) = coil_graph();
        let index = MogulIndex::build(&graph, MogulConfig::default()).unwrap();
        for query in [0usize, 17, 40, 90] {
            for k in [1usize, 5, 10] {
                let (pruned, stats_p) = index
                    .search_with_stats(query, k, SearchMode::Pruned)
                    .unwrap();
                let (unpruned, _) = index
                    .search_with_stats(query, k, SearchMode::NoPruning)
                    .unwrap();
                let (full, _) = index
                    .search_with_stats(query, k, SearchMode::FullSubstitution)
                    .unwrap();
                assert_eq!(pruned.nodes(), unpruned.nodes(), "query {query}, k {k}");
                assert_eq!(pruned.nodes(), full.nodes(), "query {query}, k {k}");
                assert!(stats_p.nodes_scored <= index.num_nodes());
            }
        }
    }

    #[test]
    fn pruning_skips_work_on_clustered_graphs() {
        let (_, graph) = coil_graph();
        let index = MogulIndex::build(&graph, MogulConfig::default()).unwrap();
        let mut total_pruned = 0usize;
        let mut total_considered = 0usize;
        for query in (0..index.num_nodes()).step_by(9) {
            let (_, stats) = index
                .search_with_stats(query, 5, SearchMode::Pruned)
                .unwrap();
            total_pruned += stats.clusters_pruned;
            total_considered += stats.clusters_considered;
        }
        assert!(total_considered > 0);
        assert!(
            total_pruned > 0,
            "expected at least some clusters to be pruned ({total_pruned}/{total_considered})"
        );
    }

    #[test]
    fn approximate_scores_track_the_exact_solution() {
        let g = clique_chain();
        let params = MrParams::new(0.9).unwrap();
        let exact = InverseSolver::new(&g, params).unwrap();
        let index = MogulIndex::build(
            &g,
            MogulConfig {
                params,
                ..MogulConfig::default()
            },
        )
        .unwrap();
        for query in [0usize, 7, 14] {
            let approx = index.all_scores(query).unwrap();
            let reference = exact.scores(query).unwrap();
            let err = mogul_sparse::vector::max_abs_diff(&approx, &reference).unwrap();
            assert!(err < 0.02, "query {query}: approximation error {err}");
        }
    }

    #[test]
    fn exact_mode_matches_inverse_solver_exactly() {
        let g = clique_chain();
        let params = MrParams::default();
        let exact = InverseSolver::new(&g, params).unwrap();
        let mogul_e = MogulIndex::build(
            &g,
            MogulConfig {
                params,
                ..MogulConfig::exact()
            },
        )
        .unwrap();
        assert_eq!(mogul_e.name(), "MogulE");
        for query in 0..g.num_nodes() {
            let a = mogul_e.all_scores(query).unwrap();
            let b = exact.scores(query).unwrap();
            assert!(
                mogul_sparse::vector::max_abs_diff(&a, &b).unwrap() < 1e-9,
                "MogulE must be exact (query {query})"
            );
            // The returned set is a valid top-4 of the exact scores: every
            // selected node scores at least as high (up to fp noise from the
            // dense inverse) as the true 4th-best non-query node.
            let top_a = mogul_e.top_k(query, 4).unwrap();
            let mut reference: Vec<f64> = b
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != query)
                .map(|(_, &s)| s)
                .collect();
            reference.sort_by(|x, y| y.partial_cmp(x).unwrap());
            let kth_best = reference[3];
            for item in top_a.items() {
                assert!(
                    b[item.node] >= kth_best - 1e-9,
                    "query {query}: node {} (exact score {}) is not a valid top-4 member (threshold {kth_best})",
                    item.node,
                    b[item.node]
                );
            }
        }
    }

    #[test]
    fn solve_ranking_system_matches_direct_solve() {
        let g = clique_chain();
        let params = MrParams::default();
        let adjacency = g.adjacency_matrix();
        let w = mogul_graph::adjacency::ranking_system_matrix(&adjacency, params.alpha).unwrap();
        let exact = MogulIndex::build(
            &g,
            MogulConfig {
                params,
                ..MogulConfig::exact()
            },
        )
        .unwrap();
        let approx = MogulIndex::build(
            &g,
            MogulConfig {
                params,
                ..MogulConfig::default()
            },
        )
        .unwrap();
        let mut rhs = vec![0.0; g.num_nodes()];
        rhs[3] = 1.0;
        rhs[11] = -0.5;
        let mut ws = SearchWorkspace::new();
        let (mut x, mut x_approx) = (Vec::new(), Vec::new());
        // Complete factorization: exact inverse application.
        exact
            .solve_ranking_system_in(&mut ws, &rhs, &mut x)
            .unwrap();
        let x_ref = w.to_dense().solve(&rhs).unwrap();
        assert!(mogul_sparse::vector::max_abs_diff(&x, &x_ref).unwrap() < 1e-9);
        // Incomplete factorization: the usual approximation quality.
        approx
            .solve_ranking_system_in(&mut ws, &rhs, &mut x_approx)
            .unwrap();
        assert!(mogul_sparse::vector::max_abs_diff(&x_approx, &x_ref).unwrap() < 0.05);
        // Validation rejects a right-hand side of the wrong length.
        assert!(exact
            .solve_ranking_system_in(&mut ws, &[1.0], &mut x)
            .is_err());
    }

    #[test]
    fn retrieval_stays_within_the_query_clique() {
        let g = clique_chain();
        let index = MogulIndex::build(&g, MogulConfig::default()).unwrap();
        let top = index.search(2, 4).unwrap();
        assert_eq!(top.len(), 4);
        assert!(!top.contains(2));
        for item in top.items() {
            assert!(item.node < 5, "top-4 must stay inside the query clique");
        }
    }

    #[test]
    fn weighted_multi_node_queries_blend_results() {
        let g = clique_chain();
        let index = MogulIndex::build(&g, MogulConfig::default()).unwrap();
        // Query weights concentrated on clique 0 should retrieve clique 0.
        let (top, _) = index
            .search_weighted(&[(0, 0.6), (1, 0.4)], 3, SearchMode::Pruned)
            .unwrap();
        for item in top.items() {
            assert!(item.node < 5);
        }
        // Invalid weights are rejected.
        assert!(index
            .search_weighted(&[(0, f64::NAN)], 3, SearchMode::Pruned)
            .is_err());
        assert!(index
            .search_weighted(&[(999, 1.0)], 3, SearchMode::Pruned)
            .is_err());
    }

    #[test]
    fn ranker_interface_and_validation() {
        let g = clique_chain();
        let index = MogulIndex::build(&g, MogulConfig::default()).unwrap();
        assert_eq!(index.name(), "Mogul");
        assert_eq!(Ranker::num_nodes(&index), 15);
        assert!(index.search(99, 3).is_err());
        assert!(index.search(0, 0).is_err());
        let scores = index.scores(0).unwrap();
        assert_eq!(scores.len(), 15);
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn scores_are_query_dominated_and_nonnegative_on_knn_graphs() {
        let (_, graph) = coil_graph();
        let index = MogulIndex::build(&graph, MogulConfig::default()).unwrap();
        let scores = index.all_scores(10).unwrap();
        let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            (scores[10] - max).abs() < 1e-9,
            "query should score highest"
        );
        // Approximation can introduce small negative values but nothing large.
        assert!(scores.iter().all(|&s| s > -1e-3));
    }

    #[test]
    fn retrieval_precision_against_ground_truth_labels() {
        let (data, graph) = coil_graph();
        let index = MogulIndex::build(&graph, MogulConfig::default()).unwrap();
        let mut correct = 0usize;
        let mut total = 0usize;
        for query in (0..data.len()).step_by(7) {
            let top = index.search(query, 5).unwrap();
            for node in top.nodes() {
                total += 1;
                if data.label(node) == data.label(query) {
                    correct += 1;
                }
            }
        }
        let precision = correct as f64 / total as f64;
        assert!(
            precision > 0.9,
            "retrieval precision should exceed 90% as in the paper, got {precision}"
        );
    }
}

//! The `O(n³)` inverse-matrix baseline ("Inverse" in the experiments).
//!
//! Equation (2) of the paper:
//! `x* = (1 − α)(I − α C^{-1/2} A C^{-1/2})^{-1} q`. This solver materializes
//! the dense inverse once (`O(n³)` time, `O(n²)` space) and answers each
//! query with a dense matrix-vector product — exactly the approach whose
//! cost motivates Mogul. It doubles as the ground truth for the `P@k`
//! accuracy metric.

use crate::params::MrParams;
use crate::ranking::{check_k, check_query, Ranker, TopKResult};
use crate::Result;
use mogul_graph::adjacency::ranking_system_matrix;
use mogul_graph::Graph;
use mogul_sparse::{CsrMatrix, DenseMatrix};

/// Dense inverse-matrix Manifold Ranking solver.
#[derive(Debug, Clone)]
pub struct InverseSolver {
    inverse: DenseMatrix,
    params: MrParams,
}

impl InverseSolver {
    /// Precompute the dense inverse of `I − α C^{-1/2} A C^{-1/2}`.
    pub fn new(graph: &Graph, params: MrParams) -> Result<Self> {
        Self::from_adjacency(&graph.adjacency_matrix(), params)
    }

    /// Same as [`InverseSolver::new`] but starting from an adjacency matrix.
    pub fn from_adjacency(adjacency: &CsrMatrix, params: MrParams) -> Result<Self> {
        let w = ranking_system_matrix(adjacency, params.alpha)?;
        let inverse = w.to_dense().inverse()?;
        Ok(InverseSolver { inverse, params })
    }
}

impl Ranker for InverseSolver {
    fn name(&self) -> &'static str {
        "Inverse"
    }

    fn num_nodes(&self) -> usize {
        self.inverse.nrows()
    }

    fn top_k(&self, query: usize, k: usize) -> Result<TopKResult> {
        check_k(k)?;
        let scores = self.scores(query)?;
        Ok(TopKResult::from_scores(&scores, k, Some(query)))
    }

    fn scores(&self, query: usize) -> Result<Vec<f64>> {
        check_query(query, self.num_nodes())?;
        // x* = (1 − α) M⁻¹ e_q  — i.e. the q-th column of M⁻¹, scaled.
        let scale = self.params.query_scale();
        Ok((0..self.num_nodes())
            .map(|i| scale * self.inverse.get(i, query))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mogul_graph::Graph;

    /// Two triangles joined by a bridge; node 0 queries should rank its own
    /// triangle first.
    fn bridged_triangles() -> Graph {
        Graph::from_edges(
            6,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (0, 2, 1.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (3, 5, 1.0),
                (2, 3, 0.5),
            ],
        )
        .unwrap()
    }

    #[test]
    fn scores_satisfy_the_linear_system() {
        let g = bridged_triangles();
        let params = MrParams::default();
        let solver = InverseSolver::new(&g, params).unwrap();
        let scores = solver.scores(0).unwrap();
        // Check (I − αS) x = (1 − α) e_q directly.
        let w = ranking_system_matrix(&g.adjacency_matrix(), params.alpha).unwrap();
        let wx = w.matvec(&scores).unwrap();
        let mut expected = vec![0.0; 6];
        expected[0] = params.query_scale();
        assert!(mogul_sparse::vector::max_abs_diff(&wx, &expected).unwrap() < 1e-10);
    }

    #[test]
    fn scores_are_nonnegative_and_concentrated_near_the_query() {
        let g = bridged_triangles();
        let solver = InverseSolver::new(&g, MrParams::default()).unwrap();
        let scores = solver.scores(0).unwrap();
        assert!(scores.iter().all(|&s| s >= -1e-12));
        // With the symmetric normalization the query itself need not be the
        // single largest score, but the query triangle must dominate the
        // other one.
        let query_side: f64 = scores[..3].iter().sum();
        let other_side: f64 = scores[3..].iter().sum();
        assert!(query_side > other_side);
    }

    #[test]
    fn top_k_prefers_the_query_cluster() {
        let g = bridged_triangles();
        let solver = InverseSolver::new(&g, MrParams::default()).unwrap();
        let top = solver.top_k(0, 2).unwrap();
        assert_eq!(top.len(), 2);
        assert!(!top.contains(0), "query node is excluded");
        for item in top.items() {
            assert!(item.node <= 2, "top-2 must stay in the query triangle");
        }
    }

    #[test]
    fn query_triangle_outscores_the_far_triangle() {
        let g = bridged_triangles();
        let solver = InverseSolver::new(&g, MrParams::default()).unwrap();
        let scores = solver.scores(0).unwrap();
        // Both triangle-mates of the query outscore the interior nodes of
        // the far triangle (4 and 5), which are two hops beyond the bridge.
        for near in [1usize, 2] {
            for far in [4usize, 5] {
                assert!(
                    scores[near] > scores[far],
                    "score[{near}]={} should exceed score[{far}]={}",
                    scores[near],
                    scores[far]
                );
            }
        }
    }

    #[test]
    fn query_validation() {
        let g = bridged_triangles();
        let solver = InverseSolver::new(&g, MrParams::default()).unwrap();
        assert!(solver.scores(6).is_err());
        assert!(solver.top_k(0, 0).is_err());
        assert_eq!(solver.num_nodes(), 6);
        assert_eq!(solver.name(), "Inverse");
    }
}

//! Adjacency matrix, degree vector and the normalized system matrix.
//!
//! The ranking scores of Manifold Ranking are the solution of
//! `(I − α C^{-1/2} A C^{-1/2}) x = (1 − α) q` (Equation (2) of the paper).
//! This module builds the ingredients of that system from the adjacency
//! matrix `A` of a [`Graph`](crate::graph::Graph): the degree matrix `C` (as
//! a vector), the symmetric normalization `S = C^{-1/2} A C^{-1/2}`, and
//! `W = I − α S`.

use crate::{GraphError, Result};
use mogul_sparse::CsrMatrix;

/// Degree vector `C_ii = Σ_j A_ij` of an adjacency matrix.
pub fn degree_vector(adjacency: &CsrMatrix) -> Vec<f64> {
    adjacency.row_sums()
}

/// Symmetric normalization `S = C^{-1/2} A C^{-1/2}`.
///
/// Isolated nodes (zero degree) get a zero row/column, matching the paper's
/// convention that such nodes simply never receive score mass.
pub fn symmetric_normalization(adjacency: &CsrMatrix) -> Result<CsrMatrix> {
    if adjacency.nrows() != adjacency.ncols() {
        return Err(GraphError::NotSquare {
            nrows: adjacency.nrows(),
            ncols: adjacency.ncols(),
        });
    }
    let degrees = degree_vector(adjacency);
    let inv_sqrt: Vec<f64> = degrees
        .iter()
        .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
        .collect();
    adjacency.scale_rows_cols(&inv_sqrt, &inv_sqrt)
}

/// The ranking system matrix `W = I − α S` with `S = C^{-1/2} A C^{-1/2}`.
///
/// Requires `0 < α < 1` (the paper uses `α = 0.99`); this guarantees `W` is
/// symmetric positive definite, which the Cholesky-style factorizations rely
/// on.
pub fn ranking_system_matrix(adjacency: &CsrMatrix, alpha: f64) -> Result<CsrMatrix> {
    if !(0.0 < alpha && alpha < 1.0) {
        return Err(GraphError::InvalidInput(format!(
            "alpha must lie strictly between 0 and 1, got {alpha}"
        )));
    }
    let s = symmetric_normalization(adjacency)?;
    let identity = CsrMatrix::identity(adjacency.nrows());
    identity.add_scaled(-alpha, &s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use mogul_sparse::eigen::lanczos_largest;

    fn ring_graph(n: usize) -> Graph {
        let edges: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn degree_vector_matches_row_sums() {
        let g = ring_graph(5);
        let a = g.adjacency_matrix();
        let d = degree_vector(&a);
        assert_eq!(d, vec![2.0; 5]);
    }

    #[test]
    fn normalization_is_symmetric_with_unit_spectral_radius() {
        let g = ring_graph(8);
        let a = g.adjacency_matrix();
        let s = symmetric_normalization(&a).unwrap();
        assert!(s.is_symmetric(1e-12));
        // For a connected graph the largest eigenvalue of S is exactly 1.
        let pairs = lanczos_largest(&s, 1, 8, 3).unwrap();
        assert!((pairs.values[0] - 1.0).abs() < 1e-8);
    }

    #[test]
    fn isolated_nodes_get_zero_rows() {
        let mut g = Graph::empty(3);
        g.add_edge(0, 1, 2.0).unwrap();
        let a = g.adjacency_matrix();
        let s = symmetric_normalization(&a).unwrap();
        assert_eq!(s.row(2).0.len(), 0);
        // Normalized weight between 0 and 1: 2 / sqrt(2*2) = 1.
        assert!((s.get(0, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn system_matrix_is_spd_for_valid_alpha() {
        let g = ring_graph(6);
        let a = g.adjacency_matrix();
        let w = ranking_system_matrix(&a, 0.99).unwrap();
        assert!(w.is_symmetric(1e-12));
        assert_eq!(w.get(0, 0), 1.0);
        // Positive definiteness: complete LDLᵀ succeeds with positive pivots.
        let f = mogul_sparse::factorize(&w, mogul_sparse::Factorization::Complete).unwrap();
        assert!(f.d.iter().all(|&d| d > 0.0));
    }

    #[test]
    fn system_matrix_validates_alpha() {
        let a = ring_graph(4).adjacency_matrix();
        assert!(ranking_system_matrix(&a, 0.0).is_err());
        assert!(ranking_system_matrix(&a, 1.0).is_err());
        assert!(ranking_system_matrix(&a, -0.5).is_err());
        assert!(ranking_system_matrix(&a, 1.5).is_err());
    }

    #[test]
    fn normalization_rejects_rectangular() {
        let rect = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0)]).unwrap();
        assert!(symmetric_normalization(&rect).is_err());
    }
}

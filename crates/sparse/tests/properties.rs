//! Property-based tests of the linear-algebra kernels.

mod support;

use mogul_sparse::triangular::{solve_unit_lower_multi_into, solve_unit_upper_multi_into};
use mogul_sparse::vector::max_abs_diff;
use mogul_sparse::{factorize, CooMatrix, CsrMatrix, Factorization, Permutation};
use proptest::prelude::*;

/// A random symmetric diagonally-dominant (hence SPD) matrix built from an
/// edge list, mimicking the `I − α S` matrices Mogul factorizes.
fn spd_matrix(n: usize, edges: &[(usize, usize)], weight: f64) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    let mut degree = vec![0.0; n];
    for &(a, b) in edges {
        let (a, b) = (a % n, b % n);
        if a == b {
            continue;
        }
        coo.push_symmetric(a, b, -weight).unwrap();
        degree[a] += weight;
        degree[b] += weight;
    }
    for (i, &d) in degree.iter().enumerate() {
        coo.push(i, i, d + 1.0).unwrap();
    }
    coo.to_csr()
}

fn edge_strategy(max_n: usize) -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (3usize..max_n).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 1..(3 * n));
        (Just(n), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The complete LDLᵀ factorization reconstructs the input exactly and the
    /// textbook solve over it inverts the matrix.
    #[test]
    fn complete_factors_reconstruct_and_solve((n, edges) in edge_strategy(24), w in 0.05f64..0.45) {
        let matrix = spd_matrix(n, &edges, w);
        let factored = factorize(&matrix, Factorization::Complete).unwrap();
        let recon = factored.reconstruct_dense();
        prop_assert!(recon.max_abs_diff(&matrix.to_dense()).unwrap() < 1e-9);

        let b: Vec<f64> = (0..n).map(|i| ((i * 37 + 11) % 17) as f64 / 17.0 - 0.5).collect();
        let x = support::ldl_solve(&factored, &b);
        let ax = matrix.matvec(&x).unwrap();
        prop_assert!(max_abs_diff(&ax, &b).unwrap() < 1e-8);
    }

    /// The incomplete factorization never creates entries outside the input
    /// pattern, matches the input exactly on diagonally stored positions when
    /// there is no fill to drop, and keeps positive pivots.
    #[test]
    fn incomplete_factors_respect_the_pattern((n, edges) in edge_strategy(24), w in 0.05f64..0.45) {
        let matrix = spd_matrix(n, &edges, w);
        let factors = factorize(&matrix, Factorization::Incomplete).unwrap();
        for (i, j, v) in factors.l.iter() {
            if i != j && v != 0.0 {
                prop_assert!(matrix.get(i, j) != 0.0, "fill-in at ({i},{j})");
            }
        }
        prop_assert!(factors.d.iter().all(|&d| d > 0.0));
        // The factor solve is a contraction toward the true solution: applying
        // the reconstructed operator to the solve of b reproduces b.
        let b: Vec<f64> = (0..n).map(|i| (i % 5) as f64 - 2.0).collect();
        let x = support::ldl_solve(&factors, &b);
        let recon = factors.reconstruct_dense();
        let rx = recon.matvec(&x).unwrap();
        prop_assert!(max_abs_diff(&rx, &b).unwrap() < 1e-8);
    }

    /// Forward and back substitution invert triangular matrix-vector products.
    #[test]
    fn triangular_solves_invert_matvec((n, edges) in edge_strategy(20), w in 0.05f64..0.45) {
        let matrix = spd_matrix(n, &edges, w);
        let factors = factorize(&matrix, Factorization::Complete).unwrap();
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 13 + 3) % 11) as f64 / 11.0).collect();

        let lx = {
            // L x with unit diagonal.
            let mut out = factors.l.matvec(&x_true).unwrap();
            // matvec already includes the explicit unit diagonal.
            out.truncate(n);
            out
        };
        let mut x_back = Vec::new();
        solve_unit_lower_multi_into(&factors.l, &lx, 1, &mut x_back).unwrap();
        prop_assert!(max_abs_diff(&x_back, &x_true).unwrap() < 1e-9);

        let u = factors.l.transpose();
        let ux = u.matvec(&x_true).unwrap();
        solve_unit_upper_multi_into(&u, &ux, 1, &mut x_back).unwrap();
        prop_assert!(max_abs_diff(&x_back, &x_true).unwrap() < 1e-9);

        // The textbook LDLᵀ solve over the same factors agrees with the
        // dense solution.
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let x1 = support::ldl_solve(&factors, &b);
        let x2 = matrix.to_dense().solve(&b).unwrap();
        prop_assert!(max_abs_diff(&x1, &x2).unwrap() < 1e-9);
    }

    /// Symmetric permutation of a matrix commutes with permutation of vectors:
    /// `(P A Pᵀ)(P x) = P (A x)`, and permuting back restores the original.
    #[test]
    fn permutation_roundtrips(
        (n, edges) in edge_strategy(20),
        w in 0.05f64..0.45,
        seed in 0u64..1000,
    ) {
        let matrix = spd_matrix(n, &edges, w);
        // Deterministic shuffle from the seed.
        let mut order: Vec<usize> = (0..n).collect();
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        for i in (1..n).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let perm = Permutation::from_new_to_old(order).unwrap();
        let permuted = matrix.clone().permute_symmetric(&perm).unwrap();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();

        let ax = matrix.matvec(&x).unwrap();
        let permuted_result = permuted.matvec(&perm.permute_vec(&x).unwrap()).unwrap();
        let expected = perm.permute_vec(&ax).unwrap();
        prop_assert!(max_abs_diff(&permuted_result, &expected).unwrap() < 1e-10);

        // Round-trip of the matrix itself.
        let back = permuted.permute_symmetric(&perm.inverse()).unwrap();
        prop_assert!(back.to_dense().max_abs_diff(&matrix.to_dense()).unwrap() < 1e-12);
    }

    /// CSR matvec agrees with the dense reference for arbitrary patterns.
    #[test]
    fn csr_matvec_matches_dense(
        entries in proptest::collection::vec((0usize..12, 0usize..12, -5.0f64..5.0), 0..60),
    ) {
        let csr = CsrMatrix::from_triplets(12, 12, &entries).unwrap();
        let x: Vec<f64> = (0..12).map(|i| (i as f64 * 1.3).sin()).collect();
        let sparse = csr.matvec(&x).unwrap();
        let dense = csr.to_dense().matvec(&x).unwrap();
        prop_assert!(max_abs_diff(&sparse, &dense).unwrap() < 1e-10);
        let sparse_t = csr.matvec_transpose(&x).unwrap();
        let dense_t = csr.to_dense().transpose().matvec(&x).unwrap();
        prop_assert!(max_abs_diff(&sparse_t, &dense_t).unwrap() < 1e-10);
    }
}

//! Incomplete Cholesky (`L D Lᵀ`) factorization with a fixed sparsity pattern.
//!
//! This is the factorization at the heart of Mogul (Section 4.2.1). Given the
//! symmetric matrix `W = I − α (C')^{-1/2} A' (C')^{-1/2}`, the factors are
//! restricted to the non-zero pattern of `W` itself — that restriction is what
//! makes the factorization *incomplete* (Equations (6) and (7)) and what keeps
//! `L`, `D`, `U = Lᵀ` at `O(n)` non-zeros (Lemma 1 and Lemma 2).
//!
//! The factorization can break down (a pivot can become zero or negative)
//! because the incomplete factors need not inherit positive definiteness.
//! Following standard practice the pivot is then boosted to a small positive
//! value; the number of boosted pivots is reported in [`LdlFactors`] so
//! callers can monitor approximation quality.

use crate::csr::CsrMatrix;
use crate::error::{Result, SparseError};

/// Relative floor applied to non-positive pivots during the factorization.
const PIVOT_BOOST: f64 = 1e-10;

/// Result of an (incomplete or complete) `L D Lᵀ` factorization.
#[derive(Debug, Clone)]
pub struct LdlFactors {
    /// Unit lower-triangular factor with an explicit diagonal of ones (CSR).
    pub l: CsrMatrix,
    /// Upper-triangular factor `U = Lᵀ` with an explicit diagonal of ones (CSR).
    pub u: CsrMatrix,
    /// Diagonal factor `D`.
    pub d: Vec<f64>,
    /// Number of pivots that had to be boosted to keep the factorization
    /// well defined (0 for a positive-definite input and exact arithmetic).
    pub boosted_pivots: usize,
}

impl LdlFactors {
    /// Size of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.d.len()
    }

    /// Number of stored non-zeros in `L` (including the unit diagonal).
    pub fn l_nnz(&self) -> usize {
        self.l.nnz()
    }

    /// Reconstruct the dense product `L D Lᵀ` (tests / small inputs only).
    pub fn reconstruct_dense(&self) -> crate::dense::DenseMatrix {
        let ld = self
            .l
            .to_dense()
            .matmul(&crate::dense::DenseMatrix::from_diagonal(&self.d))
            .expect("shape mismatch in LDL reconstruction");
        ld.matmul(&self.l.to_dense().transpose())
            .expect("shape mismatch in LDL reconstruction")
    }

    /// Solve `L D Lᵀ x = b` using the stored factors — the allocating
    /// convenience over [`crate::triangular::ldl_solve_multi_into`] at width 1.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = Vec::new();
        let ws = &mut crate::triangular::SolveWorkspace::new();
        crate::triangular::ldl_solve_multi_into(&self.l, &self.u, &self.d, b, 1, ws, &mut x)?;
        Ok(x)
    }
}

/// Incomplete `L D Lᵀ` factorization of a symmetric matrix `w`, with the
/// factor pattern fixed to the lower triangle of `w` (plus the diagonal).
///
/// Implements Equations (6) and (7) of the paper:
///
/// ```text
/// L_ij = (W_ij − Σ_{k<j} L_ik L_jk D_kk) / D_jj    for stored (i, j), i > j
/// D_ii = W_ii − Σ_{k<i} L_ik² D_kk
/// ```
///
/// Runs in `O(Σ_i nnz(row i)²)` time, which is `O(n)` for bounded-degree k-NN
/// graphs (Lemma 2): one serial sweep over the rows in index order.
pub fn incomplete_ldl(w: &CsrMatrix) -> Result<LdlFactors> {
    if w.nrows() != w.ncols() {
        return Err(SparseError::NotSquare {
            nrows: w.nrows(),
            ncols: w.ncols(),
        });
    }
    let n = w.nrows();

    // Fixed pattern: strictly-lower part of W plus an explicit unit diagonal.
    let mut indptr = Vec::with_capacity(n + 1);
    let mut indices: Vec<usize> = Vec::with_capacity(w.nnz() / 2 + n);
    indptr.push(0);
    for i in 0..n {
        let (cols, _) = w.row(i);
        for &j in cols {
            if j < i {
                indices.push(j);
            }
        }
        indices.push(i); // unit diagonal
        indptr.push(indices.len());
    }
    let mut values = vec![0.0; indices.len()];
    let mut d = vec![0.0; n];
    let mut boosted = 0usize;

    for i in 0..n {
        // Rows `< i` are complete and only read; row `i` is the one written.
        let (done, rest) = values.split_at_mut(indptr[i]);
        let row_vals = &mut rest[..indptr[i + 1] - indptr[i]];
        let (di, b) = ichol_row(w, &indptr, &indices, done, row_vals, &d, i)?;
        d[i] = di;
        boosted += usize::from(b);
    }

    let l = CsrMatrix::from_raw_parts(n, n, indptr, indices, values)?;
    let u = l.transpose();
    Ok(LdlFactors {
        l,
        u,
        d,
        boosted_pivots: boosted,
    })
}

/// Compute row `i` of the incomplete factor — the paper's Equations (6)/(7)
/// verbatim.
///
/// `done` holds the values of rows `0..i` (`values[..indptr[i]]`), `d` their
/// pivots; fills `row_vals` (row `i`'s slice of the value array) and returns
/// `(d_i, boosted)`.
fn ichol_row(
    w: &CsrMatrix,
    indptr: &[usize],
    indices: &[usize],
    done: &[f64],
    row_vals: &mut [f64],
    d: &[f64],
    i: usize,
) -> Result<(f64, bool)> {
    let row_start = indptr[i];
    let lower = row_vals.len() - 1; // strictly-lower entries of row i
    let (w_cols, w_vals) = w.row(i);
    let w_ii = match w_cols.binary_search(&i) {
        Ok(pos) => w_vals[pos],
        Err(_) => 0.0,
    };

    // Off-diagonal entries of row i, ascending in j.
    for pos in 0..lower {
        let j = indices[row_start + pos];
        // W_ij is guaranteed stored (the pattern came from W).
        let w_ij = match w_cols.binary_search(&j) {
            Ok(p) => w_vals[p],
            Err(_) => 0.0,
        };
        // Σ_{k<j} L_ik L_jk D_k over the intersection of the two row patterns.
        let mut sum = 0.0;
        let ri_cols = &indices[row_start..row_start + pos];
        let ri_vals = &row_vals[..pos];
        let (rj_start, rj_end) = (indptr[j], indptr[j + 1] - 1); // exclude diag of row j
        let rj_cols = &indices[rj_start..rj_end];
        let rj_vals = &done[rj_start..rj_end];
        let (mut a, mut b) = (0usize, 0usize);
        while a < ri_cols.len() && b < rj_cols.len() {
            let (ka, kb) = (ri_cols[a], rj_cols[b]);
            if ka == kb {
                sum += ri_vals[a] * rj_vals[b] * d[ka];
                a += 1;
                b += 1;
            } else if ka < kb {
                a += 1;
            } else {
                b += 1;
            }
        }
        row_vals[pos] = (w_ij - sum) / d[j];
    }

    // Diagonal D_ii.
    let mut diag = w_ii;
    for pos in 0..lower {
        let k = indices[row_start + pos];
        diag -= row_vals[pos] * row_vals[pos] * d[k];
    }
    if !diag.is_finite() {
        return Err(SparseError::Breakdown {
            index: i,
            value: diag,
        });
    }
    let floor = PIVOT_BOOST * w_ii.abs().max(1.0);
    let boosted = diag <= floor;
    if boosted {
        diag = floor;
    }
    row_vals[lower] = 1.0; // unit diagonal of L
    Ok((diag, boosted))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::dense::DenseMatrix;
    use crate::vector::max_abs_diff;

    /// Tridiagonal SPD matrix: factorization is exact because there is no fill-in.
    fn tridiagonal(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.5).unwrap();
            if i + 1 < n {
                coo.push_symmetric(i, i + 1, -1.0).unwrap();
            }
        }
        coo.to_csr()
    }

    #[test]
    fn exact_on_tridiagonal() {
        let w = tridiagonal(8);
        let f = incomplete_ldl(&w).unwrap();
        assert_eq!(f.boosted_pivots, 0);
        let diff = f.reconstruct_dense().max_abs_diff(&w.to_dense()).unwrap();
        assert!(diff < 1e-12, "reconstruction error {diff}");
        // Solve matches dense solve.
        let b = vec![1.0; 8];
        let x = f.solve(&b).unwrap();
        let x_dense = w.to_dense().solve(&b).unwrap();
        assert!(max_abs_diff(&x, &x_dense).unwrap() < 1e-10);
    }

    #[test]
    fn unit_diagonal_and_pattern() {
        let w = tridiagonal(5);
        let f = incomplete_ldl(&w).unwrap();
        for i in 0..5 {
            assert_eq!(f.l.get(i, i), 1.0);
            assert_eq!(f.u.get(i, i), 1.0);
        }
        // Pattern of strictly-lower L is contained in the pattern of W.
        for (i, j, v) in f.l.iter() {
            if i != j && v != 0.0 {
                assert!(w.get(i, j) != 0.0, "fill-in at ({i},{j}) not allowed");
            }
        }
        assert_eq!(f.dim(), 5);
        assert!(f.l_nnz() >= 5);
    }

    #[test]
    fn incomplete_factor_ignores_fill_positions() {
        // Arrow matrix: complete factorization of the reversed ordering would
        // fill in; with the pattern fixed to W the factor stays sparse.
        let n = 6;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0).unwrap();
        }
        for i in 1..n {
            coo.push_symmetric(0, i, -1.0).unwrap();
        }
        let w = coo.to_csr();
        let f = incomplete_ldl(&w).unwrap();
        // No entry outside the arrow pattern.
        for (i, j, v) in f.l.iter() {
            if i != j && v != 0.0 {
                assert!(j == 0 || i == 0, "unexpected entry at ({i},{j})");
            }
        }
        // The product L D Lᵀ matches W exactly on the pattern of W …
        let recon = f.reconstruct_dense();
        for (i, j, v) in w.iter() {
            assert!(
                (recon.get(i, j) - v).abs() < 1e-12,
                "pattern entry ({i},{j}) not reproduced"
            );
        }
        // … and differs only by the dropped fill-in (bounded, off-pattern).
        let diff = recon.max_abs_diff(&w.to_dense()).unwrap();
        assert!(diff > 0.0, "hub-first arrow must drop some fill-in");
        assert!(
            diff <= 0.25 + 1e-12,
            "dropped fill-in larger than expected: {diff}"
        );
    }

    #[test]
    fn diagonally_dominant_random_like_matrix() {
        // A small "two cluster + border" matrix mimicking the paper's setting.
        let edges = [
            (0usize, 1usize),
            (1, 2),
            (0, 2),
            (3, 4),
            (4, 5),
            (3, 5),
            (2, 3), // cross-cluster edge
        ];
        let n = 6;
        let mut coo = CooMatrix::new(n, n);
        for &(a, b) in &edges {
            coo.push_symmetric(a, b, -0.2).unwrap();
        }
        for i in 0..n {
            coo.push(i, i, 1.0).unwrap();
        }
        let w = coo.to_csr();
        let f = incomplete_ldl(&w).unwrap();
        assert_eq!(f.boosted_pivots, 0);
        // The approximation is close even where not exact.
        let diff = f.reconstruct_dense().max_abs_diff(&w.to_dense()).unwrap();
        assert!(diff < 0.1, "approximation error too large: {diff}");
        // Solving with the incomplete factors approximates the true solution.
        let b = vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let approx = f.solve(&b).unwrap();
        let exact = w.to_dense().solve(&b).unwrap();
        assert!(max_abs_diff(&approx, &exact).unwrap() < 0.05);
    }

    #[test]
    fn rejects_rectangular_input() {
        let rect = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0)]).unwrap();
        assert!(matches!(
            incomplete_ldl(&rect),
            Err(SparseError::NotSquare { .. })
        ));
    }

    #[test]
    fn boosts_indefinite_pivots_instead_of_failing() {
        // Indefinite matrix: off-diagonal dominates.
        let w =
            CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 5.0), (1, 0, 5.0), (1, 1, 1.0)])
                .unwrap();
        let f = incomplete_ldl(&w).unwrap();
        assert!(f.boosted_pivots >= 1);
        assert!(f.d.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn empty_matrix() {
        let w = CsrMatrix::from_triplets(0, 0, &[]).unwrap();
        let f = incomplete_ldl(&w).unwrap();
        assert_eq!(f.dim(), 0);
        assert_eq!(f.l.nnz(), 0);
    }

    #[test]
    fn identity_input_gives_identity_factors() {
        let w = CsrMatrix::identity(4);
        let f = incomplete_ldl(&w).unwrap();
        assert_eq!(f.d, vec![1.0; 4]);
        let diff = f
            .reconstruct_dense()
            .max_abs_diff(&DenseMatrix::identity(4))
            .unwrap();
        assert!(diff < 1e-15);
    }
}

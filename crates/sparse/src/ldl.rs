//! Complete sparse `L D Lᵀ` factorization with fill-in.
//!
//! The paper calls this "Modified Cholesky factorization" (Section 4.6.1): it
//! is the same recurrence as the incomplete factorization but *without* the
//! sparsity-pattern restriction, so the ranking scores it produces are exact.
//! MogulE builds on this factorization; its cost is `O(m)` where `m` is the
//! number of non-zeros of `L` including fill-in.
//!
//! The implementation follows the classic up-looking algorithm (Davis, *Direct
//! Methods for Sparse Linear Systems*): the elimination tree is discovered in
//! a symbolic pass, then each column of `L` is computed with a sparse
//! triangular solve whose non-zero pattern is the row subtree.

use crate::csr::CsrMatrix;
use crate::error::{Result, SparseError};
use crate::ichol::LdlFactors;

/// Complete `L D Lᵀ` factorization together with fill-in statistics.
#[derive(Debug, Clone)]
pub struct CompleteLdl {
    /// The factors (`L`, `U = Lᵀ`, `D`).
    pub factors: LdlFactors,
    /// Elimination-tree parent of each column (`usize::MAX` for roots).
    pub etree: Vec<usize>,
    /// Number of strictly-lower non-zeros in the original matrix.
    pub input_lower_nnz: usize,
    /// Number of strictly-lower non-zeros in `L` (≥ `input_lower_nnz`).
    pub factor_lower_nnz: usize,
}

impl CompleteLdl {
    /// Fill-in: strictly-lower non-zeros created beyond the input pattern.
    pub fn fill_in(&self) -> usize {
        self.factor_lower_nnz.saturating_sub(self.input_lower_nnz)
    }

    /// Solve `A x = b` exactly using the complete factors.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        self.factors.solve(b)
    }
}

/// Complete sparse `L D Lᵀ` factorization of a symmetric matrix.
///
/// Returns an error if a pivot collapses to zero (the matrix is singular or
/// numerically indefinite in a way the factorization cannot handle). For the
/// paper's matrices `W = I − α S` with `α < 1` the input is positive definite
/// and the factorization always succeeds.
pub fn complete_ldl(w: &CsrMatrix) -> Result<CompleteLdl> {
    if w.nrows() != w.ncols() {
        return Err(SparseError::NotSquare {
            nrows: w.nrows(),
            ncols: w.ncols(),
        });
    }
    let n = w.nrows();

    // --- Symbolic pass: elimination tree + column counts ---------------------
    // For the symmetric matrix stored in CSR, row k restricted to columns
    // j < k is column k of the strictly-upper triangle, which is what the
    // up-looking algorithm consumes. The flag walk enumerates exactly row
    // k's pattern (the union of elimination-tree paths).
    let mut parent = vec![usize::MAX; n];
    let mut flag = vec![usize::MAX; n];
    let mut col_nnz = vec![0usize; n]; // strictly-lower nnz of each column of L
    for k in 0..n {
        flag[k] = k;
        let (cols, _) = w.row(k);
        for &j in cols {
            if j >= k {
                continue;
            }
            let mut i = j;
            while flag[i] != k {
                if parent[i] == usize::MAX {
                    parent[i] = k;
                }
                col_nnz[i] += 1;
                flag[i] = k;
                i = parent[i];
            }
        }
    }

    // Column pointers for the strictly-lower part of L in CSC layout.
    let mut col_ptr = vec![0usize; n + 1];
    for i in 0..n {
        col_ptr[i + 1] = col_ptr[i] + col_nnz[i];
    }
    let total_lower = col_ptr[n];
    let mut l_rows = vec![0usize; total_lower];
    let mut l_vals = vec![0.0f64; total_lower];
    let mut col_len = vec![0usize; n];
    let mut d = vec![0.0f64; n];

    // --- Numeric pass: rows in index order -----------------------------------
    let mut scratch = UpLookScratch::new(n);
    for k in 0..n {
        d[k] = uplook_row(
            w,
            &parent,
            &col_ptr,
            &mut l_rows,
            &mut l_vals,
            &mut col_len,
            &d,
            &mut scratch,
            k,
        )?;
    }

    // --- Assemble CSR factors ------------------------------------------------
    // The CSC arrays of the strictly-lower L are, read as CSR, the strictly
    // upper factor U = Lᵀ. Add explicit unit diagonals to both.
    let mut u_indptr = Vec::with_capacity(n + 1);
    let mut u_indices = Vec::with_capacity(total_lower + n);
    let mut u_values = Vec::with_capacity(total_lower + n);
    u_indptr.push(0);
    for i in 0..n {
        u_indices.push(i);
        u_values.push(1.0);
        let start = col_ptr[i];
        let end = start + col_len[i];
        // Row indices within a column are produced in increasing k, already sorted.
        for p in start..end {
            u_indices.push(l_rows[p]);
            u_values.push(l_vals[p]);
        }
        u_indptr.push(u_indices.len());
    }
    let u = CsrMatrix::from_raw_parts(n, n, u_indptr, u_indices, u_values)?;
    let l = u.transpose();

    let input_lower_nnz = w.lower_triangle(false).nnz();
    let factor_lower_nnz = total_lower;

    Ok(CompleteLdl {
        factors: LdlFactors {
            l,
            u,
            d,
            boosted_pivots: 0,
        },
        etree: parent,
        input_lower_nnz,
        factor_lower_nnz,
    })
}

/// Scratch of the up-looking numeric pass.
struct UpLookScratch {
    /// Dense accumulator of the sparse triangular solve.
    y: Vec<f64>,
    /// Stack holding the row pattern in topological order.
    pattern: Vec<usize>,
    /// Visit marker (`flag[i] == k` means "seen while processing row `k`").
    flag: Vec<usize>,
}

impl UpLookScratch {
    fn new(n: usize) -> Self {
        UpLookScratch {
            y: vec![0.0f64; n],
            pattern: vec![0usize; n],
            flag: vec![usize::MAX; n],
        }
    }
}

/// Compute row `k` of the up-looking factorization: the sparse triangular
/// solve over row `k`'s elimination-tree pattern, appending `l_ki` into every
/// column `i` of the pattern and returning `d_k`.
///
/// Rows `< k` have written everything this row reads: the column prefixes
/// `l_rows/l_vals[col_ptr[i] .. col_ptr[i] + col_len[i]]` and the `d[i]`
/// pivots.
#[allow(clippy::too_many_arguments)] // mirrors the factorization's working set
fn uplook_row(
    w: &CsrMatrix,
    parent: &[usize],
    col_ptr: &[usize],
    l_rows: &mut [usize],
    l_vals: &mut [f64],
    col_len: &mut [usize],
    d: &[f64],
    scratch: &mut UpLookScratch,
    k: usize,
) -> Result<f64> {
    let n = parent.len();
    let UpLookScratch { y, pattern, flag } = scratch;
    flag[k] = k;
    let mut top = n;
    let (cols, vals) = w.row(k);
    let mut w_kk = 0.0;
    for (&j, &v) in cols.iter().zip(vals.iter()) {
        if j > k {
            continue;
        }
        if j == k {
            w_kk = v;
            continue;
        }
        y[j] += v;
        // Walk up the elimination tree collecting the (reversed) path.
        let mut len = 0usize;
        let mut i = j;
        while flag[i] != k {
            pattern[len] = i;
            len += 1;
            flag[i] = k;
            i = parent[i];
        }
        // Move the path onto the top of the pattern stack (topological order).
        while len > 0 {
            len -= 1;
            top -= 1;
            pattern[top] = pattern[len];
        }
    }

    let mut d_k = w_kk;
    // Sparse triangular solve over the pattern in topological order.
    for &i in &pattern[top..n] {
        let yi = y[i];
        y[i] = 0.0;
        let len_i = col_len[i];
        let start = col_ptr[i];
        for p in start..start + len_i {
            y[l_rows[p]] -= l_vals[p] * yi;
        }
        let d_i = d[i];
        if d_i == 0.0 {
            return Err(SparseError::Breakdown {
                index: i,
                value: d_i,
            });
        }
        let l_ki = yi / d_i;
        d_k -= l_ki * yi;
        let slot = start + len_i;
        l_rows[slot] = k;
        l_vals[slot] = l_ki;
        col_len[i] = len_i + 1;
    }
    if d_k == 0.0 || !d_k.is_finite() {
        return Err(SparseError::Breakdown {
            index: k,
            value: d_k,
        });
    }
    Ok(d_k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::vector::max_abs_diff;

    fn spd_graph_matrix(n: usize, edges: &[(usize, usize)]) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for &(a, b) in edges {
            coo.push_symmetric(a, b, -0.2).unwrap();
        }
        for i in 0..n {
            coo.push(i, i, 1.0).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn exact_reconstruction_with_fill_in() {
        // A cycle graph whose natural ordering forces fill-in.
        let n = 7;
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let w = spd_graph_matrix(n, &edges);
        let f = complete_ldl(&w).unwrap();
        let diff = f
            .factors
            .reconstruct_dense()
            .max_abs_diff(&w.to_dense())
            .unwrap();
        assert!(diff < 1e-12, "reconstruction error {diff}");
        assert!(f.fill_in() > 0, "cycle ordering should create fill-in");
    }

    #[test]
    fn solve_matches_dense_lu() {
        let n = 9;
        let edges = [
            (0, 1),
            (1, 2),
            (0, 2),
            (3, 4),
            (4, 5),
            (3, 5),
            (6, 7),
            (7, 8),
            (6, 8),
            (2, 3),
            (5, 6),
            (0, 8),
        ];
        let w = spd_graph_matrix(n, &edges);
        let f = complete_ldl(&w).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let x = f.solve(&b).unwrap();
        let x_ref = w.to_dense().solve(&b).unwrap();
        assert!(max_abs_diff(&x, &x_ref).unwrap() < 1e-10);
    }

    #[test]
    fn no_fill_in_for_tridiagonal() {
        let n = 10;
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let w = spd_graph_matrix(n, &edges);
        let f = complete_ldl(&w).unwrap();
        assert_eq!(f.fill_in(), 0);
        assert_eq!(f.factor_lower_nnz, n - 1);
        // Elimination tree of a path graph is the path itself.
        for i in 0..n - 1 {
            assert_eq!(f.etree[i], i + 1);
        }
        assert_eq!(f.etree[n - 1], usize::MAX);
    }

    #[test]
    fn complete_is_at_least_as_dense_as_incomplete() {
        let n = 12;
        let edges: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| vec![(i, (i + 1) % n), (i, (i + 3) % n)])
            .collect();
        let w = spd_graph_matrix(n, &edges);
        let complete = complete_ldl(&w).unwrap();
        let incomplete = crate::ichol::incomplete_ldl(&w).unwrap();
        assert!(complete.factors.l.nnz() >= incomplete.l.nnz());
    }

    #[test]
    fn rejects_rectangular_and_singular() {
        let rect = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0)]).unwrap();
        assert!(complete_ldl(&rect).is_err());

        // Singular: zero matrix.
        let zero = CsrMatrix::from_triplets(2, 2, &[]).unwrap();
        assert!(matches!(
            complete_ldl(&zero),
            Err(SparseError::Breakdown { .. })
        ));
    }

    #[test]
    fn identity_factorizes_trivially() {
        let w = CsrMatrix::identity(5);
        let f = complete_ldl(&w).unwrap();
        assert_eq!(f.factors.d, vec![1.0; 5]);
        assert_eq!(f.fill_in(), 0);
    }
}

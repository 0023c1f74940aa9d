//! Compressed sparse row (CSR) matrices.
//!
//! The k-NN adjacency matrix `A`, the normalized matrix
//! `W = I − α C^{-1/2} A C^{-1/2}` and the triangular factors `L`, `U` of the
//! paper all live in this format. A k-NN graph has `O(n)` edges, so every
//! matrix here carries `O(n)` non-zero entries — the property Lemmas 1–2 rely
//! on for Mogul's linear time and space bounds.

use crate::dense::DenseMatrix;
use crate::error::{Result, SparseError};
use crate::permutation::Permutation;

/// A sparse matrix in compressed sparse row format with sorted column indices.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Build a CSR matrix from raw parts, validating structural invariants:
    /// `indptr` is monotone with `nrows + 1` entries, column indices are in
    /// range and strictly increasing within each row.
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self> {
        if indptr.len() != nrows + 1 {
            return Err(SparseError::InvalidInput(format!(
                "indptr length {} does not match nrows {} + 1",
                indptr.len(),
                nrows
            )));
        }
        if indices.len() != values.len() {
            return Err(SparseError::InvalidInput(format!(
                "indices length {} does not match values length {}",
                indices.len(),
                values.len()
            )));
        }
        if indptr[0] != 0 || indptr[nrows] != indices.len() {
            return Err(SparseError::InvalidInput(
                "indptr must start at 0 and end at nnz".into(),
            ));
        }
        for row in 0..nrows {
            let (start, end) = (indptr[row], indptr[row + 1]);
            if start > end || end > indices.len() {
                return Err(SparseError::InvalidInput(format!(
                    "indptr is not monotone at row {row}"
                )));
            }
            let mut prev: Option<usize> = None;
            for &col in &indices[start..end] {
                if col >= ncols {
                    return Err(SparseError::IndexOutOfBounds {
                        index: (row, col),
                        shape: (nrows, ncols),
                    });
                }
                if let Some(p) = prev {
                    if col <= p {
                        return Err(SparseError::InvalidInput(format!(
                            "column indices not strictly increasing in row {row}"
                        )));
                    }
                }
                prev = Some(col);
            }
        }
        Ok(CsrMatrix {
            nrows,
            ncols,
            indptr,
            indices,
            values,
        })
    }

    /// Build a CSR matrix from `(row, col, value)` triplets (convenience
    /// wrapper over [`CooMatrix`](crate::CooMatrix)).
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self> {
        let mut coo = crate::coo::CooMatrix::with_capacity(nrows, ncols, triplets.len());
        for &(r, c, v) in triplets {
            coo.push(r, c, v)?;
        }
        Ok(coo.to_csr())
    }

    /// Sparse identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            nrows: n,
            ncols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Sparse diagonal matrix from its diagonal entries (zeros are kept).
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        CsrMatrix {
            nrows: n,
            ncols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            values: diag.to_vec(),
        }
    }

    /// Convert a dense matrix to CSR, dropping entries with absolute value
    /// at or below `tol`.
    pub fn from_dense(dense: &DenseMatrix, tol: f64) -> Self {
        let nrows = dense.nrows();
        let ncols = dense.ncols();
        let mut indptr = Vec::with_capacity(nrows + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for i in 0..nrows {
            for (j, &v) in dense.row(i).iter().enumerate() {
                if v.abs() > tol {
                    indices.push(j);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            nrows,
            ncols,
            indptr,
            indices,
            values,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored non-zero entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Row pointer array (length `nrows + 1`).
    #[inline]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Column index array.
    #[inline]
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Value array.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Column indices and values of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let (start, end) = (self.indptr[i], self.indptr[i + 1]);
        (&self.indices[start..end], &self.values[start..end])
    }

    /// Value at `(i, j)`, `0.0` if not stored. Binary search over the row.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&j) {
            Ok(pos) => vals[pos],
            Err(_) => 0.0,
        }
    }

    /// Iterate over all stored entries as `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.nrows).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter().zip(vals.iter()).map(move |(&j, &v)| (i, j, v))
        })
    }

    /// Matrix-vector product `A x`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.ncols {
            return Err(SparseError::DimensionMismatch {
                op: "csr matvec",
                left: (self.nrows, self.ncols),
                right: (x.len(), 1),
            });
        }
        let mut y = vec![0.0; self.nrows];
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            let mut sum = 0.0;
            for (&j, &v) in cols.iter().zip(vals.iter()) {
                sum += v * x[j];
            }
            y[i] = sum;
        }
        Ok(y)
    }

    /// Transposed matrix-vector product `Aᵀ x`.
    pub fn matvec_transpose(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.nrows {
            return Err(SparseError::DimensionMismatch {
                op: "csr matvec_transpose",
                left: (self.ncols, self.nrows),
                right: (x.len(), 1),
            });
        }
        let mut y = vec![0.0; self.ncols];
        for i in 0..self.nrows {
            let xi = x[i];
            if xi == 0.0 {
                continue;
            }
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals.iter()) {
                y[j] += v * xi;
            }
        }
        Ok(y)
    }

    /// Transpose into a new CSR matrix.
    pub fn transpose(&self) -> CsrMatrix {
        let mut col_counts = vec![0usize; self.ncols];
        for &j in &self.indices {
            col_counts[j] += 1;
        }
        let mut indptr = vec![0usize; self.ncols + 1];
        for j in 0..self.ncols {
            indptr[j + 1] = indptr[j] + col_counts[j];
        }
        let mut indices = vec![0usize; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut next = indptr.clone();
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals.iter()) {
                let pos = next[j];
                indices[pos] = i;
                values[pos] = v;
                next[j] += 1;
            }
        }
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            indptr,
            indices,
            values,
        }
    }

    /// Extract the main diagonal (length `min(nrows, ncols)`).
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.nrows.min(self.ncols);
        (0..n).map(|i| self.get(i, i)).collect()
    }

    /// Row sums (the degree vector `C_ii = Σ_j A_ij` of the paper).
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.nrows)
            .map(|i| self.row(i).1.iter().sum())
            .collect()
    }

    /// Return a copy with every value transformed by `f` (pattern unchanged;
    /// values mapped to exactly zero are kept as explicit zeros).
    pub fn map_values(&self, mut f: impl FnMut(f64) -> f64) -> CsrMatrix {
        let mut out = self.clone();
        for v in &mut out.values {
            *v = f(*v);
        }
        out
    }

    /// Scale row `i` by `row_scale[i]` and column `j` by `col_scale[j]`,
    /// returning a new matrix: `out_ij = row_scale[i] * a_ij * col_scale[j]`.
    ///
    /// With `row_scale = col_scale = C^{-1/2}` this computes the symmetric
    /// normalization `C^{-1/2} A C^{-1/2}` from Equation (2).
    pub fn scale_rows_cols(&self, row_scale: &[f64], col_scale: &[f64]) -> Result<CsrMatrix> {
        if row_scale.len() != self.nrows || col_scale.len() != self.ncols {
            return Err(SparseError::DimensionMismatch {
                op: "scale_rows_cols",
                left: (self.nrows, self.ncols),
                right: (row_scale.len(), col_scale.len()),
            });
        }
        let mut out = self.clone();
        for i in 0..self.nrows {
            let (start, end) = (self.indptr[i], self.indptr[i + 1]);
            for pos in start..end {
                let j = out.indices[pos];
                out.values[pos] *= row_scale[i] * col_scale[j];
            }
        }
        Ok(out)
    }

    /// Sparse sum `self + alpha * other`. The result contains the union of
    /// the two patterns (entries cancelling to exactly zero are dropped).
    pub fn add_scaled(&self, alpha: f64, other: &CsrMatrix) -> Result<CsrMatrix> {
        if self.nrows != other.nrows || self.ncols != other.ncols {
            return Err(SparseError::DimensionMismatch {
                op: "csr add_scaled",
                left: (self.nrows, self.ncols),
                right: (other.nrows, other.ncols),
            });
        }
        let mut indptr = Vec::with_capacity(self.nrows + 1);
        let mut indices = Vec::with_capacity(self.nnz() + other.nnz());
        let mut values = Vec::with_capacity(self.nnz() + other.nnz());
        indptr.push(0);
        for i in 0..self.nrows {
            let (ac, av) = self.row(i);
            let (bc, bv) = other.row(i);
            let (mut pa, mut pb) = (0usize, 0usize);
            while pa < ac.len() || pb < bc.len() {
                let (col, val) = if pb >= bc.len() || (pa < ac.len() && ac[pa] < bc[pb]) {
                    let out = (ac[pa], av[pa]);
                    pa += 1;
                    out
                } else if pa >= ac.len() || bc[pb] < ac[pa] {
                    let out = (bc[pb], alpha * bv[pb]);
                    pb += 1;
                    out
                } else {
                    let out = (ac[pa], av[pa] + alpha * bv[pb]);
                    pa += 1;
                    pb += 1;
                    out
                };
                if val != 0.0 {
                    indices.push(col);
                    values.push(val);
                }
            }
            indptr.push(indices.len());
        }
        Ok(CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            indptr,
            indices,
            values,
        })
    }

    /// `true` if the matrix is square and symmetric within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        for (i, j, v) in self.iter() {
            if (v - self.get(j, i)).abs() > tol {
                return false;
            }
        }
        true
    }

    /// Symmetric permutation `A' = P A Pᵀ`: entry `(i, j)` of the result is
    /// entry `(old(i), old(j))` of `self`.
    pub fn permute_symmetric(&self, perm: &Permutation) -> Result<CsrMatrix> {
        if self.nrows != self.ncols {
            return Err(SparseError::NotSquare {
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        if perm.len() != self.nrows {
            return Err(SparseError::DimensionMismatch {
                op: "permute_symmetric",
                left: (self.nrows, self.ncols),
                right: (perm.len(), perm.len()),
            });
        }
        let mut indptr = Vec::with_capacity(self.nrows + 1);
        let mut indices = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        indptr.push(0);
        let mut row_buf: Vec<(usize, f64)> = Vec::new();
        for new_i in 0..self.nrows {
            let old_i = perm.old_index(new_i);
            let (cols, vals) = self.row(old_i);
            row_buf.clear();
            row_buf.extend(
                cols.iter()
                    .zip(vals.iter())
                    .map(|(&old_j, &v)| (perm.new_index(old_j), v)),
            );
            row_buf.sort_unstable_by_key(|&(j, _)| j);
            for &(j, v) in &row_buf {
                indices.push(j);
                values.push(v);
            }
            indptr.push(indices.len());
        }
        Ok(CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            indptr,
            indices,
            values,
        })
    }

    /// Lower-triangular part (entries with `col <= row` when
    /// `include_diagonal`, else `col < row`).
    pub fn lower_triangle(&self, include_diagonal: bool) -> CsrMatrix {
        self.filter(|i, j| if include_diagonal { j <= i } else { j < i })
    }

    /// Keep only entries for which `keep(row, col)` returns true.
    pub fn filter(&self, mut keep: impl FnMut(usize, usize) -> bool) -> CsrMatrix {
        let mut indptr = Vec::with_capacity(self.nrows + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals.iter()) {
                if keep(i, j) {
                    indices.push(j);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            indptr,
            indices,
            values,
        }
    }

    /// Convert to a dense matrix (use only for small matrices / tests).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut dense = DenseMatrix::zeros(self.nrows, self.ncols);
        for (i, j, v) in self.iter() {
            dense.set(i, j, v);
        }
        dense
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [ 2 0 1 ]
        // [ 0 3 0 ]
        // [ 1 0 4 ]
        CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 2.0),
                (0, 2, 1.0),
                (1, 1, 3.0),
                (2, 0, 1.0),
                (2, 2, 4.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn raw_parts_validation() {
        assert!(CsrMatrix::from_raw_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        assert!(CsrMatrix::from_raw_parts(1, 1, vec![0, 1], vec![0], vec![1.0, 2.0]).is_err());
        assert!(CsrMatrix::from_raw_parts(1, 2, vec![0, 2], vec![1, 0], vec![1.0, 2.0]).is_err());
        assert!(CsrMatrix::from_raw_parts(1, 2, vec![0, 2], vec![0, 5], vec![1.0, 2.0]).is_err());
        assert!(CsrMatrix::from_raw_parts(1, 2, vec![0, 2], vec![0, 1], vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn basic_accessors() {
        let m = sample();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.get(0, 2), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.row(2).0, &[0, 2]);
        assert_eq!(m.diagonal(), vec![2.0, 3.0, 4.0]);
        assert_eq!(m.row_sums(), vec![3.0, 3.0, 5.0]);
    }

    #[test]
    fn identity_and_diagonal_constructors() {
        let i = CsrMatrix::identity(3);
        assert_eq!(i.nnz(), 3);
        assert_eq!(i.get(1, 1), 1.0);
        let d = CsrMatrix::from_diagonal(&[5.0, 6.0]);
        assert_eq!(d.get(1, 1), 6.0);
    }

    #[test]
    fn matvec_matches_dense() {
        let m = sample();
        let x = vec![1.0, 2.0, 3.0];
        let sparse = m.matvec(&x).unwrap();
        let dense = m.to_dense().matvec(&x).unwrap();
        assert_eq!(sparse, dense);
        let sparse_t = m.matvec_transpose(&x).unwrap();
        let dense_t = m.to_dense().transpose().matvec(&x).unwrap();
        assert_eq!(sparse_t, dense_t);
        assert!(m.matvec(&[1.0]).is_err());
        assert!(m.matvec_transpose(&[1.0]).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let m = CsrMatrix::from_triplets(2, 3, &[(0, 1, 2.0), (1, 0, 3.0), (1, 2, 4.0)]).unwrap();
        let t = m.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.get(1, 0), 2.0);
        assert_eq!(t.get(2, 1), 4.0);
        let tt = t.transpose();
        assert_eq!(tt, m);
    }

    #[test]
    fn scaling_and_mapping() {
        let m = sample();
        let scaled = m
            .scale_rows_cols(&[1.0, 2.0, 3.0], &[1.0, 1.0, 0.5])
            .unwrap();
        assert_eq!(scaled.get(1, 1), 6.0);
        assert_eq!(scaled.get(2, 2), 6.0);
        assert!(m.scale_rows_cols(&[1.0], &[1.0, 1.0, 1.0]).is_err());

        let mapped = m.map_values(|v| v * v);
        assert_eq!(mapped.get(2, 2), 16.0);
        assert_eq!(mapped.nnz(), m.nnz());
    }

    #[test]
    fn add_scaled_merges_patterns() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 2.0)]).unwrap();
        let b = CsrMatrix::from_triplets(2, 2, &[(0, 1, 3.0), (1, 1, 4.0)]).unwrap();
        let c = a.add_scaled(2.0, &b).unwrap();
        assert_eq!(c.get(0, 0), 1.0);
        assert_eq!(c.get(0, 1), 6.0);
        assert_eq!(c.get(1, 1), 10.0);
        // Cancellation drops the entry.
        let d = a
            .add_scaled(
                -0.5,
                &CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0)]).unwrap(),
            )
            .unwrap();
        assert_eq!(d.nnz(), 1);
        assert!(a.add_scaled(1.0, &CsrMatrix::identity(3)).is_err());
    }

    #[test]
    fn symmetry_check() {
        let sym = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        assert!(sym.is_symmetric(1e-12));
        let asym = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0)]).unwrap();
        assert!(!asym.is_symmetric(1e-12));
        let rect = CsrMatrix::from_triplets(1, 2, &[(0, 1, 1.0)]).unwrap();
        assert!(!rect.is_symmetric(1e-12));
    }

    #[test]
    fn symmetric_permutation_matches_dense() {
        let m = sample();
        let perm = Permutation::from_new_to_old(vec![2, 0, 1]).unwrap();
        let pm = m.permute_symmetric(&perm).unwrap();
        for new_i in 0..3 {
            for new_j in 0..3 {
                assert_eq!(
                    pm.get(new_i, new_j),
                    m.get(perm.old_index(new_i), perm.old_index(new_j)),
                    "mismatch at ({new_i},{new_j})"
                );
            }
        }
        assert!(m.permute_symmetric(&Permutation::identity(2)).is_err());
    }

    #[test]
    fn triangle_extraction() {
        let m = sample();
        let lower = m.lower_triangle(true);
        assert_eq!(lower.nnz(), 4);
        assert_eq!(lower.get(0, 2), 0.0);
        let strict_lower = m.lower_triangle(false);
        assert_eq!(strict_lower.nnz(), 1);
    }

    #[test]
    fn from_dense_roundtrip() {
        let dense = sample().to_dense();
        let back = CsrMatrix::from_dense(&dense, 0.0);
        assert_eq!(back, sample());
    }

    #[test]
    fn iter_yields_all_entries() {
        let m = sample();
        let collected: Vec<_> = m.iter().collect();
        assert_eq!(collected.len(), 5);
        assert!(collected.contains(&(2, 2, 4.0)));
    }
}

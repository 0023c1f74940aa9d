//! Dense row-major matrices with LU decomposition and inversion.
//!
//! The dense path exists for three reasons:
//!
//! 1. The paper's `O(n³)` **Inverse** baseline (Equation (2)) literally builds
//!    the dense matrix `(I − α C^{-1/2} A C^{-1/2})` and inverts it.
//! 2. The EMR baseline needs small `d × d` dense solves (Woodbury identity).
//! 3. Every sparse kernel in this crate is verified against a dense reference
//!    in the test suites.

use crate::error::{Result, SparseError};
use crate::vector;

/// A dense row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Create a zero-filled matrix of the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DenseMatrix {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Create an identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Create a matrix from a row-major data vector.
    pub fn from_vec(nrows: usize, ncols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != nrows * ncols {
            return Err(SparseError::InvalidInput(format!(
                "data length {} does not match shape {}x{}",
                data.len(),
                nrows,
                ncols
            )));
        }
        Ok(DenseMatrix { nrows, ncols, data })
    }

    /// Create a matrix from a slice of equal-length rows.
    #[cfg(test)]
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for row in rows {
            if row.len() != ncols {
                return Err(SparseError::InvalidInput(
                    "rows have inconsistent lengths".into(),
                ));
            }
            data.extend_from_slice(row);
        }
        Ok(DenseMatrix { nrows, ncols, data })
    }

    /// Create a diagonal matrix from its diagonal entries.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = DenseMatrix::zeros(n, n);
        for (i, &v) in diag.iter().enumerate() {
            m.set(i, i, v);
        }
        m
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

    /// Immutable access to the underlying row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Read entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[i * self.ncols + j]
    }

    /// Write entry `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[i * self.ncols + j] = value;
    }

    /// Add `value` to entry `(i, j)`.
    #[inline]
    pub fn add_to(&mut self, i: usize, j: usize, value: f64) {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[i * self.ncols + j] += value;
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Append one row of `ncols` values below the last one.
    pub fn push_row(&mut self, row: &[f64]) -> Result<()> {
        if row.len() != self.ncols {
            return Err(SparseError::DimensionMismatch {
                op: "dense push_row",
                left: (self.nrows, self.ncols),
                right: (1, row.len()),
            });
        }
        self.data.extend_from_slice(row);
        self.nrows += 1;
        Ok(())
    }

    /// Copy column `j` into a new vector.
    pub fn column(&self, j: usize) -> Vec<f64> {
        (0..self.nrows).map(|i| self.get(i, j)).collect()
    }

    /// Transpose into a new matrix.
    pub fn transpose(&self) -> DenseMatrix {
        let mut t = DenseMatrix::zeros(self.ncols, self.nrows);
        for i in 0..self.nrows {
            for j in 0..self.ncols {
                t.set(j, i, self.get(i, j));
            }
        }
        t
    }

    /// Matrix-vector product `A x`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.ncols {
            return Err(SparseError::DimensionMismatch {
                op: "dense matvec",
                left: (self.nrows, self.ncols),
                right: (x.len(), 1),
            });
        }
        Ok((0..self.nrows)
            .map(|i| vector::dot_unchecked(self.row(i), x))
            .collect())
    }

    /// Transposed matrix-vector product `Aᵀ x`.
    pub fn matvec_transpose(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.nrows {
            return Err(SparseError::DimensionMismatch {
                op: "dense matvec_transpose",
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
            let row = self.row(i);
            for (j, &a) in row.iter().enumerate() {
                y[j] += a * xi;
            }
        }
        Ok(y)
    }

    /// Matrix-matrix product `A B`.
    pub fn matmul(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        if self.ncols != other.nrows {
            return Err(SparseError::DimensionMismatch {
                op: "dense matmul",
                left: (self.nrows, self.ncols),
                right: (other.nrows, other.ncols),
            });
        }
        let mut out = DenseMatrix::zeros(self.nrows, other.ncols);
        for i in 0..self.nrows {
            for k in 0..self.ncols {
                let aik = self.get(i, k);
                if aik == 0.0 {
                    continue;
                }
                let brow = other.row(k);
                let orow = out.row_mut(i);
                for (j, &b) in brow.iter().enumerate() {
                    orow[j] += aik * b;
                }
            }
        }
        Ok(out)
    }

    /// Elementwise sum `A + B`.
    pub fn add(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        if self.nrows != other.nrows || self.ncols != other.ncols {
            return Err(SparseError::DimensionMismatch {
                op: "dense add",
                left: (self.nrows, self.ncols),
                right: (other.nrows, other.ncols),
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        Ok(DenseMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            data,
        })
    }

    /// Elementwise difference `A - B`.
    pub fn sub(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        if self.nrows != other.nrows || self.ncols != other.ncols {
            return Err(SparseError::DimensionMismatch {
                op: "dense sub",
                left: (self.nrows, self.ncols),
                right: (other.nrows, other.ncols),
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a - b)
            .collect();
        Ok(DenseMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            data,
        })
    }

    /// Scale every entry by `alpha`, returning a new matrix.
    pub fn scaled(&self, alpha: f64) -> DenseMatrix {
        DenseMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            data: self.data.iter().map(|v| alpha * v).collect(),
        }
    }

    /// Maximum absolute entrywise difference from another matrix.
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> Result<f64> {
        if self.nrows != other.nrows || self.ncols != other.ncols {
            return Err(SparseError::DimensionMismatch {
                op: "dense max_abs_diff",
                left: (self.nrows, self.ncols),
                right: (other.nrows, other.ncols),
            });
        }
        vector::max_abs_diff(&self.data, &other.data)
    }

    /// `true` if the matrix is symmetric within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        for i in 0..self.nrows {
            for j in (i + 1)..self.ncols {
                if (self.get(i, j) - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// LU-factorize the matrix with partial pivoting.
    pub fn lu(&self) -> Result<LuDecomposition> {
        LuDecomposition::new(self)
    }

    /// Solve `A x = b` using LU decomposition with partial pivoting.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        self.lu()?.solve(b)
    }

    /// Invert the matrix using LU decomposition with partial pivoting.
    ///
    /// This is the `O(n³)` operation the paper's Inverse baseline relies on.
    pub fn inverse(&self) -> Result<DenseMatrix> {
        let lu = self.lu()?;
        let n = self.nrows;
        let mut inv = DenseMatrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for j in 0..n {
            e[j] = 1.0;
            let col = lu.solve(&e)?;
            e[j] = 0.0;
            for i in 0..n {
                inv.set(i, j, col[i]);
            }
        }
        Ok(inv)
    }
}

/// LU decomposition with partial pivoting (`P A = L U`), stored compactly.
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    /// Combined L (unit lower, below diagonal) and U (upper) factors.
    lu: DenseMatrix,
    /// Row permutation applied during pivoting: `perm[i]` is the original row
    /// now sitting at position `i`.
    perm: Vec<usize>,
}

impl LuDecomposition {
    /// Factorize a square matrix.
    pub fn new(a: &DenseMatrix) -> Result<Self> {
        if a.nrows != a.ncols {
            return Err(SparseError::NotSquare {
                nrows: a.nrows,
                ncols: a.ncols,
            });
        }
        let n = a.nrows;
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Partial pivoting: find the largest entry in column k at or below row k.
            let mut pivot_row = k;
            let mut pivot_val = lu.get(k, k).abs();
            for i in (k + 1)..n {
                let v = lu.get(i, k).abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val < 1e-300 {
                return Err(SparseError::SingularMatrix { pivot: k });
            }
            if pivot_row != k {
                for j in 0..n {
                    let tmp = lu.get(k, j);
                    lu.set(k, j, lu.get(pivot_row, j));
                    lu.set(pivot_row, j, tmp);
                }
                perm.swap(k, pivot_row);
            }
            let pivot = lu.get(k, k);
            for i in (k + 1)..n {
                let factor = lu.get(i, k) / pivot;
                lu.set(i, k, factor);
                if factor == 0.0 {
                    continue;
                }
                for j in (k + 1)..n {
                    let v = lu.get(i, j) - factor * lu.get(k, j);
                    lu.set(i, j, v);
                }
            }
        }
        Ok(LuDecomposition { lu, perm })
    }

    /// Solve `A x = b` for the factorized matrix.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = Vec::new();
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// [`LuDecomposition::solve`] writing into a caller-owned buffer, so
    /// repeated solves against one factorization (the capacitance systems of
    /// [`crate::woodbury::WoodburyCorrection`]) allocate nothing once the
    /// buffer has grown to the system size.
    pub fn solve_into(&self, b: &[f64], x: &mut Vec<f64>) -> Result<()> {
        let n = self.lu.nrows;
        if b.len() != n {
            return Err(SparseError::DimensionMismatch {
                op: "lu solve",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        // Apply the row permutation, then forward- and back-substitute, each
        // row as one slice of the factors (the operations and their order of
        // an entry-by-entry loop, without its per-entry indexing).
        x.clear();
        x.extend(self.perm.iter().map(|&p| b[p]));
        for i in 1..n {
            let mut sum = x[i];
            for (l, xj) in self.lu.row(i)[..i].iter().zip(&x[..i]) {
                sum -= l * xj;
            }
            x[i] = sum;
        }
        for i in (0..n).rev() {
            let row = self.lu.row(i);
            let mut sum = x[i];
            for (u, xj) in row[i + 1..].iter().zip(&x[i + 1..]) {
                sum -= u * xj;
            }
            x[i] = sum / row[i];
        }
        Ok(())
    }

    /// [`LuDecomposition::solve_into`] as an entry-by-entry loop: the
    /// oracle its row slices must match bit for bit.
    #[cfg(test)]
    fn solve_by_entry(&self, b: &[f64]) -> Vec<f64> {
        let n = self.lu.nrows;
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let mut sum = x[i];
            for j in 0..i {
                sum -= self.lu.get(i, j) * x[j];
            }
            x[i] = sum;
        }
        for i in (0..n).rev() {
            let mut sum = x[i];
            for j in (i + 1)..n {
                sum -= self.lu.get(i, j) * x[j];
            }
            x[i] = sum / self.lu.get(i, i);
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> DenseMatrix {
        DenseMatrix::from_rows(&[
            vec![4.0, 1.0, 0.0],
            vec![1.0, 3.0, 1.0],
            vec![0.0, 1.0, 2.0],
        ])
        .unwrap()
    }

    #[test]
    fn construction_and_access() {
        let m = example();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 3);
        assert_eq!(m.get(1, 2), 1.0);
        assert_eq!(m.row(0), &[4.0, 1.0, 0.0]);
        assert_eq!(m.column(1), vec![1.0, 3.0, 1.0]);

        let mut grown = m.clone();
        grown.push_row(&[7.0, 8.0, 9.0]).unwrap();
        assert_eq!(grown.nrows(), 4);
        assert_eq!(grown.row(3), &[7.0, 8.0, 9.0]);
        assert_eq!(grown.row(2), m.row(2));
        assert!(grown.push_row(&[1.0]).is_err());
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_validates_shapes() {
        assert!(DenseMatrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn identity_and_diagonal() {
        let i = DenseMatrix::identity(3);
        assert_eq!(i.get(0, 0), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
        let d = DenseMatrix::from_diagonal(&[2.0, 3.0]);
        assert_eq!(d.get(1, 1), 3.0);
        assert_eq!(d.get(0, 1), 0.0);
    }

    #[test]
    fn matvec_and_transpose() {
        let m = example();
        let y = m.matvec(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(y, vec![6.0, 10.0, 8.0]);
        let yt = m.matvec_transpose(&[1.0, 2.0, 3.0]).unwrap();
        // M is symmetric so the transposed product matches.
        assert_eq!(yt, y);
        assert!(m.matvec(&[1.0]).is_err());

        let t = m.transpose();
        assert_eq!(t, m); // symmetric
    }

    #[test]
    fn matmul_matches_manual() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
        assert!(a.matmul(&DenseMatrix::zeros(3, 2)).is_err());
    }

    #[test]
    fn add_sub_scale() {
        let a = example();
        let zero = a.sub(&a).unwrap();
        assert_eq!(zero, DenseMatrix::zeros(3, 3));
        let doubled = a.add(&a).unwrap();
        assert!(doubled.max_abs_diff(&a.scaled(2.0)).unwrap() < 1e-15);
    }

    #[test]
    fn lu_solve_and_inverse() {
        let a = example();
        let b = vec![1.0, 2.0, 3.0];
        let x = a.solve(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        assert!(vector::max_abs_diff(&ax, &b).unwrap() < 1e-10);

        let inv = a.inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.max_abs_diff(&DenseMatrix::identity(3)).unwrap() < 1e-10);
    }

    #[test]
    fn lu_requires_square_and_detects_singular() {
        let rect = DenseMatrix::zeros(2, 3);
        assert!(rect.lu().is_err());
        let singular = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        assert!(matches!(
            singular.inverse(),
            Err(SparseError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn lu_pivoting_handles_zero_leading_entry() {
        let a = DenseMatrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn lu_solve_rows_match_the_entry_loop_bit_for_bit() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        };
        for n in [1usize, 2, 7, 170] {
            // A small diagonal under random off-diagonal entries: partial
            // pivoting swaps rows at almost every step.
            let mut a = DenseMatrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    a.set(i, j, if i == j { 1e-3 * next() } else { next() });
                }
            }
            if n == 1 {
                a.set(0, 0, 0.75);
            }
            let lu = a.lu().unwrap();
            if n > 1 {
                assert!(lu.perm.iter().enumerate().any(|(i, &p)| i != p), "n = {n}");
            }
            let mut x = Vec::new();
            for _ in 0..3 {
                let b: Vec<f64> = (0..n).map(|_| next()).collect();
                lu.solve_into(&b, &mut x).unwrap();
                let want = lu.solve_by_entry(&b);
                let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&x), bits(&want), "n = {n}");
            }
        }
    }
}

//! Symmetric eigensolvers: cyclic Jacobi, tridiagonal QL, Lanczos.
//!
//! These kernels back two baselines from the paper: FMR's per-block low-rank
//! approximation (truncated eigendecomposition of symmetric adjacency blocks)
//! and spectral clustering (leading eigenvectors of the normalized adjacency).
//! None of the paper's own Mogul machinery needs an eigensolver — which is
//! exactly the point the authors make about being parameter-free.

use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::error::{Result, SparseError};
use crate::vector;

/// Anything that can apply itself to a vector (`y = A x`); used by the
/// matrix-free Lanczos and power iterations.
pub trait LinearOperator {
    /// Dimension of the (square) operator.
    fn dim(&self) -> usize;
    /// Compute `y = A x`; `y.len() == x.len() == dim()`.
    fn apply(&self, x: &[f64], y: &mut [f64]);
}

impl LinearOperator for CsrMatrix {
    fn dim(&self) -> usize {
        self.nrows()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let result = self.matvec(x).expect("operator dimension mismatch");
        y.copy_from_slice(&result);
    }
}

impl LinearOperator for DenseMatrix {
    fn dim(&self) -> usize {
        self.nrows()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let result = self.matvec(x).expect("operator dimension mismatch");
        y.copy_from_slice(&result);
    }
}

/// Eigenpairs of a symmetric operator, sorted by descending eigenvalue.
#[derive(Debug, Clone)]
pub struct EigenPairs {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// Eigenvectors stored as the columns of an `n × k` matrix, in the same
    /// order as `values`. Each column has unit Euclidean norm.
    pub vectors: DenseMatrix,
}

impl EigenPairs {
    /// Number of eigenpairs stored.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when no eigenpairs are stored.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The `j`-th eigenvector as an owned vector.
    pub fn vector(&self, j: usize) -> Vec<f64> {
        self.vectors.column(j)
    }
}

/// Minimal deterministic PRNG (SplitMix64) used to seed Lanczos start
/// vectors without pulling a dependency into this crate.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[-1, 1)`.
    pub(crate) fn next_symmetric(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }
}

/// Cyclic Jacobi eigendecomposition of a dense symmetric matrix.
///
/// Returns all eigenpairs sorted by descending eigenvalue. Intended for small
/// matrices (baseline verification, EMR's `d × d` reduced systems).
pub fn jacobi_eigen(a: &DenseMatrix) -> Result<EigenPairs> {
    if a.nrows() != a.ncols() {
        return Err(SparseError::NotSquare {
            nrows: a.nrows(),
            ncols: a.ncols(),
        });
    }
    let n = a.nrows();
    let mut m = a.clone();
    let mut v = DenseMatrix::identity(n);
    let max_sweeps = 100;

    for _sweep in 0..max_sweeps {
        // Off-diagonal Frobenius norm.
        let mut off = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += m.get(i, j) * m.get(i, j);
            }
        }
        if off.sqrt() < 1e-14 {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m.get(p, q);
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = m.get(p, p);
                let aqq = m.get(q, q);
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Apply the rotation to rows/columns p and q.
                for k in 0..n {
                    let mkp = m.get(k, p);
                    let mkq = m.get(k, q);
                    m.set(k, p, c * mkp - s * mkq);
                    m.set(k, q, s * mkp + c * mkq);
                }
                for k in 0..n {
                    let mpk = m.get(p, k);
                    let mqk = m.get(q, k);
                    m.set(p, k, c * mpk - s * mqk);
                    m.set(q, k, s * mpk + c * mqk);
                }
                for k in 0..n {
                    let vkp = v.get(k, p);
                    let vkq = v.get(k, q);
                    v.set(k, p, c * vkp - s * vkq);
                    v.set(k, q, s * vkp + c * vkq);
                }
            }
        }
    }

    let mut order: Vec<usize> = (0..n).collect();
    let diag: Vec<f64> = (0..n).map(|i| m.get(i, i)).collect();
    order.sort_by(|&a, &b| {
        diag[b]
            .partial_cmp(&diag[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let values: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
    let mut vectors = DenseMatrix::zeros(n, n);
    for (new_col, &old_col) in order.iter().enumerate() {
        for row in 0..n {
            vectors.set(row, new_col, v.get(row, old_col));
        }
    }
    Ok(EigenPairs { values, vectors })
}

/// Eigendecomposition of a symmetric tridiagonal matrix via the implicit QL
/// method (`tql2`). `diag` has length `n`, `off` has length `n` with `off[0]`
/// unused (it holds the sub-diagonal shifted by one, as in EISPACK).
///
/// Returns eigenvalues (ascending as produced, then re-sorted descending) and
/// the rotation matrix whose columns are eigenvectors of the tridiagonal.
fn tql2(diag: &mut [f64], off: &mut [f64], z: &mut DenseMatrix) -> Result<()> {
    let n = diag.len();
    if n == 0 {
        return Ok(());
    }
    off.copy_within(1..n, 0);
    off[n - 1] = 0.0;

    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find a small sub-diagonal element to split the matrix.
            let mut m = l;
            while m + 1 < n {
                let dd = diag[m].abs() + diag[m + 1].abs();
                if off[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > 50 {
                return Err(SparseError::DidNotConverge {
                    iterations: iter,
                    residual: off[l].abs(),
                });
            }
            let mut g = (diag[l + 1] - diag[l]) / (2.0 * off[l]);
            let mut r = g.hypot(1.0);
            g = diag[m] - diag[l] + off[l] / (g + r.copysign(g));
            let (mut s, mut c) = (1.0, 1.0);
            let mut p = 0.0;
            let mut broke_early = false;
            let mut i = m;
            while i > l {
                i -= 1;
                let mut f = s * off[i];
                let b = c * off[i];
                r = f.hypot(g);
                off[i + 1] = r;
                if r == 0.0 {
                    diag[i + 1] -= p;
                    off[m] = 0.0;
                    broke_early = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = diag[i + 1] - p;
                r = (diag[i] - g) * s + 2.0 * c * b;
                p = s * r;
                diag[i + 1] = g + p;
                g = c * r - b;
                // Accumulate the eigenvector rotation.
                for k in 0..n {
                    f = z.get(k, i + 1);
                    z.set(k, i + 1, s * z.get(k, i) + c * f);
                    z.set(k, i, c * z.get(k, i) - s * f);
                }
            }
            if broke_early {
                continue;
            }
            diag[l] -= p;
            off[l] = g;
            off[m] = 0.0;
        }
    }
    Ok(())
}

/// Lanczos iteration with full reorthogonalization for the largest
/// eigenvalues of a symmetric operator.
///
/// * `k` — number of requested eigenpairs.
/// * `max_subspace` — Krylov subspace dimension (clamped to `dim`); a common
///   choice is `2k + 20`.
/// * `seed` — seed for the deterministic start vector.
pub fn lanczos_largest<O: LinearOperator>(
    op: &O,
    k: usize,
    max_subspace: usize,
    seed: u64,
) -> Result<EigenPairs> {
    let n = op.dim();
    if n == 0 || k == 0 {
        return Ok(EigenPairs {
            values: vec![],
            vectors: DenseMatrix::zeros(n, 0),
        });
    }
    let m = max_subspace.max(k).min(n);

    let mut rng = SplitMix64::new(seed.wrapping_add(0xA5A5_A5A5));
    let mut q: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
    let mut v0: Vec<f64> = (0..n).map(|_| rng.next_symmetric()).collect();
    vector::normalize(&mut v0);
    if vector::norm2(&v0) == 0.0 {
        v0[0] = 1.0;
    }
    q.push(v0);

    let mut alpha = Vec::with_capacity(m);
    let mut beta = Vec::with_capacity(m);
    let mut w = vec![0.0; n];

    for j in 0..m {
        op.apply(&q[j], &mut w);
        if j > 0 {
            let b = beta[j - 1];
            for (wi, qi) in w.iter_mut().zip(q[j - 1].iter()) {
                *wi -= b * qi;
            }
        }
        let a = vector::dot_unchecked(&w, &q[j]);
        alpha.push(a);
        for (wi, qi) in w.iter_mut().zip(q[j].iter()) {
            *wi -= a * qi;
        }
        // Full reorthogonalization for numerical robustness.
        for qv in q.iter() {
            let proj = vector::dot_unchecked(&w, qv);
            if proj != 0.0 {
                for (wi, qi) in w.iter_mut().zip(qv.iter()) {
                    *wi -= proj * qi;
                }
            }
        }
        let b = vector::norm2(&w);
        if j + 1 == m || b < 1e-12 {
            beta.push(0.0);
            break;
        }
        beta.push(b);
        let next: Vec<f64> = w.iter().map(|&x| x / b).collect();
        q.push(next);
    }

    let steps = alpha.len();
    // Eigendecomposition of the tridiagonal matrix T (alpha on the diagonal,
    // beta on the off-diagonals).
    let mut diag = alpha.clone();
    let mut off = vec![0.0; steps];
    if steps > 1 {
        off[1..steps].copy_from_slice(&beta[..steps - 1]);
    }
    let mut z = DenseMatrix::identity(steps);
    tql2(&mut diag, &mut off, &mut z)?;

    let mut order: Vec<usize> = (0..steps).collect();
    order.sort_by(|&a, &b| {
        diag[b]
            .partial_cmp(&diag[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let keep = k.min(steps);

    let mut values = Vec::with_capacity(keep);
    let mut vectors = DenseMatrix::zeros(n, keep);
    for (col, &idx) in order.iter().take(keep).enumerate() {
        values.push(diag[idx]);
        // Ritz vector: x = Q * z[:, idx]
        let mut ritz = vec![0.0; n];
        for (row_q, qv) in q.iter().enumerate().take(steps) {
            let coeff = z.get(row_q, idx);
            if coeff == 0.0 {
                continue;
            }
            for (r, qvi) in qv.iter().enumerate() {
                ritz[r] += coeff * qvi;
            }
        }
        vector::normalize(&mut ritz);
        for (r, &val) in ritz.iter().enumerate() {
            vectors.set(r, col, val);
        }
    }
    Ok(EigenPairs { values, vectors })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn symmetric_dense() -> DenseMatrix {
        DenseMatrix::from_rows(&[
            vec![4.0, 1.0, 0.0, 0.5],
            vec![1.0, 3.0, 1.0, 0.0],
            vec![0.0, 1.0, 2.0, 0.3],
            vec![0.5, 0.0, 0.3, 1.0],
        ])
        .unwrap()
    }

    fn check_eigen_pairs(a: &DenseMatrix, pairs: &EigenPairs, tol: f64) {
        for j in 0..pairs.len() {
            let v = pairs.vector(j);
            let av = a.matvec(&v).unwrap();
            let lv: Vec<f64> = v.iter().map(|x| pairs.values[j] * x).collect();
            let err = vector::max_abs_diff(&av, &lv).unwrap();
            assert!(err < tol, "eigenpair {j} residual {err}");
        }
    }

    #[test]
    fn jacobi_recovers_eigenpairs() {
        let a = symmetric_dense();
        let pairs = jacobi_eigen(&a).unwrap();
        assert_eq!(pairs.len(), 4);
        // Sorted descending.
        for w in pairs.values.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        check_eigen_pairs(&a, &pairs, 1e-8);
        // Trace is preserved.
        let trace: f64 = (0..4).map(|i| a.get(i, i)).sum();
        let sum: f64 = pairs.values.iter().sum();
        assert!((trace - sum).abs() < 1e-8);
    }

    #[test]
    fn jacobi_rejects_rectangular() {
        assert!(jacobi_eigen(&DenseMatrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn jacobi_diagonal_matrix() {
        let a = DenseMatrix::from_diagonal(&[1.0, 5.0, 3.0]);
        let pairs = jacobi_eigen(&a).unwrap();
        assert!((pairs.values[0] - 5.0).abs() < 1e-12);
        assert!((pairs.values[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lanczos_matches_jacobi_on_small_matrix() {
        let a = symmetric_dense();
        let sparse = CsrMatrix::from_dense(&a, 0.0);
        let dense_pairs = jacobi_eigen(&a).unwrap();
        let lanczos_pairs = lanczos_largest(&sparse, 2, 4, 7).unwrap();
        assert_eq!(lanczos_pairs.len(), 2);
        for j in 0..2 {
            assert!(
                (lanczos_pairs.values[j] - dense_pairs.values[j]).abs() < 1e-6,
                "eigenvalue {j}: {} vs {}",
                lanczos_pairs.values[j],
                dense_pairs.values[j]
            );
        }
        check_eigen_pairs(&a, &lanczos_pairs, 1e-6);
    }

    #[test]
    fn lanczos_on_larger_sparse_matrix() {
        // Ring + chords graph adjacency; eigenvalues bounded by max degree.
        let n = 60;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push_symmetric(i, (i + 1) % n, 1.0).unwrap();
            coo.push_symmetric(i, (i + 7) % n, 0.5).unwrap();
        }
        let a = coo.to_csr();
        let pairs = lanczos_largest(&a, 4, 30, 42).unwrap();
        assert_eq!(pairs.len(), 4);
        check_eigen_pairs(&a.to_dense(), &pairs, 1e-5);
    }

    #[test]
    fn lanczos_edge_cases() {
        let a = CsrMatrix::identity(3);
        let pairs = lanczos_largest(&a, 0, 10, 1).unwrap();
        assert!(pairs.is_empty());
        let empty = CsrMatrix::from_triplets(0, 0, &[]).unwrap();
        let pairs = lanczos_largest(&empty, 2, 10, 1).unwrap();
        assert!(pairs.is_empty());
        // Requesting more pairs than the dimension returns at most n.
        let pairs = lanczos_largest(&a, 10, 10, 1).unwrap();
        assert!(pairs.len() <= 3);
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(5);
        let mut b = SplitMix64::new(5);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let v = a.next_symmetric();
        assert!((-1.0..1.0).contains(&v));
    }
}

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
use crate::parallel::{
    chunk_range, effective_threads, SharedSlice, WaveSchedule, PAR_MIN_DIM, PAR_MIN_WAVE_WIDTH,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

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
/// graphs (Lemma 2). Delegates to [`incomplete_ldl_threaded`] with automatic
/// worker selection — the parallel schedule is **bit-identical** to the
/// serial sweep (see there), so the thread count never changes the factors.
pub fn incomplete_ldl(w: &CsrMatrix) -> Result<LdlFactors> {
    incomplete_ldl_threaded(w, 0)
}

/// Compute row `i` of the incomplete factor.
///
/// Fills `values[indptr[i] .. indptr[i+1]]` and returns `(d_i, boosted)`.
/// The arithmetic is the paper's Equations (6)/(7) verbatim — every caller
/// (serial or parallel) runs the exact same operation sequence per row, which
/// is what makes the parallel schedule bit-identical.
///
/// # Safety
///
/// Every row `j` in row `i`'s strictly-lower pattern — and its `d[j]` entry —
/// must be fully written and no longer under mutation, and no other thread
/// may access row `i`'s own value slice concurrently. The wave schedule plus
/// its barrier provide exactly this (rows of one wave have pairwise-disjoint
/// value slices, dependencies sit in earlier waves).
unsafe fn ichol_row(
    w: &CsrMatrix,
    indptr: &[usize],
    indices: &[usize],
    vals: &SharedSlice<'_, f64>,
    d: &SharedSlice<'_, f64>,
    i: usize,
) -> Result<(f64, bool)> {
    let row_start = indptr[i];
    let row_end = indptr[i + 1];
    // SAFETY: row `i`'s slice is this caller's exclusively (contract above).
    let row_vals = unsafe { vals.slice_mut(row_start, row_end - row_start) };
    let (w_cols, w_vals) = w.row(i);
    let w_ii = match w_cols.binary_search(&i) {
        Ok(pos) => w_vals[pos],
        Err(_) => 0.0,
    };

    // Off-diagonal entries of row i, ascending in j.
    for pos in 0..row_end - row_start - 1 {
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
        // SAFETY: row `j` is in row `i`'s pattern, hence fully computed and
        // immutable for the rest of this wave (contract above).
        let rj_vals = unsafe { vals.slice(rj_start, rj_end - rj_start) };
        let (mut a, mut b) = (0usize, 0usize);
        while a < ri_cols.len() && b < rj_cols.len() {
            let (ka, kb) = (ri_cols[a], rj_cols[b]);
            if ka == kb {
                // SAFETY: ka < j is in row i's pattern — computed earlier.
                sum += ri_vals[a] * rj_vals[b] * unsafe { d.get(ka) };
                a += 1;
                b += 1;
            } else if ka < kb {
                a += 1;
            } else {
                b += 1;
            }
        }
        // SAFETY: d[j] computed in an earlier wave (contract above).
        row_vals[pos] = (w_ij - sum) / unsafe { d.get(j) };
    }

    // Diagonal D_ii.
    let mut diag = w_ii;
    for pos in 0..row_end - row_start - 1 {
        let k = indices[row_start + pos];
        // SAFETY: k is in row i's pattern — d[k] computed earlier.
        diag -= row_vals[pos] * row_vals[pos] * unsafe { d.get(k) };
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
    row_vals[row_end - row_start - 1] = 1.0; // unit diagonal of L
    Ok((diag, boosted))
}

/// [`incomplete_ldl`] with an explicit worker count (`0` = one per core, via
/// [`effective_threads`]).
///
/// Rows are levelized over the fixed factor pattern (row `i`'s level is one
/// past the deepest level in its strictly-lower pattern) and executed wave by
/// wave under a barrier. Because row `i` reads only rows in its pattern —
/// all in strictly earlier waves — and each row runs the identical operation
/// sequence as the serial loop, the result is **bit-identical for every
/// worker count**, including factor values, `boosted_pivots`, and the error
/// returned on breakdown. Small or chain-shaped problems (where waves are
/// narrow) fall back to the serial sweep automatically.
pub fn incomplete_ldl_threaded(w: &CsrMatrix, threads: usize) -> Result<LdlFactors> {
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

    let workers = effective_threads(threads).min(n.max(1));
    let schedule = if workers > 1 && n >= PAR_MIN_DIM {
        // Dependency levels over the fixed pattern.
        let mut levels = vec![0usize; n];
        for i in 0..n {
            let mut level = 0usize;
            for &j in &indices[indptr[i]..indptr[i + 1] - 1] {
                level = level.max(levels[j] + 1);
            }
            levels[i] = level;
        }
        let s = WaveSchedule::from_levels(&levels);
        (s.mean_wave_width() >= PAR_MIN_WAVE_WIDTH).then_some(s)
    } else {
        None
    };

    match schedule {
        None => {
            // Serial sweep: rows in index order.
            let vals = SharedSlice::new(&mut values);
            let d_cell = SharedSlice::new(&mut d);
            for i in 0..n {
                // SAFETY: single-threaded — rows < i are complete, row i is
                // touched by nobody else.
                let (di, b) = unsafe { ichol_row(w, &indptr, &indices, &vals, &d_cell, i)? };
                // SAFETY: single-threaded.
                unsafe { d_cell.set(i, di) };
                boosted += usize::from(b);
            }
        }
        Some(schedule) => {
            let vals = SharedSlice::new(&mut values);
            let d_cell = SharedSlice::new(&mut d);
            let boosted_total = AtomicUsize::new(0);
            // On breakdown every wave still runs to completion (failed rows
            // poison `d` with NaN, which only dependents of the failed row
            // can observe); the recorded minimum failing row is then exactly
            // the row where the serial sweep would have stopped, so the
            // returned error is bit-identical to the serial one.
            let first_error: Mutex<Option<(usize, SparseError)>> = Mutex::new(None);
            let barrier = Barrier::new(workers);
            std::thread::scope(|scope| {
                for tid in 0..workers {
                    let (vals, d_cell) = (&vals, &d_cell);
                    let (schedule, barrier) = (&schedule, &barrier);
                    let (boosted_total, first_error) = (&boosted_total, &first_error);
                    let (indptr, indices) = (&indptr, &indices);
                    scope.spawn(move || {
                        let mut local_boost = 0usize;
                        for wave in 0..schedule.num_waves() {
                            let rows = schedule.wave(wave);
                            let (lo, hi) = chunk_range(rows.len(), workers, tid);
                            for &i in &rows[lo..hi] {
                                // SAFETY: dependencies of row i live in
                                // earlier waves (levelization) and the
                                // barrier below sequences waves; within a
                                // wave, row slices are disjoint.
                                match unsafe { ichol_row(w, indptr, indices, vals, d_cell, i) } {
                                    Ok((di, b)) => {
                                        // SAFETY: only this worker owns row i.
                                        unsafe { d_cell.set(i, di) };
                                        local_boost += usize::from(b);
                                    }
                                    Err(e) => {
                                        // SAFETY: only this worker owns row i.
                                        unsafe { d_cell.set(i, f64::NAN) };
                                        let mut slot = first_error.lock().unwrap();
                                        if slot.as_ref().is_none_or(|(row, _)| i < *row) {
                                            *slot = Some((i, e));
                                        }
                                    }
                                }
                            }
                            barrier.wait();
                        }
                        boosted_total.fetch_add(local_boost, Ordering::Relaxed);
                    });
                }
            });
            if let Some((_, e)) = first_error.into_inner().unwrap() {
                return Err(e);
            }
            boosted = boosted_total.into_inner();
        }
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

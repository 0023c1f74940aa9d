//! Woodbury-identity solves for low-rank-corrected systems.
//!
//! Two users share this module:
//!
//! 1. The **EMR** baseline (Xu et al. \[21\] in the paper) approximates the
//!    normalized adjacency with an anchor-graph factorization `S ≈ H Hᵀ`
//!    where `H` is `n × d` and `d ≪ n`. Ranking scores are then obtained from
//!
//!    ```text
//!    (I − α H Hᵀ)⁻¹ q = q + α H (I_d − α Hᵀ H)⁻¹ Hᵀ q
//!    ```
//!
//!    which costs `O(n d + d³)` — the complexity quoted for EMR in Section 2
//!    ([`woodbury_solve_csr`]).
//!
//! 2. The **incremental index update** machinery (`mogul-core::update`): when
//!    database items are inserted or removed, the new ranking system matrix
//!    is the old one plus a low-rank symmetric correction, `W = W₀ + U Vᵀ`,
//!    and queries are answered against the *existing* factorization of `W₀`
//!    through the general Woodbury identity
//!
//!    ```text
//!    (W₀ + U Vᵀ)⁻¹ b = x₀ − Z (I_r + Vᵀ Z)⁻¹ Vᵀ x₀,
//!        where x₀ = W₀⁻¹ b and Z = W₀⁻¹ U.
//!    ```
//!
//!    [`WoodburyCorrection`] precomputes `Z` and LU-factorizes the `r × r`
//!    capacitance matrix `I_r + Vᵀ Z` once per update batch, so correcting
//!    one solved query costs `O(n r + r²)` and allocates nothing when driven
//!    through a reusable [`CorrectionWorkspace`].

use crate::csr::CsrMatrix;
use crate::dense::{DenseMatrix, LuDecomposition};
use crate::error::{Result, SparseError};
use crate::kernel::{dispatch, LaneKernel, Sweep};

/// Solve `(I − α H Hᵀ) x = q` for a sparse `n × d` factor `H`.
pub fn woodbury_solve_csr(h: &CsrMatrix, alpha: f64, q: &[f64]) -> Result<Vec<f64>> {
    if q.len() != h.nrows() {
        return Err(SparseError::DimensionMismatch {
            op: "woodbury rhs",
            left: (h.nrows(), h.ncols()),
            right: (q.len(), 1),
        });
    }
    let d = h.ncols();
    // Gram matrix G = Hᵀ H (d × d).
    let mut gram = DenseMatrix::zeros(d, d);
    for i in 0..h.nrows() {
        let (cols, vals) = h.row(i);
        for (&ja, &va) in cols.iter().zip(vals.iter()) {
            for (&jb, &vb) in cols.iter().zip(vals.iter()) {
                gram.add_to(ja, jb, va * vb);
            }
        }
    }
    // Reduced system matrix M = I_d − α G.
    let mut m = DenseMatrix::identity(d);
    for i in 0..d {
        for j in 0..d {
            m.add_to(i, j, -alpha * gram.get(i, j));
        }
    }
    let ht_q = h.matvec_transpose(q)?;
    let z = m.solve(&ht_q)?;
    let hz = h.matvec(&z)?;
    let mut x = q.to_vec();
    for (xi, hzi) in x.iter_mut().zip(hz.iter()) {
        *xi += alpha * hzi;
    }
    Ok(x)
}

/// Rows of `Z` per block of [`WoodburyCorrection`]'s streamed layout: a
/// block's eight entries of one column are 64 contiguous bytes, a cache
/// line's worth, and one lane-kernel step.
const ROW_BLOCK: usize = 8;

/// Offset of `Z`'s entry `(i, j)` in the row-blocked layout of a rank-`r`
/// correction.
fn z_slot(r: usize, i: usize, j: usize) -> usize {
    (i / ROW_BLOCK) * ROW_BLOCK * r + j * ROW_BLOCK + i % ROW_BLOCK
}

/// `x ← x − Z y` over the row-blocked `Z` of a rank-`r` correction, run by
/// [`dispatch`]: each block's eight rows keep one accumulator each, so one
/// lane-kernel step per column serves eight independent chains.
///
/// Row `i` still sums `z_ij · y_j` from `0.0` in ascending `j` and then
/// subtracts once — the bits of a row-by-row dot product. The kernel's
/// primitive subtracts, so each step is `acc -= (−y_j) · z_ij`: negation is
/// exact and rounding is sign-symmetric, so that is `acc + z_ij · y_j` bit
/// for bit.
struct StreamZ<'a> {
    x: &'a mut [f64],
    z: &'a [f64],
    y: &'a [f64],
    r: usize,
}

impl Sweep for StreamZ<'_> {
    type Out = ();

    #[inline(always)]
    fn run<K: LaneKernel>(self, kernel: K) {
        let blocks = self.z.chunks_exact(ROW_BLOCK * self.r);
        for (rows, block) in self.x.chunks_mut(ROW_BLOCK).zip(blocks) {
            let mut acc = [0.0f64; ROW_BLOCK];
            for (column, &yj) in block.chunks_exact(ROW_BLOCK).zip(self.y) {
                kernel.axpy_neg(&mut acc, column, -yj);
            }
            for (xi, c) in rows.iter_mut().zip(acc) {
                *xi -= c;
            }
        }
    }
}

/// Reusable scratch for [`WoodburyCorrection::apply_in`].
///
/// Holds the two rank-sized vectors one correction touches (`t = Vᵀ x₀` and
/// the capacitance solution). Like every workspace in this crate it carries
/// no correction state: any workspace works with any correction, and a fresh
/// workspace produces bit-identical results to a warm one.
#[derive(Debug, Clone, Default)]
pub struct CorrectionWorkspace {
    /// `t = Vᵀ x₀` (length = rank).
    t: Vec<f64>,
    /// Capacitance solution `y = (I + Vᵀ Z)⁻¹ t` (length = rank).
    y: Vec<f64>,
}

impl CorrectionWorkspace {
    /// An empty workspace; the two rank-sized buffers grow on first use.
    pub fn new() -> Self {
        CorrectionWorkspace::default()
    }
}

/// A precomputed low-rank correction turning solves against a base matrix
/// `W₀` into solves against `W = W₀ + U Vᵀ`.
///
/// `U` and `V` are supplied as sparse columns (`(row, value)` pairs); the
/// base matrix itself is abstracted behind a solver callback, so any
/// factorization (the incomplete or complete `L D Lᵀ` of a
/// [`crate::ldl::LdlFactors`], a dense LU, …) can serve as `W₀⁻¹`.
/// Construction performs `r` base solves to form `Z = W₀⁻¹ U` and one dense
/// LU factorization of the `r × r` capacitance matrix `I_r + Vᵀ Z`;
/// afterwards [`WoodburyCorrection::apply_in`] upgrades a base solution
/// `x₀ = W₀⁻¹ b` to the corrected solution `(W₀ + U Vᵀ)⁻¹ b` in
/// `O(n r + r²)` time with zero allocations (warm workspace).
#[derive(Debug, Clone)]
pub struct WoodburyCorrection {
    dim: usize,
    /// Sparse columns of `V` (validated, in-range).
    v_cols: Vec<Vec<(usize, f64)>>,
    /// `Z = W₀⁻¹ U` (`dim × r`) in blocks of [`ROW_BLOCK`] rows, each block
    /// column-interleaved (`block[j · 8 + t]` = row `8b + t`, column `j`;
    /// see [`z_slot`]); the last block is zero-padded.
    z: Vec<f64>,
    /// LU factors of the capacitance matrix `I_r + Vᵀ Z`.
    cap: LuDecomposition,
}

impl WoodburyCorrection {
    /// Precompute the correction for `W = W₀ + U Vᵀ`.
    ///
    /// `u_cols` and `v_cols` hold the `r` sparse columns of `U` and `V`;
    /// `base_solve(rhs, out)` must write `W₀⁻¹ rhs` into `out`. Fails if the
    /// capacitance matrix is singular (i.e. the corrected matrix is), if any
    /// index is out of range, or if any value is non-finite.
    pub fn new(
        dim: usize,
        u_cols: &[Vec<(usize, f64)>],
        v_cols: Vec<Vec<(usize, f64)>>,
        mut base_solve: impl FnMut(&[f64], &mut Vec<f64>) -> Result<()>,
    ) -> Result<Self> {
        if u_cols.len() != v_cols.len() {
            return Err(SparseError::DimensionMismatch {
                op: "woodbury correction factors",
                left: (dim, u_cols.len()),
                right: (dim, v_cols.len()),
            });
        }
        let r = u_cols.len();
        for col in u_cols.iter().chain(v_cols.iter()) {
            for &(row, value) in col {
                if row >= dim {
                    return Err(SparseError::IndexOutOfBounds {
                        index: (row, 0),
                        shape: (dim, r),
                    });
                }
                if !value.is_finite() {
                    return Err(SparseError::InvalidInput(format!(
                        "correction factor entry at row {row} is not finite"
                    )));
                }
            }
        }

        // Z = W₀⁻¹ U, one base solve per correction direction.
        let mut z = vec![0.0; dim.div_ceil(ROW_BLOCK) * ROW_BLOCK * r];
        let mut rhs = vec![0.0; dim];
        let mut solved = Vec::new();
        for (j, col) in u_cols.iter().enumerate() {
            for &(row, value) in col {
                rhs[row] += value;
            }
            base_solve(&rhs, &mut solved)?;
            if solved.len() != dim {
                return Err(SparseError::DimensionMismatch {
                    op: "woodbury base solve",
                    left: (dim, 1),
                    right: (solved.len(), 1),
                });
            }
            for (i, &value) in solved.iter().enumerate() {
                z[z_slot(r, i, j)] = value;
            }
            for &(row, _) in col {
                rhs[row] = 0.0;
            }
        }

        // Capacitance matrix I_r + Vᵀ Z, LU-factorized once.
        let mut cap = DenseMatrix::identity(r);
        for (i, col) in v_cols.iter().enumerate() {
            for j in 0..r {
                let dot: f64 = col
                    .iter()
                    .map(|&(row, value)| value * z[z_slot(r, row, j)])
                    .sum();
                cap.add_to(i, j, dot);
            }
        }
        let cap = cap.lu()?;

        Ok(WoodburyCorrection {
            dim,
            v_cols,
            z,
            cap,
        })
    }

    /// Rank `r` of the correction (number of `U`/`V` columns).
    pub fn rank(&self) -> usize {
        self.v_cols.len()
    }

    /// Dimension `n` of the corrected system.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Estimated memory footprint in bytes (dominated by the `n × r` dense
    /// block `Z`, counted with its last row block's padding — this is what
    /// the rebuild-debt policy upstream bounds).
    pub fn memory_bytes(&self) -> usize {
        let val = std::mem::size_of::<f64>();
        let idx = std::mem::size_of::<usize>();
        let r = self.rank();
        let v_nnz: usize = self.v_cols.iter().map(Vec::len).sum();
        self.z.len() * val            // Z, padded to whole row blocks
            + 2 * r * r * val         // capacitance LU (factors + permutation rounding up)
            + v_nnz * (idx + val) // sparse V
    }

    /// Upgrade a base solution in place: on entry `x = W₀⁻¹ b`, on exit
    /// `x = (W₀ + U Vᵀ)⁻¹ b`.
    ///
    /// Costs `O(nnz(V) + r² + n r)` and performs no heap allocation once the
    /// workspace buffers have grown to the correction rank.
    pub fn apply_in(&self, ws: &mut CorrectionWorkspace, x: &mut [f64]) -> Result<()> {
        if x.len() != self.dim {
            return Err(SparseError::DimensionMismatch {
                op: "woodbury correction apply",
                left: (self.dim, 1),
                right: (x.len(), 1),
            });
        }
        let r = self.rank();
        if r == 0 {
            return Ok(());
        }
        // t = Vᵀ x₀ (sparse dot products).
        ws.t.clear();
        ws.t.extend(
            self.v_cols
                .iter()
                .map(|col| col.iter().map(|&(row, value)| value * x[row]).sum::<f64>()),
        );
        // y = (I + Vᵀ Z)⁻¹ t.
        self.cap.solve_into(&ws.t, &mut ws.y)?;
        // x ← x₀ − Z y, one streamed pass over Z.
        dispatch(StreamZ {
            x,
            z: &self.z,
            y: &ws.y,
            r,
        });
        Ok(())
    }

    /// [`WoodburyCorrection::apply_in`] with fresh scratch (convenience for
    /// one-off use; loops should reuse a [`CorrectionWorkspace`]).
    pub fn apply(&self, x: &mut [f64]) -> Result<()> {
        self.apply_in(&mut CorrectionWorkspace::new(), x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::max_abs_diff;

    fn reference_solve(h: &DenseMatrix, alpha: f64, q: &[f64]) -> Vec<f64> {
        let n = h.nrows();
        let hht = h.matmul(&h.transpose()).unwrap();
        let system = DenseMatrix::identity(n).sub(&hht.scaled(alpha)).unwrap();
        system.solve(q).unwrap()
    }

    fn example_h() -> DenseMatrix {
        DenseMatrix::from_rows(&[
            vec![0.5, 0.1],
            vec![0.4, 0.0],
            vec![0.0, 0.6],
            vec![0.2, 0.3],
            vec![0.1, 0.1],
        ])
        .unwrap()
    }

    /// The anchor-graph solve of a dense `H`, through its CSR form.
    fn solve(h: &DenseMatrix, alpha: f64, q: &[f64]) -> Result<Vec<f64>> {
        woodbury_solve_csr(&CsrMatrix::from_dense(h, 0.0), alpha, q)
    }

    #[test]
    fn woodbury_matches_direct_solve() {
        let h = example_h();
        for (alpha, q) in [
            (0.9, vec![1.0, 0.0, 0.0, 0.5, -0.2]),
            (0.99, vec![0.0, 1.0, 0.0, 0.0, 0.0]),
        ] {
            let x = solve(&h, alpha, &q).unwrap();
            let x_ref = reference_solve(&h, alpha, &q);
            assert!(max_abs_diff(&x, &x_ref).unwrap() < 1e-10);
        }
    }

    #[test]
    fn zero_alpha_is_identity() {
        let h = example_h();
        let q = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let x = solve(&h, 0.0, &q).unwrap();
        assert!(max_abs_diff(&x, &q).unwrap() < 1e-14);
    }

    #[test]
    fn dimension_validation() {
        assert!(solve(&example_h(), 0.5, &[1.0]).is_err());
    }

    #[test]
    fn empty_factor_behaves_like_identity() {
        // d = 0 columns: H Hᵀ = 0, so the solve returns q.
        let h = DenseMatrix::zeros(4, 0);
        let q = vec![1.0, -1.0, 2.0, 0.5];
        let x = solve(&h, 0.7, &q).unwrap();
        assert!(max_abs_diff(&x, &q).unwrap() < 1e-14);
    }

    // ------------------------------------------------------------------
    // WoodburyCorrection
    // ------------------------------------------------------------------

    /// A small SPD base matrix (diagonally dominant).
    fn base_matrix() -> DenseMatrix {
        let n = 6;
        let mut w = DenseMatrix::identity(n);
        for i in 0..n {
            w.set(i, i, 2.0 + 0.1 * i as f64);
            if i + 1 < n {
                w.set(i, i + 1, -0.4);
                w.set(i + 1, i, -0.4);
            }
        }
        w
    }

    #[test]
    fn corrected_solve_matches_direct_dense_solve() {
        let w0 = base_matrix();
        let n = w0.nrows();
        // Rank-3 unstructured correction U Vᵀ.
        let u_cols = vec![
            vec![(0usize, 0.3), (4usize, -0.2)],
            vec![(2usize, 0.5)],
            vec![(1usize, -0.1), (3usize, 0.2), (5usize, 0.4)],
        ];
        let v_cols = vec![
            vec![(1usize, 0.2), (5usize, 0.3)],
            vec![(2usize, -0.4), (0usize, 0.1)],
            vec![(4usize, 0.25)],
        ];
        let correction = WoodburyCorrection::new(n, &u_cols, v_cols.clone(), |b, out| {
            *out = w0.solve(b)?;
            Ok(())
        })
        .unwrap();
        assert_eq!(correction.rank(), 3);
        assert_eq!(correction.dim(), n);
        assert!(correction.memory_bytes() > 0);

        // Direct reference: assemble W = W₀ + U Vᵀ densely and solve.
        let mut w = w0.clone();
        for (uc, vc) in u_cols.iter().zip(v_cols.iter()) {
            for &(i, uv) in uc {
                for &(j, vv) in vc {
                    w.add_to(i, j, uv * vv);
                }
            }
        }
        let b = vec![1.0, -0.5, 0.0, 2.0, 0.25, -1.0];
        let mut x = w0.solve(&b).unwrap();
        correction.apply(&mut x).unwrap();
        let x_ref = w.solve(&b).unwrap();
        assert!(max_abs_diff(&x, &x_ref).unwrap() < 1e-10);

        // Workspace reuse is bit-identical to fresh scratch.
        let mut ws = CorrectionWorkspace::new();
        for rhs in [&b, &vec![0.0, 1.0, 0.0, 0.0, -2.0, 0.5]] {
            let mut fresh = w0.solve(rhs).unwrap();
            let mut reused = fresh.clone();
            correction.apply(&mut fresh).unwrap();
            correction.apply_in(&mut ws, &mut reused).unwrap();
            assert_eq!(fresh, reused);
        }
    }

    #[test]
    fn symmetric_row_column_update_decomposition() {
        // The shape mogul-core::update feeds in: a symmetric Δ supported on
        // rows/columns R, decomposed as Δ = E_R A_R + B E_Rᵀ with
        // U = [E_R | B], V = [A_Rᵀ | E_R].
        let w0 = base_matrix();
        let n = w0.nrows();
        let r_set = [1usize, 4];
        // Symmetric Δ touching rows/cols 1 and 4 (including entries to
        // columns outside R).
        let mut delta = DenseMatrix::zeros(n, n);
        for &(i, j, v) in &[
            (1usize, 0usize, 0.15),
            (1, 3, -0.2),
            (1, 4, 0.1),
            (4, 5, 0.05),
            (1, 1, 0.3),
            (4, 4, -0.1),
        ] {
            delta.add_to(i, j, v);
            if i != j {
                delta.add_to(j, i, v);
            }
        }
        // A_R = rows R of Δ; B = columns R of the remainder.
        let mut u_cols = Vec::new();
        let mut v_cols = Vec::new();
        for &row in &r_set {
            u_cols.push(vec![(row, 1.0)]);
            let a_row: Vec<(usize, f64)> = (0..n)
                .filter(|&j| delta.get(row, j) != 0.0)
                .map(|j| (j, delta.get(row, j)))
                .collect();
            v_cols.push(a_row);
        }
        for &col in &r_set {
            let b_col: Vec<(usize, f64)> = (0..n)
                .filter(|&i| !r_set.contains(&i) && delta.get(i, col) != 0.0)
                .map(|i| (i, delta.get(i, col)))
                .collect();
            u_cols.push(b_col);
            v_cols.push(vec![(col, 1.0)]);
        }
        let correction = WoodburyCorrection::new(n, &u_cols, v_cols, |b, out| {
            *out = w0.solve(b)?;
            Ok(())
        })
        .unwrap();
        assert_eq!(correction.rank(), 2 * r_set.len());

        let w = w0.add(&delta).unwrap();
        let b = vec![0.5, 1.0, -1.0, 0.0, 2.0, 0.1];
        let mut x = w0.solve(&b).unwrap();
        correction.apply(&mut x).unwrap();
        let x_ref = w.solve(&b).unwrap();
        assert!(max_abs_diff(&x, &x_ref).unwrap() < 1e-10);
    }

    #[test]
    fn zero_rank_correction_is_identity() {
        let w0 = base_matrix();
        let correction = WoodburyCorrection::new(6, &[], Vec::new(), |b, out| {
            *out = w0.solve(b)?;
            Ok(())
        })
        .unwrap();
        assert_eq!(correction.rank(), 0);
        let mut x = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let before = x.clone();
        correction.apply(&mut x).unwrap();
        assert_eq!(x, before);
    }

    /// A seeded stream of values in `[-1, 1)`.
    fn stream(mut state: u64) -> impl FnMut() -> f64 {
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        }
    }

    /// `W₀⁻¹ b` for the lower-bidiagonal `W₀` (1 on the diagonal, −0.9
    /// below it): every column of `Z` is dense below its first entry.
    fn bidiagonal_solve(b: &[f64], out: &mut Vec<f64>) -> Result<()> {
        out.clear();
        let mut prev = 0.0;
        for &bi in b {
            prev = bi + 0.9 * prev;
            out.push(prev);
        }
        Ok(())
    }

    /// `r` seeded sparse columns of one to three entries over `dim` rows,
    /// values in `[-scale, scale)` (a row may repeat within a column).
    fn seeded_columns(
        dim: usize,
        r: usize,
        scale: f64,
        next: &mut impl FnMut() -> f64,
    ) -> Vec<Vec<(usize, f64)>> {
        (0..r)
            .map(|_| {
                let len = 1 + ((next() + 1.0) * 1.5) as usize;
                (0..len)
                    .map(|_| {
                        let row = (((next() + 1.0) / 2.0) * dim as f64) as usize;
                        (row.min(dim - 1), scale * next())
                    })
                    .collect()
            })
            .collect()
    }

    /// The textbook correction: `Z` row-major, one base solve per column,
    /// the capacitance `I + Vᵀ Z` from it, then `x_i -= Σ_j z_ij y_j` row by
    /// row.
    fn textbook_apply(u_cols: &[Vec<(usize, f64)>], v_cols: &[Vec<(usize, f64)>], x: &mut [f64]) {
        let (dim, r) = (x.len(), u_cols.len());
        let mut z = DenseMatrix::zeros(dim, r);
        let mut solved = Vec::new();
        for (j, col) in u_cols.iter().enumerate() {
            let mut rhs = vec![0.0; dim];
            for &(row, value) in col {
                rhs[row] += value;
            }
            bidiagonal_solve(&rhs, &mut solved).unwrap();
            for (i, &value) in solved.iter().enumerate() {
                z.set(i, j, value);
            }
        }
        let mut cap = DenseMatrix::identity(r);
        for (i, col) in v_cols.iter().enumerate() {
            for j in 0..r {
                let dot: f64 = col.iter().map(|&(row, value)| value * z.get(row, j)).sum();
                cap.add_to(i, j, dot);
            }
        }
        let t: Vec<f64> = v_cols
            .iter()
            .map(|col| col.iter().map(|&(row, value)| value * x[row]).sum())
            .collect();
        let y = cap.lu().unwrap().solve(&t).unwrap();
        for (i, xi) in x.iter_mut().enumerate() {
            let mut correction = 0.0;
            for (j, yj) in y.iter().enumerate() {
                correction += z.get(i, j) * yj;
            }
            *xi -= correction;
        }
    }

    /// The streamed `apply_in` against [`textbook_apply`] on a seeded
    /// correction, compared bit for bit.
    fn assert_apply_matches_textbook(dim: usize, r: usize) {
        let mut next = stream((dim * 131 + r) as u64);
        let u_cols = seeded_columns(dim, r, 0.3, &mut next);
        let v_cols = seeded_columns(dim, r, 0.05, &mut next);
        let correction =
            WoodburyCorrection::new(dim, &u_cols, v_cols.clone(), bidiagonal_solve).unwrap();
        let mut ws = CorrectionWorkspace::new();
        for _ in 0..2 {
            let x0: Vec<f64> = (0..dim).map(|_| next()).collect();
            let mut got = x0.clone();
            correction.apply_in(&mut ws, &mut got).unwrap();
            let mut want = x0.clone();
            textbook_apply(&u_cols, &v_cols, &mut want);
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "dim {dim}, rank {r}");
            if r > 0 {
                // The streamed pass under the scalar kernel, whatever
                // `dispatch` picks on this host.
                let mut scalar = x0;
                let t: Vec<f64> = v_cols
                    .iter()
                    .map(|col| col.iter().map(|&(row, value)| value * scalar[row]).sum())
                    .collect();
                let y = correction.cap.solve(&t).unwrap();
                let (z, x) = (&correction.z, &mut scalar);
                StreamZ { x, z, y: &y, r }.run(crate::kernel::ScalarKernel);
                assert_eq!(bits(&scalar), bits(&want), "scalar, dim {dim}, rank {r}");
            }
        }
    }

    #[test]
    fn apply_matches_the_row_major_textbook_bit_for_bit() {
        // Dims below, at and past one row block and a ragged second block;
        // rank 0 leaves x alone.
        for dim in [1usize, 7, 8, 9, 17] {
            for r in [0usize, 1, 3, 8, 9] {
                assert_apply_matches_textbook(dim, r);
            }
        }
    }

    #[test]
    fn apply_matches_the_row_major_textbook_at_serving_size() {
        // The rank a corrected `churn_rw` epoch reaches, over its 2 000 rows.
        assert_apply_matches_textbook(2_000, 170);
    }

    #[test]
    fn memory_bytes_counts_the_padded_row_blocks() {
        let val = std::mem::size_of::<f64>();
        let entry = std::mem::size_of::<usize>() + val;
        for (dim, blocks) in [(8usize, 1usize), (9, 2), (17, 3)] {
            let u_cols = vec![vec![(0usize, 0.1)], vec![(dim - 1, 0.2)], vec![(1, 0.3)]];
            let v_cols = vec![
                vec![(2usize, 0.1), (3, 0.1)],
                vec![(0, 0.2)],
                vec![(4, 0.1)],
            ];
            let correction =
                WoodburyCorrection::new(dim, &u_cols, v_cols, bidiagonal_solve).unwrap();
            let z = blocks * ROW_BLOCK * 3 * val;
            assert_eq!(correction.memory_bytes(), z + 2 * 3 * 3 * val + 4 * entry);
        }
    }

    #[test]
    fn correction_validation() {
        let w0 = base_matrix();
        let solve = |b: &[f64], out: &mut Vec<f64>| {
            *out = w0.solve(b)?;
            Ok(())
        };
        // Mismatched column counts.
        assert!(WoodburyCorrection::new(6, &[vec![(0, 1.0)]], Vec::new(), solve).is_err());
        // Out-of-range row index.
        assert!(
            WoodburyCorrection::new(6, &[vec![(9, 1.0)]], vec![vec![(0, 1.0)]], solve).is_err()
        );
        // Non-finite value.
        assert!(
            WoodburyCorrection::new(6, &[vec![(0, f64::NAN)]], vec![vec![(0, 1.0)]], solve)
                .is_err()
        );
        // Singular corrected matrix: U Vᵀ = −W₀ on a 1-dim system.
        let singular = WoodburyCorrection::new(
            1,
            &[vec![(0, -1.0)]],
            vec![vec![(0, 1.0)]],
            |b: &[f64], out: &mut Vec<f64>| {
                out.clear();
                out.push(b[0]);
                Ok(())
            },
        );
        assert!(singular.is_err());
        // Wrong-length vector at apply time.
        let ok =
            WoodburyCorrection::new(6, &[vec![(0, 0.1)]], vec![vec![(0, 0.1)]], solve).unwrap();
        assert!(ok.apply(&mut [1.0, 2.0]).is_err());
    }
}

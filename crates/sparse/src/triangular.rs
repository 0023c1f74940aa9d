//! Forward and back substitution over sparse unit-triangular CSR factors.
//!
//! The three sweeps of the paper's query path over factors stored row-wise
//! (CSR): forward substitution on `L y = q` (Equation (4)), the diagonal
//! scaling by `D`, and back substitution on `U x = y` (Equation (5)). The
//! factors are unit-triangular by construction, so the only division is the
//! diagonal scaling between the two substitutions. `mogul-core`'s engine does
//! not call them: it runs its own sweeps over its search layout, the index's
//! only copy of the factors. They remain as the benchmark ladder's
//! `sparse.*_b8_us` rungs, timed at width 8 over the CSR `L` that
//! `MogulIndex::factor_l()` rebuilds.
//!
//! Every function takes a **panel** of `width` right-hand sides with the
//! `width` lane values of each node adjacent (`panel[node * width + lane]`,
//! length `n · width`), so one traversal of the factor's CSR structure
//! applies every non-zero to all lanes through a short contiguous inner loop
//! (see [`crate::kernel`]). Every width, 1 included, runs through
//! [`dispatch`]. Each lane performs the same floating-point operations in the
//! same order whatever the width, its position in the panel and the kernel in
//! use, so lane `l` of a panel result is **bit-identical** to the width-1
//! solve of lane `l`'s right-hand side.

use crate::csr::CsrMatrix;
use crate::error::{Result, SparseError};
use crate::kernel::{dispatch, LaneKernel, Sweep};

/// Smallest pivot magnitude accepted before a solve is declared singular.
const PIVOT_TOL: f64 = 1e-300;

/// Reset `out` to `n` zeros, reusing its existing capacity.
fn reset(out: &mut Vec<f64>, n: usize) {
    out.clear();
    out.resize(n, 0.0);
}

/// The actual shape of a flat panel for error payloads: `rows × width` when
/// the length divides evenly, otherwise the raw length as a single column so
/// ragged inputs are reported verbatim instead of silently rounded.
fn panel_shape(panel_len: usize, width: usize) -> (usize, usize) {
    if width > 0 && panel_len.is_multiple_of(width) {
        (panel_len / width, width)
    } else {
        (panel_len, 1)
    }
}

fn check_square_and_panel(
    m: &CsrMatrix,
    panel_len: usize,
    width: usize,
    op: &'static str,
) -> Result<()> {
    if m.nrows() != m.ncols() {
        return Err(SparseError::NotSquare {
            nrows: m.nrows(),
            ncols: m.ncols(),
        });
    }
    if width == 0 || panel_len != m.nrows() * width {
        // The payload carries the *requested* shape: `width` verbatim (even
        // when 0) on the left, and the supplied panel re-expressed against
        // that width on the right.
        return Err(SparseError::DimensionMismatch {
            op,
            left: (m.nrows(), width),
            right: panel_shape(panel_len, width),
        });
    }
    Ok(())
}

// --- Kernel-generic sweep bodies -------------------------------------------
//
// Each sweep is written once, generic over the [`LaneKernel`] that executes
// its per-node lane loops, and reaches [`dispatch`] as a [`Sweep`] carrying
// its arguments, so the whole sweep (not just the primitives) is compiled
// for the kernel `dispatch` picks and the intrinsics inline into the
// traversal.

#[inline(always)]
fn unit_lower_sweep<K: LaneKernel>(kern: K, l: &CsrMatrix, b: &[f64], width: usize, x: &mut [f64]) {
    for i in 0..l.nrows() {
        let (cols, vals) = l.row(i);
        let (done, rest) = x.split_at_mut(i * width);
        let xi = &mut rest[..width];
        xi.copy_from_slice(&b[i * width..(i + 1) * width]);
        for (&j, &v) in cols.iter().zip(vals.iter()) {
            if j < i {
                kern.axpy_neg(xi, &done[j * width..(j + 1) * width], v);
            }
        }
    }
}

#[inline(always)]
fn unit_upper_sweep<K: LaneKernel>(kern: K, u: &CsrMatrix, b: &[f64], width: usize, x: &mut [f64]) {
    for i in (0..u.nrows()).rev() {
        let (cols, vals) = u.row(i);
        let (head, tail) = x.split_at_mut((i + 1) * width);
        let xi = &mut head[i * width..];
        xi.copy_from_slice(&b[i * width..(i + 1) * width]);
        for (&j, &v) in cols.iter().zip(vals.iter()) {
            if j > i {
                kern.axpy_neg(xi, &tail[(j - i - 1) * width..(j - i) * width], v);
            }
        }
    }
}

#[inline(always)]
fn scale_diag_sweep<K: LaneKernel>(
    kern: K,
    d: &[f64],
    width: usize,
    panel: &mut [f64],
) -> Result<()> {
    for (i, (&di, row)) in d.iter().zip(panel.chunks_exact_mut(width)).enumerate() {
        if !di.is_finite() || di.abs() < PIVOT_TOL {
            return Err(SparseError::SingularMatrix { pivot: i });
        }
        kern.div_assign(row, di);
    }
    Ok(())
}

/// [`unit_lower_sweep`] of one factor over one panel.
struct LowerSweep<'a> {
    l: &'a CsrMatrix,
    b: &'a [f64],
    width: usize,
    x: &'a mut [f64],
}

impl Sweep for LowerSweep<'_> {
    type Out = ();

    #[inline(always)]
    fn run<K: LaneKernel>(self, kern: K) {
        unit_lower_sweep(kern, self.l, self.b, self.width, self.x)
    }
}

/// [`unit_upper_sweep`] of one factor over one panel.
struct UpperSweep<'a> {
    u: &'a CsrMatrix,
    b: &'a [f64],
    width: usize,
    x: &'a mut [f64],
}

impl Sweep for UpperSweep<'_> {
    type Out = ();

    #[inline(always)]
    fn run<K: LaneKernel>(self, kern: K) {
        unit_upper_sweep(kern, self.u, self.b, self.width, self.x)
    }
}

/// [`scale_diag_sweep`] of one diagonal over one panel.
struct ScaleDiag<'a> {
    d: &'a [f64],
    width: usize,
    panel: &'a mut [f64],
}

impl Sweep for ScaleDiag<'_> {
    type Out = Result<()>;

    #[inline(always)]
    fn run<K: LaneKernel>(self, kern: K) -> Result<()> {
        scale_diag_sweep(kern, self.d, self.width, self.panel)
    }
}

/// Solve `L X = B` for `width` right-hand sides at once, where `L` is *unit*
/// lower triangular (implicit or explicit diagonal of ones; entries above the
/// diagonal are ignored). `b` and `x` are panels in the module's layout; `x`
/// is resized and overwritten in place, so repeated solves never reallocate.
pub fn solve_unit_lower_multi_into(
    l: &CsrMatrix,
    b: &[f64],
    width: usize,
    x: &mut Vec<f64>,
) -> Result<()> {
    check_square_and_panel(l, b.len(), width, "solve_unit_lower_multi")?;
    reset(x, l.nrows() * width);
    dispatch(LowerSweep { l, b, width, x });
    Ok(())
}

/// Solve `U X = B` for `width` right-hand sides at once, where `U` is *unit*
/// upper triangular (entries below the diagonal are ignored). Layout and
/// buffer reuse as in [`solve_unit_lower_multi_into`].
pub fn solve_unit_upper_multi_into(
    u: &CsrMatrix,
    b: &[f64],
    width: usize,
    x: &mut Vec<f64>,
) -> Result<()> {
    check_square_and_panel(u, b.len(), width, "solve_unit_upper_multi")?;
    reset(x, u.nrows() * width);
    dispatch(UpperSweep { u, b, width, x });
    Ok(())
}

/// Scale every row of an `n × width` panel by the inverse diagonal, in place:
/// `panel[i, lane] /= d[i]` for every lane. A diagonal entry that is not
/// finite, or too small to divide by, is reported as
/// [`SparseError::SingularMatrix`].
pub fn scale_diag_multi_into(d: &[f64], width: usize, panel: &mut [f64]) -> Result<()> {
    if width == 0 || panel.len() != d.len() * width {
        // As in `check_square_and_panel`: report the requested shape
        // verbatim, never a `.max(1)`-garbled rounding of it.
        return Err(SparseError::DimensionMismatch {
            op: "scale_diag_multi",
            left: (d.len(), width),
            right: panel_shape(panel.len(), width),
        });
    }
    dispatch(ScaleDiag { d, width, panel })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::dense::DenseMatrix;
    use crate::ldl::{factorize, Factorization, LdlFactors};
    use crate::vector::max_abs_diff;

    // --- The oracle: textbook substitutions on `CsrMatrix::row` only. Same
    // operations in the same order as every lane of the three sweeps, so the
    // comparisons below are exact `==`. `ldl::tests` solves with `ref_ldl`.

    fn ref_unit_lower(l: &CsrMatrix, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; b.len()];
        for i in 0..b.len() {
            let (cols, vals) = l.row(i);
            let mut sum = b[i];
            for (&j, &v) in cols.iter().zip(vals) {
                if j < i {
                    sum -= v * x[j];
                }
            }
            x[i] = sum;
        }
        x
    }

    fn ref_unit_upper(u: &CsrMatrix, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; b.len()];
        for i in (0..b.len()).rev() {
            let (cols, vals) = u.row(i);
            let mut sum = b[i];
            for (&j, &v) in cols.iter().zip(vals) {
                if j > i {
                    sum -= v * x[j];
                }
            }
            x[i] = sum;
        }
        x
    }

    /// `L D Lᵀ x = b` by the two textbook substitutions and the division.
    pub(crate) fn ref_ldl(f: &LdlFactors, b: &[f64]) -> Vec<f64> {
        let mut y = ref_unit_lower(&f.l, b);
        for (yi, &di) in y.iter_mut().zip(&f.d) {
            *yi /= di;
        }
        ref_unit_upper(&f.l.transpose(), &y)
    }

    /// Complete and incomplete factors of a ring-with-chords SPD matrix (the
    /// chords create fill, so the two flavours differ).
    fn both_flavours(n: usize) -> [LdlFactors; 2] {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 3.0 + 0.1 * i as f64).unwrap();
            coo.push_symmetric(i, (i + 1) % n, -0.7).unwrap();
            if i % 3 == 0 && i + 4 < n {
                coo.push_symmetric(i, i + 4, -0.3).unwrap();
            }
        }
        let w = coo.to_csr();
        [Factorization::Complete, Factorization::Incomplete]
            .map(|rule| factorize(&w, rule).unwrap())
    }

    /// Lane-distinct right-hand sides whose values round at every operation.
    fn lane_rhs(n: usize, lane: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i + 1) as f64) * 0.7 - (lane as f64) * 1.3 + 0.01 / (i + lane + 1) as f64)
            .collect()
    }

    fn pack(lanes: &[Vec<f64>]) -> Vec<f64> {
        let (n, width) = (lanes[0].len(), lanes.len());
        let mut panel = vec![0.0; n * width];
        for (lane, b) in lanes.iter().enumerate() {
            for i in 0..n {
                panel[i * width + lane] = b[i];
            }
        }
        panel
    }

    fn lane_of(panel: &[f64], width: usize, lane: usize) -> Vec<f64> {
        panel.iter().skip(lane).step_by(width).copied().collect()
    }

    /// `[unit lower, unit upper, scaled]` of one panel.
    fn solve_all(f: &LdlFactors, panel: &[f64], width: usize) -> [Vec<f64>; 3] {
        let mut out = [Vec::new(), Vec::new(), panel.to_vec()];
        solve_unit_lower_multi_into(&f.l, panel, width, &mut out[0]).unwrap();
        solve_unit_upper_multi_into(&f.l.transpose(), panel, width, &mut out[1]).unwrap();
        scale_diag_multi_into(&f.d, width, &mut out[2]).unwrap();
        out
    }

    #[test]
    fn every_solve_matches_the_textbook_substitution_exactly() {
        // Every width from a lone right-hand side to four AVX2 chunks and a
        // remainder, all through `dispatch`.
        for f in &both_flavours(11) {
            for width in 1usize..=17 {
                let lanes: Vec<Vec<f64>> = (0..width).map(|lane| lane_rhs(11, lane)).collect();
                let got = solve_all(f, &pack(&lanes), width);
                for (lane, b) in lanes.iter().enumerate() {
                    let scaled: Vec<f64> = b.iter().zip(&f.d).map(|(bi, di)| bi / di).collect();
                    assert_eq!(lane_of(&got[0], width, lane), ref_unit_lower(&f.l, b));
                    assert_eq!(
                        lane_of(&got[1], width, lane),
                        ref_unit_upper(&f.l.transpose(), b)
                    );
                    assert_eq!(lane_of(&got[2], width, lane), scaled);
                }
            }
        }
    }

    #[test]
    fn a_lane_does_not_depend_on_the_panel_around_it() {
        // Lane `l` of a width-`w` panel == the width-1 solve of lane `l`'s
        // right-hand side, for every lane position of every width (ragged
        // ones and one well past a vector register included).
        for n in [13usize, 6] {
            for f in &both_flavours(n) {
                for width in [1usize, 2, 3, 4, 5, 6, 7, 8, 17] {
                    let lanes: Vec<Vec<f64>> = (0..width).map(|lane| lane_rhs(n, lane)).collect();
                    let got = solve_all(f, &pack(&lanes), width);
                    for (lane, b) in lanes.iter().enumerate() {
                        let alone = solve_all(f, b, 1);
                        for (kind, (panel, alone)) in got.iter().zip(&alone).enumerate() {
                            assert_eq!(
                                &lane_of(panel, width, lane),
                                alone,
                                "solve {kind} n={n} w={width} l={lane}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn buffers_are_reusable_across_widths_and_dimensions() {
        // One output buffer, reused across solve kinds, widths and
        // dimensions (growing and shrinking), answers like fresh ones.
        let mut out = vec![f64::NAN; 3];
        for (n, width) in [(13usize, 8usize), (6, 1), (13, 3), (6, 17)] {
            for f in &both_flavours(n) {
                let lanes: Vec<Vec<f64>> = (0..width).map(|lane| lane_rhs(n, lane)).collect();
                let panel = pack(&lanes);
                let fresh = solve_all(f, &panel, width);
                solve_unit_lower_multi_into(&f.l, &panel, width, &mut out).unwrap();
                assert_eq!(out, fresh[0]);
                solve_unit_upper_multi_into(&f.l.transpose(), &panel, width, &mut out).unwrap();
                assert_eq!(out, fresh[1]);
            }
        }
    }

    #[test]
    fn unit_solves_ignore_missing_diagonal() {
        // Strictly lower part only; diagonal treated as 1.
        let l = CsrMatrix::from_triplets(3, 3, &[(1, 0, 0.5), (2, 1, 0.25)]).unwrap();
        let b = vec![1.0, 1.0, 1.0];
        let mut x = Vec::new();
        solve_unit_lower_multi_into(&l, &b, 1, &mut x).unwrap();
        assert_eq!(x, vec![1.0, 0.5, 0.875]);
        solve_unit_upper_multi_into(&l.transpose(), &b, 1, &mut x).unwrap();
        assert_eq!(x, vec![0.625, 0.75, 1.0]);
    }

    #[test]
    fn singular_diagonals_are_reported() {
        assert!(matches!(
            scale_diag_multi_into(&[1.0, 0.0], 1, &mut [1.0; 2]),
            Err(SparseError::SingularMatrix { pivot: 1 })
        ));
        assert!(matches!(
            scale_diag_multi_into(&[0.0, 1.0], 2, &mut [1.0; 4]),
            Err(SparseError::SingularMatrix { pivot: 0 })
        ));
        // Between the two substitutions: the forward sweep's output is
        // refused at the zero pivot.
        let l = CsrMatrix::from_triplets(2, 2, &[(1, 0, 1.0)]).unwrap();
        let mut y = Vec::new();
        for width in [1usize, 2] {
            solve_unit_lower_multi_into(&l, &[1.0; 4][..2 * width], width, &mut y).unwrap();
            assert!(matches!(
                scale_diag_multi_into(&[1.0, 0.0], width, &mut y),
                Err(SparseError::SingularMatrix { pivot: 1 })
            ));
        }
    }

    #[test]
    fn shape_validation() {
        let l = CsrMatrix::from_triplets(3, 3, &[(1, 0, 0.5), (2, 1, 0.25)]).unwrap();
        let mut out = Vec::new();
        assert!(solve_unit_lower_multi_into(&l, &[1.0], 1, &mut out).is_err());
        assert!(solve_unit_upper_multi_into(&l, &[1.0; 4], 1, &mut out).is_err());
        let rect = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0)]).unwrap();
        assert!(matches!(
            solve_unit_lower_multi_into(&rect, &[1.0, 1.0], 1, &mut out),
            Err(SparseError::NotSquare { nrows: 2, ncols: 3 })
        ));
        assert!(solve_unit_upper_multi_into(&rect, &[1.0, 1.0], 1, &mut out).is_err());
    }

    #[test]
    fn multi_solve_validation() {
        let l = CsrMatrix::from_triplets(3, 3, &[(1, 0, 0.5), (2, 1, 0.25)]).unwrap();
        let mut out = Vec::new();
        // Panel length must be n * width; width must be positive.
        assert!(solve_unit_lower_multi_into(&l, &[1.0; 5], 2, &mut out).is_err());
        assert!(solve_unit_lower_multi_into(&l, &[], 0, &mut out).is_err());
        assert!(solve_unit_lower_multi_into(&l, &[1.0; 4], 2, &mut out).is_err());
        assert!(solve_unit_upper_multi_into(&l, &[1.0; 4], 3, &mut out).is_err());
        assert!(solve_unit_upper_multi_into(&l, &[1.0; 7], 2, &mut out).is_err());
        let rect = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0)]).unwrap();
        assert!(solve_unit_lower_multi_into(&rect, &[1.0; 4], 2, &mut out).is_err());
        assert!(scale_diag_multi_into(&[1.0], 2, &mut [1.0; 3]).is_err());
    }

    #[test]
    fn multi_solve_mismatch_payload_carries_requested_shape() {
        let l = CsrMatrix::from_triplets(3, 3, &[(1, 0, 0.5), (2, 1, 0.25)]).unwrap();
        let mut out = Vec::new();
        // width == 0: the left side reports the requested width verbatim, the
        // right side reports the supplied panel as a single column — not the
        // shape divided by `width.max(1)` the payload used to fabricate.
        assert!(matches!(
            solve_unit_lower_multi_into(&l, &[1.0; 4], 0, &mut out),
            Err(SparseError::DimensionMismatch {
                left: (3, 0),
                right: (4, 1),
                ..
            })
        ));
        // Ragged panel (length not a multiple of width): reported verbatim as
        // a column, never rounded down to a fake row count.
        assert!(matches!(
            solve_unit_upper_multi_into(&l, &[1.0; 7], 2, &mut out),
            Err(SparseError::DimensionMismatch {
                left: (3, 2),
                right: (7, 1),
                ..
            })
        ));
        // Evenly divisible but wrong row count: re-expressed against the
        // requested width.
        assert!(matches!(
            solve_unit_upper_multi_into(&l, &[1.0; 8], 2, &mut out),
            Err(SparseError::DimensionMismatch {
                left: (3, 2),
                right: (4, 2),
                ..
            })
        ));
        // The diagonal scaling entry point shares the same payload contract.
        assert!(matches!(
            scale_diag_multi_into(&[1.0, 2.0, 3.0], 0, &mut [1.0; 4]),
            Err(SparseError::DimensionMismatch {
                left: (3, 0),
                right: (4, 1),
                ..
            })
        ));
        assert!(matches!(
            scale_diag_multi_into(&[1.0, 2.0, 3.0], 2, &mut [1.0; 7]),
            Err(SparseError::DimensionMismatch {
                left: (3, 2),
                right: (7, 1),
                ..
            })
        ));
    }

    #[test]
    fn ldl_solve_reconstructs_spd_solution() {
        // Build an SPD matrix A = L D L^T and verify the three sweeps, run
        // in the order of Equations (4)-(5), invert it.
        let l = CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 1.0),
                (1, 0, 0.5),
                (1, 1, 1.0),
                (2, 1, -0.25),
                (2, 2, 1.0),
            ],
        )
        .unwrap();
        let d = vec![4.0, 2.0, 1.0];

        // Dense A = L * D * L^T for reference.
        let ld = l
            .to_dense()
            .matmul(&DenseMatrix::from_diagonal(&d))
            .unwrap();
        let a = ld.matmul(&l.to_dense().transpose()).unwrap();

        let b = vec![1.0, -2.0, 3.0];
        let (mut y, mut x) = (Vec::new(), Vec::new());
        solve_unit_lower_multi_into(&l, &b, 1, &mut y).unwrap();
        scale_diag_multi_into(&d, 1, &mut y).unwrap();
        solve_unit_upper_multi_into(&l.transpose(), &y, 1, &mut x).unwrap();
        let ax = a.matvec(&x).unwrap();
        assert!(max_abs_diff(&ax, &b).unwrap() < 1e-12);
        assert!(max_abs_diff(&x, &a.solve(&b).unwrap()).unwrap() < 1e-12);

        // A diagonal of the wrong length is refused.
        assert!(scale_diag_multi_into(&[1.0], 1, &mut y).is_err());
    }
}

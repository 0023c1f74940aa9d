//! Forward and back substitution for sparse unit-triangular systems.
//!
//! Mogul obtains the approximate ranking scores by forward substitution on
//! `L' y = q'` (Equation (4)) followed by back substitution on `U x' = y`
//! (Equation (5)); both factors come from the `L D Lᵀ` factorization of `W`
//! and are stored row-wise (CSR), which is exactly the access pattern the two
//! substitutions need. The factors are unit-triangular by construction, so
//! the only division is the diagonal scaling between the two sweeps.
//!
//! There is one solve family: every function takes a **panel** of `width`
//! right-hand sides with the `width` lane values of each node adjacent
//! (`panel[node * width + lane]`, length `n · width`), so one traversal of
//! the factor's CSR structure applies every non-zero to all lanes through a
//! short contiguous inner loop (see [`crate::kernel`]). A lone right-hand
//! side is the panel of width 1. Each lane performs the same floating-point
//! operations in the same order whatever the width, its position in the
//! panel and the kernel in use, so lane `l` of a panel result is
//! **bit-identical** to the width-1 solve of lane `l`'s right-hand side.

use crate::csr::CsrMatrix;
use crate::error::{Result, SparseError};
use crate::kernel::{dispatch, LaneKernel, ScalarKernel, Sweep};

/// Smallest pivot magnitude accepted before a solve is declared singular.
const PIVOT_TOL: f64 = 1e-300;

/// Panels this narrow run one strided scalar recurrence per lane instead of
/// a lane-kernel sweep: a kernel call on one-element slices per non-zero
/// costs more than the arithmetic it performs (2.1× on a 2 000-node exact
/// factor at width 1). Same operations in the same order per lane, so bits
/// do not change. The choice is made from the width alone, before kernel
/// dispatch, so it is the same on every host — the rule `mogul-core`'s engine
/// applies to its masked sweeps.
const NARROW_PANEL_WIDTH: usize = 1;

/// Reusable scratch for the composite [`ldl_solve_multi_into`] operation: the
/// intermediate `n × width` panel of the two-phase solve, so a warm loop of
/// solves (for example a serving worker of `mogul-serve`) performs no heap
/// allocation — the buffer grows once and is then reused.
#[derive(Debug, Clone, Default)]
pub struct SolveWorkspace {
    /// Intermediate panel of `L Y = B` before the diagonal scaling.
    intermediate: Vec<f64>,
}

impl SolveWorkspace {
    /// An empty workspace; the panel grows on first use.
    pub fn new() -> Self {
        SolveWorkspace::default()
    }
}

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

// --- Narrow panels: one strided scalar recurrence per lane -----------------

fn unit_lower_lane(l: &CsrMatrix, b: &[f64], width: usize, lane: usize, x: &mut [f64]) {
    for i in 0..l.nrows() {
        let (cols, vals) = l.row(i);
        let mut sum = b[i * width + lane];
        for (&j, &v) in cols.iter().zip(vals.iter()) {
            if j < i {
                sum -= v * x[j * width + lane];
            }
        }
        x[i * width + lane] = sum;
    }
}

fn unit_upper_lane(u: &CsrMatrix, b: &[f64], width: usize, lane: usize, x: &mut [f64]) {
    for i in (0..u.nrows()).rev() {
        let (cols, vals) = u.row(i);
        let mut sum = b[i * width + lane];
        for (&j, &v) in cols.iter().zip(vals.iter()) {
            if j > i {
                sum -= v * x[j * width + lane];
            }
        }
        x[i * width + lane] = sum;
    }
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
        if di.abs() < PIVOT_TOL {
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
    if width <= NARROW_PANEL_WIDTH {
        for lane in 0..width {
            unit_lower_lane(l, b, width, lane, x);
        }
        return Ok(());
    }
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
    if width <= NARROW_PANEL_WIDTH {
        for lane in 0..width {
            unit_upper_lane(u, b, width, lane, x);
        }
        return Ok(());
    }
    dispatch(UpperSweep { u, b, width, x });
    Ok(())
}

/// Scale every row of an `n × width` panel by the inverse diagonal, in place:
/// `panel[i, lane] /= d[i]` for every lane. A diagonal entry too small to
/// divide by is reported as [`SparseError::SingularMatrix`].
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
    if width <= NARROW_PANEL_WIDTH {
        // The scalar kernel's one-element loop *is* the per-lane recurrence.
        return scale_diag_sweep(ScalarKernel, d, width, panel);
    }
    dispatch(ScaleDiag { d, width, panel })
}

/// Solve `L D Lᵀ X = B` for `width` right-hand sides at once, given the
/// unit-lower factor `L` (rows, CSR), its transpose `U = Lᵀ` (rows, CSR) and
/// the diagonal `D`: one unit-lower sweep, one diagonal scaling and one
/// unit-upper sweep, each traversing the factor structure once for the whole
/// panel.
///
/// The textbook composite over generic CSR factors, behind
/// [`LdlFactors::solve`](crate::ldl::LdlFactors::solve); `mogul-core` runs
/// its own sweeps over its search layout instead, for Figure 5's "Incomplete
/// Cholesky" baseline too. The intermediate of the forward phase lives in
/// `ws` and the solution is written to `x`, so a warm loop of solves
/// performs no heap allocation.
pub fn ldl_solve_multi_into(
    l: &CsrMatrix,
    u: &CsrMatrix,
    d: &[f64],
    b: &[f64],
    width: usize,
    ws: &mut SolveWorkspace,
    x: &mut Vec<f64>,
) -> Result<()> {
    if d.len() != l.nrows() {
        return Err(SparseError::DimensionMismatch {
            op: "ldl_solve_multi diagonal",
            left: (l.nrows(), l.ncols()),
            right: (d.len(), 1),
        });
    }
    solve_unit_lower_multi_into(l, b, width, &mut ws.intermediate)?;
    scale_diag_multi_into(d, width, &mut ws.intermediate)?;
    solve_unit_upper_multi_into(u, &ws.intermediate, width, x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::dense::DenseMatrix;
    use crate::ldl::{factorize, Factorization, LdlFactors};
    use crate::vector::max_abs_diff;

    // --- The oracle: textbook substitutions on `CsrMatrix::row` only. Same
    // operations in the same order as every lane of the panel family, so the
    // comparisons below are exact `==`.

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

    fn ref_ldl(f: &LdlFactors, b: &[f64]) -> Vec<f64> {
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

    /// `[unit lower, unit upper, scaled, composite]` of one panel.
    fn solve_all(f: &LdlFactors, panel: &[f64], width: usize) -> [Vec<f64>; 4] {
        let mut out = [Vec::new(), Vec::new(), panel.to_vec(), Vec::new()];
        let u = f.l.transpose();
        solve_unit_lower_multi_into(&f.l, panel, width, &mut out[0]).unwrap();
        solve_unit_upper_multi_into(&u, panel, width, &mut out[1]).unwrap();
        scale_diag_multi_into(&f.d, width, &mut out[2]).unwrap();
        let ws = &mut SolveWorkspace::new();
        ldl_solve_multi_into(&f.l, &u, &f.d, panel, width, ws, &mut out[3]).unwrap();
        out
    }

    #[test]
    fn every_solve_matches_the_textbook_substitution_exactly() {
        // Width 1 takes the narrow-panel recurrence, width 3 the lane kernels.
        for f in &both_flavours(11) {
            for width in [1usize, 3] {
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
                    assert_eq!(lane_of(&got[3], width, lane), ref_ldl(f, b));
                }
            }
        }
    }

    #[test]
    fn a_lane_does_not_depend_on_the_panel_around_it() {
        // Lane `l` of a width-`w` panel == the width-1 solve of lane `l`'s
        // right-hand side, for every lane position of every width (ragged
        // ones and one well past a vector register included) — across the
        // narrow-panel boundary on purpose.
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
        // One output buffer and one workspace, reused across solve kinds,
        // widths and dimensions (growing and shrinking), answer like fresh ones.
        let (mut out, mut ws) = (vec![f64::NAN; 3], SolveWorkspace::new());
        for (n, width) in [(13usize, 8usize), (6, 1), (13, 3), (6, 17)] {
            for f in &both_flavours(n) {
                let lanes: Vec<Vec<f64>> = (0..width).map(|lane| lane_rhs(n, lane)).collect();
                let panel = pack(&lanes);
                let (fresh, u) = (solve_all(f, &panel, width), f.l.transpose());
                solve_unit_lower_multi_into(&f.l, &panel, width, &mut out).unwrap();
                assert_eq!(out, fresh[0]);
                solve_unit_upper_multi_into(&u, &panel, width, &mut out).unwrap();
                assert_eq!(out, fresh[1]);
                ldl_solve_multi_into(&f.l, &u, &f.d, &panel, width, &mut ws, &mut out).unwrap();
                assert_eq!(out, fresh[3]);
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
        // Both sides of the narrow-panel rule, alone and through the composite.
        assert!(matches!(
            scale_diag_multi_into(&[1.0, 0.0], 1, &mut [1.0; 2]),
            Err(SparseError::SingularMatrix { pivot: 1 })
        ));
        assert!(matches!(
            scale_diag_multi_into(&[0.0, 1.0], 2, &mut [1.0; 4]),
            Err(SparseError::SingularMatrix { pivot: 0 })
        ));
        let l = CsrMatrix::from_triplets(2, 2, &[(1, 0, 1.0)]).unwrap();
        let (mut ws, mut out) = (SolveWorkspace::new(), Vec::new());
        for width in [1usize, 2] {
            let b = vec![1.0; 2 * width];
            assert!(matches!(
                ldl_solve_multi_into(
                    &l,
                    &l.transpose(),
                    &[1.0, 0.0],
                    &b,
                    width,
                    &mut ws,
                    &mut out
                ),
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
        let mut ws = SolveWorkspace::new();
        assert!(ldl_solve_multi_into(&l, &l, &[1.0], &[1.0; 6], 2, &mut ws, &mut out).is_err());
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
        // Build an SPD matrix A = L D L^T and verify the solve inverts it.
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
        let u = l.transpose();

        // Dense A = L * D * L^T for reference.
        let ld = l
            .to_dense()
            .matmul(&DenseMatrix::from_diagonal(&d))
            .unwrap();
        let a = ld.matmul(&l.to_dense().transpose()).unwrap();

        let b = vec![1.0, -2.0, 3.0];
        let (mut ws, mut x) = (SolveWorkspace::new(), Vec::new());
        ldl_solve_multi_into(&l, &u, &d, &b, 1, &mut ws, &mut x).unwrap();
        let ax = a.matvec(&x).unwrap();
        assert!(max_abs_diff(&ax, &b).unwrap() < 1e-12);
        assert!(max_abs_diff(&x, &a.solve(&b).unwrap()).unwrap() < 1e-12);

        assert!(ldl_solve_multi_into(&l, &u, &[1.0], &b, 1, &mut ws, &mut x).is_err());
    }
}

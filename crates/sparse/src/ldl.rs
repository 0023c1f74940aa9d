//! `L D Lᵀ` factorization: one row recurrence over a fill pattern.
//!
//! Mogul factorizes the symmetric matrix `W = I − α (C')^{-1/2} A' (C')^{-1/2}`
//! with the recurrence of Section 4.2.1, Equations (6) and (7):
//!
//! ```text
//! L_ij = (W_ij − Σ_{k<j} L_ik L_jk D_kk) / D_jj    for (i, j) in the pattern, i > j
//! D_ii = W_ii − Σ_{k<i} L_ik² D_kk
//! ```
//!
//! The two factorizations of the paper differ only in the pattern the
//! recurrence runs over and in what a bad pivot does, both chosen by
//! [`Factorization`]:
//!
//! * [`Factorization::Incomplete`] fixes the pattern to the lower triangle of
//!   `W` — the *incomplete* Cholesky factorization that keeps `L`, `D`,
//!   `U = Lᵀ` at `O(n)` non-zeros (Lemmas 1 and 2). Its factors need not
//!   inherit positive definiteness, so a pivot that comes out non-positive is
//!   boosted to a small positive value and counted in
//!   [`LdlFactors::boosted_pivots`].
//! * [`Factorization::Complete`] runs the same recurrence "without the
//!   sparsity-pattern restriction" — the paper's "Modified Cholesky"
//!   factorization behind MogulE (Section 4.6.1): the pattern is the full
//!   fill of `L`, found by walking the elimination tree, so the ranking scores
//!   are exact. A zero pivot is a [`SparseError::Breakdown`].
//!
//! Both are one serial sweep over the rows in index order.

use crate::csr::CsrMatrix;
use crate::error::{Result, SparseError};

/// Relative floor applied to non-positive pivots of the incomplete
/// factorization.
const PIVOT_BOOST: f64 = 1e-10;

/// Which `L D Lᵀ` factorization to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Factorization {
    /// Incomplete Cholesky restricted to the pattern of `W` — the default
    /// Mogul configuration (approximate scores, smallest factors).
    Incomplete,
    /// Complete ("Modified Cholesky") factorization with fill-in — the MogulE
    /// extension of Section 4.6.1 (exact scores, larger factors).
    Complete,
}

/// Result of an (incomplete or complete) `L D Lᵀ` factorization.
#[derive(Debug, Clone)]
pub struct LdlFactors {
    /// Unit lower-triangular factor with an explicit diagonal of ones (CSR).
    /// `U = Lᵀ` is not kept: a caller that wants its rows transposes `L`.
    pub l: CsrMatrix,
    /// Diagonal factor `D`.
    pub d: Vec<f64>,
    /// Number of pivots that had to be boosted to keep the factorization
    /// well defined (0 for a positive-definite input and exact arithmetic;
    /// always 0 for the complete factorization).
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
}

/// `L D Lᵀ` factorization of the symmetric matrix `w` under `rule`:
/// Equations (6) and (7) over the rule's row pattern.
///
/// Runs in `O(Σ_i Σ_{j ∈ row i} nnz(row j))` time over the pattern — `O(n)`
/// for the incomplete factorization of a bounded-degree k-NN graph
/// (Lemma 2). Returns [`SparseError::Breakdown`] on a non-finite pivot, and
/// for the complete factorization also on a zero one (the matrix is
/// singular); for the paper's matrices `W = I − α S` with `α < 1` the input
/// is positive definite and neither happens.
pub fn factorize(w: &CsrMatrix, rule: Factorization) -> Result<LdlFactors> {
    if w.nrows() != w.ncols() {
        return Err(SparseError::NotSquare {
            nrows: w.nrows(),
            ncols: w.ncols(),
        });
    }
    let n = w.nrows();
    let (indptr, indices) = match rule {
        Factorization::Incomplete => lower_pattern(w),
        Factorization::Complete => filled_pattern(w),
    };
    let mut values = vec![0.0; indices.len()];
    let mut d = vec![0.0; n];
    let mut boosted = 0usize;
    // Row `i` of the recurrence, dense: `W_ij` until `L_ij` replaces it.
    // Zero outside row `i`'s pattern, so the sum of Equation (6) can run over
    // all of row `j`: a term `0 · L_jk · D_kk` adds ±0 and leaves the sum's
    // bits as they are (every stored `L_jk` and `D_kk` is finite, or its own
    // row's pivot would have broken down).
    let mut x = vec![0.0; n];

    for i in 0..n {
        let (w_cols, w_vals) = w.row(i);
        let mut w_ii = 0.0;
        for (&j, &v) in w_cols.iter().zip(w_vals) {
            if j < i {
                x[j] = v;
            } else if j == i {
                w_ii = v;
            }
        }
        let (start, diag) = (indptr[i], indptr[i + 1] - 1);
        // Rows `< i` are complete and only read; row `i` is the one written.
        let (done, row) = values.split_at_mut(start);
        let cols = &indices[start..diag];

        // Equation (6), ascending in `j`: every `k < j` of row `i` is final.
        for (pos, &j) in cols.iter().enumerate() {
            let (j_start, j_diag) = (indptr[j], indptr[j + 1] - 1);
            let mut sum = 0.0;
            for (&k, &l_jk) in indices[j_start..j_diag].iter().zip(&done[j_start..j_diag]) {
                sum += x[k] * l_jk * d[k];
            }
            let l_ij = (x[j] - sum) / d[j];
            x[j] = l_ij;
            row[pos] = l_ij;
        }

        // Equation (7), and `x` cleared for the next row.
        let mut d_i = w_ii;
        for (&k, &l_ik) in cols.iter().zip(row.iter()) {
            d_i -= l_ik * l_ik * d[k];
            x[k] = 0.0;
        }
        row[cols.len()] = 1.0; // unit diagonal of L
        let (pivot, was_boosted) = pivot(rule, i, d_i, w_ii)?;
        d[i] = pivot;
        boosted += usize::from(was_boosted);
    }

    Ok(LdlFactors {
        l: CsrMatrix::from_raw_parts(n, n, indptr, indices, values)?,
        d,
        boosted_pivots: boosted,
    })
}

/// The incomplete rule's pattern: the strictly-lower part of `w` plus an
/// explicit unit diagonal, as CSR `(indptr, indices)`.
fn lower_pattern(w: &CsrMatrix) -> (Vec<usize>, Vec<usize>) {
    let n = w.nrows();
    let mut indptr = Vec::with_capacity(n + 1);
    let mut indices = Vec::with_capacity(w.nnz() / 2 + n);
    indptr.push(0);
    for i in 0..n {
        indices.extend(w.row(i).0.iter().copied().filter(|&j| j < i));
        indices.push(i);
        indptr.push(indices.len());
    }
    (indptr, indices)
}

/// The complete rule's pattern: the full fill of `L`, plus the unit diagonal.
///
/// Row `i` of `L` is the union of the elimination-tree paths from each
/// stored `j < i` of row `i` of `w` up to `i`; the walk discovers the tree as
/// it goes (the parent of `k` is the first row whose walk reaches it).
fn filled_pattern(w: &CsrMatrix) -> (Vec<usize>, Vec<usize>) {
    let n = w.nrows();
    let mut parent = vec![usize::MAX; n];
    // `flag[k] == i`: `k` already visited by row `i`'s walk.
    let mut flag = vec![usize::MAX; n];
    let mut indptr = Vec::with_capacity(n + 1);
    let mut indices = Vec::with_capacity(w.nnz() / 2 + n);
    indptr.push(0);
    for i in 0..n {
        flag[i] = i;
        let start = indices.len();
        for &j in w.row(i).0.iter().filter(|&&j| j < i) {
            let mut k = j;
            while flag[k] != i {
                if parent[k] == usize::MAX {
                    parent[k] = i;
                }
                flag[k] = i;
                indices.push(k);
                k = parent[k];
            }
        }
        indices[start..].sort_unstable();
        indices.push(i);
        indptr.push(indices.len());
    }
    (indptr, indices)
}

/// The pivot rule, the one numeric difference between the two rules.
/// Returns `(d_i, boosted)`.
fn pivot(rule: Factorization, i: usize, d_i: f64, w_ii: f64) -> Result<(f64, bool)> {
    match rule {
        Factorization::Incomplete if d_i.is_finite() => {
            let floor = PIVOT_BOOST * w_ii.abs().max(1.0);
            Ok(if d_i <= floor {
                (floor, true)
            } else {
                (d_i, false)
            })
        }
        Factorization::Complete if d_i != 0.0 && d_i.is_finite() => Ok((d_i, false)),
        _ => Err(SparseError::Breakdown {
            index: i,
            value: d_i,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::dense::DenseMatrix;
    use crate::triangular::tests::ref_ldl;
    use crate::vector::max_abs_diff;
    use proptest::prelude::*;

    const RULES: [Factorization; 2] = [Factorization::Incomplete, Factorization::Complete];

    /// Graph matrix: unit diagonal, `-weight` on every edge.
    fn graph_matrix(n: usize, edges: &[(usize, usize)], weight: f64) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for &(a, b) in edges {
            coo.push_symmetric(a, b, -weight).unwrap();
        }
        for i in 0..n {
            coo.push(i, i, 1.0).unwrap();
        }
        coo.to_csr()
    }

    /// Tridiagonal SPD matrix: no fill, so both rules factor it exactly.
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

    /// Row `i`'s column indices in `L`.
    fn l_row(f: &LdlFactors, i: usize) -> Vec<usize> {
        f.l.row(i).0.to_vec()
    }

    /// The independent pattern oracle: symbolic Gaussian elimination on a
    /// dense boolean lower triangle. Returns each row's columns, diagonal
    /// included.
    fn dense_symbolic_fill(w: &CsrMatrix) -> Vec<Vec<usize>> {
        let n = w.nrows();
        let mut filled = vec![vec![false; n]; n];
        for (i, j, _) in w.iter() {
            if j < i {
                filled[i][j] = true;
            }
        }
        for k in 0..n {
            let below: Vec<usize> = (k + 1..n).filter(|&i| filled[i][k]).collect();
            for &i in &below {
                for &j in &below {
                    if j < i {
                        filled[i][j] = true;
                    }
                }
            }
        }
        (0..n)
            .map(|i| (0..=i).filter(|&j| j == i || filled[i][j]).collect())
            .collect()
    }

    fn edge_strategy(max_n: usize) -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
        (1usize..max_n + 1).prop_flat_map(|n| {
            let edges = proptest::collection::vec((0..n, 0..n), 0..(3 * n));
            (Just(n), edges)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The complete pattern is the dense symbolic elimination's; the
        /// incomplete one is the strictly-lower part of W plus the diagonal.
        #[test]
        fn patterns_match_the_dense_symbolic_oracle((n, edges) in edge_strategy(24)) {
            // Distinct edges at weight 1 / (2n): strictly diagonally
            // dominant, so no pivot of either rule can break down.
            let mut edges: Vec<_> = edges
                .into_iter()
                .filter(|&(a, b)| a != b)
                .map(|(a, b)| (a.min(b), a.max(b)))
                .collect();
            edges.sort_unstable();
            edges.dedup();
            let w = graph_matrix(n, &edges, 0.5 / n as f64);
            let complete = factorize(&w, Factorization::Complete).unwrap();
            let incomplete = factorize(&w, Factorization::Incomplete).unwrap();
            for (i, want) in dense_symbolic_fill(&w).into_iter().enumerate() {
                prop_assert_eq!(l_row(&complete, i), want, "complete row {}", i);
                let lower: Vec<usize> = w.row(i).0.iter().copied().filter(|&j| j <= i).collect();
                prop_assert_eq!(l_row(&incomplete, i), lower, "incomplete row {}", i);
            }
        }
    }

    #[test]
    fn exact_on_tridiagonal() {
        let w = tridiagonal(8);
        let b = vec![1.0; 8];
        let x_dense = w.to_dense().solve(&b).unwrap();
        for rule in RULES {
            let f = factorize(&w, rule).unwrap();
            assert_eq!(f.boosted_pivots, 0);
            let diff = f.reconstruct_dense().max_abs_diff(&w.to_dense()).unwrap();
            assert!(diff < 1e-12, "{rule:?}: reconstruction error {diff}");
            let x = ref_ldl(&f, &b);
            assert!(max_abs_diff(&x, &x_dense).unwrap() < 1e-10);
        }
    }

    #[test]
    fn no_fill_for_tridiagonal() {
        // With no fill the two patterns coincide, so one loop gives the two
        // rules the same factors, bit for bit.
        let n = 10;
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let w = graph_matrix(n, &edges, 0.2);
        let complete = factorize(&w, Factorization::Complete).unwrap();
        let incomplete = factorize(&w, Factorization::Incomplete).unwrap();
        let lower = w.lower_triangle(true);
        for i in 0..n {
            assert_eq!(l_row(&complete, i), lower.row(i).0, "row {i}");
        }
        assert_eq!(
            complete.l.nnz() - n,
            w.lower_triangle(false).nnz(),
            "fill 0"
        );
        assert_eq!(complete.l, incomplete.l);
        assert_eq!(complete.d, incomplete.d);
    }

    #[test]
    fn unit_diagonal_and_pattern() {
        let w = tridiagonal(5);
        for rule in RULES {
            let f = factorize(&w, rule).unwrap();
            for i in 0..5 {
                assert_eq!(f.l.get(i, i), 1.0);
            }
            assert_eq!(f.dim(), 5);
            assert_eq!(f.l_nnz(), 9);
        }
    }

    #[test]
    fn identity_input_gives_identity_factors() {
        for rule in RULES {
            let f = factorize(&CsrMatrix::identity(4), rule).unwrap();
            assert_eq!(f.d, vec![1.0; 4]);
            assert_eq!(f.l, CsrMatrix::identity(4));
            let diff = f
                .reconstruct_dense()
                .max_abs_diff(&DenseMatrix::identity(4))
                .unwrap();
            assert!(diff < 1e-15);
        }
    }

    #[test]
    fn rejects_rectangular_input() {
        let rect = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0)]).unwrap();
        for rule in RULES {
            assert!(matches!(
                factorize(&rect, rule),
                Err(SparseError::NotSquare { nrows: 2, ncols: 3 })
            ));
        }
    }

    #[test]
    fn incomplete_factor_ignores_fill_positions() {
        // Arrow matrix with the hub first: the complete factorization fills
        // the whole lower triangle; the incomplete one stays on the arrow.
        let n = 6;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0).unwrap();
        }
        for i in 1..n {
            coo.push_symmetric(0, i, -1.0).unwrap();
        }
        let w = coo.to_csr();
        let f = factorize(&w, Factorization::Incomplete).unwrap();
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
        let complete = factorize(&w, Factorization::Complete).unwrap();
        assert_eq!(
            complete.l_nnz(),
            n * (n + 1) / 2,
            "hub first fills everything"
        );
        let diff = complete
            .reconstruct_dense()
            .max_abs_diff(&w.to_dense())
            .unwrap();
        assert!(diff < 1e-12, "complete reconstruction error {diff}");
    }

    #[test]
    fn diagonally_dominant_random_like_matrix() {
        // A small "two cluster + border" matrix mimicking the paper's setting.
        let edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)];
        let w = graph_matrix(6, &edges, 0.2);
        let f = factorize(&w, Factorization::Incomplete).unwrap();
        assert_eq!(f.boosted_pivots, 0);
        // The approximation is close even where not exact.
        let diff = f.reconstruct_dense().max_abs_diff(&w.to_dense()).unwrap();
        assert!(diff < 0.1, "approximation error too large: {diff}");
        // Solving with the incomplete factors approximates the true solution.
        let b = vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let approx = ref_ldl(&f, &b);
        let exact = w.to_dense().solve(&b).unwrap();
        assert!(max_abs_diff(&approx, &exact).unwrap() < 0.05);
    }

    #[test]
    fn exact_reconstruction_with_fill_in() {
        // A cycle graph whose natural ordering forces fill-in.
        let n = 7;
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let w = graph_matrix(n, &edges, 0.2);
        let f = factorize(&w, Factorization::Complete).unwrap();
        let diff = f.reconstruct_dense().max_abs_diff(&w.to_dense()).unwrap();
        assert!(diff < 1e-12, "reconstruction error {diff}");
        let fill = f.l_nnz() - n - w.lower_triangle(false).nnz();
        assert_eq!(fill, n - 3, "closing the ring fills the last row");
        let incomplete = factorize(&w, Factorization::Incomplete).unwrap();
        assert_eq!(incomplete.l_nnz() + fill, f.l_nnz());
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
        let w = graph_matrix(n, &edges, 0.2);
        let f = factorize(&w, Factorization::Complete).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let x = ref_ldl(&f, &b);
        let x_ref = w.to_dense().solve(&b).unwrap();
        assert!(max_abs_diff(&x, &x_ref).unwrap() < 1e-10);
    }

    #[test]
    fn boosts_indefinite_pivots_instead_of_failing() {
        // Indefinite matrix: off-diagonal dominates.
        let w =
            CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 5.0), (1, 0, 5.0), (1, 1, 1.0)])
                .unwrap();
        let f = factorize(&w, Factorization::Incomplete).unwrap();
        assert_eq!(f.boosted_pivots, 1);
        assert_eq!(f.d, vec![1.0, PIVOT_BOOST]);
        // The complete factorization keeps the negative pivot: it is exact.
        let f = factorize(&w, Factorization::Complete).unwrap();
        assert_eq!((f.boosted_pivots, f.d.clone()), (0, vec![1.0, -24.0]));
    }

    /// What one rule does with one matrix.
    #[derive(Debug)]
    enum Outcome {
        /// `Breakdown { index, value }`; a NaN value matches any NaN.
        Breakdown(usize, f64),
        /// Success with these pivots (compared by bits) and boosted count.
        Factors(Vec<f64>, usize),
    }

    fn outcome(w: &CsrMatrix, rule: Factorization) -> Outcome {
        match factorize(w, rule) {
            Ok(f) => Outcome::Factors(f.d, f.boosted_pivots),
            Err(SparseError::Breakdown { index, value }) => Outcome::Breakdown(index, value),
            Err(e) => panic!("{rule:?}: unexpected error {e:?}"),
        }
    }

    fn same(a: &Outcome, b: &Outcome) -> bool {
        let bits = |v: &f64| if v.is_nan() { u64::MAX } else { v.to_bits() };
        match (a, b) {
            (Outcome::Breakdown(i, x), Outcome::Breakdown(j, y)) => i == j && bits(x) == bits(y),
            (Outcome::Factors(x, m), Outcome::Factors(y, k)) => {
                m == k && x.iter().map(bits).eq(y.iter().map(bits))
            }
            _ => false,
        }
    }

    #[test]
    fn pivot_rule_table() {
        use Outcome::{Breakdown, Factors};
        let m = |n: usize, t: &[(usize, usize, f64)]| CsrMatrix::from_triplets(n, n, t).unwrap();
        let floor = PIVOT_BOOST;
        // (case, W, complete, incomplete)
        let table: Vec<(&str, CsrMatrix, Outcome, Outcome)> = vec![
            (
                "zero pivot: a singular [[1, -1], [-1, 1]] block after a sound row",
                m(
                    3,
                    &[
                        (0, 0, 2.0),
                        (1, 1, 1.0),
                        (2, 2, 1.0),
                        (1, 2, -1.0),
                        (2, 1, -1.0),
                    ],
                ),
                Breakdown(2, 0.0),
                Factors(vec![2.0, 1.0, floor], 1),
            ),
            (
                "NaN off the diagonal: the later row of the pair breaks",
                m(
                    4,
                    &[
                        (0, 0, 1.0),
                        (1, 1, 1.0),
                        (2, 2, 1.0),
                        (3, 3, 1.0),
                        (3, 1, f64::NAN),
                        (1, 3, f64::NAN),
                    ],
                ),
                Breakdown(3, f64::NAN),
                Breakdown(3, f64::NAN),
            ),
            (
                "NaN on the diagonal",
                m(3, &[(0, 0, 1.0), (1, 1, f64::NAN), (2, 2, 1.0)]),
                Breakdown(1, f64::NAN),
                Breakdown(1, f64::NAN),
            ),
            (
                "overflow: L_10 = 1e300 squares past f64",
                m(2, &[(0, 0, 1.0), (1, 1, 1.0), (0, 1, 1e300), (1, 0, 1e300)]),
                Breakdown(1, f64::NEG_INFINITY),
                Breakdown(1, f64::NEG_INFINITY),
            ),
            (
                "an isolated row between coupled ones",
                m(
                    3,
                    &[
                        (0, 0, 2.0),
                        (1, 1, 5.0),
                        (2, 2, 2.0),
                        (0, 2, -1.0),
                        (2, 0, -1.0),
                    ],
                ),
                Factors(vec![2.0, 5.0, 1.5], 0),
                Factors(vec![2.0, 5.0, 1.5], 0),
            ),
            (
                "an isolated row with no stored diagonal",
                m(2, &[(0, 0, 2.0)]),
                Breakdown(1, 0.0),
                Factors(vec![2.0, floor], 1),
            ),
            (
                "the empty matrix",
                m(0, &[]),
                Factors(vec![], 0),
                Factors(vec![], 0),
            ),
            (
                "1×1",
                m(1, &[(0, 0, 3.0)]),
                Factors(vec![3.0], 0),
                Factors(vec![3.0], 0),
            ),
            (
                "1×1, a pivot exactly on the floor counts as boosted",
                m(1, &[(0, 0, floor)]),
                Factors(vec![floor], 0),
                Factors(vec![floor], 1),
            ),
            (
                "1×1, negative: boosted relative to |w_ii|",
                m(1, &[(0, 0, -3.0)]),
                Factors(vec![-3.0], 0),
                Factors(vec![3.0 * floor], 1),
            ),
        ];
        for (case, w, complete, incomplete) in &table {
            for (rule, want) in [
                (Factorization::Complete, complete),
                (Factorization::Incomplete, incomplete),
            ] {
                let got = outcome(w, rule);
                assert!(
                    same(&got, want),
                    "{case}, {rule:?}: got {got:?}, want {want:?}"
                );
            }
        }
    }
}

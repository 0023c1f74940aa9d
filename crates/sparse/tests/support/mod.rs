//! Test support shared by the integration tests: the textbook `L D Lᵀ`
//! solve, written on `CsrMatrix::row` alone so that it shares no code with
//! the sweeps of `mogul_sparse::triangular`.

use mogul_sparse::LdlFactors;

/// Solve `L D Lᵀ x = b`: forward substitution on `L`, division by `D`, back
/// substitution on the rows of `U = Lᵀ`.
pub fn ldl_solve(f: &LdlFactors, b: &[f64]) -> Vec<f64> {
    let mut x = b.to_vec();
    for i in 0..x.len() {
        let (cols, vals) = f.l.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            if j < i {
                x[i] -= v * x[j];
            }
        }
    }
    for (xi, di) in x.iter_mut().zip(&f.d) {
        *xi /= di;
    }
    let u = f.l.transpose();
    for i in (0..x.len()).rev() {
        let (cols, vals) = u.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            if j > i {
                x[i] -= v * x[j];
            }
        }
    }
    x
}

//! Dense vector helpers.
//!
//! Ranking-score vectors (`x`, `y`, `q` in the paper) are plain `Vec<f64>`;
//! this module provides the handful of BLAS-1 style operations the rest of
//! the workspace needs, with explicit, allocation-conscious signatures.

use crate::error::{Result, SparseError};

/// Dot product without the length check; callers guarantee equal lengths.
#[inline]
pub fn dot_unchecked(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Euclidean (L2) norm.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot_unchecked(a, a).sqrt()
}

/// Scale a vector in place: `x ← alpha * x`.
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Squared Euclidean distance without the length check.
#[inline]
pub fn squared_euclidean_unchecked(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Normalize a vector to unit L2 norm in place.
///
/// Vectors with norm below `1e-300` are left untouched (they would otherwise
/// become non-finite).
pub fn normalize(x: &mut [f64]) {
    let n = norm2(x);
    if n > 1e-300 {
        scale(1.0 / n, x);
    }
}

/// Maximum absolute difference between two equal-length slices.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.len() != b.len() {
        return Err(SparseError::DimensionMismatch {
            op: "max_abs_diff",
            left: (a.len(), 1),
            right: (b.len(), 1),
        });
    }
    Ok(a.iter()
        .zip(b.iter())
        .fold(0.0f64, |m, (x, y)| m.max((x - y).abs())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms() {
        let v = [3.0, -4.0];
        assert!((norm2(&v) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn scale_and_normalize() {
        let mut v = vec![3.0, 4.0];
        scale(2.0, &mut v);
        assert_eq!(v, vec![6.0, 8.0]);
        normalize(&mut v);
        assert!((norm2(&v) - 1.0).abs() < 1e-12);

        let mut z = vec![0.0, 0.0];
        normalize(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn max_abs_diff_checks_lengths() {
        assert!((max_abs_diff(&[1.0, 2.0], &[1.5, 2.0]).unwrap() - 0.5).abs() < 1e-12);
        assert!(max_abs_diff(&[1.0], &[1.0, 2.0]).is_err());
    }
}

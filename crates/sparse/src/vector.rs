//! Dense vector helpers.
//!
//! Ranking-score vectors (`x`, `y`, `q` in the paper) are plain `Vec<f64>`;
//! this module provides the handful of BLAS-1 style operations the rest of
//! the workspace needs, with explicit, allocation-conscious signatures.

use crate::error::{Result, SparseError};

/// Dot product of two equal-length slices.
///
/// Returns an error if the lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.len() != b.len() {
        return Err(SparseError::DimensionMismatch {
            op: "dot",
            left: (a.len(), 1),
            right: (b.len(), 1),
        });
    }
    Ok(dot_unchecked(a, b))
}

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

/// Maximum absolute entry; `0.0` for an empty slice.
#[inline]
pub fn norm_inf(a: &[f64]) -> f64 {
    a.iter().fold(0.0f64, |m, x| m.max(x.abs()))
}

/// `y ← y + alpha * x` (classic AXPY).
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) -> Result<()> {
    if x.len() != y.len() {
        return Err(SparseError::DimensionMismatch {
            op: "axpy",
            left: (x.len(), 1),
            right: (y.len(), 1),
        });
    }
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
    Ok(())
}

/// Scale a vector in place: `x ← alpha * x`.
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Euclidean distance between two equal-length slices.
pub fn euclidean_distance(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.len() != b.len() {
        return Err(SparseError::DimensionMismatch {
            op: "euclidean_distance",
            left: (a.len(), 1),
            right: (b.len(), 1),
        });
    }
    Ok(squared_euclidean_unchecked(a, b).sqrt())
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

/// Indices of the `k` largest entries, in descending order of value.
///
/// Ties are broken by ascending index so that the result is deterministic.
/// If `k >= x.len()` all indices are returned.
pub fn top_k_indices(x: &[f64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..x.len()).collect();
    idx.sort_by(|&a, &b| {
        x[b].partial_cmp(&x[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    idx.truncate(k.min(x.len()));
    idx
}

/// Return `true` when every entry is finite.
pub fn all_finite(x: &[f64]) -> bool {
    x.iter().all(|v| v.is_finite())
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
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]).unwrap(), 32.0);
    }

    #[test]
    fn dot_length_mismatch() {
        assert!(dot(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn norms() {
        let v = [3.0, -4.0];
        assert!((norm2(&v) - 5.0).abs() < 1e-12);
        assert!((norm_inf(&v) - 4.0).abs() < 1e-12);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y).unwrap();
        assert_eq!(y, vec![7.0, 9.0]);
        assert!(axpy(1.0, &[1.0], &mut y).is_err());
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
    fn distances() {
        let d = euclidean_distance(&[0.0, 0.0], &[3.0, 4.0]).unwrap();
        assert!((d - 5.0).abs() < 1e-12);
        assert!(euclidean_distance(&[0.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn top_k_orders_and_breaks_ties() {
        let x = [0.5, 2.0, 2.0, -1.0, 3.0];
        assert_eq!(top_k_indices(&x, 3), vec![4, 1, 2]);
        assert_eq!(top_k_indices(&x, 10).len(), 5);
        assert_eq!(top_k_indices(&x, 0), Vec::<usize>::new());
    }

    #[test]
    fn finite_and_diff() {
        assert!(all_finite(&[1.0, 2.0]));
        assert!(!all_finite(&[1.0, f64::NAN]));
        assert!((max_abs_diff(&[1.0, 2.0], &[1.5, 2.0]).unwrap() - 0.5).abs() < 1e-12);
        assert!(max_abs_diff(&[1.0], &[1.0, 2.0]).is_err());
    }
}

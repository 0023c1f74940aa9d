//! Error types shared by every numerical kernel in the crate.

use std::error::Error;
use std::fmt;

/// Convenience alias used by all fallible operations in `mogul-sparse`.
pub type Result<T> = std::result::Result<T, SparseError>;

/// Errors produced by the linear-algebra kernels.
#[derive(Debug, Clone, PartialEq)]
pub enum SparseError {
    /// Two operands have incompatible shapes.
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Shape of the left operand (rows, cols).
        left: (usize, usize),
        /// Shape of the right operand (rows, cols).
        right: (usize, usize),
    },
    /// A square matrix was required but a rectangular one was supplied.
    NotSquare {
        /// Number of rows of the offending matrix.
        nrows: usize,
        /// Number of columns of the offending matrix.
        ncols: usize,
    },
    /// An index was outside the matrix bounds.
    IndexOutOfBounds {
        /// The offending (row, col) pair.
        index: (usize, usize),
        /// The matrix shape.
        shape: (usize, usize),
    },
    /// A factorization or solve encountered an (effectively) singular pivot.
    SingularMatrix {
        /// The pivot index at which the breakdown occurred.
        pivot: usize,
    },
    /// A factorization broke down (e.g. non-positive pivot in Cholesky).
    Breakdown {
        /// The row/column at which the breakdown occurred.
        index: usize,
        /// The offending pivot value.
        value: f64,
    },
    /// An iterative method failed to converge within its iteration budget.
    DidNotConverge {
        /// Number of iterations performed.
        iterations: usize,
        /// Residual at the last iteration.
        residual: f64,
    },
    /// The input violated a documented precondition.
    InvalidInput(String),
    /// A length does not fit the narrower integer a compact layout stores
    /// it in.
    TooLarge {
        /// What was counted.
        what: &'static str,
        /// The length that was asked for.
        len: usize,
        /// The largest length the layout can store.
        limit: usize,
    },
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::DimensionMismatch { op, left, right } => write!(
                f,
                "dimension mismatch in {op}: left is {}x{}, right is {}x{}",
                left.0, left.1, right.0, right.1
            ),
            SparseError::NotSquare { nrows, ncols } => {
                write!(f, "matrix must be square, got {nrows}x{ncols}")
            }
            SparseError::IndexOutOfBounds { index, shape } => write!(
                f,
                "index ({}, {}) out of bounds for {}x{} matrix",
                index.0, index.1, shape.0, shape.1
            ),
            SparseError::SingularMatrix { pivot } => {
                write!(f, "matrix is singular (zero pivot at index {pivot})")
            }
            SparseError::Breakdown { index, value } => write!(
                f,
                "factorization breakdown at index {index}: pivot {value:e}"
            ),
            SparseError::DidNotConverge {
                iterations,
                residual,
            } => write!(
                f,
                "iteration did not converge after {iterations} iterations (residual {residual:e})"
            ),
            SparseError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            SparseError::TooLarge { what, len, limit } => {
                write!(f, "{what} of {len} exceeds the limit of {limit}")
            }
        }
    }
}

impl Error for SparseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_dimension_mismatch() {
        let err = SparseError::DimensionMismatch {
            op: "matvec",
            left: (3, 4),
            right: (5, 1),
        };
        let msg = err.to_string();
        assert!(msg.contains("matvec"));
        assert!(msg.contains("3x4"));
        assert!(msg.contains("5x1"));
    }

    #[test]
    fn display_not_square() {
        let err = SparseError::NotSquare { nrows: 2, ncols: 3 };
        assert!(err.to_string().contains("2x3"));
    }

    #[test]
    fn display_singular() {
        let err = SparseError::SingularMatrix { pivot: 7 };
        assert!(err.to_string().contains('7'));
    }

    #[test]
    fn display_breakdown_and_convergence() {
        let err = SparseError::Breakdown {
            index: 3,
            value: -1e-20,
        };
        assert!(err.to_string().contains("index 3"));
        let err = SparseError::DidNotConverge {
            iterations: 100,
            residual: 0.5,
        };
        assert!(err.to_string().contains("100"));
    }

    #[test]
    fn display_too_large() {
        let err = SparseError::TooLarge {
            what: "factor nnz",
            len: 5,
            limit: 4,
        };
        let msg = err.to_string();
        assert!(msg.contains("factor nnz") && msg.contains('5') && msg.contains('4'));
    }

    #[test]
    fn error_trait_object() {
        let err: Box<dyn Error> = Box::new(SparseError::InvalidInput("bad".into()));
        assert!(err.to_string().contains("bad"));
    }
}

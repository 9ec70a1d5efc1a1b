//! Error type shared by all linear-algebra operations.

use std::fmt;

/// Result alias for fallible matrix operations.
pub type Result<T> = std::result::Result<T, MatrixError>;

/// Errors produced by dense linear-algebra routines.
#[derive(Debug, Clone, PartialEq)]
pub enum MatrixError {
    /// Operand shapes are incompatible for the requested operation.
    DimensionMismatch {
        /// Description of the operation that failed.
        op: &'static str,
        /// Shape of the left/first operand.
        lhs: (usize, usize),
        /// Shape of the right/second operand.
        rhs: (usize, usize),
    },
    /// The operation requires a square matrix.
    NotSquare {
        /// Actual shape encountered.
        shape: (usize, usize),
    },
    /// A pivot smaller than the singularity threshold was encountered: the
    /// matrix is singular (or numerically so) and cannot be inverted.
    Singular {
        /// Elimination step at which the zero pivot appeared.
        step: usize,
    },
    /// A block index or range fell outside the matrix.
    OutOfBounds {
        /// Description of the access that failed.
        op: &'static str,
        /// Requested row range (begin inclusive, end exclusive).
        rows: (usize, usize),
        /// Requested column range (begin inclusive, end exclusive).
        cols: (usize, usize),
        /// Matrix shape.
        shape: (usize, usize),
    },
    /// A tuning or shape parameter is outside its valid range (e.g. a
    /// zero tile size).
    InvalidParameter {
        /// Description of the operation that rejected the parameter.
        op: &'static str,
        /// What was wrong with the value.
        what: &'static str,
    },
    /// A serialized matrix could not be decoded.
    Codec(String),
    /// A pivot array read from outside the program is not a permutation
    /// of `0..len`: its entry `index` is out of range or repeated.
    NotAPermutation {
        /// Length of the array.
        len: usize,
        /// Position of the first offending entry.
        index: usize,
        /// The offending entry.
        value: usize,
    },
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::DimensionMismatch { op, lhs, rhs } => write!(
                f,
                "dimension mismatch in {op}: {}x{} vs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            MatrixError::NotSquare { shape } => {
                write!(
                    f,
                    "operation requires a square matrix, got {}x{}",
                    shape.0, shape.1
                )
            }
            MatrixError::Singular { step } => {
                write!(
                    f,
                    "matrix is singular (zero pivot at elimination step {step})"
                )
            }
            MatrixError::OutOfBounds {
                op,
                rows,
                cols,
                shape,
            } => write!(
                f,
                "block out of bounds in {op}: rows {}..{} cols {}..{} of a {}x{} matrix",
                rows.0, rows.1, cols.0, cols.1, shape.0, shape.1
            ),
            MatrixError::InvalidParameter { op, what } => {
                write!(f, "invalid parameter in {op}: {what}")
            }
            MatrixError::Codec(msg) => write!(f, "matrix codec error: {msg}"),
            MatrixError::NotAPermutation { len, index, value } => {
                write!(f, "not a permutation of 0..{len}: entry {index} is {value}")
            }
        }
    }
}

impl std::error::Error for MatrixError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = MatrixError::DimensionMismatch {
            op: "mul",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        assert_eq!(e.to_string(), "dimension mismatch in mul: 2x3 vs 4x5");

        let e = MatrixError::NotSquare { shape: (2, 3) };
        assert!(e.to_string().contains("square"));

        let e = MatrixError::Singular { step: 7 };
        assert!(e.to_string().contains("step 7"));

        let e = MatrixError::OutOfBounds {
            op: "block",
            rows: (0, 9),
            cols: (0, 2),
            shape: (4, 4),
        };
        assert!(e.to_string().contains("rows 0..9"));

        let e = MatrixError::Codec("truncated".into());
        assert!(e.to_string().contains("truncated"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&MatrixError::Singular { step: 0 });
    }
}

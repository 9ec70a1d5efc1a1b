//! Error type for the inversion pipeline.

use std::fmt;

use mrinv_mapreduce::MrError;
use mrinv_matrix::MatrixError;

/// Result alias for pipeline operations.
pub(crate) type Result<T> = std::result::Result<T, CoreError>;

/// Errors produced by the distributed inversion pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A linear-algebra failure (singular matrix, shape mismatch, ...).
    Matrix(MatrixError),
    /// A framework failure (task retries exhausted, missing file, ...).
    MapReduce(MrError),
    /// A pipeline invariant was violated.
    Invariant(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Matrix(e) => write!(f, "matrix error: {e}"),
            CoreError::MapReduce(e) => write!(f, "mapreduce error: {e}"),
            CoreError::Invariant(msg) => write!(f, "pipeline invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Matrix(e) => Some(e),
            CoreError::MapReduce(e) => Some(e),
            CoreError::Invariant(_) => None,
        }
    }
}

impl From<MatrixError> for CoreError {
    fn from(e: MatrixError) -> Self {
        CoreError::Matrix(e)
    }
}

impl From<MrError> for CoreError {
    fn from(e: MrError) -> Self {
        CoreError::MapReduce(e)
    }
}

impl From<CoreError> for MrError {
    /// Task bodies run inside the framework and must report framework
    /// errors; pipeline errors are carried as task messages.
    fn from(e: CoreError) -> Self {
        match e {
            CoreError::MapReduce(e) => e,
            other => MrError::Other(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let m: CoreError = MatrixError::Singular { step: 2 }.into();
        assert!(matches!(m, CoreError::Matrix(_)));
        assert!(m.to_string().contains("singular"));

        let nf = MrError::FileNotFound {
            path: "x".into(),
            nearest_parent: "/".into(),
        };
        let mr: CoreError = nf.clone().into();
        let back: MrError = mr.into();
        assert_eq!(back, nf);

        let inv = CoreError::Invariant("bad".into());
        let as_mr: MrError = inv.into();
        assert!(matches!(as_mr, MrError::Other(_)));
    }

    #[test]
    fn error_source_chain() {
        use std::error::Error;
        let e: CoreError = MatrixError::Singular { step: 0 }.into();
        assert!(e.source().is_some());
        assert!(CoreError::Invariant("x".into()).source().is_none());
    }
}

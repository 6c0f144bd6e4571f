use std::fmt;

/// Errors produced by the linear-algebra kernels in this crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LinalgError {
    /// Two operands had incompatible shapes.
    ///
    /// Carries a human-readable description of the mismatch, e.g.
    /// `"matvec: matrix is 4x3 but vector has length 2"`.
    ShapeMismatch(String),
    /// A matrix that must be square was not.
    NotSquare { rows: usize, cols: usize },
    /// A direct solve hit a (numerically) singular pivot.
    Singular { pivot_index: usize },
    /// An input contained a NaN or infinity where a finite value is required.
    NonFinite(String),
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix must be square but is {rows}x{cols}")
            }
            LinalgError::Singular { pivot_index } => {
                write!(f, "matrix is singular at pivot {pivot_index}")
            }
            LinalgError::NonFinite(msg) => write!(f, "non-finite value: {msg}"),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase_start() {
        let errors: Vec<LinalgError> = vec![
            LinalgError::ShapeMismatch("a vs b".into()),
            LinalgError::NotSquare { rows: 2, cols: 3 },
            LinalgError::Singular { pivot_index: 1 },
            LinalgError::NonFinite("rhs".into()),
        ];
        for err in errors {
            let text = err.to_string();
            assert!(!text.is_empty());
            assert!(text.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }
}

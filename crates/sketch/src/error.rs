//! Error types for the sketch crate, on the workspace error pattern
//! ([`ips_linalg::define_error!`]).

use ips_linalg::LinalgError;

ips_linalg::define_error! {
    /// Errors produced by sketch construction and queries.
    #[derive(Clone, PartialEq)]
    SketchError, Result {
        variants {
            /// A vector had the wrong dimensionality.
            DimensionMismatch {
                /// Expected dimension.
                expected: usize,
                /// Offending dimension.
                actual: usize,
            } => ("dimension mismatch: expected {expected}, got {actual}"),
            /// A parameter was outside its legal range.
            InvalidParameter {
                /// Name of the offending parameter.
                name: &'static str,
                /// Explanation of the constraint that was violated.
                reason: String,
            } => ("invalid parameter `{name}`: {reason}"),
            /// A data set was empty where at least one vector was required.
            EmptyDataSet => ("data set must contain at least one vector"),
        }
        wraps {
            /// An underlying linear-algebra operation failed.
            Linalg(LinalgError) => "linear algebra error",
        }
    }
}

/// The dimension shared by every vector of a non-empty list, which is what each
/// sketch structure asks of its data before it touches a coordinate.
pub(crate) fn uniform_dim(vectors: &[ips_linalg::DenseVector]) -> Result<usize> {
    let dim = positive_dim(vectors.first().ok_or(SketchError::EmptyDataSet)?.dim())?;
    match vectors.iter().find(|v| v.dim() != dim) {
        Some(v) => Err(SketchError::DimensionMismatch {
            expected: dim,
            actual: v.dim(),
        }),
        None => Ok(dim),
    }
}

/// `dim`, unless it is 0: a sketch of 0-dimensional data holds no coefficient, so
/// nothing it is stored with bounds how many rows it claims.
pub(crate) fn positive_dim(dim: usize) -> Result<usize> {
    if dim == 0 {
        return Err(SketchError::InvalidParameter {
            name: "dim",
            reason: "a sketch needs data of at least one dimension".into(),
        });
    }
    Ok(dim)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(SketchError::EmptyDataSet
            .to_string()
            .contains("at least one"));
        assert!(SketchError::DimensionMismatch {
            expected: 2,
            actual: 3
        }
        .to_string()
        .contains("expected 2"));
        assert!(SketchError::InvalidParameter {
            name: "kappa",
            reason: "too small".into()
        }
        .to_string()
        .contains("kappa"));
    }

    #[test]
    fn linalg_conversion_preserves_source() {
        let e: SketchError = LinalgError::Empty { op: "norm" }.into();
        assert!(matches!(e, SketchError::Linalg(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}

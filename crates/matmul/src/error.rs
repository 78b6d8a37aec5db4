//! Error types for the matrix-multiplication substrate, on the workspace error
//! pattern ([`ips_linalg::define_error!`]).

use ips_linalg::LinalgError;

ips_linalg::define_error! {
    /// Errors produced by the matrix-multiplication kernels and the amplified join.
    #[derive(Clone, PartialEq)]
    MatmulError, Result {
        variants {
            /// Two matrices (or a matrix and a vector collection) had incompatible shapes.
            ShapeMismatch {
                /// Shape of the left operand, `(rows, cols)`.
                left: (usize, usize),
                /// Shape of the right operand, `(rows, cols)`.
                right: (usize, usize),
                /// Human-readable description of the operation that failed.
                op: &'static str,
            } => ("shape mismatch in {op}: {}x{} vs {}x{}", left.0, left.1, right.0, right.1),
            /// A parameter was outside its legal range.
            InvalidParameter {
                /// Name of the offending parameter.
                name: &'static str,
                /// Explanation of the constraint that was violated.
                reason: String,
            } => ("invalid parameter `{name}`: {reason}"),
            /// An operation required a non-empty input.
            Empty {
                /// Description of the operation that failed.
                op: &'static str,
            } => ("operation {op} requires non-empty input"),
        }
        wraps {
            /// An underlying linear-algebra operation failed.
            Linalg(LinalgError) => "linear algebra error",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shape_mismatch() {
        let e = MatmulError::ShapeMismatch {
            left: (2, 3),
            right: (4, 5),
            op: "multiply",
        };
        assert_eq!(e.to_string(), "shape mismatch in multiply: 2x3 vs 4x5");
    }

    #[test]
    fn display_invalid_parameter_and_empty() {
        let e = MatmulError::InvalidParameter {
            name: "block",
            reason: "must be positive".into(),
        };
        assert!(e.to_string().contains("block"));
        let e = MatmulError::Empty { op: "gram" };
        assert!(e.to_string().contains("gram"));
    }

    #[test]
    fn linalg_conversion_preserves_source() {
        let e: MatmulError = LinalgError::Empty { op: "dot" }.into();
        assert!(e.to_string().contains("linear algebra"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&MatmulError::Empty { op: "x" }).is_none());
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<MatmulError>();
    }
}

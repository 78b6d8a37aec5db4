//! Error types for `ips-core`, on the workspace error pattern
//! ([`ips_linalg::define_error!`]).

use ips_linalg::LinalgError;
use ips_lsh::LshError;
use ips_ovp::OvpError;
use ips_sketch::SketchError;

ips_linalg::define_error! {
    /// Errors produced by the join and search implementations.
    #[derive(Clone, PartialEq)]
    CoreError, Result {
        variants {
            /// A vector had the wrong dimensionality for the structure it was used with.
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
            /// An underlying LSH operation failed.
            Lsh(LshError) => "LSH error",
            /// An underlying sketch operation failed.
            Sketch(SketchError) => "sketch error",
            /// An underlying OVP operation failed.
            Ovp(OvpError) => "OVP error",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CoreError = LinalgError::Empty { op: "dot" }.into();
        assert!(e.to_string().contains("linear algebra"));
        let e: CoreError = LshError::DomainViolation { reason: "x".into() }.into();
        assert!(e.to_string().contains("LSH"));
        let e: CoreError = SketchError::EmptyDataSet.into();
        assert!(e.to_string().contains("sketch"));
        let e: CoreError = OvpError::EmptyInstance.into();
        assert!(e.to_string().contains("OVP"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(CoreError::EmptyDataSet.to_string().contains("at least one"));
        assert!(CoreError::DimensionMismatch {
            expected: 1,
            actual: 2
        }
        .to_string()
        .contains("expected 1"));
        assert!(CoreError::InvalidParameter {
            name: "c",
            reason: "bad".into()
        }
        .to_string()
        .contains('c'));
        assert!(std::error::Error::source(&CoreError::EmptyDataSet).is_none());
    }
}

//! Error type of the snapshot and serving layer.

ips_linalg::define_error! {
    /// Errors produced by snapshot persistence and the serving layer.
    StoreError, Result {
        variants {
            /// A parameter was outside its legal range.
            InvalidParameter {
                /// Name of the offending parameter.
                name: &'static str,
                /// Explanation of the constraint that was violated.
                reason: String,
            } => ("invalid parameter `{name}`: {reason}"),
            /// The snapshot bytes are not a snapshot, are truncated, or fail their
            /// checksum.
            Corrupt {
                /// What was being decoded when the mismatch surfaced.
                context: &'static str,
                /// Explanation of the mismatch.
                reason: String,
            } => ("corrupt snapshot ({context}): {reason}"),
            /// The snapshot comes from an incompatible format version.
            UnsupportedVersion {
                /// Version stored in the snapshot header.
                found: u32,
                /// Newest version this build reads.
                supported: u32,
            } => ("unsupported snapshot version {found} (this build reads up to {supported})"),
            /// A serving-layer id was unknown or already deleted.
            UnknownId {
                /// The offending external id.
                id: u64,
            } => ("unknown or deleted vector id {id}"),
        }
        wraps {
            /// An underlying I/O operation failed.
            Io(std::io::Error) => "i/o error",
            /// An underlying core-index operation failed.
            Core(ips_core::CoreError) => "core error",
            /// An underlying LSH operation failed.
            Lsh(ips_lsh::LshError) => "lsh error",
            /// An underlying sketch operation failed.
            Sketch(ips_sketch::SketchError) => "sketch error",
            /// An underlying linear-algebra operation failed.
            Linalg(ips_linalg::LinalgError) => "linear algebra error",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        let e = StoreError::Corrupt {
            context: "header",
            reason: "bad magic".into(),
        };
        assert!(e.to_string().contains("bad magic"));
        assert!(std::error::Error::source(&e).is_none());
        let e = StoreError::UnsupportedVersion {
            found: 9,
            supported: 1,
        };
        assert!(e.to_string().contains("9"));
        let e: StoreError = std::io::Error::other("boom").into();
        assert!(std::error::Error::source(&e).is_some());
        let e = StoreError::UnknownId { id: 7 };
        assert!(e.to_string().contains("7"));
    }
}

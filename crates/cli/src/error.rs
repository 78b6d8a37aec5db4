//! Error type for the command-line interface, on the workspace error pattern
//! ([`ips_linalg::define_error!`]).

use ips_core::CoreError;
use ips_datagen::DatagenError;
use ips_linalg::LinalgError;
use ips_sketch::SketchError;
use ips_store::StoreError;

ips_linalg::define_error! {
    /// Errors produced by the CLI layer.
    CliError, Result {
        variants {
            /// The command line could not be understood.
            Usage {
                /// Explanation of what was wrong.
                reason: String,
            } => ("usage error: {reason}"),
            /// A CSV vector file could not be parsed.
            Parse {
                /// The file (or stream label) being read.
                source_name: String,
                /// 1-based line number of the offending record.
                line: usize,
                /// Explanation of the problem.
                reason: String,
            } => ("parse error in {source_name} at line {line}: {reason}"),
        }
        wraps {
            /// An I/O operation failed.
            Io(std::io::Error) => "I/O error",
            /// An underlying join/search operation failed.
            Core(CoreError) => "join error",
            /// An underlying linear-algebra operation failed.
            Linalg(LinalgError) => "linear algebra error",
            /// An underlying workload-generation operation failed.
            Datagen(DatagenError) => "generation error",
            /// An underlying sketch operation failed.
            Sketch(SketchError) => "sketch error",
            /// An underlying snapshot/serving operation failed.
            Store(StoreError) => "store error",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = CliError::Usage {
            reason: "missing data=".into(),
        };
        assert!(e.to_string().contains("usage"));
        let e = CliError::Parse {
            source_name: "data.csv".into(),
            line: 7,
            reason: "bad float".into(),
        };
        assert!(e.to_string().contains("data.csv"));
        assert!(e.to_string().contains("line 7"));
        let e: CliError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(e.to_string().contains("I/O"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn conversions_from_workspace_errors() {
        let e: CliError = CoreError::EmptyDataSet.into();
        assert!(e.to_string().contains("join error"));
        let e: CliError = LinalgError::Empty { op: "dot" }.into();
        assert!(e.to_string().contains("linear algebra"));
        let e: CliError = DatagenError::InvalidParameter {
            name: "n",
            reason: "zero".into(),
        }
        .into();
        assert!(e.to_string().contains("generation"));
        let e: CliError = SketchError::EmptyDataSet.into();
        assert!(e.to_string().contains("sketch"));
        let e: CliError = StoreError::UnknownId { id: 3 }.into();
        assert!(e.to_string().contains("store error"));
        assert!(std::error::Error::source(&CliError::Usage { reason: "x".into() }).is_none());
    }
}

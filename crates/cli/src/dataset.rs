//! CSV vector file I/O.
//!
//! The CLI's on-disk format is deliberately plain: one vector per line, coordinates as
//! decimal numbers separated by commas, optional blank lines and `#` comments. Every
//! vector in a file must have the same dimension. The functions here read from and
//! write to any `Read`/`Write` implementation so the unit tests run against in-memory
//! buffers; the path-based wrappers are what the subcommands use.

use crate::error::{CliError, Result};
use ips_linalg::DenseVector;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Reads a CSV vector collection from a reader. `source_name` is used in error messages.
pub fn read_vectors_from<R: Read>(reader: R, source_name: &str) -> Result<Vec<DenseVector>> {
    let mut out: Vec<DenseVector> = Vec::new();
    let mut expected_dim: Option<usize> = None;
    let mut reader = BufReader::new(reader);
    // One line buffer for the whole file; every row after the first is sized up front.
    let mut line = String::new();
    let mut line_no = 0;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        line_no += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut coords = Vec::with_capacity(expected_dim.unwrap_or(0));
        for field in trimmed.split(',') {
            let field = field.trim();
            let value: f64 = field.parse().map_err(|_| CliError::Parse {
                source_name: source_name.to_string(),
                line: line_no,
                reason: format!("`{field}` is not a number"),
            })?;
            if !value.is_finite() {
                return Err(CliError::Parse {
                    source_name: source_name.to_string(),
                    line: line_no,
                    reason: format!("non-finite coordinate `{field}`"),
                });
            }
            coords.push(value);
        }
        if let Some(dim) = expected_dim {
            if coords.len() != dim {
                return Err(CliError::Parse {
                    source_name: source_name.to_string(),
                    line: line_no,
                    reason: format!("expected {dim} coordinates, found {}", coords.len()),
                });
            }
        } else {
            expected_dim = Some(coords.len());
        }
        out.push(DenseVector::new(coords));
    }
    if out.is_empty() {
        return Err(CliError::Parse {
            source_name: source_name.to_string(),
            line: 0,
            reason: "file contains no vectors".into(),
        });
    }
    Ok(out)
}

/// Reads a CSV vector collection from a file path.
pub fn read_vectors(path: &Path) -> Result<Vec<DenseVector>> {
    let file = File::open(path)?;
    read_vectors_from(file, &path.display().to_string())
}

/// Writes a vector collection to a writer, one comma-separated line per vector.
pub fn write_vectors_to<W: Write>(writer: W, vectors: &[DenseVector]) -> Result<()> {
    let mut w = BufWriter::new(writer);
    for v in vectors {
        // Straight into the buffer: no per-coordinate or per-line `String`.
        for (i, x) in v.iter().enumerate() {
            if i > 0 {
                w.write_all(b",")?;
            }
            write!(w, "{x}")?;
        }
        w.write_all(b"\n")?;
    }
    w.flush()?;
    Ok(())
}

/// Writes a vector collection to a file path.
pub fn write_vectors(path: &Path, vectors: &[DenseVector]) -> Result<()> {
    let file = File::create(path)?;
    write_vectors_to(file, vectors)
}

/// Summary statistics of a vector collection, as printed by `ips info`.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSummary {
    /// Number of vectors.
    pub count: usize,
    /// Shared dimension.
    pub dim: usize,
    /// Minimum Euclidean norm.
    pub min_norm: f64,
    /// Mean Euclidean norm.
    pub mean_norm: f64,
    /// Maximum Euclidean norm.
    pub max_norm: f64,
}

impl DatasetSummary {
    /// Computes the summary of a non-empty collection.
    pub fn of(vectors: &[DenseVector]) -> Result<Self> {
        let first = vectors.first().ok_or(CliError::Usage {
            reason: "cannot summarise an empty collection".into(),
        })?;
        let mut min_norm = f64::INFINITY;
        let mut max_norm = f64::NEG_INFINITY;
        let mut total = 0.0;
        for v in vectors {
            let n = v.norm();
            min_norm = min_norm.min(n);
            max_norm = max_norm.max(n);
            total += n;
        }
        Ok(Self {
            count: vectors.len(),
            dim: first.dim(),
            min_norm,
            mean_norm: total / vectors.len() as f64,
            max_norm,
        })
    }
}

impl std::fmt::Display for DatasetSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} vectors of dimension {}; norms min {:.4} / mean {:.4} / max {:.4}",
            self.count, self.dim, self.min_norm, self.mean_norm, self.max_norm
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_a_buffer() {
        let vectors = vec![
            DenseVector::from(&[1.0, -0.5, 0.25][..]),
            DenseVector::from(&[0.0, 2.0, -3.5][..]),
        ];
        let mut buffer = Vec::new();
        write_vectors_to(&mut buffer, &vectors).unwrap();
        let parsed = read_vectors_from(buffer.as_slice(), "buffer").unwrap();
        assert_eq!(parsed, vectors);
    }

    #[test]
    fn written_bytes_match_the_per_coordinate_formatter() {
        // The format the files have always had: `format!("{x}")` per coordinate,
        // joined by commas, one `\n`-terminated line per vector.
        let reference = |vectors: &[DenseVector]| -> Vec<u8> {
            let mut out = String::new();
            for v in vectors {
                let fields: Vec<String> = v.iter().map(|x| format!("{x}")).collect();
                out.push_str(&fields.join(","));
                out.push('\n');
            }
            out.into_bytes()
        };
        // A fixed xorshift stream of raw bit patterns covers the random doubles
        // (non-finite patterns are not writable input and are skipped).
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let random: Vec<f64> = std::iter::repeat_with(|| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            f64::from_bits(state)
        })
        .filter(|x| x.is_finite())
        .take(64)
        .collect();
        let vectors = vec![
            DenseVector::new(random),
            DenseVector::from(&[0.0, -0.0, 1.0, -1.0, 3.0, 1e15, 1e16, -2e21, 123456789.0][..]),
            DenseVector::from(&[5e-324, -5e-324, 2.2250738585072014e-308, 1e-310][..]),
            DenseVector::from(&[0.1, 1.0 / 3.0, -0.05, f64::MAX, f64::MIN_POSITIVE][..]),
            DenseVector::from(&[-0.0][..]),
            DenseVector::new(Vec::new()),
        ];
        let mut written = Vec::new();
        write_vectors_to(&mut written, &vectors).unwrap();
        assert_eq!(written, reference(&vectors));
        // The shortest-round-trip text reads back to the same bits.
        let mut one = Vec::new();
        write_vectors_to(&mut one, &vectors[..1]).unwrap();
        let parsed = read_vectors_from(one.as_slice(), "buffer").unwrap();
        let bits = |v: &DenseVector| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&parsed[0]), bits(&vectors[0]));
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "# a comment\n1.0, 2.0\n\n  \n3.0,4.0\n";
        let parsed = read_vectors_from(text.as_bytes(), "inline").unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].as_slice(), &[1.0, 2.0]);
        assert_eq!(parsed[1].as_slice(), &[3.0, 4.0]);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let text = "1.0,2.0\n1.0,oops\n";
        let err = read_vectors_from(text.as_bytes(), "inline").unwrap_err();
        assert!(err.to_string().contains("line 2"));
        let text = "1.0,2.0\n1.0\n";
        let err = read_vectors_from(text.as_bytes(), "inline").unwrap_err();
        assert!(err.to_string().contains("expected 2 coordinates"));
        let text = "nan\n";
        assert!(read_vectors_from(text.as_bytes(), "inline").is_err());
        let text = "# only comments\n";
        assert!(read_vectors_from(text.as_bytes(), "inline").is_err());
    }

    #[test]
    fn file_roundtrip_in_a_temp_directory() {
        let dir = std::env::temp_dir().join("ips-cli-dataset-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("vectors.csv");
        let vectors = vec![
            DenseVector::from(&[0.125, -1.0][..]),
            DenseVector::from(&[3.0, 0.5][..]),
        ];
        write_vectors(&path, &vectors).unwrap();
        let parsed = read_vectors(&path).unwrap();
        assert_eq!(parsed, vectors);
        std::fs::remove_file(&path).unwrap();
        assert!(read_vectors(&path).is_err(), "missing files are I/O errors");
    }

    #[test]
    fn summary_statistics() {
        let vectors = vec![
            DenseVector::from(&[3.0, 4.0][..]),
            DenseVector::from(&[0.0, 1.0][..]),
        ];
        let summary = DatasetSummary::of(&vectors).unwrap();
        assert_eq!(summary.count, 2);
        assert_eq!(summary.dim, 2);
        assert_eq!(summary.min_norm, 1.0);
        assert_eq!(summary.max_norm, 5.0);
        assert!((summary.mean_norm - 3.0).abs() < 1e-12);
        assert!(summary.to_string().contains("2 vectors"));
        assert!(DatasetSummary::of(&[]).is_err());
    }
}

//! CSV vector file I/O.
//!
//! The CLI's on-disk format is deliberately plain: one vector per line, coordinates as
//! decimal numbers separated by commas, optional blank lines and `#` comments. Every
//! vector in a file must have the same dimension. The functions here read from and
//! write to any `Read`/`Write` implementation so the unit tests run against in-memory
//! buffers; the path-based wrappers are what the subcommands use.
//!
//! **Both directions run block by block** through the workspace's block driver
//! ([`ips_linalg::par::pipeline`]), because both are CPU work — formatting a double
//! costs ~55 ns (`crate::decimal`; ~125 ns through `fmt`) and parsing one ~46 ns
//! (std's `from_str`), against ~0.5 ns to move its text to or from the page cache. The calling thread does the I/O, in order, and owns everything that
//! outlives the call; any thread turns text into numbers or numbers into text, in the
//! buffers of a small ring that are reused block after block:
//!
//! * **Reading.** The calling thread reads blocks of *whole lines* — about
//!   [`READ_BLOCK`] bytes, cut at the last `\n`; a line longer than a block grows it.
//!   A thread parses a block's lines into one flat coordinate buffer; the calling
//!   thread then takes the blocks in file order, cuts the [`DenseVector`]s out of them
//!   and reports the first fault it meets. A block is parsed by the code a line-by-line
//!   reader would run on each of its lines, in order, so the parsed bits, the skipped
//!   comments and blank lines, and the first error of the file — text and line number
//!   — are what that reader gives (a unit test keeps it as the model). Until the first
//!   data line has fixed the dimension the calling thread parses block after block
//!   itself, so every block handed out knows the dimension its rows must have. Memory
//!   is bounded by the ring (text + coordinates of [`Schedule::ring`] blocks), not by
//!   the file.
//! * **Writing.** Blocks of [`WRITE_BLOCK`] coordinates' worth of rows are formatted
//!   into byte buffers — per coordinate the bytes `format!("{x}")` gives (shortest
//!   round-trip digits, positional), produced by `crate::decimal::push_f64` without
//!   going through `fmt`, joined by commas — and written in order. The files are what
//!   they have always been, byte for byte; a unit test keeps `format!` as the model.

use crate::decimal::push_f64;
use crate::error::{CliError, Result};
use ips_linalg::par::{pipeline, Schedule};
use ips_linalg::DenseVector;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

/// Bytes of text a reading thread claims at a time (see the module docs): ~3000
/// numbers, a quarter of a millisecond of parsing.
pub const READ_BLOCK: usize = 64 * 1024;

/// Coordinates a writing thread formats at a time (~20 bytes of text each).
pub const WRITE_BLOCK: usize = 4 * 1024;

/// One block of whole lines on its way through the ring: the text as read, and what
/// a thread made of it. The buffers are reused block after block.
#[derive(Default)]
struct TextBlock {
    text: Vec<u8>,
    /// The rows parsed before any fault, flat: `dim` coordinates each.
    coords: Vec<f64>,
    /// The dimension of the rows: the one handed in, else the first row's.
    dim: Option<usize>,
    /// Lines walked without a fault.
    lines: usize,
    /// What stopped the walk, on line `lines + 1` of the block.
    fault: Option<Fault>,
}

/// Why a line cannot be read.
enum Fault {
    /// The line is not UTF-8 — an I/O error, as `BufRead::read_line` reports it.
    NotUtf8,
    /// The line is not a vector of the file's dimension.
    Parse(String),
}

impl TextBlock {
    /// Replaces the block's text by the next whole lines of `reader`: what `carry`
    /// holds of a line already begun, then about `size` bytes more, up to the last
    /// `\n`; what follows it goes to `carry`. `false` once the stream is exhausted.
    fn fill<R: Read>(
        &mut self,
        reader: &mut R,
        carry: &mut Vec<u8>,
        size: usize,
    ) -> io::Result<bool> {
        self.text.clear();
        self.text.append(carry);
        loop {
            let before = self.text.len();
            let wanted = size.max(1);
            self.text.reserve_exact(wanted);
            reader
                .by_ref()
                .take(wanted as u64)
                .read_to_end(&mut self.text)?;
            let newline = self.text.iter().rposition(|&byte| byte == b'\n');
            // At the end of the stream the last line may lack its `\n`.
            let end_of_stream = self.text.len() - before < wanted;
            if let (Some(newline), false) = (newline, end_of_stream) {
                carry.extend_from_slice(&self.text[newline + 1..]);
                self.text.truncate(newline + 1);
            }
            if newline.is_some() || end_of_stream {
                // Room for every number the text can hold (one character and a
                // separator each), so that the worker parsing it allocates nothing.
                self.coords.clear();
                self.coords.reserve_exact(self.text.len() / 2 + 1);
                return Ok(!self.text.is_empty());
            }
        }
    }

    /// Walks the lines [`TextBlock::fill`] read as the line-by-line reader walks a
    /// file's: comments and blank lines skipped, every field of a data line parsed and
    /// checked, then the line's length against the dimension. Stops at the first fault.
    fn parse(&mut self, expected_dim: Option<usize>) {
        (self.dim, self.lines, self.fault) = (expected_dim, 0, None);
        // A line is valid UTF-8 exactly if the text up to its `\n` is, so one check of
        // the block stands for the per-line checks; text after the first invalid byte
        // is never looked at, and the line it is on is the one that faults.
        let (valid, broken) = match std::str::from_utf8(&self.text) {
            Ok(text) => (text, false),
            Err(e) => {
                let valid = std::str::from_utf8(&self.text[..e.valid_up_to()]);
                (valid.expect("the prefix `from_utf8` accepted"), true)
            }
        };
        for line in valid.split_inclusive('\n') {
            if broken && !line.ends_with('\n') {
                break;
            }
            let trimmed = line.trim();
            if !trimmed.is_empty() && !trimmed.starts_with('#') {
                let before = self.coords.len();
                if let Err(reason) = parse_row(trimmed, &mut self.dim, &mut self.coords) {
                    self.coords.truncate(before);
                    self.fault = Some(Fault::Parse(reason));
                    return;
                }
            }
            self.lines += 1;
        }
        if broken {
            self.fault = Some(Fault::NotUtf8);
        }
    }
}

/// Appends the coordinates of one data line to `coords`; fixes `dim` if this is the
/// first row, else holds the row to it. The serve session reads its vectors with it too.
pub(crate) fn parse_row(
    row: &str,
    dim: &mut Option<usize>,
    coords: &mut Vec<f64>,
) -> std::result::Result<(), String> {
    let before = coords.len();
    for field in row.split(',') {
        let field = field.trim();
        let value: f64 = field
            .parse()
            .map_err(|_| format!("`{field}` is not a number"))?;
        if !value.is_finite() {
            return Err(format!("non-finite coordinate `{field}`"));
        }
        coords.push(value);
    }
    let found = coords.len() - before;
    match *dim {
        Some(dim) if found != dim => Err(format!("expected {dim} coordinates, found {found}")),
        _ => {
            *dim = Some(found);
            Ok(())
        }
    }
}

/// Reads a CSV vector collection from a reader. `source_name` is used in error messages.
pub fn read_vectors_from<R: Read>(reader: R, source_name: &str) -> Result<Vec<DenseVector>> {
    read_vectors_scheduled(reader, source_name, Schedule::new(READ_BLOCK))
}

/// [`read_vectors_from`] under an explicit schedule (`block` in bytes of text); the
/// vectors, or the error, are the same at every thread count and block size.
pub fn read_vectors_scheduled<R: Read>(
    mut reader: R,
    source_name: &str,
    schedule: Schedule,
) -> Result<Vec<DenseVector>> {
    let parse_error = |line: usize, reason: String| CliError::Parse {
        source_name: source_name.to_string(),
        line,
        reason,
    };
    let mut out: Vec<DenseVector> = Vec::new();
    let mut lines_read = 0;
    // What a parsed block adds, in file order on this thread: its vectors — whose
    // storage this thread therefore allocates — and then its fault, if it has one.
    let mut collect = |block: &TextBlock| -> Result<()> {
        let width = block.dim.unwrap_or(1);
        out.reserve(block.coords.len() / width);
        out.extend(block.coords.chunks_exact(width).map(DenseVector::from));
        match &block.fault {
            Some(Fault::NotUtf8) => {
                let message = "stream did not contain valid UTF-8";
                Err(io::Error::new(io::ErrorKind::InvalidData, message).into())
            }
            Some(Fault::Parse(reason)) => {
                Err(parse_error(lines_read + block.lines + 1, reason.clone()))
            }
            None => {
                lines_read += block.lines;
                Ok(())
            }
        }
    };
    let mut ring: Vec<TextBlock> = Vec::new();
    ring.resize_with(schedule.ring(), TextBlock::default);
    let mut carry = Vec::new();
    // Until a data line has fixed the dimension, block after block on this thread...
    let (mut dim, mut more) = (None, true);
    while more && dim.is_none() {
        let block = &mut ring[0];
        more = block.fill(&mut reader, &mut carry, schedule.block)?;
        block.parse(None);
        collect(block)?;
        dim = block.dim;
    }
    // ...then every block knows what its rows must measure, and any thread parses it.
    if more {
        pipeline(
            &mut vec![(); schedule.threads.max(1)],
            &mut ring,
            |_, block| Ok(block.fill(&mut reader, &mut carry, schedule.block)?),
            |(), _, block| {
                block.parse(dim);
                Ok(())
            },
            |_, block| collect(block),
        )?;
    }
    if out.is_empty() {
        return Err(parse_error(0, "file contains no vectors".into()));
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
    write_vectors_scheduled(writer, vectors, Schedule::new(WRITE_BLOCK))
}

/// [`write_vectors_to`] under an explicit schedule (`block` in coordinates); the bytes
/// written are the same at every thread count and block size.
pub fn write_vectors_scheduled<W: Write>(
    mut writer: W,
    vectors: &[DenseVector],
    schedule: Schedule,
) -> Result<()> {
    let dim = vectors.first().map_or(1, DenseVector::dim).max(1);
    let rows = (schedule.block / dim).max(1);
    let blocks = vectors.len().div_ceil(rows);
    // A block's rows and its text, in a buffer with room for what a coordinate usually
    // takes (whoever formats a block of longer ones grows it).
    let mut ring: Vec<(&[DenseVector], Vec<u8>)> = (0..schedule.ring().min(blocks))
        .map(|_| (&vectors[..0], Vec::with_capacity(rows * dim * 24)))
        .collect();
    if !ring.is_empty() {
        pipeline(
            &mut vec![(); schedule.threads.clamp(1, blocks)],
            &mut ring,
            |k, (block, _)| {
                let end = vectors.len();
                *block = &vectors[(k * rows).min(end)..((k + 1) * rows).min(end)];
                Ok(!block.is_empty())
            },
            |(), _, (block, text)| {
                text.clear();
                for v in block.iter() {
                    for (i, &x) in v.iter().enumerate() {
                        if i > 0 {
                            text.push(b',');
                        }
                        push_f64(text, x);
                    }
                    text.push(b'\n');
                }
                Ok(())
            },
            |_, (_, text)| Ok::<(), CliError>(writer.write_all(text)?),
        )?;
    }
    writer.flush()?;
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
            // 326 characters a coordinate: a block of these outgrows the room its
            // buffer was given, on whichever thread formats it.
            DenseVector::new(vec![-5e-324; 48]),
        ];
        let mut written = Vec::new();
        write_vectors_to(&mut written, &vectors).unwrap();
        assert_eq!(written, reference(&vectors));
        // ...at every thread count, and wherever the blocks are cut (in coordinates:
        // a row each, a few rows, everything in one).
        for threads in [1, 2, 3, 7, 8] {
            for block in [0, 1, 70, WRITE_BLOCK, 1 << 20] {
                let mut written = Vec::new();
                write_vectors_scheduled(&mut written, &vectors, Schedule { threads, block })
                    .unwrap();
                assert_eq!(
                    written,
                    reference(&vectors),
                    "{threads} threads, block {block}"
                );
            }
        }
        let mut nothing = Vec::new();
        write_vectors_to(&mut nothing, &[]).unwrap();
        assert!(nothing.is_empty());
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

    /// The reader this module had before it read in blocks — one `read_line` at a
    /// time — kept as the model the block reader must agree with.
    fn line_by_line(text: &[u8], source_name: &str) -> Result<Vec<DenseVector>> {
        use std::io::BufRead;
        let parse_error = |line: usize, reason: String| CliError::Parse {
            source_name: source_name.to_string(),
            line,
            reason,
        };
        let mut out: Vec<DenseVector> = Vec::new();
        let mut expected_dim: Option<usize> = None;
        let mut reader = std::io::BufReader::new(text);
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
            let mut coords = Vec::new();
            for field in trimmed.split(',') {
                let field = field.trim();
                let value: f64 = field
                    .parse()
                    .map_err(|_| parse_error(line_no, format!("`{field}` is not a number")))?;
                if !value.is_finite() {
                    return Err(parse_error(
                        line_no,
                        format!("non-finite coordinate `{field}`"),
                    ));
                }
                coords.push(value);
            }
            match expected_dim {
                Some(dim) if coords.len() != dim => {
                    let reason = format!("expected {dim} coordinates, found {}", coords.len());
                    return Err(parse_error(line_no, reason));
                }
                _ => expected_dim = Some(coords.len()),
            }
            out.push(DenseVector::new(coords));
        }
        if out.is_empty() {
            return Err(parse_error(0, "file contains no vectors".into()));
        }
        Ok(out)
    }

    /// Vectors by bit pattern, errors by text (which carries the line number).
    fn outcome(read: Result<Vec<DenseVector>>) -> std::result::Result<Vec<Vec<u64>>, String> {
        let bits = |v: &DenseVector| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        read.map(|vectors| vectors.iter().map(bits).collect())
            .map_err(|e| e.to_string())
    }

    #[test]
    fn the_block_reader_agrees_with_the_line_by_line_model() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut draw = move |below: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % below
        };
        // Lines a file may hold, well-formed and not: the faults come late in the
        // menu so that `draw` can leave them out.
        let line = |kind: u64, draw: &mut dyn FnMut(u64) -> u64| -> Vec<u8> {
            let number = |draw: &mut dyn FnMut(u64) -> u64| match draw(6) {
                0 => "-0.0".to_string(),
                1 => format!("{}e-{}", draw(1000), draw(320)),
                2 => format!("  {} ", draw(1 << 40) as f64 / 3.0),
                _ => format!("{}", f64::from_bits(draw(u64::MAX) >> 2)),
            };
            let row = |len: usize, draw: &mut dyn FnMut(u64) -> u64| {
                let fields: Vec<String> = (0..len).map(|_| number(draw)).collect();
                fields.join(",").into_bytes()
            };
            match kind {
                0..=5 => row(3, draw),
                6 => b"# a comment, with commas".to_vec(),
                7 => Vec::new(),
                8 => b"  \t ".to_vec(),
                9 => row(3, draw).into_iter().chain(*b"  ").collect(),
                // A line far longer than any small block (still three fields).
                10 => {
                    let mut long = vec![b' '; 150];
                    long.extend(row(3, draw));
                    long
                }
                11 => row(2, draw),
                12 => b"1.0,oops,2.0".to_vec(),
                13 => b"1.0,inf,2.0".to_vec(),
                14 => b"1.0,2.0,".to_vec(),
                _ => vec![b'1', b',', 0xFF, 0xFE, b',', b'2'],
            }
        };
        for case in 0..160 {
            // A third of the files are clean, the others may hold faults; every line
            // ending and the missing final newline get their turn.
            let kinds = if case % 3 == 0 { 11 } else { 16 };
            let mut text = Vec::new();
            let lines = draw(40);
            for i in 0..lines {
                text.extend(line(draw(kinds), &mut draw));
                let last = i + 1 == lines;
                match draw(4) {
                    0 => text.extend(b"\r\n"),
                    1 if last => {}
                    _ => text.push(b'\n'),
                }
            }
            let model = outcome(line_by_line(&text, "generated"));
            for threads in [1, 2, 3, 7] {
                for block in [1, 5, 64, 1 << 20] {
                    let schedule = Schedule { threads, block };
                    let read = read_vectors_scheduled(&text[..], "generated", schedule);
                    let shown = String::from_utf8_lossy(&text);
                    assert_eq!(
                        outcome(read),
                        model,
                        "case {case}, {threads} threads, block {block}:\n{shown}"
                    );
                }
            }
            assert_eq!(outcome(read_vectors_from(&text[..], "generated")), model);
        }
    }

    #[test]
    fn a_read_error_waits_behind_the_lines_before_it() {
        /// Serves `text`, then fails.
        struct Failing<'a>(&'a [u8]);
        impl Read for Failing<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.0.is_empty() {
                    return Err(io::Error::other("the disk went away"));
                }
                let served = Read::read(&mut self.0, buf)?;
                Ok(served)
            }
        }
        let schedule = Schedule {
            threads: 2,
            block: 8,
        };
        // The fault on line 2 was read whole before the stream failed: it is reported.
        let text = b"1.0,2.0\n1.0,oops\n3.0,4.0\n5.0,6.0\n";
        let err = read_vectors_scheduled(Failing(text), "failing", schedule).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        // With nothing wrong before it, the stream's own error is.
        let text = b"1.0,2.0\n3.0,4.0\n";
        let err = read_vectors_scheduled(Failing(text), "failing", schedule).unwrap_err();
        assert!(err.to_string().contains("the disk went away"), "{err}");
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

//! Binary encoding primitives of the snapshot format.
//!
//! Every multi-byte value is written **little-endian** regardless of host, and floats
//! are written as their IEEE-754 bit patterns (`f64::to_bits`), so a snapshot written
//! on one machine decodes to *bit-identical* state on any other — the property the
//! round-trip guarantees of [`crate::snapshot`] rest on. Integrity is checked with the
//! 64-bit FNV-1a hash ([`fnv1a64`]) over the encoded payload; corruption and
//! truncation surface as [`StoreError::Corrupt`] instead of garbage indexes.
//!
//! Both directions **stream**. A [`ByteWriter`] is one encoder over three sinks — a
//! `Vec`, a byte counter, or any [`Write`] fed a block at a time — and a
//! [`ByteReader`] is one decoder over any seekable [`Read`], a slice included. Each
//! keeps a stack of running checksums, so a checksummed span can sit inside another
//! (a shard inside a container) without either being held in memory to be hashed, and
//! the reader keeps a stack of section limits where it used to cut sub-slices. What
//! either holds besides the structure being written or built is one block.

use crate::error::{Result, StoreError};
use std::io::{Cursor, Read, Seek, SeekFrom, Write};

/// Offset basis of 64-bit FNV-1a.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// Prime of 64-bit FNV-1a.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Bytes a streaming writer gathers before it writes, and a reader reads at a time.
const BLOCK: usize = 64 * 1024;

/// The 64-bit FNV-1a hash of `bytes` — the snapshot checksum.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_fold(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a hash over more bytes: folding a stream block by block gives
/// the hash of the whole.
fn fnv1a64_fold(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Folds `bytes` into every open checksum. FNV-1a is one multiply per byte, each
/// waiting for the last; two hashes over the same bytes (a shard's inside its
/// container's — as deep as the format nests) run as two independent chains in one
/// loop and cost little more than one.
fn fold_all(checksums: &mut [u64], bytes: &[u8]) {
    match checksums {
        [outer, inner] => {
            let (mut a, mut b) = (*outer, *inner);
            for &byte in bytes {
                a = (a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
                b = (b ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            }
            (*outer, *inner) = (a, b);
        }
        _ => {
            for hash in checksums {
                *hash = fnv1a64_fold(*hash, bytes);
            }
        }
    }
}

/// Where a [`ByteWriter`]'s bytes go.
enum Sink {
    /// Kept: [`ByteWriter::into_bytes`] returns them.
    Memory,
    /// Counted and dropped — the sizing pass behind a length prefix.
    Count,
    /// Written out a block at a time. The first write error is kept (later bytes
    /// are dropped) and returned by [`ByteWriter::finish`], so encoders stay
    /// infallible.
    Stream {
        out: Box<dyn Write>,
        error: Option<std::io::Error>,
    },
}

/// An append-only little-endian byte sink: one encoder, three destinations
/// ([`ByteWriter::new`], [`ByteWriter::counting`], [`ByteWriter::streaming`]).
pub struct ByteWriter {
    /// Bytes encoded and not yet handed on (all of them, for an in-memory writer).
    buf: Vec<u8>,
    /// Bytes that already left `buf`: streamed out, or merely counted.
    gone: u64,
    /// Prefix of `buf` already folded into the open checksums.
    hashed: usize,
    /// Running FNV-1a states of the open checksummed spans, innermost last.
    checksums: Vec<u64>,
    sink: Sink,
}

impl Default for ByteWriter {
    fn default() -> Self {
        Self::with_sink(Sink::Memory)
    }
}

impl std::fmt::Debug for ByteWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ByteWriter")
            .field("len", &self.len())
            .field("open_checksums", &self.checksums.len())
            .finish_non_exhaustive()
    }
}

impl ByteWriter {
    fn with_sink(sink: Sink) -> Self {
        Self {
            buf: Vec::new(),
            gone: 0,
            hashed: 0,
            checksums: Vec::new(),
            sink,
        }
    }

    /// An empty in-memory writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer that only counts: running an encoder over it gives the length the
    /// same encoder will write, which is how a length prefix is known before its
    /// payload without buffering the payload. Checksums are not computed.
    pub fn counting() -> Self {
        Self::with_sink(Sink::Count)
    }

    /// A writer that hands its bytes to `out` one block at a time; end with
    /// [`ByteWriter::finish`].
    pub fn streaming(out: impl Write + 'static) -> Self {
        let mut writer = Self::with_sink(Sink::Stream {
            out: Box::new(out),
            error: None,
        });
        writer.buf.reserve_exact(BLOCK);
        writer
    }

    /// The bytes of an in-memory writer so far.
    ///
    /// # Panics
    /// On a counting or streaming writer, which keeps no bytes to return.
    pub fn as_bytes(&self) -> &[u8] {
        assert!(
            matches!(self.sink, Sink::Memory),
            "only an in-memory writer keeps its bytes"
        );
        &self.buf
    }

    /// Consumes an in-memory writer, returning the encoded bytes.
    ///
    /// # Panics
    /// On a counting or streaming writer, which keeps no bytes to return.
    pub fn into_bytes(self) -> Vec<u8> {
        assert!(
            matches!(self.sink, Sink::Memory),
            "only an in-memory writer keeps its bytes"
        );
        self.buf
    }

    /// Number of bytes written so far, whatever became of them.
    pub fn len(&self) -> u64 {
        self.gone + self.buf.len() as u64
    }

    /// Returns `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flushes a streaming writer and returns the number of bytes written, or the
    /// first error the destination reported. (An in-memory or counting writer has
    /// nothing to flush and returns its length.)
    pub fn finish(mut self) -> Result<u64> {
        self.flush_block();
        if let Sink::Stream { out, error } = &mut self.sink {
            if let Some(error) = error.take() {
                return Err(error.into());
            }
            out.flush()?;
        }
        Ok(self.len())
    }

    /// Opens a checksummed span: [`ByteWriter::end_checksum`] returns the FNV-1a hash
    /// of every byte written in between. Spans nest.
    pub fn begin_checksum(&mut self) {
        self.fold_pending();
        self.checksums.push(FNV_OFFSET);
    }

    /// Closes the innermost checksummed span and returns its hash (of no meaning on
    /// a counting writer, which hashes nothing).
    ///
    /// # Panics
    /// When no span is open.
    pub fn end_checksum(&mut self) -> u64 {
        self.fold_pending();
        self.checksums
            .pop()
            .expect("end_checksum without begin_checksum")
    }

    /// Folds what was written since the last fold into the open checksums: hashing
    /// runs over whole blocks, not once per scalar.
    fn fold_pending(&mut self) {
        fold_all(&mut self.checksums, &self.buf[self.hashed..]);
        self.hashed = self.buf.len();
    }

    /// Hands the gathered block to a streaming writer's destination.
    fn flush_block(&mut self) {
        self.fold_pending();
        if let Sink::Stream { out, error } = &mut self.sink {
            if error.is_none() {
                *error = out.write_all(&self.buf).err();
            }
            self.gone += self.buf.len() as u64;
            self.buf.clear();
            self.hashed = 0;
        }
    }

    /// Appends raw bytes verbatim.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        match self.sink {
            Sink::Count => self.gone += bytes.len() as u64,
            Sink::Memory => self.buf.extend_from_slice(bytes),
            Sink::Stream { .. } => {
                // Before the block outgrows its allocation, not after.
                if self.buf.len() + bytes.len() > BLOCK {
                    self.flush_block();
                }
                self.buf.extend_from_slice(bytes);
            }
        }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.put_bytes(&[v]);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Appends a `usize` as a little-endian `u64` (sizes are 64-bit on disk whatever
    /// the host width).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (bit-exact, NaN-preserving).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte (`0` / `1`).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends an optional `u64` as a presence byte plus the value.
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.put_u8(1);
                self.put_u64(v);
            }
            None => self.put_u8(0),
        }
    }
}

/// What a [`ByteReader`] reads from: any seekable byte source.
trait Source: Read + Seek {}

impl<T: Read + Seek> Source for T {}

/// A bounds-checked little-endian byte cursor over an encoded snapshot, reading a
/// block at a time from a slice ([`ByteReader::new`]) or a file
/// ([`ByteReader::open`]).
///
/// Sections are entered and left ([`ByteReader::enter`] / [`ByteReader::leave`]):
/// while inside one, no read can pass its end, exactly as if it had been cut out as
/// a slice of its own.
pub struct ByteReader<'a> {
    source: Box<dyn Source + 'a>,
    /// The current block; `buf[pos..]` is read ahead and not yet consumed.
    buf: Vec<u8>,
    pos: usize,
    /// Offset of `buf[0]` in the source.
    base: u64,
    /// Running FNV-1a states of the open checksummed spans, innermost last.
    checksums: Vec<u64>,
    /// End offsets of the open sections, innermost last; the first is the source's
    /// length and is never left.
    limits: Vec<u64>,
}

impl std::fmt::Debug for ByteReader<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ByteReader")
            .field("position", &self.position())
            .field("limits", &self.limits)
            .finish_non_exhaustive()
    }
}

impl<'a> ByteReader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self::over(Cursor::new(bytes), bytes.len() as u64)
    }

    /// A reader over the file at `path`, positioned at the start. The file is read
    /// as long as its metadata says it is; should it turn out shorter, the read that
    /// runs out fails as corrupt.
    pub fn open(path: &std::path::Path) -> Result<ByteReader<'static>> {
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        Ok(ByteReader::over(file, len))
    }

    fn over(source: impl Read + Seek + 'a, len: u64) -> Self {
        Self {
            source: Box::new(source),
            buf: Vec::new(),
            pos: 0,
            base: 0,
            checksums: Vec::new(),
            limits: vec![len],
        }
    }

    /// Offset of the next unread byte in the source.
    pub fn position(&self) -> u64 {
        self.base + self.pos as u64
    }

    /// Number of bytes not yet consumed of the innermost open section (of the whole
    /// source, when none is open).
    pub fn remaining(&self) -> u64 {
        self.limits.last().expect("the source's own limit") - self.position()
    }

    /// Fails unless `n` more bytes lie inside the innermost open section.
    fn check_remaining(&self, n: u64) -> Result<()> {
        if self.remaining() < n {
            return Err(StoreError::Corrupt {
                context: "reader",
                reason: format!("wanted {n} bytes, {} remain", self.remaining()),
            });
        }
        Ok(())
    }

    /// Makes `buf[pos..pos + n]` readable, `n` at most a block.
    fn need(&mut self, n: usize) -> Result<()> {
        debug_assert!(n <= BLOCK);
        self.check_remaining(n as u64)?;
        if self.buf.len() - self.pos >= n {
            return Ok(());
        }
        // Drop what was consumed, keep the read-ahead tail, and fill the block up, or
        // as far as the source goes.
        self.buf.drain(..self.pos);
        self.base += self.pos as u64;
        self.pos = 0;
        let held = self.buf.len();
        let unread = self.limits[0] - (self.base + held as u64);
        let more = unread.min((BLOCK - held) as u64) as usize;
        debug_assert!(held + more >= n, "the limit check covers the read");
        self.buf.resize(held + more, 0);
        self.source
            .read_exact(&mut self.buf[held..])
            .map_err(|e| match e.kind() {
                std::io::ErrorKind::UnexpectedEof => StoreError::Corrupt {
                    context: "reader",
                    reason: "the source ended before its own length".into(),
                },
                _ => e.into(),
            })
    }

    /// Consumes `N` raw bytes. They are folded into the open checksums here and now,
    /// value by value: the hash is a chain of multiplies that waits on nothing but
    /// itself, so it runs in the shadow of whatever the decoder does with the value.
    pub fn take_array<const N: usize>(&mut self) -> Result<[u8; N]> {
        self.need(N)?;
        let out: [u8; N] = self.buf[self.pos..self.pos + N]
            .try_into()
            .expect("N bytes are buffered");
        fold_all(&mut self.checksums, &out);
        self.pos += N;
        Ok(out)
    }

    /// Consumes `count` `f64` bit patterns onto the end of `out` — most of the bytes
    /// of any snapshot are these, so they are hashed and converted a run at a time
    /// instead of a value at a time. `out` grows as values arrive: a `count` the
    /// input cannot back fails at the first missing value, whatever it claims.
    pub fn take_f64s(&mut self, count: usize, out: &mut Vec<f64>) -> Result<()> {
        let mut left = count;
        while left > 0 {
            self.need(8)?;
            // As many whole values as the block and the open section hold.
            let within = (self.buf.len() - self.pos).min(self.remaining() as usize);
            let run = &self.buf[self.pos..self.pos + 8 * left.min(within / 8)];
            fold_all(&mut self.checksums, run);
            out.extend(
                run.chunks_exact(8)
                    .map(|v| f64::from_bits(u64::from_le_bytes(v.try_into().expect("8 bytes")))),
            );
            left -= run.len() / 8;
            self.pos += run.len();
        }
        Ok(())
    }

    /// Consumes `n` bytes without decoding them (they still count towards every open
    /// checksum).
    pub fn skip(&mut self, n: u64) -> Result<()> {
        self.check_remaining(n)?;
        let mut left = n;
        while left > 0 {
            let step = left.min(BLOCK as u64) as usize;
            self.need(step)?;
            fold_all(&mut self.checksums, &self.buf[self.pos..self.pos + step]);
            self.pos += step;
            left -= step as u64;
        }
        Ok(())
    }

    /// Enters a section of the next `len` bytes: until it is left, no read passes its
    /// end.
    pub fn enter(&mut self, len: u64) -> Result<()> {
        self.check_remaining(len)?;
        self.limits.push(self.position() + len);
        Ok(())
    }

    /// Leaves the innermost section, failing unless every byte of it was consumed —
    /// decoding must account for the whole payload, or the snapshot and the decoder
    /// disagree about the format.
    ///
    /// # Panics
    /// When no section is open.
    pub fn leave(&mut self, context: &'static str) -> Result<()> {
        assert!(self.limits.len() > 1, "leave without enter");
        self.expect_end(context)?;
        self.limits.pop();
        Ok(())
    }

    /// Fails unless every byte of the innermost open section (of the whole source,
    /// when none is open) has been consumed.
    pub fn expect_end(&self, context: &'static str) -> Result<()> {
        if self.remaining() != 0 {
            return Err(StoreError::Corrupt {
                context,
                reason: format!("{} trailing bytes after decoding", self.remaining()),
            });
        }
        Ok(())
    }

    /// Opens a checksummed span: [`ByteReader::end_checksum`] returns the FNV-1a hash
    /// of every byte consumed in between. Spans nest.
    pub fn begin_checksum(&mut self) {
        self.checksums.push(FNV_OFFSET);
    }

    /// Closes the innermost checksummed span and returns its hash.
    ///
    /// # Panics
    /// When no span is open.
    pub fn end_checksum(&mut self) -> u64 {
        self.checksums
            .pop()
            .expect("end_checksum without begin_checksum")
    }

    /// Runs `look` and then puts the reader back where it stood — same position,
    /// same open sections, same running checksums — so what `look` read is read
    /// again by whatever comes next. An error from `look` is returned as it is (the
    /// reader is then of no further use).
    pub fn peek<T>(&mut self, look: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        // Set aside, not copied: what `look` reads is no part of the open spans.
        let checksums = std::mem::take(&mut self.checksums);
        let (position, sections) = (self.position(), self.limits.len());
        let seen = look(self)?;
        self.source.seek(SeekFrom::Start(position))?;
        self.buf.clear();
        (self.pos, self.base) = (0, position);
        self.checksums = checksums;
        self.limits.truncate(sections);
        Ok(seen)
    }

    /// Consumes one byte.
    pub fn take_u8(&mut self) -> Result<u8> {
        Ok(self.take_array::<1>()?[0])
    }

    /// Consumes a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Consumes a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Consumes a 64-bit size, rejecting values that do not fit the host `usize`.
    pub fn take_usize(&mut self) -> Result<usize> {
        let v = self.take_u64()?;
        usize::try_from(v).map_err(|_| StoreError::Corrupt {
            context: "reader",
            reason: format!("size {v} exceeds the host address width"),
        })
    }

    /// Consumes an `f64` bit pattern.
    pub fn take_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Consumes a one-byte bool, rejecting anything but `0` / `1`.
    pub fn take_bool(&mut self) -> Result<bool> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(StoreError::Corrupt {
                context: "reader",
                reason: format!("invalid bool byte {other}"),
            }),
        }
    }

    /// Consumes an optional `u64` (presence byte plus value).
    pub fn take_opt_u64(&mut self) -> Result<Option<u64>> {
        Ok(if self.take_bool()? {
            Some(self.take_u64()?)
        } else {
            None
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip_is_bit_exact() {
        let mut w = ByteWriter::new();
        assert!(w.is_empty());
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_usize(42);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_bool(true);
        w.put_opt_u64(None);
        w.put_opt_u64(Some(9));
        w.put_bytes(b"xy");
        assert!(!w.is_empty());
        assert_eq!(w.len(), w.as_bytes().len() as u64);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 7);
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.take_usize().unwrap(), 42);
        // -0.0 and NaN survive bit-exactly (a numeric == check would miss both).
        assert_eq!(r.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.take_f64().unwrap().is_nan());
        assert!(r.take_bool().unwrap());
        assert_eq!(r.take_opt_u64().unwrap(), None);
        assert_eq!(r.take_opt_u64().unwrap(), Some(9));
        assert_eq!(&r.take_array::<2>().unwrap(), b"xy");
        r.expect_end("test").unwrap();
    }

    #[test]
    fn truncation_and_garbage_are_rejected() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert!(r.take_u64().is_err());
        assert_eq!(r.remaining(), 3);
        let mut r = ByteReader::new(&[9]);
        assert!(r.take_bool().is_err(), "bool byte must be 0 or 1");
        let r = ByteReader::new(&[0]);
        assert!(r.expect_end("test").is_err());
    }

    /// A writer's destination that other code can look into, and that can be told
    /// to fail once it holds `fail_after` bytes.
    #[derive(Clone, Default)]
    struct SharedSink {
        bytes: std::rc::Rc<std::cell::RefCell<Vec<u8>>>,
        fail_after: Option<usize>,
    }

    impl Write for SharedSink {
        fn write(&mut self, block: &[u8]) -> std::io::Result<usize> {
            let mut bytes = self.bytes.borrow_mut();
            if self
                .fail_after
                .is_some_and(|n| bytes.len() + block.len() > n)
            {
                return Err(std::io::Error::other("disk full"));
            }
            bytes.extend_from_slice(block);
            Ok(block.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// An encoding long enough to span several blocks, with a checksummed span
    /// inside another: returns the two hashes as the writer saw them.
    fn nested_encoding(w: &mut ByteWriter) -> (u64, u64) {
        w.put_bytes(b"head");
        w.begin_checksum();
        w.put_u32(7);
        w.begin_checksum();
        for i in 0..3 * BLOCK as u64 / 8 {
            w.put_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        let inner = w.end_checksum();
        w.put_u64(inner);
        let outer = w.end_checksum();
        w.put_u64(outer);
        (inner, outer)
    }

    #[test]
    fn the_three_sinks_agree_on_bytes_length_and_checksums() {
        let mut memory = ByteWriter::new();
        let (inner, outer) = nested_encoding(&mut memory);
        let bytes = memory.into_bytes();
        // The running hashes are the hashes of the spans as they lie in the buffer.
        let span = 4 + 4..bytes.len() - 16;
        assert_eq!(inner, fnv1a64(&bytes[span.clone()]));
        assert_eq!(outer, fnv1a64(&bytes[4..bytes.len() - 8]));

        let mut counting = ByteWriter::counting();
        nested_encoding(&mut counting);
        assert_eq!(counting.len(), bytes.len() as u64);
        assert_eq!(counting.finish().unwrap(), bytes.len() as u64);

        let sink = SharedSink::default();
        let mut streaming = ByteWriter::streaming(sink.clone());
        assert_eq!(nested_encoding(&mut streaming), (inner, outer));
        assert!(
            sink.bytes.borrow().len() >= 2 * BLOCK,
            "blocks leave as they fill, not at the end"
        );
        assert_eq!(streaming.buf.capacity(), BLOCK, "and never outgrow a block");
        assert_eq!(streaming.finish().unwrap(), bytes.len() as u64);
        assert_eq!(*sink.bytes.borrow(), bytes);
    }

    #[test]
    fn a_failing_destination_surfaces_at_finish() {
        let sink = SharedSink {
            fail_after: Some(BLOCK + 10),
            ..Default::default()
        };
        let mut w = ByteWriter::streaming(sink.clone());
        nested_encoding(&mut w);
        assert!(matches!(w.finish(), Err(StoreError::Io(_))));
        assert_eq!(sink.bytes.borrow().len(), BLOCK, "nothing after the error");
    }

    #[test]
    fn sections_limit_reads_and_peeking_leaves_no_trace() {
        let mut w = ByteWriter::new();
        let (inner, outer) = nested_encoding(&mut w);
        let bytes = w.into_bytes();
        let payload = (bytes.len() - 4 - 4 - 16) as u64;
        let mut r = ByteReader::new(&bytes);
        assert_eq!(&r.take_array::<4>().unwrap(), b"head");
        r.begin_checksum();
        // A look ahead over everything, hashes included, changes nothing...
        let peeked = r
            .peek(|r| {
                r.begin_checksum();
                r.skip(r.remaining() - 8)?;
                Ok(r.end_checksum())
            })
            .unwrap();
        assert_eq!(peeked, outer);
        assert_eq!(r.position(), 4);
        // ...and the same bytes decode again, section by section.
        assert_eq!(r.take_u32().unwrap(), 7);
        r.begin_checksum();
        r.enter(payload).unwrap();
        assert_eq!(r.remaining(), payload);
        assert_eq!(r.take_u64().unwrap(), 0);
        assert!(
            r.leave("payload").is_err(),
            "bytes of the section are unread"
        );
        r.skip(payload - 16).unwrap();
        assert!(r.skip(9).is_err(), "a read may not pass the section's end");
        assert!(r.enter(9).is_err());
        r.take_u64().unwrap();
        assert!(r.take_u8().is_err());
        r.leave("payload").unwrap();
        assert_eq!(r.end_checksum(), inner);
        assert_eq!(r.take_u64().unwrap(), inner);
        assert_eq!(r.end_checksum(), outer);
        assert_eq!(r.take_u64().unwrap(), outer);
        r.expect_end("test").unwrap();
    }

    #[test]
    fn runs_of_floats_decode_like_single_values_across_blocks_and_sections() {
        let values: Vec<f64> = (0..2 * BLOCK / 8 + 3)
            .map(|i| (i as f64).sin())
            .chain([-0.0, f64::NAN])
            .collect();
        let mut w = ByteWriter::new();
        w.put_u8(1); // so that no value is aligned with a block
        w.begin_checksum();
        for &v in &values {
            w.put_f64(v);
        }
        let checksum = w.end_checksum();
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        r.take_u8().unwrap();
        r.begin_checksum();
        r.enter(8 * values.len() as u64).unwrap();
        let mut decoded = Vec::new();
        r.take_f64s(7, &mut decoded).unwrap();
        r.take_f64s(values.len() - 7, &mut decoded).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&decoded), bits(&values));
        assert!(
            r.take_f64s(1, &mut decoded).is_err(),
            "the section is spent"
        );
        assert_eq!(decoded.len(), values.len());
        r.leave("floats").unwrap();
        assert_eq!(r.end_checksum(), checksum);
        // A count the input cannot back fails where the input ends, having
        // allocated for no more than it read.
        let mut r = ByteReader::new(&bytes[..1 + 8 * 10]);
        r.take_u8().unwrap();
        let mut decoded = Vec::new();
        assert!(r.take_f64s(usize::MAX, &mut decoded).is_err());
        assert_eq!(bits(&decoded), bits(&values[..10]));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171F73967E8);
    }
}

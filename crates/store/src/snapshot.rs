//! Versioned, checksummed on-disk snapshots of built indexes.
//!
//! # Format (version 1)
//!
//! ```text
//! offset  size  field
//! 0       8     magic "IPSSNAP\0"
//! 8       4     format version (u32 LE)
//! 12      ...   body:
//!                 1   index family tag (0 brute, 3 sketch, 4 ALSH, 5 symmetric;
//!                     1 ALSH and 2 symmetric load, see below)
//!                 4   section count (u32 LE)
//!                 per section:
//!                   4   section id (u32 LE)
//!                   8   payload length (u64 LE)
//!                   ... payload ([`crate::persist::Persist`] encoding)
//! end-8   8     FNV-1a 64 checksum of the body (u64 LE)
//! ```
//!
//! An LSH table's bucket key is the sign word of its planes. Files whose LSH tables
//! were keyed by a hash-combine chain of their components' signs carry tag 1 (ALSH) or
//! 2 (symmetric); they load, and their tables are filed again under sign words
//! (`LshMips::refile`), so they answer as they did and re-save under tags 4 and 5.
//!
//! Known sections are [`SECTION_IDS`] (the slot → external-id map plus the id
//! allocator state of the serving layer) and [`SECTION_INDEX`] (the index structure
//! itself). Unknown section ids are *skipped* on load, so later versions can append
//! sections without breaking older readers; a missing required section, a truncated
//! payload, a bad magic/version, or a checksum mismatch each fail loudly with a
//! [`StoreError`].
//!
//! # Format (version 2, multi-shard)
//!
//! Same magic and envelope with version 2; the body is one [`SECTION_SHARD`] per
//! shard — each payload a complete version-1 snapshot (empty payload = empty shard)
//! — plus a [`SECTION_NEXT_ID`] carrying the sharded layer's global id allocator.
//! Version-1 files keep loading unchanged ([`from_bytes_any`] accepts both layouts);
//! a one-shard index still *writes* version 1, so its files remain interchangeable
//! with plain [`crate::ServingIndex`] snapshots.
//!
//! # Reading and writing
//!
//! Neither direction holds an encoding in memory. [`SnapshotRef::write`] and
//! [`write_sharded`] encode into any [`ByteWriter`] — [`save_atomically`] hands them
//! one that streams into a temporary file, renamed over the target once complete —
//! and the loaders decode from a [`ByteReader`] over the file, a block at a time.
//! The order of checks is the one a whole-file reader had: **pass 1** hashes the file
//! and fails on its length, magic, version or checksum before any payload byte is
//! decoded (the envelopes of a container's shards are checked in the same pass);
//! **pass 2** decodes from the same handle and hashes again, so a file that changed
//! in between is refused.
//!
//! The payloads are written by the [`crate::persist::Persist`] impls — little-endian,
//! floats as IEEE-754 bit patterns, hash tables in sorted bucket order — so a
//! round-trip restores *bit-identical* behaviour: same sampled functions, same
//! buckets, same query results, and re-saving a loaded snapshot reproduces the same
//! bytes.

use crate::error::{Result, StoreError};
use crate::format::{ByteReader, ByteWriter};
use crate::persist::Persist;
use ips_core::asymmetric::SphereTransform;
use ips_core::mips::{BruteForceMipsIndex, MipsIndex, SearchResult, SketchMipsAdapter};
use ips_core::problem::JoinSpec;
use ips_core::symmetric::SymmetricSphereMap;
use ips_core::{LshMips, LshOps, SphereMap};
use ips_linalg::DenseVector;
use std::path::Path;

pub use ips_core::IndexFamily;

/// The 8-byte magic at offset 0 of every snapshot.
pub const MAGIC: [u8; 8] = *b"IPSSNAP\0";
/// The single-shard format version (the only version up to PR 4; still written
/// whenever an index has exactly one shard, so those files stay interchangeable
/// with every earlier reader).
pub const VERSION: u32 = 1;
/// The multi-shard container version: the body is one [`SECTION_SHARD`] per shard,
/// each payload a complete version-1 snapshot (or empty, for a shard that holds no
/// vectors). Written by the sharded serving layer for indexes with two or more
/// shards; version-1 files keep loading unchanged.
pub const VERSION_SHARDED: u32 = 2;
/// Section id of the serving-layer id map (`Vec<u64>` of per-slot external ids
/// followed by the next id to allocate).
pub const SECTION_IDS: u32 = 1;
/// Section id of the index structure payload.
pub const SECTION_INDEX: u32 = 2;
/// Section id of one shard inside a [`VERSION_SHARDED`] container; payload is a full
/// version-1 snapshot (empty payload = empty shard). Shards appear in shard order.
pub const SECTION_SHARD: u32 = 3;
/// Section id of the global id allocator inside a [`VERSION_SHARDED`] container
/// (a single `u64`): the next external id the sharded serving layer will hand out.
/// Carried separately from the per-shard allocators so a shard that happens to be
/// empty at save time cannot regress the allocator — external ids are never reused.
pub const SECTION_NEXT_ID: u32 = 4;

/// The family's on-disk tag byte.
fn family_tag(family: IndexFamily) -> u8 {
    match family {
        IndexFamily::Brute => 0,
        IndexFamily::Sketch => 3,
        IndexFamily::Alsh => 4,
        IndexFamily::Symmetric => 5,
    }
}

/// Decodes a family tag byte, and whether the LSH tables it heads are keyed by the
/// hash-combine chain of tags 1 and 2, to be filed again under sign words.
fn family_from_tag(tag: u8) -> Result<(IndexFamily, bool)> {
    Ok(match tag {
        0 => (IndexFamily::Brute, false),
        1 => (IndexFamily::Alsh, true),
        2 => (IndexFamily::Symmetric, true),
        3 => (IndexFamily::Sketch, false),
        4 => (IndexFamily::Alsh, false),
        5 => (IndexFamily::Symmetric, false),
        other => {
            return Err(StoreError::Corrupt {
                context: "header",
                reason: format!("unknown index family tag {other}"),
            })
        }
    })
}

/// An LSH index as [`Persist`] decodes it, its tables filed again under sign words
/// when they were `chained`.
fn read_lsh<M>(r: &mut ByteReader<'_>, chained: bool) -> Result<LshMips<'static, M>>
where
    LshMips<'static, M>: Persist,
    M: SphereMap,
{
    let mut index = LshMips::read(r)?;
    if chained {
        index.refile()?;
    }
    Ok(index)
}

/// A built index of any of the four persistable families, behind one enum so
/// snapshots and the serving layer are family-agnostic.
///
/// The two LSH variants hold one type under two maps. They are told apart where the
/// family tag decides something — construction, decoding and encoding,
/// [`AnyIndex::family`], the family's parameters, moving the vectors out — and reached
/// as one [`LshOps`] ([`AnyIndex::as_lsh`] / [`AnyIndex::as_lsh_mut`]) everywhere else.
pub enum AnyIndex {
    /// The exact quadratic scan.
    Brute(BruteForceMipsIndex<'static>),
    /// The Section 4.1 asymmetric-LSH index.
    Alsh(LshMips<'static, SphereTransform>),
    /// The Section 4.2 symmetric LSH.
    Symmetric(LshMips<'static, SymmetricSphereMap>),
    /// The Section 4.3 sketch structure.
    Sketch(SketchMipsAdapter<'static>),
}

/// An [`AnyIndex`] by kind of structure: the LSH families as one.
pub(crate) enum View<'a> {
    /// The exact quadratic scan.
    Brute(&'a BruteForceMipsIndex<'static>),
    /// Either LSH family.
    Lsh(&'a dyn LshOps),
    /// The Section 4.3 sketch structure.
    Sketch(&'a SketchMipsAdapter<'static>),
}

/// [`View`] for mutation (the sketch structure has no operation to offer).
pub(crate) enum ViewMut<'a> {
    /// The exact quadratic scan.
    Brute(&'a mut BruteForceMipsIndex<'static>),
    /// Either LSH family.
    Lsh(&'a mut dyn LshOps),
    /// The Section 4.3 sketch structure.
    Sketch,
}

impl AnyIndex {
    /// Which family the index belongs to.
    pub fn family(&self) -> IndexFamily {
        match self {
            AnyIndex::Brute(_) => IndexFamily::Brute,
            AnyIndex::Alsh(_) => IndexFamily::Alsh,
            AnyIndex::Symmetric(_) => IndexFamily::Symmetric,
            AnyIndex::Sketch(_) => IndexFamily::Sketch,
        }
    }

    pub(crate) fn view(&self) -> View<'_> {
        match self {
            AnyIndex::Brute(i) => View::Brute(i),
            AnyIndex::Alsh(i) => View::Lsh(i),
            AnyIndex::Symmetric(i) => View::Lsh(i),
            AnyIndex::Sketch(i) => View::Sketch(i),
        }
    }

    pub(crate) fn view_mut(&mut self) -> ViewMut<'_> {
        match self {
            AnyIndex::Brute(i) => ViewMut::Brute(i),
            AnyIndex::Alsh(i) => ViewMut::Lsh(i),
            AnyIndex::Symmetric(i) => ViewMut::Lsh(i),
            AnyIndex::Sketch(_) => ViewMut::Sketch,
        }
    }

    /// The index as an LSH index, when it is of either LSH family.
    pub fn as_lsh(&self) -> Option<&dyn LshOps> {
        match self.view() {
            View::Lsh(index) => Some(index),
            View::Brute(_) | View::Sketch(_) => None,
        }
    }

    /// [`AnyIndex::as_lsh`], for mutation.
    pub fn as_lsh_mut(&mut self) -> Option<&mut dyn LshOps> {
        match self.view_mut() {
            ViewMut::Lsh(index) => Some(index),
            ViewMut::Brute(_) | ViewMut::Sketch => None,
        }
    }

    /// The vector of every slot the index addresses, live or tombstoned, in slot
    /// order (the dynamic LSH families never reuse a slot; brute and sketch have no
    /// tombstones, so there these are the indexed vectors).
    fn vectors(&self) -> &[DenseVector] {
        match self.view() {
            View::Brute(i) => i.data(),
            View::Lsh(i) => i.data(),
            View::Sketch(i) => i.inner().data(),
        }
    }

    /// The structure as the searches see it.
    fn searcher(&self) -> &(dyn MipsIndex + Sync) {
        match self.view() {
            View::Brute(i) => i,
            View::Lsh(i) => i,
            View::Sketch(i) => i,
        }
    }

    /// Total number of slots the index addresses, live or tombstoned.
    pub fn slots(&self) -> usize {
        self.vectors().len()
    }

    /// Whether slot `id` holds a live vector.
    pub fn is_live(&self, slot: usize) -> bool {
        match self.as_lsh() {
            Some(index) => index.is_live(slot),
            None => slot < self.slots(),
        }
    }

    /// The vector stored in a slot (live or tombstoned).
    pub fn vector(&self, slot: usize) -> Option<&DenseVector> {
        self.vectors().get(slot)
    }

    /// Consumes the index, returning the vector of every slot (live or tombstoned) in
    /// slot order; everything else the structure held is freed.
    pub fn into_vectors(self) -> Vec<DenseVector> {
        match self {
            AnyIndex::Brute(i) => i.into_data(),
            AnyIndex::Alsh(i) => i.into_data(),
            AnyIndex::Symmetric(i) => i.into_data(),
            AnyIndex::Sketch(i) => i.into_data(),
        }
    }
}

impl MipsIndex for AnyIndex {
    fn len(&self) -> usize {
        self.searcher().len()
    }

    fn spec(&self) -> JoinSpec {
        self.searcher().spec()
    }

    fn search(&self, query: &DenseVector) -> ips_core::Result<Option<SearchResult>> {
        self.searcher().search(query)
    }

    /// Forwarded explicitly so the brute-force data-major override survives the enum
    /// indirection.
    fn search_batch(&self, queries: &[DenseVector]) -> ips_core::Result<Vec<Option<SearchResult>>> {
        self.searcher().search_batch(queries)
    }

    fn search_top_k(&self, query: &DenseVector, k: usize) -> ips_core::Result<Vec<SearchResult>> {
        self.searcher().search_top_k(query, k)
    }
}

/// A persistable unit: an [`AnyIndex`] plus the serving layer's external-id state.
///
/// `ids[slot]` is the stable external id the serving layer hands to clients for the
/// vector in that slot; `next_id` is the next id [`crate::ServingIndex::insert`]
/// will allocate. A snapshot fresh from `ips build` numbers ids `0..n`.
pub struct Snapshot {
    /// The index structure.
    pub index: AnyIndex,
    /// Per-slot external ids (`ids.len() == index.slots()`), strictly ascending.
    pub ids: Vec<u64>,
    /// The next external id the serving layer will allocate.
    pub next_id: u64,
}

impl Snapshot {
    /// Wraps a freshly built index, numbering external ids `0..slots`.
    pub fn new(index: AnyIndex) -> Self {
        let slots = index.slots();
        Self {
            index,
            ids: (0..slots as u64).collect(),
            next_id: slots as u64,
        }
    }

    /// Wraps an index together with explicit serving-layer id state.
    ///
    /// Returns an error when the id list does not cover the index's slots exactly,
    /// does not strictly ascend, or already contains `next_id`.
    pub fn with_ids(index: AnyIndex, ids: Vec<u64>, next_id: u64) -> Result<Self> {
        if ids.len() != index.slots() {
            return Err(StoreError::InvalidParameter {
                name: "ids",
                reason: format!("{} ids for {} slots", ids.len(), index.slots()),
            });
        }
        if let Some(w) = ids.windows(2).find(|w| w[0] >= w[1]) {
            return Err(StoreError::InvalidParameter {
                name: "ids",
                reason: format!("external id {} follows {}: ids must ascend", w[1], w[0]),
            });
        }
        if ids.last().is_some_and(|&max| max >= next_id) {
            return Err(StoreError::InvalidParameter {
                name: "next_id",
                reason: format!("next_id {next_id} is not above every assigned id"),
            });
        }
        Ok(Self {
            index,
            ids,
            next_id,
        })
    }

    /// The snapshot's parts, borrowed — what every encoder takes.
    pub fn as_ref(&self) -> SnapshotRef<'_> {
        SnapshotRef {
            index: &self.index,
            ids: &self.ids,
            next_id: self.next_id,
        }
    }

    /// Encodes the snapshot into its on-disk byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.as_ref().write(&mut w);
        w.into_bytes()
    }

    /// Decodes a single-shard snapshot from its on-disk byte format, verifying magic,
    /// version and checksum before touching any structure payload. A multi-shard
    /// ([`VERSION_SHARDED`]) file is rejected with a pointer to the sharded loader;
    /// use [`from_bytes_any`] to accept both layouts.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        Self::read_whole(&mut ByteReader::new(bytes))
    }

    /// Verifies, then decodes, the single-shard snapshot that is all of `r`.
    fn read_whole(r: &mut ByteReader<'_>) -> Result<Self> {
        let len = r.remaining();
        verify_envelope(r, len)?;
        Self::decode_enveloped(r, len)
    }

    /// Decodes the single-shard snapshot that spans the next `len` bytes of `r`, its
    /// envelope already verified.
    fn decode_enveloped(r: &mut ByteReader<'_>, len: u64) -> Result<Self> {
        decode_envelope(r, len, |r, version| {
            if version == VERSION_SHARDED {
                return Err(StoreError::InvalidParameter {
                    name: "snapshot",
                    reason: "this is a multi-shard snapshot; serve it through the sharded \
                             layer (`Index::open(..)` auto-detects, or use \
                             `ShardedServingIndex::open`)"
                        .into(),
                });
            }
            Self::read_v1_body(r)
        })
    }

    /// Decodes the body of a version-1 snapshot (everything between the version field
    /// and the checksum), already envelope-verified and entered as a section.
    fn read_v1_body(r: &mut ByteReader<'_>) -> Result<Self> {
        let (family, chained) = family_from_tag(r.take_u8()?)?;
        let sections = r.take_u32()?;
        let mut ids_state: Option<(Vec<u64>, u64)> = None;
        let mut index: Option<AnyIndex> = None;
        for _ in 0..sections {
            let id = r.take_u32()?;
            let len = r.take_u64()?;
            match id {
                SECTION_IDS => {
                    r.enter(len)?;
                    let n = r.take_usize()?;
                    let mut ids = Vec::new();
                    for _ in 0..n {
                        ids.push(r.take_u64()?);
                    }
                    let next_id = r.take_u64()?;
                    r.leave("ids section")?;
                    ids_state = Some((ids, next_id));
                }
                SECTION_INDEX => {
                    r.enter(len)?;
                    let decoded = match family {
                        IndexFamily::Brute => AnyIndex::Brute(BruteForceMipsIndex::read(r)?),
                        IndexFamily::Alsh => AnyIndex::Alsh(read_lsh(r, chained)?),
                        IndexFamily::Symmetric => AnyIndex::Symmetric(read_lsh(r, chained)?),
                        IndexFamily::Sketch => AnyIndex::Sketch(SketchMipsAdapter::read(r)?),
                    };
                    r.leave("index section")?;
                    index = Some(decoded);
                }
                // Unknown sections are future extensions: skip them.
                _ => r.skip(len)?,
            }
        }
        r.expect_end("body")?;
        let index = index.ok_or(StoreError::Corrupt {
            context: "body",
            reason: "missing index section".into(),
        })?;
        let (ids, next_id) = ids_state.ok_or(StoreError::Corrupt {
            context: "body",
            reason: "missing ids section".into(),
        })?;
        Snapshot::with_ids(index, ids, next_id)
    }

    /// Writes the snapshot to a file (see [`save_atomically`]), returning the number
    /// of bytes written.
    pub fn save(&self, path: &Path) -> Result<u64> {
        save_atomically(path, |w| self.as_ref().write(w))
    }

    /// Reads and decodes a snapshot file, holding one block of it at a time.
    pub fn load(path: &Path) -> Result<Self> {
        Self::read_whole(&mut ByteReader::open(path)?)
    }
}

/// What a single-shard snapshot stores, borrowed: an index plus the serving layer's
/// id state (see [`Snapshot`]). The serving layers encode through this without giving
/// up or copying what they serve.
#[derive(Clone, Copy)]
pub struct SnapshotRef<'a> {
    /// The index structure.
    pub index: &'a AnyIndex,
    /// Per-slot external ids.
    pub ids: &'a [u64],
    /// The next external id the serving layer will allocate.
    pub next_id: u64,
}

impl SnapshotRef<'_> {
    /// Appends the version-1 on-disk encoding to `w`.
    pub fn write(&self, w: &mut ByteWriter) {
        write_v1(
            w,
            self.index.family(),
            self.ids,
            self.next_id,
            &|w| match self.index {
                AnyIndex::Brute(i) => i.write(w),
                AnyIndex::Alsh(i) => i.write(w),
                AnyIndex::Symmetric(i) => i.write(w),
                AnyIndex::Sketch(i) => i.write(w),
            },
        );
    }
}

/// An encoder of some span of a snapshot, run once to size the span and once to
/// write it.
type Encoder<'a> = &'a dyn Fn(&mut ByteWriter);

/// Writes the version-1 envelope around an encoded index structure and the
/// serving-layer id state: magic, version, sections, checksum.
fn write_v1(
    w: &mut ByteWriter,
    family: IndexFamily,
    ids: &[u64],
    next_id: u64,
    index: Encoder<'_>,
) {
    write_envelope(w, VERSION, |w| {
        w.put_u8(family_tag(family));
        w.put_u32(2); // section count
        write_section(w, SECTION_IDS, &|w| {
            w.put_usize(ids.len());
            for &id in ids {
                w.put_u64(id);
            }
            w.put_u64(next_id);
        });
        write_section(w, SECTION_INDEX, index);
    });
}

/// Writes magic and version, then `body`, then the FNV-1a hash of what `body` wrote.
fn write_envelope(w: &mut ByteWriter, version: u32, body: impl FnOnce(&mut ByteWriter)) {
    w.put_bytes(&MAGIC);
    w.put_u32(version);
    w.begin_checksum();
    body(w);
    let checksum = w.end_checksum();
    w.put_u64(checksum);
}

/// Writes one section: id, payload length, payload. The length stands before the
/// payload on disk, so the payload is encoded twice — into a counting writer first —
/// rather than held in memory to be measured.
fn write_section(w: &mut ByteWriter, id: u32, payload: Encoder<'_>) {
    let mut sizing = ByteWriter::counting();
    payload(&mut sizing);
    w.put_u32(id);
    w.put_u64(sizing.len());
    let start = w.len();
    payload(w);
    assert_eq!(
        w.len() - start,
        sizing.len(),
        "an encoding must not depend on where it is written"
    );
}

/// Streams an encoding into a file **atomically**: the bytes go to a temporary file
/// beside `path`, which is flushed and then renamed over `path`. A reader therefore
/// sees the previous snapshot or the new one, never a mixture, and on any error the
/// temporary file is removed and the previous snapshot is left as it was. Returns the
/// number of bytes written. (The file is not synced to the device: as before, a
/// snapshot is as durable as the file system makes an ordinary write.)
pub fn save_atomically(path: &Path, encode: impl FnOnce(&mut ByteWriter)) -> Result<u64> {
    save_atomically_through(path, |file| Box::new(file), encode)
}

/// [`save_atomically`] with the temporary file wrapped by `sink` (a test's way in to
/// make the destination fail mid-stream).
fn save_atomically_through(
    path: &Path,
    sink: impl FnOnce(std::fs::File) -> Box<dyn std::io::Write>,
    encode: impl FnOnce(&mut ByteWriter),
) -> Result<u64> {
    static SAVES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let mut name = path
        .file_name()
        .ok_or(StoreError::InvalidParameter {
            name: "path",
            reason: format!("`{}` names no file", path.display()),
        })?
        .to_os_string();
    // Unique among this process's concurrent saves and among processes.
    let save = SAVES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    name.push(format!(".tmp-{}-{save}", std::process::id()));
    let temporary = path.with_file_name(name);
    let stream = || -> Result<u64> {
        let file = std::fs::File::create(&temporary)?;
        let mut w = ByteWriter::streaming(sink(file));
        encode(&mut w);
        let bytes = w.finish()?;
        std::fs::rename(&temporary, path)?;
        Ok(bytes)
    };
    let written = stream();
    if written.is_err() {
        let _ = std::fs::remove_file(&temporary);
    }
    written
}

/// Bytes of an envelope that are not its body: magic, version, checksum.
const ENVELOPE_OVERHEAD: u64 = (MAGIC.len() + 4 + 8) as u64;

/// Checks the envelope that spans the next `len` bytes — length, magic, a known
/// version, and the checksum, streamed through FNV-1a a block at a time — consuming
/// it. A container's shard envelopes are checked on the way (`shards` gets their
/// verdicts): their hashes run beside the container's over the same blocks.
fn check_envelope(
    r: &mut ByteReader<'_>,
    len: u64,
    shards: Option<&mut Vec<Result<()>>>,
) -> Result<u32> {
    if len < ENVELOPE_OVERHEAD {
        return Err(StoreError::Corrupt {
            context: "header",
            reason: format!("{len} bytes is too short for a snapshot"),
        });
    }
    if r.take_array()? != MAGIC {
        return Err(StoreError::Corrupt {
            context: "header",
            reason: "bad magic (not a snapshot file)".into(),
        });
    }
    let version = r.take_u32()?;
    if version != VERSION && version != VERSION_SHARDED {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: VERSION_SHARDED,
        });
    }
    r.begin_checksum();
    let hashed = r.enter(len - ENVELOPE_OVERHEAD).and_then(|()| {
        if let (VERSION_SHARDED, Some(shards)) = (version, shards) {
            // A container that cannot be walked is a defect pass 2 meets at the same
            // byte and reports; all that matters here is the checksum of the rest.
            let _ = check_shard_envelopes(r, shards);
        }
        r.skip(r.remaining())?;
        r.leave("body")
    });
    let computed = r.end_checksum();
    hashed?;
    let stored = r.take_u64()?;
    if stored != computed {
        return Err(StoreError::Corrupt {
            context: "checksum",
            reason: format!("stored {stored:#018x} != computed {computed:#018x}"),
        });
    }
    Ok(version)
}

/// Walks a container's sections, checking the envelope of every non-empty shard.
fn check_shard_envelopes(r: &mut ByteReader<'_>, verdicts: &mut Vec<Result<()>>) -> Result<()> {
    let sections = r.take_u32()?;
    for _ in 0..sections {
        let id = r.take_u32()?;
        let len = r.take_u64()?;
        if id == SECTION_SHARD && len > 0 {
            r.enter(len)?;
            verdicts.push(check_envelope(r, len, None).map(drop));
            r.skip(r.remaining())?;
            r.leave("shard section")?;
        } else {
            r.skip(len)?;
        }
    }
    Ok(())
}

/// Pass 1 over the envelope that spans the next `len` bytes ([`check_envelope`]),
/// after which the reader stands where it stood: nothing of the payload is decoded
/// before this returns.
///
/// For a container, returns what the same pass found of each non-empty shard
/// section's own envelope, in file order. A shard's verdict is reported when pass 2
/// reaches the shard — which is when a reader that cut shards out as slices, and
/// verified each before decoding it, reported it.
fn verify_envelope(r: &mut ByteReader<'_>, len: u64) -> Result<Vec<Result<()>>> {
    let mut shards = Vec::new();
    r.peek(|r| check_envelope(r, len, Some(&mut shards)))?;
    Ok(shards)
}

/// Pass 2 over an envelope pass 1 accepted: decodes its body with `body` (entered as
/// a section; given the version) and hashes what it decodes once more — a file
/// rewritten between the passes fails here instead of yielding a structure no
/// checksum ever covered.
fn decode_envelope<T>(
    r: &mut ByteReader<'_>,
    len: u64,
    body: impl FnOnce(&mut ByteReader<'_>, u32) -> Result<T>,
) -> Result<T> {
    r.skip(MAGIC.len() as u64)?;
    let version = r.take_u32()?;
    r.begin_checksum();
    r.enter(len - ENVELOPE_OVERHEAD)?;
    let decoded = body(r, version)?;
    r.leave("body")?;
    let computed = r.end_checksum();
    if r.take_u64()? != computed {
        return Err(changed_between_passes());
    }
    Ok(decoded)
}

fn changed_between_passes() -> StoreError {
    StoreError::Corrupt {
        context: "checksum",
        reason: "the snapshot changed while it was being read".into(),
    }
}

/// A decoded snapshot file of either layout: the single-shard format every reader
/// since PR 3 understands, or the multi-shard container (one entry per shard, `None`
/// for a shard with no vectors).
pub enum LoadedSnapshot {
    /// A [`VERSION`] (single-shard) file (boxed: a [`Snapshot`] is hundreds of
    /// bytes inline, the sharded variant a few pointers).
    Single(Box<Snapshot>),
    /// A [`VERSION_SHARDED`] container.
    Sharded {
        /// Per-shard snapshots, in shard order (`None` = the shard held no vectors).
        shards: Vec<Option<Snapshot>>,
        /// The global id allocator ([`SECTION_NEXT_ID`]).
        next_id: u64,
    },
}

/// Decodes a snapshot of either layout — what shard-aware loaders
/// ([`crate::ShardedServingIndex::open`], the `Index::open` builder) call, so old
/// single-shard files keep loading wherever a sharded index is accepted.
pub fn from_bytes_any(bytes: &[u8]) -> Result<LoadedSnapshot> {
    read_any(&mut ByteReader::new(bytes))
}

/// Reads and decodes a snapshot file of either layout, holding one block of it at a
/// time: a container's shards are verified and decoded one after the other.
pub fn load_any(path: &Path) -> Result<LoadedSnapshot> {
    read_any(&mut ByteReader::open(path)?)
}

fn read_any(r: &mut ByteReader<'_>) -> Result<LoadedSnapshot> {
    let len = r.remaining();
    let mut shard_verdicts = verify_envelope(r, len)?.into_iter();
    decode_envelope(r, len, |r, version| {
        if version == VERSION {
            return Ok(LoadedSnapshot::Single(Box::new(Snapshot::read_v1_body(r)?)));
        }
        let sections = r.take_u32()?;
        let mut shards = Vec::new();
        let mut next_id: Option<u64> = None;
        for _ in 0..sections {
            let id = r.take_u32()?;
            let len = r.take_u64()?;
            match id {
                SECTION_SHARD => {
                    r.enter(len)?;
                    shards.push(if len == 0 {
                        None
                    } else {
                        // The verdict of pass 1 on this shard's own envelope, before
                        // a byte of the shard is decoded.
                        shard_verdicts
                            .next()
                            .unwrap_or_else(|| Err(changed_between_passes()))?;
                        Some(Snapshot::decode_enveloped(r, len)?)
                    });
                    r.leave("shard section")?;
                }
                SECTION_NEXT_ID => {
                    r.enter(len)?;
                    next_id = Some(r.take_u64()?);
                    r.leave("next-id section")?;
                }
                // Unknown sections are future extensions: skip them.
                _ => r.skip(len)?,
            }
        }
        r.expect_end("sharded body")?;
        if shards.is_empty() {
            return Err(StoreError::Corrupt {
                context: "sharded body",
                reason: "no shard sections".into(),
            });
        }
        let next_id = next_id.ok_or(StoreError::Corrupt {
            context: "sharded body",
            reason: "missing next-id section".into(),
        })?;
        Ok(LoadedSnapshot::Sharded { shards, next_id })
    })
}

/// Appends a [`VERSION_SHARDED`] container to `w`: one section per shard in shard
/// order, each a complete version-1 snapshot (`None` = an empty shard, written as an
/// empty section), plus the global id allocator.
pub fn write_sharded(w: &mut ByteWriter, shards: &[Option<SnapshotRef<'_>>], next_id: u64) {
    write_envelope(w, VERSION_SHARDED, |w| {
        w.put_u32(shards.len() as u32 + 1); // one section per shard + the allocator
        for shard in shards {
            write_section(w, SECTION_SHARD, &|w| {
                if let Some(shard) = shard {
                    shard.write(w);
                }
            });
        }
        write_section(w, SECTION_NEXT_ID, &|w| w.put_u64(next_id));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_core::problem::JoinVariant;
    use ips_linalg::random::random_ball_vector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_snapshot() -> Snapshot {
        let mut rng = StdRng::seed_from_u64(0x5A9);
        let data: Vec<DenseVector> = (0..40)
            .map(|_| random_ball_vector(&mut rng, 8, 1.0).unwrap())
            .collect();
        let spec = JoinSpec::new(0.4, 0.5, JoinVariant::Signed).unwrap();
        Snapshot::new(AnyIndex::Brute(BruteForceMipsIndex::new(data, spec)))
    }

    #[test]
    fn roundtrip_and_byte_stability() {
        let snap = sample_snapshot();
        let bytes = snap.to_bytes();
        let loaded = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(loaded.ids, snap.ids);
        assert_eq!(loaded.next_id, snap.next_id);
        assert_eq!(loaded.index.family(), IndexFamily::Brute);
        assert_eq!(loaded.index.len(), snap.index.len());
        // save(load(x)) is byte-identical: the encoding is deterministic.
        assert_eq!(loaded.to_bytes(), bytes);
    }

    #[test]
    fn corruption_is_detected() {
        let snap = sample_snapshot();
        let bytes = snap.to_bytes();
        // Not a snapshot at all.
        assert!(Snapshot::from_bytes(b"nope").is_err());
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            Snapshot::from_bytes(&bad),
            Err(StoreError::Corrupt { .. })
        ));
        // Future version.
        let mut bad = bytes.clone();
        bad[8] = 99;
        assert!(matches!(
            Snapshot::from_bytes(&bad),
            Err(StoreError::UnsupportedVersion { found: 99, .. })
        ));
        // A flipped payload byte fails the checksum before any decoding.
        let mut bad = bytes.clone();
        let mid = bytes.len() / 2;
        bad[mid] ^= 0x01;
        let err = match Snapshot::from_bytes(&bad) {
            Err(e) => e,
            Ok(_) => panic!("flipped payload byte must fail"),
        };
        assert!(err.to_string().contains("checksum"), "{err}");
        // Truncation fails loudly too.
        assert!(Snapshot::from_bytes(&bytes[..bytes.len() - 3]).is_err());
    }

    /// A three-shard container (the middle shard empty) over [`sample_snapshot`]'s
    /// vectors, and the offsets at which its sections and its shards' sections begin
    /// and end.
    fn sample_container() -> (Vec<u8>, Vec<usize>) {
        let (a, b) = (sample_snapshot(), sample_snapshot());
        let shards = [Some(a.as_ref()), None, Some(b.as_ref())];
        let mut w = ByteWriter::new();
        write_sharded(&mut w, &shards, 99);
        let bytes = w.into_bytes();
        // Walk the layout by hand: magic, version, count, then (id, length, payload)*.
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        let mut boundaries = vec![0, 8, 12, 16];
        let mut at = 16;
        while at < bytes.len() - 8 {
            let (id, len) = (bytes[at], u64_at(at + 4));
            let payload = at + 12;
            boundaries.extend([at + 4, payload]);
            if id as u32 == SECTION_SHARD && len > 0 {
                // A whole version-1 snapshot: its own header, two sections, checksum.
                let mut inner = payload + 8 + 4 + 1 + 4;
                boundaries.extend([payload + 8, payload + 12, inner]);
                for _ in 0..2 {
                    boundaries.extend([inner + 12, inner + 12 + u64_at(inner + 4)]);
                    inner += 12 + u64_at(inner + 4);
                }
                assert_eq!(inner + 8, payload + len);
            }
            at = payload + len;
            boundaries.push(at);
        }
        assert_eq!(at, bytes.len() - 8);
        boundaries.sort_unstable();
        boundaries.dedup();
        (bytes, boundaries)
    }

    #[test]
    fn truncation_at_every_section_boundary_fails_the_envelope_check() {
        let (bytes, boundaries) = sample_container();
        assert!(matches!(
            from_bytes_any(&bytes),
            Ok(LoadedSnapshot::Sharded { next_id: 99, .. })
        ));
        assert!(boundaries.len() > 20, "{boundaries:?}");
        let path = std::env::temp_dir().join(format!("ips-truncated-{}.snap", std::process::id()));
        for &boundary in &boundaries {
            for cut in [boundary.saturating_sub(1), boundary, boundary + 1] {
                // Through a file, as `open` reads it, and from memory.
                std::fs::write(&path, &bytes[..cut]).unwrap();
                for loaded in [load_any(&path), from_bytes_any(&bytes[..cut])] {
                    match loaded {
                        Err(StoreError::Corrupt { context, .. }) => assert_eq!(
                            context,
                            if cut < 20 { "header" } else { "checksum" },
                            "cut at {cut}"
                        ),
                        Err(other) => panic!("cut at {cut}: {other}"),
                        Ok(_) => panic!("cut at {cut} loaded"),
                    }
                }
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_shard_is_verified_before_it_is_decoded_and_the_file_is_hashed_twice() {
        let (bytes, _) = sample_container();
        let reseal = |mut bytes: Vec<u8>| {
            let end = bytes.len() - 8;
            let checksum = crate::format::fnv1a64(&bytes[12..end]);
            bytes[end..].copy_from_slice(&checksum.to_le_bytes());
            bytes
        };
        // A flipped byte deep in the last shard, under a container checksum made to
        // match: the shard's own envelope check catches it, as it did when shards
        // were cut out as slices.
        let mut inner = bytes.clone();
        let at = bytes.len() - 200;
        inner[at] ^= 0x40;
        match from_bytes_any(&reseal(inner)) {
            Err(StoreError::Corrupt { context, .. }) => assert_eq!(context, "checksum"),
            Err(other) => panic!("{other}"),
            Ok(_) => panic!("a corrupt shard loaded"),
        }
        // A shard that is itself a container is refused with the pointer to the
        // sharded loader; a shard section too short for a snapshot as the header it is.
        let nested = {
            let snapshot = sample_snapshot();
            let mut inner = ByteWriter::new();
            write_sharded(&mut inner, &[Some(snapshot.as_ref())], 1);
            let mut w = ByteWriter::new();
            write_envelope(&mut w, VERSION_SHARDED, |w| {
                w.put_u32(2);
                write_section(w, SECTION_SHARD, &|w| w.put_bytes(inner.as_bytes()));
                write_section(w, SECTION_NEXT_ID, &|w| w.put_u64(1));
            });
            w.into_bytes()
        };
        assert!(matches!(
            from_bytes_any(&nested),
            Err(StoreError::InvalidParameter {
                name: "snapshot",
                ..
            })
        ));
        // The second pass hashes what it decodes: the same bytes pass both...
        let mut r = ByteReader::new(&bytes);
        let len = r.remaining();
        let shard_verdicts = verify_envelope(&mut r, len).unwrap();
        assert!(matches!(shard_verdicts[..], [Ok(()), Ok(())]));
        assert_eq!(r.position(), 0, "pass 1 leaves the reader where it stood");
        let version = decode_envelope(&mut r, len, |r, version| {
            r.skip(r.remaining())?;
            Ok(version)
        })
        .unwrap();
        assert_eq!(version, VERSION_SHARDED);
        r.expect_end("container").unwrap();
        // ...and a decoder that leaves bytes of the body unread is told so.
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            decode_envelope(&mut r, len, |_, _| Ok(())),
            Err(StoreError::Corrupt {
                context: "body",
                ..
            })
        ));
    }

    /// Passes `budget` bytes on to the file, then reports a full disk.
    struct FailingFile {
        file: std::fs::File,
        budget: usize,
    }

    impl std::io::Write for FailingFile {
        fn write(&mut self, block: &[u8]) -> std::io::Result<usize> {
            if block.len() > self.budget {
                return Err(std::io::Error::other("disk full"));
            }
            self.budget -= block.len();
            self.file.write(block)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.file.flush()
        }
    }

    #[test]
    fn a_save_that_fails_midway_leaves_the_previous_snapshot_and_no_litter() {
        let dir = std::env::temp_dir().join(format!("ips-atomic-save-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.snap");
        let old = sample_snapshot();
        assert_eq!(old.save(&path).unwrap(), old.to_bytes().len() as u64);
        assert_eq!(std::fs::read(&path).unwrap(), old.to_bytes());

        // Large enough to leave the writer in several blocks; the second one fails.
        let mut rng = StdRng::seed_from_u64(0xA70);
        let data: Vec<DenseVector> = (0..2000)
            .map(|_| random_ball_vector(&mut rng, 16, 1.0).unwrap())
            .collect();
        let spec = JoinSpec::new(0.4, 0.5, JoinVariant::Signed).unwrap();
        let new = Snapshot::new(AnyIndex::Brute(BruteForceMipsIndex::new(data, spec)));
        let failed = save_atomically_through(
            &path,
            |file| {
                Box::new(FailingFile {
                    file,
                    budget: 100_000,
                })
            },
            |w| new.as_ref().write(w),
        );
        assert!(matches!(failed, Err(StoreError::Io(_))));
        assert_eq!(
            std::fs::read(&path).unwrap(),
            old.to_bytes(),
            "the previous snapshot is untouched"
        );
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(left.len(), 1, "the temporary file is gone: {left:?}");

        // The same save through an honest file replaces the snapshot whole.
        assert_eq!(new.save(&path).unwrap(), new.to_bytes().len() as u64);
        assert_eq!(std::fs::read(&path).unwrap(), new.to_bytes());
        assert_eq!(Snapshot::load(&path).unwrap().to_bytes(), new.to_bytes());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        // A path that names no file is refused before anything is created.
        assert!(new.save(Path::new("/")).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn id_state_is_validated() {
        let snap = sample_snapshot();
        let AnyIndex::Brute(index) = snap.index else {
            unreachable!()
        };
        let n = index.data().len();
        assert!(Snapshot::with_ids(AnyIndex::Brute(index), vec![0; n], n as u64).is_err());
        let snap = sample_snapshot();
        let AnyIndex::Brute(index) = snap.index else {
            unreachable!()
        };
        assert!(
            Snapshot::with_ids(AnyIndex::Brute(index), (0..n as u64).collect(), 1).is_err(),
            "next_id below an assigned id"
        );
        let snap = sample_snapshot();
        let AnyIndex::Brute(index) = snap.index else {
            unreachable!()
        };
        assert!(Snapshot::with_ids(AnyIndex::Brute(index), vec![0, 1], 2).is_err());
    }

    #[test]
    fn a_snapshot_whose_ids_do_not_ascend_is_refused_at_load() {
        let snap = sample_snapshot();
        let AnyIndex::Brute(index) = &snap.index else {
            unreachable!()
        };
        let sealed = |ids: &[u64]| {
            let mut payload = ByteWriter::new();
            index.write(&mut payload);
            seal(IndexFamily::Brute, ids, snap.next_id, payload)
        };
        assert_eq!(sealed(&snap.ids), snap.to_bytes());
        let mut swapped = snap.ids.clone();
        swapped.swap(3, 4);
        // A checksum over the swapped ids: only the decoder can refuse the file.
        let bytes = sealed(&swapped);
        assert!(Snapshot::from_bytes(&bytes).is_err());
        assert!(from_bytes_any(&bytes).is_err());
    }

    /// A version-1 snapshot around an index payload spelled out byte by byte — every
    /// other byte as [`SnapshotRef::write`] writes it, checksum included.
    fn seal(family: IndexFamily, ids: &[u64], next_id: u64, index_payload: ByteWriter) -> Vec<u8> {
        let mut w = ByteWriter::new();
        write_v1(&mut w, family, ids, next_id, &|w| {
            w.put_bytes(index_payload.as_bytes())
        });
        w.into_bytes()
    }

    /// An LSH table as the bytes spell it, `(key, ids)` per bucket in the order
    /// written, so a test can state tables that [`ips_lsh::table::Table`] refuses.
    type RawTable = Vec<(u64, Vec<u32>)>;

    fn raw_tables(tables: &[ips_lsh::table::Table]) -> Vec<RawTable> {
        let raw = |table: &ips_lsh::table::Table| {
            let buckets = table.buckets();
            buckets
                .map(|(key, ids)| (key, ids.iter().collect()))
                .collect()
        };
        tables.iter().map(raw).collect()
    }

    /// One component of an LSH index's planes as the bytes spell it: the sphere
    /// transform's dimension and query radius (SIMPLE-ALSH only), then its planes — so
    /// a test can state planes that [`ips_lsh::bank::PlaneBank`] refuses.
    #[derive(Clone)]
    struct RawComponent {
        transform: Option<(usize, f64)>,
        planes: Vec<DenseVector>,
    }

    /// A table's composite function: its components in order.
    type RawComposite = Vec<RawComponent>;

    fn raw_planes(bank: &ips_lsh::bank::PlaneBank) -> Vec<RawComposite> {
        use ips_lsh::bank::Embedding;
        let shape = bank.shape();
        let transform = match bank.embedding() {
            Embedding::Sphere(transform) => Some((transform.dim(), transform.query_radius())),
            Embedding::Identity => None,
        };
        let plane = |f| DenseVector::new(bank.plane(f).collect());
        let component = |first| RawComponent {
            transform,
            planes: (first..first + shape.bits).map(plane).collect(),
        };
        (0..shape.tables)
            .map(|t| {
                let first = |c| (t * shape.components + c) * shape.bits;
                (0..shape.components).map(|c| component(first(c))).collect()
            })
            .collect()
    }

    /// The bytes of a snapshot of an LSH index over `data` with liveness `live`, whose
    /// LSH planes and tables are the ones given — every other byte as
    /// [`SnapshotRef::write`] writes it, checksum included.
    fn snapshot_with_planes(
        family: IndexFamily,
        header: impl FnOnce(&mut ByteWriter),
        (data, live): (&[DenseVector], &[bool]),
        lsh: (ips_lsh::table::IndexParams, usize),
        planes: &[RawComposite],
        tables: &[RawTable],
    ) -> Vec<u8> {
        let mut w = ByteWriter::new();
        header(&mut w);
        crate::persist::write_slice(&mut w, data);
        crate::persist::write_slice(&mut w, live);
        lsh.0.write(&mut w);
        w.put_usize(lsh.1);
        w.put_usize(planes.len());
        for composite in planes {
            w.put_usize(composite.len());
            for component in composite {
                if let Some((dim, radius)) = component.transform {
                    w.put_usize(dim);
                    w.put_f64(radius);
                }
                crate::persist::write_slice(&mut w, &component.planes);
            }
        }
        w.put_usize(tables.len());
        for table in tables {
            w.put_usize(table.len());
            for (key, ids) in table {
                w.put_u64(*key);
                crate::persist::write_slice(&mut w, ids);
            }
        }
        let ids: Vec<u64> = (0..data.len() as u64).collect();
        seal(family, &ids, data.len() as u64, w)
    }

    #[test]
    fn inconsistent_lsh_tables_are_rejected_at_load() {
        use ips_core::asymmetric::AlshParams;
        use ips_lsh::simple_alsh::SphereTransform;

        let mut rng = StdRng::seed_from_u64(0xBAD7);
        let data: Vec<DenseVector> = (0..30)
            .map(|_| random_ball_vector(&mut rng, 6, 1.0).unwrap())
            .collect();
        let spec = JoinSpec::new(0.4, 0.5, JoinVariant::Signed).unwrap();
        let params = AlshParams {
            bits_per_table: 3,
            tables: 4,
            ..Default::default()
        };
        let schedule = ips_linalg::par::Schedule::new(ips_lsh::table::BUILD_BLOCK);
        let alsh: LshMips<'_, SphereTransform> =
            LshMips::build(schedule, &mut rng, data.clone(), spec, params).unwrap();
        let lsh = alsh.lsh_index();
        let planes = raw_planes(lsh.bank());
        // Checksummed and structurally decodable, so only the table decoder and the
        // load-time checks of `LshMips::from_raw_parts` stand between these bytes and
        // a served index.
        let bytes = |live: &[bool], tables: &[RawTable]| {
            let len = live.iter().filter(|&&l| l).count();
            snapshot_with_planes(
                IndexFamily::Alsh,
                |w| {
                    spec.write(w);
                    params.write(w);
                },
                (&data, live),
                (lsh.params(), len),
                &planes,
                tables,
            )
        };
        let (live, good) = (vec![true; data.len()], raw_tables(lsh.tables()));
        let untouched = bytes(&live, &good);
        let loaded = Snapshot::from_bytes(&untouched).expect("the untouched re-encoding loads");
        assert!(loaded.to_bytes() == untouched);
        // `raw` with every `from` in the tables `which` renamed `to`.
        let renamed = |raw: &[RawTable], from: u32, to: u32, which: &[usize]| {
            let mut raw = raw.to_vec();
            for &t in which {
                for id in raw[t].iter_mut().flat_map(|(_, ids)| ids) {
                    if *id == from {
                        *id = to;
                    }
                }
            }
            raw
        };
        let all = [0, 1, 2, 3];

        // 1. Every stored id 0 renamed to 999, past the 30 slots: this loaded, and the
        //    first query to gather it indexed out of bounds.
        assert!(Snapshot::from_bytes(&bytes(&live, &renamed(&good, 0, 999, &all))).is_err());
        // 2. Slot 5 deleted (which loads), then id 5 stored in place of id 6: the count
        //    is right, but a deleted vector would be answered.
        let mut dead = live.clone();
        dead[5] = false;
        let mut deleted = good.clone();
        for table in &mut deleted {
            for (_, ids) in table.iter_mut() {
                ids.retain(|&id| id != 5);
            }
            table.retain(|(_, ids)| !ids.is_empty());
        }
        assert!(Snapshot::from_bytes(&bytes(&dead, &deleted)).is_ok());
        let resurrected = renamed(&deleted, 6, 5, &all);
        assert!(Snapshot::from_bytes(&bytes(&dead, &resurrected)).is_err());
        // 3. One table stores id 8 twice and id 7 not at all.
        assert!(Snapshot::from_bytes(&bytes(&live, &renamed(&good, 7, 8, &[2]))).is_err());
        // 4. Two buckets out of key order.
        let mut swapped = good.clone();
        swapped[1].swap(0, 1);
        assert!(Snapshot::from_bytes(&bytes(&live, &swapped)).is_err());
        // 5. An empty bucket, under a key of its own (a sign word of 3 bits is below 8).
        let mut padded = good.clone();
        padded[3].push((8, vec![]));
        assert!(Snapshot::from_bytes(&bytes(&live, &padded)).is_err());
    }

    #[test]
    fn a_table_of_65_bits_is_refused_at_load() {
        use ips_core::asymmetric::AlshParams;
        use ips_lsh::simple_alsh::SphereTransform;

        let mut rng = StdRng::seed_from_u64(0x65);
        let data: Vec<DenseVector> = (0..20)
            .map(|_| random_ball_vector(&mut rng, 4, 1.0).unwrap())
            .collect();
        let spec = JoinSpec::new(0.4, 0.5, JoinVariant::Signed).unwrap();
        let params = AlshParams {
            bits_per_table: 64,
            tables: 1,
            ..Default::default()
        };
        let schedule = ips_linalg::par::Schedule::new(ips_lsh::table::BUILD_BLOCK);
        let alsh: LshMips<'_, SphereTransform> =
            LshMips::build(schedule, &mut rng, data.clone(), spec, params).unwrap();
        let lsh = alsh.lsh_index();
        let bytes = |bits_per_table: usize, planes: &[RawComposite]| {
            let tables = ips_lsh::table::IndexParams {
                k: planes[0].len(),
                l: 1,
            };
            snapshot_with_planes(
                IndexFamily::Alsh,
                |w| {
                    spec.write(w);
                    AlshParams {
                        bits_per_table,
                        ..params
                    }
                    .write(w);
                },
                (&data, &vec![true; data.len()]),
                (tables, data.len()),
                planes,
                &raw_tables(lsh.tables()),
            )
        };
        let planes = raw_planes(lsh.bank());
        assert!(Snapshot::from_bytes(&bytes(64, &planes)).is_ok());
        // The header's parameters alone, and a 65th component in the planes too.
        let mut wider = planes.clone();
        wider[0].push(planes[0][0].clone());
        for refused in [bytes(65, &planes), bytes(65, &wider)] {
            let error = Snapshot::from_bytes(&refused).err().unwrap().to_string();
            assert!(error.contains("64-bit sign word"), "{error}");
        }
    }

    #[test]
    fn an_alsh_params_section_with_a_rescoring_cap_is_refused_at_load() {
        use ips_core::asymmetric::AlshParams;
        use ips_lsh::simple_alsh::SphereTransform;

        let mut rng = StdRng::seed_from_u64(0xCA9);
        let data: Vec<DenseVector> = (0..20)
            .map(|_| random_ball_vector(&mut rng, 4, 1.0).unwrap())
            .collect();
        let spec = JoinSpec::new(0.4, 0.5, JoinVariant::Signed).unwrap();
        let params = AlshParams {
            bits_per_table: 3,
            tables: 2,
            ..Default::default()
        };
        let schedule = ips_linalg::par::Schedule::new(ips_lsh::table::BUILD_BLOCK);
        let alsh: LshMips<'_, SphereTransform> =
            LshMips::build(schedule, &mut rng, data.clone(), spec, params).unwrap();
        let lsh = alsh.lsh_index();
        // The params section as earlier builds wrote it, with the cap's presence byte
        // and, when present, the cap.
        let bytes = |cap: Option<u64>| {
            snapshot_with_planes(
                IndexFamily::Alsh,
                |w| {
                    spec.write(w);
                    w.put_f64(params.query_radius);
                    w.put_usize(params.bits_per_table);
                    w.put_usize(params.tables);
                    w.put_opt_u64(cap);
                    w.put_usize(params.probes);
                },
                (&data, &vec![true; data.len()]),
                (lsh.params(), data.len()),
                &raw_planes(lsh.bank()),
                &raw_tables(lsh.tables()),
            )
        };
        let uncapped = bytes(None);
        assert_eq!(
            Snapshot::from_bytes(&uncapped).unwrap().to_bytes(),
            uncapped
        );
        let capped = Snapshot::from_bytes(&bytes(Some(1)));
        assert!(
            matches!(
                capped,
                Err(StoreError::Corrupt {
                    context: "alsh params",
                    ..
                })
            ),
            "{:?}",
            capped.map(|_| ())
        );
    }

    #[test]
    fn inconsistent_lsh_functions_are_rejected_at_load() {
        use ips_core::asymmetric::AlshParams;
        use ips_core::symmetric::SymmetricParams;
        use ips_lsh::simple_alsh::SphereTransform;

        let mut rng = StdRng::seed_from_u64(0xBAD);
        let dim = 6;
        let data: Vec<DenseVector> = (0..30)
            .map(|_| random_ball_vector(&mut rng, dim, 1.0).unwrap())
            .collect();
        let spec = JoinSpec::new(0.4, 0.5, JoinVariant::Signed).unwrap();
        let path = std::env::temp_dir().join(format!(
            "ips-inconsistent-functions-{}.snap",
            std::process::id()
        ));
        // Checksummed and structurally decodable, so only the load-time checks of the
        // plane decoder and `LshIndex::from_raw_parts` stand between these bytes and a
        // served index.
        let load = |bytes: Vec<u8>| {
            std::fs::write(&path, bytes).unwrap();
            let loaded = Snapshot::load(&path);
            std::fs::remove_file(&path).unwrap();
            loaded
        };

        let alsh_params = AlshParams {
            bits_per_table: 3,
            tables: 4,
            ..Default::default()
        };
        let schedule = ips_linalg::par::Schedule::new(ips_lsh::table::BUILD_BLOCK);
        let alsh: LshMips<'_, SphereTransform> =
            LshMips::build(schedule, &mut rng, data.clone(), spec, alsh_params).unwrap();
        let live = vec![true; data.len()];
        let alsh_bytes = |planes: &[RawComposite]| {
            let lsh = alsh.lsh_index();
            snapshot_with_planes(
                IndexFamily::Alsh,
                |w| {
                    spec.write(w);
                    alsh_params.write(w);
                },
                (&data, &live),
                (lsh.params(), lsh.len()),
                planes,
                &raw_tables(lsh.tables()),
            )
        };
        let good = raw_planes(alsh.lsh_index().bank());
        assert!(
            load(alsh_bytes(&good)).is_ok(),
            "the untouched re-encoding loads"
        );

        // 1. A function with fewer components than params.k, in the first table or a
        //    later one.
        for t in [0, 1] {
            let mut short = good.clone();
            short[t].truncate(2);
            assert!(load(alsh_bytes(&short)).is_err(), "table {t}");
        }

        // 2. A component under a different sphere transform (same dimension, other
        //    query radius): nothing about it is malformed on its own.
        let mut mixed = good.clone();
        mixed[2][0].transform = Some((dim, 2.0));
        assert!(load(alsh_bytes(&mixed)).is_err());

        // 3. A non-finite coefficient.
        let mut poisoned = good.clone();
        poisoned[3][2].planes[0][1] = f64::NAN;
        assert!(load(alsh_bytes(&poisoned)).is_err());

        // 4. Planes of mixed dimension, in the family that has no transform to pin
        //    them (dimension 3 hashes nothing this index stores), and a component
        //    with another number of planes.
        let symmetric_params = SymmetricParams {
            bits_per_table: 3,
            tables: 4,
            ..Default::default()
        };
        let symmetric: LshMips<'_, SymmetricSphereMap> =
            LshMips::build(schedule, &mut rng, data.clone(), spec, symmetric_params).unwrap();
        let symmetric_bytes = |planes: &[RawComposite]| {
            let lsh = symmetric.lsh_index();
            snapshot_with_planes(
                IndexFamily::Symmetric,
                |w| {
                    spec.write(w);
                    symmetric_params.write(w);
                },
                (&data, &live),
                (lsh.params(), lsh.len()),
                planes,
                &raw_tables(lsh.tables()),
            )
        };
        let good = raw_planes(symmetric.lsh_index().bank());
        assert!(load(symmetric_bytes(&good)).is_ok());
        let mut ragged = good.clone();
        ragged[3][1].planes = vec![DenseVector::from(&[1.0, -1.0, 0.5][..])];
        assert!(load(symmetric_bytes(&ragged)).is_err());
        let mut doubled = good.clone();
        let plane = doubled[1][2].planes[0].clone();
        doubled[1][2].planes.push(plane);
        assert!(load(symmetric_bytes(&doubled)).is_err());
    }

    /// A recovery tree as the bytes spell it, so a test can state trees the in-memory
    /// types refuse to hold.
    #[derive(Clone)]
    enum RawNode {
        Leaf(Vec<usize>),
        Internal(RawEstimator, RawEstimator, Box<RawNode>, Box<RawNode>),
    }

    #[derive(Clone)]
    struct RawEstimator {
        kappa: f64,
        n: usize,
        dim: usize,
        sketched: Vec<ips_linalg::Matrix>,
    }

    impl RawNode {
        fn of(node: &ips_sketch::recovery::Node) -> Self {
            use ips_sketch::recovery::Node;
            let raw = |e: &ips_sketch::MaxIpEstimator| RawEstimator {
                kappa: e.kappa(),
                n: e.len(),
                dim: e.dim(),
                sketched: (0..e.copies())
                    .map(|t| {
                        let rows = e.rows_per_copy();
                        let row_major = (0..rows).flat_map(|r| e.sketch_row(t, r)).collect();
                        ips_linalg::Matrix::from_row_major(rows, e.dim(), row_major).unwrap()
                    })
                    .collect(),
            };
            match node {
                Node::Leaf { range } => RawNode::Leaf(range.clone().collect()),
                Node::Internal {
                    estimator_left,
                    estimator_right,
                    left,
                    right,
                } => RawNode::Internal(
                    raw(estimator_left),
                    raw(estimator_right),
                    Box::new(RawNode::of(left)),
                    Box::new(RawNode::of(right)),
                ),
            }
        }

        fn write(&self, w: &mut ByteWriter) {
            match self {
                RawNode::Leaf(indices) => {
                    w.put_u8(0);
                    crate::persist::write_slice(w, indices);
                }
                RawNode::Internal(left_estimator, right_estimator, left, right) => {
                    w.put_u8(1);
                    for e in [left_estimator, right_estimator] {
                        w.put_f64(e.kappa);
                        w.put_usize(e.n);
                        w.put_usize(e.dim);
                        w.put_usize(e.sketched.len());
                        for m in &e.sketched {
                            w.put_usize(m.rows());
                            w.put_usize(m.cols());
                            m.iter_rows().flatten().for_each(|&x| w.put_f64(x));
                        }
                    }
                    left.write(w);
                    right.write(w);
                }
            }
        }

        /// The root's two estimators and subtrees (the test trees split at the root).
        fn split(
            &mut self,
        ) -> (
            &mut RawEstimator,
            &mut RawEstimator,
            &mut RawNode,
            &mut RawNode,
        ) {
            match self {
                RawNode::Internal(l, r, left, right) => (l, r, left, right),
                RawNode::Leaf(_) => panic!("the test tree splits here"),
            }
        }

        fn first_leaf(&mut self) -> &mut Vec<usize> {
            match self {
                RawNode::Leaf(indices) => indices,
                RawNode::Internal(_, _, left, _) => left.first_leaf(),
            }
        }
    }

    #[test]
    fn inconsistent_sketch_trees_are_rejected_at_load() {
        use ips_linalg::Matrix;
        use ips_sketch::linf_mips::MaxIpConfig;

        let mut rng = StdRng::seed_from_u64(0xBAD5);
        let dim = 3;
        let data: Vec<DenseVector> = (0..12)
            .map(|_| random_ball_vector(&mut rng, dim, 1.0).unwrap())
            .collect();
        let spec = JoinSpec::new(0.4, 0.5, JoinVariant::Unsigned).unwrap();
        // One copy of two rows: probing costs 4 flops a coordinate, so 12 vectors
        // split into 6 + 6 and again into leaves of 3.
        let config = MaxIpConfig {
            kappa: 2.0,
            copies: 1,
            rows: Some(2),
        };
        let adapter = SketchMipsAdapter::build(&mut rng, data.clone(), spec, config).unwrap();
        // Checksummed and structurally decodable, so only the load-time checks of
        // `SketchMipsIndex::from_raw_parts` (and the estimators' own) stand between
        // these bytes and a served index.
        let load = |config: MaxIpConfig, root: &RawNode| {
            let mut w = ByteWriter::new();
            spec.write(&mut w);
            crate::persist::write_slice(&mut w, &data);
            config.write(&mut w);
            w.put_usize(16); // the leaf-size field a build records
            root.write(&mut w);
            let ids: Vec<u64> = (0..data.len() as u64).collect();
            Snapshot::from_bytes(&seal(IndexFamily::Sketch, &ids, data.len() as u64, w))
        };
        let pristine = RawNode::of(adapter.inner().root());
        let tree = || pristine.clone();
        let loaded = load(config, &tree()).expect("the untouched re-encoding loads");
        assert_eq!(
            loaded.to_bytes(),
            Snapshot::new(AnyIndex::Sketch(adapter)).to_bytes()
        );
        let rejected = |defect: &str, config: MaxIpConfig, root: &RawNode| match load(config, root)
        {
            Err(StoreError::Sketch(_) | StoreError::Corrupt { .. }) => {}
            Err(other) => panic!("{defect}: rejected as {other}"),
            Ok(_) => panic!("{defect}: loaded"),
        };
        let resized = |e: &RawEstimator, rows: usize, dim: usize| RawEstimator {
            dim,
            sketched: vec![Matrix::zeros(rows, dim); e.sketched.len()],
            ..e.clone()
        };

        // 1. An estimator over another dimension than the data's.
        let mut root = tree();
        let (left, ..) = root.split();
        *left = resized(left, 2, dim + 1);
        rejected("estimator dimension", config, &root);

        // 2. An estimator that claims more vectors than lie under its child.
        let mut root = tree();
        root.split().1.n += 1;
        rejected("estimator n", config, &root);

        // 3. Siblings that disagree on the number of copies, or of rows.
        let mut root = tree();
        let (_, right, ..) = root.split();
        right.sketched.push(right.sketched[0].clone());
        rejected("sibling copies", config, &root);
        let mut root = tree();
        let (_, right, ..) = root.split();
        *right = resized(right, 3, dim);
        rejected("sibling rows", config, &root);
        // ...also when no fixed row count says which of the two is wrong.
        let free_rows = MaxIpConfig {
            rows: None,
            ..config
        };
        assert!(load(free_rows, &tree()).is_ok());
        rejected("sibling rows, none configured", free_rows, &root);

        // 4. A coefficient that is not finite.
        let mut root = tree();
        let (left, ..) = root.split();
        let mut poisoned = vec![0.0; 2 * dim];
        poisoned[1] = f64::NAN;
        left.sketched[0] = Matrix::from_row_major(2, dim, poisoned).unwrap();
        rejected("non-finite coefficient", config, &root);

        // 5. Leaves that are not the contiguous in-order partition of 0..n: a gap
        //    inside a leaf, a repeated index, leaves out of order, an uncovered tail,
        //    an empty leaf.
        let mut root = tree();
        *root.first_leaf() = vec![0, 2, 1];
        rejected("leaf out of order", config, &root);
        let mut root = tree();
        *root.first_leaf() = vec![0, 1, 1];
        rejected("leaf repeats an index", config, &root);
        let mut root = tree();
        let (_, _, left, right) = root.split();
        std::mem::swap(left.first_leaf(), right.first_leaf());
        rejected("leaves out of order", config, &root);
        let mut root = tree();
        root.first_leaf().pop();
        rejected("a vector under no leaf", config, &root);
        let mut root = tree();
        root.first_leaf().clear();
        rejected("empty leaf", config, &root);
    }

    #[test]
    fn a_tree_deeper_than_any_build_writes_is_refused_at_load() {
        use ips_sketch::linf_mips::MaxIpConfig;

        let data: Vec<DenseVector> = vec![DenseVector::from(&[0.5, 0.5][..]); 4];
        let spec = JoinSpec::new(0.4, 0.5, JoinVariant::Unsigned).unwrap();
        let config = MaxIpConfig {
            kappa: 2.0,
            copies: 1,
            rows: Some(1),
        };
        // `levels` internal nodes down the left spine, every estimator κ = 2 over one
        // vector with one 1 × 2 copy; a one-index leaf right of each.
        let load = |levels: usize| {
            let mut w = ByteWriter::new();
            spec.write(&mut w);
            crate::persist::write_slice(&mut w, &data);
            config.write(&mut w);
            w.put_usize(2);
            for _ in 0..levels {
                w.put_u8(1);
                for _estimator in 0..2 {
                    w.put_f64(2.0);
                    for count in [1, 2, 1, 1, 2] {
                        w.put_usize(count);
                    }
                    w.put_f64(0.5);
                    w.put_f64(0.5);
                }
            }
            for i in 0..=levels {
                w.put_u8(0);
                crate::persist::write_slice(&mut w, &[i]);
            }
            let ids: Vec<u64> = (0..data.len() as u64).collect();
            Snapshot::from_bytes(&seal(IndexFamily::Sketch, &ids, data.len() as u64, w))
        };
        // 64 levels decode (and fail the tree's own checks); one more is refused as
        // deeper than any build goes — and so is a spine of 5 000, on which the
        // recursive decoder overflowed the stack of a test thread.
        assert!(matches!(load(64), Err(StoreError::Sketch(_))));
        for levels in [65, 5_000] {
            assert!(matches!(
                load(levels),
                Err(StoreError::Corrupt {
                    context: "recovery tree",
                    ..
                })
            ));
        }
    }

    #[test]
    fn a_sketch_of_zero_dimensional_data_is_refused_at_load() {
        use ips_sketch::linf_mips::MaxIpConfig;

        // Four vectors of no coordinate, split into two leaves of two under a root
        // whose estimators claim 2⁴⁰ rows a copy. No coefficient stands for a row, so
        // the file is small; the first estimate would have sized 2⁴⁰ accumulators.
        let rows = 1usize << 40;
        let data = vec![DenseVector::zeros(0); 4];
        let spec = JoinSpec::new(0.4, 0.5, JoinVariant::Unsigned).unwrap();
        let config = MaxIpConfig {
            kappa: 2.0,
            copies: 1,
            rows: Some(rows),
        };
        let mut w = ByteWriter::new();
        spec.write(&mut w);
        crate::persist::write_slice(&mut w, &data);
        config.write(&mut w);
        w.put_usize(1);
        w.put_u8(1);
        for _estimator in 0..2 {
            w.put_f64(2.0);
            for count in [2, 0, 1, rows, 0] {
                w.put_usize(count);
            }
        }
        for leaf in [[0usize, 1], [2, 3]] {
            w.put_u8(0);
            crate::persist::write_slice(&mut w, &leaf);
        }
        let ids: Vec<u64> = (0..data.len() as u64).collect();
        let bytes = seal(IndexFamily::Sketch, &ids, data.len() as u64, w);
        assert!(bytes.len() < 512);
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(StoreError::Sketch(_))
        ));
    }

    #[test]
    fn a_tree_written_before_the_cut_off_rule_loads_and_answers_as_it_did() {
        // `ips build algorithm=sketch copies=1 leaf=4` over 20 planted vectors of
        // dimension 3, written by the build before the cost cut-off: 20 → 10 → 5 →
        // leaves of 2 and 3, a depth no build produces any more at these settings.
        // The answers are that build's, recorded as bit patterns.
        let bytes = include_bytes!("../fixtures/sketch_tree_pr13.snap");
        let snapshot = Snapshot::from_bytes(bytes).unwrap();
        assert_eq!(snapshot.to_bytes(), bytes, "re-saving changes nothing");
        let AnyIndex::Sketch(adapter) = &snapshot.index else {
            panic!("a sketch snapshot");
        };
        fn depth(node: &ips_sketch::recovery::Node) -> usize {
            match node {
                ips_sketch::recovery::Node::Leaf { .. } => 0,
                ips_sketch::recovery::Node::Internal { left, right, .. } => {
                    1 + depth(left).max(depth(right))
                }
            }
        }
        assert_eq!(depth(adapter.inner().root()), 3);
        let queries = [
            [0.1075358287364463, 0.9931028388236809, -0.04672041372153738],
            [
                0.21103255808928625,
                0.9772697111410144,
                0.020227978461789614,
            ],
            [-0.47630378722634237, 0.640529420621941, 0.6023759321151232],
            [-0.2549941642524919, 0.0813797503482923, 0.9635119679746708],
            [
                -0.7968946057585101,
                -0.5963358519575466,
                -0.09665681032941267,
            ],
            [-0.4556967841394127, 0.738872309627769, -0.4963951560907136],
            [
                -0.4721914380143851,
                -0.36046749986726173,
                -0.8044242832021872,
            ],
            [
                -0.2134638972476874,
                0.8444202085814331,
                -0.49131219800765985,
            ],
        ];
        let answers: [(usize, u64); 8] = [
            (13, 0x3fe34f5f8474ebc3),
            (13, 0x3fe3c0da4853305b),
            (13, 0x3fe999999999999a),
            (6, 0x3fe999999999999c),
            (13, 0xbfd5e8aa2824940c),
            (6, 0xbfe0dbf626e7ab59),
            (6, 0xbfe36a535ab01d20),
            (6, 0xbfe16d101183eec7),
        ];
        for (q, (index, inner_product)) in queries.iter().zip(answers) {
            let candidate = adapter.inner().query(&DenseVector::from(&q[..])).unwrap();
            assert_eq!(
                (candidate.index, candidate.inner_product.to_bits()),
                (index, inner_product)
            );
        }
    }

    #[test]
    fn family_tags_roundtrip() {
        for family in IndexFamily::ALL {
            assert_eq!(
                family_from_tag(family_tag(family)).unwrap(),
                (family, false)
            );
            assert_eq!(family.to_string(), family.name());
        }
        // The LSH families' tags of the hash-combine keys still decode.
        assert_eq!(family_from_tag(1).unwrap(), (IndexFamily::Alsh, true));
        assert_eq!(family_from_tag(2).unwrap(), (IndexFamily::Symmetric, true));
        assert!(family_from_tag(6).is_err());
        assert!(family_from_tag(9).is_err());
    }
}

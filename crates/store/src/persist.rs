//! The [`Persist`] trait: structure ↔ bytes, losslessly.
//!
//! Every structure a snapshot stores — vectors, LSH indexes with their planes and hash
//! tables, sketch estimators, recovery trees, whole indexes — implements `Persist` over
//! the little-endian primitives of [`crate::format`]. The contract is **bit-identical
//! round-tripping**: `read(write(x))` rebuilds state whose every query answer equals
//! `x`'s, bucket for bucket and bit for bit (floats travel as IEEE-754 bit patterns,
//! hash tables are written in sorted bucket order so encoding is deterministic).
//!
//! The planes of an LSH index and the sketched matrices of an estimator are written
//! straight out of the one form the structures hold them in — the plane bank, the
//! estimator's block — and read straight back into it: the decoder checks the
//! announced shape against what the input can hold before it allocates, then fills
//! the bank or block as the values arrive. The encodings are the ones every earlier
//! build wrote (a composite function per table, a row-major matrix per copy).
//!
//! Decoding validates through the owning types' public raw-parts constructors
//! (`from_raw_parts` / `from_parts` / `PlaneBank::new` / `MaxIpEstimator::from_copies`)
//! and refuses a non-finite vector coordinate, so a corrupt payload that happens to
//! pass the checksum still cannot materialise an inconsistent index.

use crate::error::{Result, StoreError};
use crate::format::{ByteReader, ByteWriter};
use ips_core::asymmetric::AlshParams;
use ips_core::mips::{BruteForceMipsIndex, MipsIndex, SketchMipsAdapter};
use ips_core::problem::{JoinSpec, JoinVariant};
use ips_core::symmetric::SymmetricParams;
use ips_core::{LshMips, LshOps, SphereMap};
use ips_linalg::DenseVector;
use ips_lsh::bank::{BankShape, Embedding, PlaneBank};
use ips_lsh::hyperplane::HyperplaneFamily;
use ips_lsh::simple_alsh::{SimpleAlshFamily, SphereTransform};
use ips_lsh::table::{IndexParams, LshIndex, Table};
use ips_lsh::{BankedFamily, SymmetricAsAsymmetric};
use ips_sketch::linf_mips::{MaxIpConfig, MaxIpEstimator};
use ips_sketch::recovery::{Node, SketchMipsIndex};

/// A structure that can be written to and restored from the snapshot byte format.
pub trait Persist: Sized {
    /// Appends the structure's canonical encoding to `w`.
    ///
    /// The encoding must be deterministic: the same state always produces the same
    /// bytes (this is what makes `save → load → save` byte-stable, and what the
    /// snapshot checksum protects).
    fn write(&self, w: &mut ByteWriter);

    /// Decodes one structure from `r`, validating as the owning type's constructors
    /// would.
    fn read(r: &mut ByteReader<'_>) -> Result<Self>;
}

impl Persist for bool {
    fn write(&self, w: &mut ByteWriter) {
        w.put_bool(*self);
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self> {
        r.take_bool()
    }
}

impl Persist for u32 {
    fn write(&self, w: &mut ByteWriter) {
        w.put_u32(*self);
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self> {
        r.take_u32()
    }
}

impl Persist for usize {
    fn write(&self, w: &mut ByteWriter) {
        w.put_usize(*self);
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self> {
        r.take_usize()
    }
}

/// Writes a length-prefixed slice of persistable items (shared by every list-shaped
/// encoding, so owned and borrowed lists serialise identically).
pub fn write_slice<T: Persist>(w: &mut ByteWriter, items: &[T]) {
    w.put_usize(items.len());
    for item in items {
        item.write(w);
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn write(&self, w: &mut ByteWriter) {
        write_slice(w, self);
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self> {
        let n = r.take_usize()?;
        // Grow instead of with_capacity(n): n is attacker/corruption-controlled and a
        // huge length must fail at the first missing element, not on allocation.
        let mut out = Vec::new();
        for _ in 0..n {
            out.push(T::read(r)?);
        }
        Ok(out)
    }
}

/// `count` values of at least `bytes` bytes each are announced: the capacity to
/// reserve for them, which is `count` itself unless the input is too short to hold
/// that many — a corrupt or hostile count then fails at the first missing value, not
/// on allocation.
fn bounded_by_input(r: &ByteReader<'_>, count: usize, bytes: u64) -> usize {
    count.min(usize::try_from(r.remaining() / bytes).unwrap_or(usize::MAX))
}

impl Persist for DenseVector {
    fn write(&self, w: &mut ByteWriter) {
        w.put_usize(self.dim());
        for &x in self.iter() {
            w.put_f64(x);
        }
    }

    /// Refuses a non-finite coordinate, as every fresh build and insert does: no
    /// family may rank a score that compares false with everything.
    fn read(r: &mut ByteReader<'_>) -> Result<Self> {
        let dim = r.take_usize()?;
        let mut components = Vec::with_capacity(bounded_by_input(r, dim, 8));
        r.take_f64s(dim, &mut components)?;
        if let Some(x) = components.iter().find(|x| !x.is_finite()) {
            return Err(StoreError::Corrupt {
                context: "vector",
                reason: format!("non-finite coordinate `{x}`"),
            });
        }
        Ok(DenseVector::new(components))
    }
}

impl Persist for JoinSpec {
    fn write(&self, w: &mut ByteWriter) {
        w.put_f64(self.threshold);
        w.put_f64(self.approximation);
        w.put_u8(match self.variant {
            JoinVariant::Signed => 0,
            JoinVariant::Unsigned => 1,
        });
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self> {
        let threshold = r.take_f64()?;
        let approximation = r.take_f64()?;
        let variant = match r.take_u8()? {
            0 => JoinVariant::Signed,
            1 => JoinVariant::Unsigned,
            other => {
                return Err(StoreError::Corrupt {
                    context: "spec",
                    reason: format!("unknown join variant tag {other}"),
                })
            }
        };
        Ok(JoinSpec::new(threshold, approximation, variant)?)
    }
}

impl Persist for AlshParams {
    fn write(&self, w: &mut ByteWriter) {
        w.put_f64(self.query_radius);
        w.put_usize(self.bits_per_table);
        w.put_usize(self.tables);
        // The re-scoring cap's presence byte: the index re-scores every candidate, so
        // it is always absent (see MIGRATION.md, "Options with one value").
        w.put_u8(0);
        // PR 10: probes appended to the payload (see MIGRATION.md, "Multi-probe").
        w.put_usize(self.probes);
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self> {
        let query_radius = r.take_f64()?;
        let bits_per_table = r.take_usize()?;
        let tables = r.take_usize()?;
        // A file written with a cap (tag 1, then the cap) is refused: the index
        // re-scores every candidate, so it would answer otherwise than the file's
        // writer did, and re-save to other bytes.
        let cap = r.take_u8()?;
        if cap != 0 {
            return Err(StoreError::Corrupt {
                context: "alsh params",
                reason: format!("re-scoring cap tag {cap}; no cap is served"),
            });
        }
        Ok(Self {
            query_radius,
            bits_per_table,
            tables,
            probes: r.take_usize()?,
        })
    }
}

impl Persist for SymmetricParams {
    fn write(&self, w: &mut ByteWriter) {
        w.put_f64(self.epsilon);
        w.put_u32(self.precision_bits);
        w.put_usize(self.bits_per_table);
        w.put_usize(self.tables);
        // PR 10: probes appended to the payload (see MIGRATION.md, "Multi-probe").
        w.put_usize(self.probes);
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(Self {
            epsilon: r.take_f64()?,
            precision_bits: r.take_u32()?,
            bits_per_table: r.take_usize()?,
            tables: r.take_usize()?,
            probes: r.take_usize()?,
        })
    }
}

impl Persist for MaxIpConfig {
    fn write(&self, w: &mut ByteWriter) {
        w.put_f64(self.kappa);
        w.put_usize(self.copies);
        w.put_opt_u64(self.rows.map(|v| v as u64));
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(Self {
            kappa: r.take_f64()?,
            copies: r.take_usize()?,
            rows: r.take_opt_u64()?.map(|v| v as usize),
        })
    }
}

impl Persist for IndexParams {
    fn write(&self, w: &mut ByteWriter) {
        w.put_usize(self.k);
        w.put_usize(self.l);
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(Self {
            k: r.take_usize()?,
            l: r.take_usize()?,
        })
    }
}

/// A table as every build has written one: the number of buckets, then each
/// non-empty bucket in ascending key order — its key and its length-prefixed ids,
/// the base's survivors and the overlay's merged as [`Table::buckets`] reads them.
fn write_table(w: &mut ByteWriter, table: &Table) {
    let buckets = table.buckets();
    w.put_usize(buckets.clone().count());
    for (key, bucket) in buckets {
        w.put_u64(key);
        w.put_usize(bucket.len());
        for id in bucket.iter() {
            w.put_u32(id);
        }
    }
}

/// A table as [`write_table`] spells it, straight into the base's arrays; `entries`,
/// what the index says each table holds, sizes the ids as far as the input can hold
/// them. Keys out of order and empty buckets are refused ([`Table::from_parts`]).
fn read_table(r: &mut ByteReader<'_>, entries: usize) -> Result<Table> {
    let buckets = r.take_usize()?;
    // A bucket is at least a key, a length and an id.
    let mut keys = Vec::with_capacity(bounded_by_input(r, buckets, 20));
    let mut offsets = Vec::with_capacity(bounded_by_input(r, buckets, 20));
    let mut ids = Vec::with_capacity(bounded_by_input(r, entries, 4));
    for _ in 0..buckets {
        keys.push(r.take_u64()?);
        // Wraps only past `u32::MAX` ids, which `from_parts` refuses.
        offsets.push(ids.len() as u32);
        let len = r.take_usize()?;
        r.take_u32s(len, &mut ids)?;
    }
    Ok(Table::from_parts(keys, offsets, ids)?)
}

/// The planes as every build has written them: one composite function per table —
/// the number of tables; per table, its number of components; per component, the
/// sphere transform's dimension and query radius (SIMPLE-ALSH only), its number of
/// planes and each plane as a length-prefixed vector — walked out of the bank.
fn write_bank(w: &mut ByteWriter, bank: &PlaneBank) {
    let BankShape {
        tables,
        components,
        bits,
        rows,
    } = bank.shape();
    let mut planes = 0..;
    w.put_usize(tables);
    for _ in 0..tables {
        w.put_usize(components);
        for _ in 0..components {
            if let Embedding::Sphere(transform) = bank.embedding() {
                w.put_usize(transform.dim());
                w.put_f64(transform.query_radius());
            }
            w.put_usize(bits);
            for f in planes.by_ref().take(bits) {
                w.put_usize(rows);
                bank.plane(f).for_each(|g| w.put_f64(g));
            }
        }
    }
}

/// A component's embedding as [`write_bank`] spells it: a sphere transform's
/// dimension and query radius when the family embeds, nothing when it does not.
fn read_embedding(r: &mut ByteReader<'_>, embeds: bool) -> Result<Embedding> {
    Ok(match embeds {
        true => Embedding::Sphere(SphereTransform::new(r.take_usize()?, r.take_f64()?)?),
        false => Embedding::Identity,
    })
}

/// The planes [`write_bank`] wrote, straight into a bank. The first component's
/// header names the bank's shape; the bank is allocated only once the input can hold
/// every coefficient that shape announces, and every later header must repeat it: as
/// many components a table, one embedding, as many planes a component, and planes of
/// one dimension throughout. [`PlaneBank::new`] checks the shape itself and refuses a
/// non-finite coefficient.
fn read_bank(r: &mut ByteReader<'_>, embeds: bool) -> Result<PlaneBank> {
    let corrupt = |reason: String| StoreError::Corrupt {
        context: "planes",
        reason,
    };
    let tables = r.take_usize()?;
    // Table 0's first component names the shape; it is read again as the bank fills.
    let (embedding, shape) = r.peek(|r| {
        let components = r.take_usize()?;
        let embedding = read_embedding(r, embeds)?;
        let shape = BankShape {
            tables,
            components,
            bits: r.take_usize()?,
            rows: r.take_usize()?,
        };
        Ok((embedding, shape))
    })?;
    let coefficients = [shape.components, shape.bits, shape.rows]
        .into_iter()
        .try_fold(shape.tables, usize::checked_mul);
    if coefficients.is_none_or(|c| c as u64 > r.remaining() / 8) {
        return Err(corrupt(format!(
            "{shape:?} announces more coefficients than the {} bytes left hold",
            r.remaining()
        )));
    }
    PlaneBank::new(embedding.clone(), shape, |(t, c, b), plane| {
        // A table's component count, a component's embedding and plane count, a
        // plane's dimension: each as the first.
        let repeated = (c > 0 || b > 0 || r.take_usize()? == shape.components)
            && (b > 0
                || (read_embedding(r, embeds)? == embedding && r.take_usize()? == shape.bits))
            && r.take_usize()? == shape.rows;
        if !repeated {
            return Err(corrupt(format!(
                "table {t} component {c} plane {b} is not shaped as the first: {shape:?}"
            )));
        }
        r.take_f64s(shape.rows, plane)
    })
}

/// Params, length, the planes ([`write_bank`]), then the tables.
fn write_lsh_index<F: BankedFamily>(w: &mut ByteWriter, index: &LshIndex<F>) {
    index.params().write(w);
    w.put_usize(index.len());
    write_bank(w, index.bank());
    w.put_usize(index.tables().len());
    for table in index.tables() {
        write_table(w, table);
    }
}

/// What [`write_lsh_index`] wrote, for a family whose components carry a sphere
/// transform (`embeds`) or not.
fn read_lsh_index<F: BankedFamily>(r: &mut ByteReader<'_>, embeds: bool) -> Result<LshIndex<F>> {
    let params = IndexParams::read(r)?;
    let len = r.take_usize()?;
    let bank = read_bank(r, embeds)?;
    let mut tables = Vec::new();
    for _ in 0..r.take_usize()? {
        tables.push(read_table(r, len)?);
    }
    Ok(LshIndex::from_raw_parts(bank, tables, params, len)?)
}

/// Section 4.1: every component carries the sphere transform.
impl Persist for LshIndex<SimpleAlshFamily> {
    fn write(&self, w: &mut ByteWriter) {
        write_lsh_index(w, self);
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self> {
        read_lsh_index(r, true)
    }
}

/// Section 4.2: the planes hash the sphere image as it is.
impl Persist for LshIndex<SymmetricAsAsymmetric<HyperplaneFamily>> {
    fn write(&self, w: &mut ByteWriter) {
        write_lsh_index(w, self);
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self> {
        read_lsh_index(r, false)
    }
}

/// `κ`, `n`, `d`, then the copies as every build has written them: their number,
/// then each as a row-major matrix — rows, columns, coefficients — walked out of the
/// block.
impl Persist for MaxIpEstimator {
    fn write(&self, w: &mut ByteWriter) {
        w.put_f64(self.kappa());
        w.put_usize(self.len());
        w.put_usize(self.dim());
        w.put_usize(self.copies());
        for t in 0..self.copies() {
            w.put_usize(self.rows_per_copy());
            w.put_usize(self.dim());
            for r in 0..self.rows_per_copy() {
                self.sketch_row(t, r).for_each(|c| w.put_f64(c));
            }
        }
    }

    /// Copy 0's shape is the block's: the block is allocated only once the input can
    /// hold every coefficient it announces, and each later copy must repeat it.
    fn read(r: &mut ByteReader<'_>) -> Result<Self> {
        let corrupt = |reason: String| StoreError::Corrupt {
            context: "estimator",
            reason,
        };
        let kappa = r.take_f64()?;
        let n = r.take_usize()?;
        let dim = r.take_usize()?;
        let copies = r.take_usize()?;
        // No copy at all is the estimator's to refuse.
        let (rows, cols) = match copies {
            0 => (0, dim),
            _ => (r.take_usize()?, r.take_usize()?),
        };
        if cols != dim {
            return Err(corrupt(format!(
                "a {rows}x{cols} copy of {dim}-dimensional data"
            )));
        }
        let coefficients = [rows, dim].into_iter().try_fold(copies, usize::checked_mul);
        if coefficients.is_none_or(|c| c as u64 > r.remaining() / 8) {
            return Err(corrupt(format!(
                "{copies} copies of {rows}x{dim} outnumber the {} bytes left",
                r.remaining()
            )));
        }
        MaxIpEstimator::from_copies(kappa, n, dim, copies, rows, |t, copy| {
            if t > 0 && (r.take_usize()?, r.take_usize()?) != (rows, dim) {
                return Err(corrupt(format!("copy {t} is not {rows}x{dim} like copy 0")));
            }
            r.take_f64s(rows * dim, copy)
        })
    }
}

/// Pre-order: a tag byte, then a leaf's explicit index list or an internal node's two
/// estimators and two subtrees. A leaf is a contiguous range in memory; it is still
/// written index by index, which is the encoding every earlier build reads and wrote.
impl Persist for Node {
    fn write(&self, w: &mut ByteWriter) {
        match self {
            Node::Leaf { range } => {
                w.put_u8(0);
                w.put_usize(range.len());
                for i in range.clone() {
                    w.put_usize(i);
                }
            }
            Node::Internal {
                estimator_left,
                estimator_right,
                left,
                right,
            } => {
                w.put_u8(1);
                estimator_left.write(w);
                estimator_right.write(w);
                left.write(w);
                right.write(w);
            }
        }
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self> {
        read_node(r, TREE_LEVELS)
    }
}

/// Internal levels a decoded recovery tree may stack. Every split halves its range, so
/// no build writes a tree deeper than `⌈log₂ n⌉ ≤ 64`; a deeper one is refused before
/// the decoder's recursion — or the checks' and the drop's after it — can run off the
/// end of the stack.
const TREE_LEVELS: usize = 64;

/// A [`Node`] with at most `levels` internal levels.
fn read_node(r: &mut ByteReader<'_>, levels: usize) -> Result<Node> {
    let corrupt = |reason: String| StoreError::Corrupt {
        context: "recovery tree",
        reason,
    };
    match r.take_u8()? {
        0 => {
            let len = r.take_usize()?;
            if len == 0 {
                return Err(corrupt("a leaf holds no index".into()));
            }
            let start = r.take_usize()?;
            let end = start
                .checked_add(len)
                .ok_or_else(|| corrupt(format!("a leaf of {len} indices from {start}")))?;
            // One read per listed index, so the bytes present bound the loop.
            for expected in start + 1..end {
                let index = r.take_usize()?;
                if index != expected {
                    return Err(corrupt(format!(
                        "a leaf lists {index} where {expected} belongs"
                    )));
                }
            }
            Ok(Node::Leaf { range: start..end })
        }
        1 if levels == 0 => Err(corrupt(format!(
            "the tree is deeper than {TREE_LEVELS} levels"
        ))),
        1 => Ok(Node::Internal {
            estimator_left: MaxIpEstimator::read(r)?,
            estimator_right: MaxIpEstimator::read(r)?,
            left: Box::new(read_node(r, levels - 1)?),
            right: Box::new(read_node(r, levels - 1)?),
        }),
        other => Err(corrupt(format!("unknown node tag {other}"))),
    }
}

impl Persist for SketchMipsIndex<'static> {
    fn write(&self, w: &mut ByteWriter) {
        write_slice(w, self.data());
        self.config().write(w);
        w.put_usize(self.leaf_size());
        self.root().write(w);
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self> {
        let data = Vec::read(r)?;
        let config = MaxIpConfig::read(r)?;
        let leaf_size = r.take_usize()?;
        let root = Node::read(r)?;
        Ok(SketchMipsIndex::from_raw_parts(
            data, root, config, leaf_size,
        )?)
    }
}

impl Persist for BruteForceMipsIndex<'static> {
    fn write(&self, w: &mut ByteWriter) {
        self.spec().write(w);
        write_slice(w, self.data());
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self> {
        let spec = JoinSpec::read(r)?;
        let data = Vec::read(r)?;
        Ok(BruteForceMipsIndex::new(data, spec))
    }
}

/// A dynamic index's liveness mask, in the encoding of a `Vec<bool>` without
/// gathering one.
fn write_live_mask(w: &mut ByteWriter, slots: usize, is_live: impl Fn(usize) -> bool) {
    w.put_usize(slots);
    for slot in 0..slots {
        w.put_bool(is_live(slot));
    }
}

/// Spec, the map's parameters, every slot's vector, the liveness mask, then the LSH
/// state; the map and the exact-match lookup are rebuilt from those on load.
impl<M> Persist for LshMips<'static, M>
where
    M: SphereMap<Params: Persist>,
    LshIndex<M::Family>: Persist,
{
    fn write(&self, w: &mut ByteWriter) {
        self.spec().write(w);
        self.params().write(w);
        write_slice(w, self.data());
        write_live_mask(w, self.slots(), |slot| self.is_live(slot));
        self.lsh_index().write(w);
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self> {
        let spec = JoinSpec::read(r)?;
        let params = M::Params::read(r)?;
        let data = Vec::read(r)?;
        let live = Vec::read(r)?;
        let index = LshIndex::read(r)?;
        Ok(LshMips::from_raw_parts(data, live, index, spec, params)?)
    }
}

impl Persist for SketchMipsAdapter<'static> {
    fn write(&self, w: &mut ByteWriter) {
        self.spec().write(w);
        self.inner().write(w);
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self> {
        let spec = JoinSpec::read(r)?;
        let inner = SketchMipsIndex::read(r)?;
        Ok(SketchMipsAdapter::from_parts(inner, spec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn roundtrip<T: Persist>(x: &T) -> T {
        let mut w = ByteWriter::new();
        x.write(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = T::read(&mut r).expect("decode");
        r.expect_end("roundtrip").expect("fully consumed");
        // Determinism: re-encoding the decoded value gives identical bytes.
        let mut w2 = ByteWriter::new();
        back.write(&mut w2);
        assert_eq!(bytes, w2.into_bytes(), "re-encode differs");
        back
    }

    #[test]
    fn primitive_structures_roundtrip() {
        let v = DenseVector::from(&[1.5, -0.25, 0.0][..]);
        assert_eq!(roundtrip(&v), v);
        for x in [f64::NAN, f64::NEG_INFINITY] {
            let mut w = ByteWriter::new();
            DenseVector::from(&[1.0, x][..]).write(&mut w);
            assert!(matches!(
                DenseVector::read(&mut ByteReader::new(w.as_bytes())),
                Err(StoreError::Corrupt { .. })
            ));
        }
        let spec = JoinSpec::new(0.7, 0.6, JoinVariant::Unsigned).unwrap();
        assert_eq!(roundtrip(&spec), spec);
        let params = AlshParams {
            probes: 5,
            ..Default::default()
        };
        assert_eq!(roundtrip(&params), params);
        assert_eq!(
            roundtrip(&SymmetricParams::default()),
            SymmetricParams::default()
        );
        assert_eq!(roundtrip(&MaxIpConfig::default()), MaxIpConfig::default());
        // A table: its bucket count, then each bucket's key and ids, keys ascending.
        let table = Table::from_parts(vec![1, 3], vec![0, 1], vec![7, 1, 2]).unwrap();
        let mut w = ByteWriter::new();
        write_table(&mut w, &table);
        let mut expected = ByteWriter::new();
        expected.put_usize(2);
        expected.put_u64(1);
        write_slice(&mut expected, &[7u32]);
        expected.put_u64(3);
        write_slice(&mut expected, &[1u32, 2]);
        assert_eq!(w.as_bytes(), expected.as_bytes());
        assert_eq!(
            read_table(&mut ByteReader::new(w.as_bytes()), 3).unwrap(),
            table
        );
    }

    #[test]
    fn lsh_indexes_roundtrip_bit_identically() {
        use ips_linalg::random::random_ball_vector;
        let mut rng = StdRng::seed_from_u64(0x9A9A);
        let data: Vec<DenseVector> = (0..40)
            .map(|_| random_ball_vector(&mut rng, 6, 1.0).unwrap())
            .collect();
        let params = IndexParams { k: 3, l: 4 };
        let family = SimpleAlshFamily::new(6, 1.5, 2).unwrap();
        let index = LshIndex::build(&family, params, &data, &mut rng).unwrap();
        let back = roundtrip(&index);
        assert_eq!(back.tables(), index.tables());
        for q in &data[..10] {
            assert_eq!(
                back.probe_lookup(q, 3).unwrap(),
                index.probe_lookup(q, 3).unwrap()
            );
        }
        let family = SymmetricAsAsymmetric(HyperplaneFamily::new(6, 2).unwrap());
        let index = LshIndex::build(&family, params, &data, &mut rng).unwrap();
        assert_eq!(roundtrip(&index).tables(), index.tables());
    }

    #[test]
    fn recovery_trees_roundtrip_in_the_index_list_encoding() {
        use ips_linalg::random::random_ball_vector;
        let mut rng = StdRng::seed_from_u64(0x7EE);
        let data: Vec<DenseVector> = (0..50)
            .map(|_| random_ball_vector(&mut rng, 5, 1.0).unwrap())
            .collect();
        // Two copies of one row: 50 vectors split down to leaves of 3 and 4.
        let config = MaxIpConfig {
            kappa: 2.0,
            copies: 2,
            rows: Some(1),
        };
        let index = SketchMipsIndex::build(&mut rng, data.clone(), config).unwrap();
        assert!(
            index.stored_coefficients() > 0,
            "the tree has internal nodes"
        );
        let back = roundtrip(&index);
        assert_eq!(back.stored_coefficients(), index.stored_coefficients());
        for q in &data[..10] {
            assert_eq!(back.query(q).unwrap(), index.query(q).unwrap());
        }
        // A leaf is a range in memory and an explicit index list on disk, as every
        // earlier build wrote it.
        let mut w = ByteWriter::new();
        Node::Leaf { range: 3..6 }.write(&mut w);
        let mut expected = ByteWriter::new();
        expected.put_u8(0);
        write_slice(&mut expected, &[3usize, 4, 5]);
        assert_eq!(w.as_bytes(), expected.as_bytes());
        // Lists that are not a range are corrupt: empty, a gap, past the address width.
        for indices in [vec![], vec![3, 5], vec![usize::MAX, 0]] {
            let mut w = ByteWriter::new();
            w.put_u8(0);
            write_slice(&mut w, &indices);
            assert!(matches!(
                Node::read(&mut ByteReader::new(w.as_bytes())),
                Err(StoreError::Corrupt { .. })
            ));
        }
    }

    #[test]
    fn corrupt_tags_are_rejected() {
        // Unknown variant tag in a spec.
        let mut w = ByteWriter::new();
        w.put_f64(0.5);
        w.put_f64(0.5);
        w.put_u8(7);
        assert!(JoinSpec::read(&mut ByteReader::new(w.as_bytes())).is_err());
        // Unknown node tag in a tree.
        let mut w = ByteWriter::new();
        w.put_u8(9);
        assert!(Node::read(&mut ByteReader::new(w.as_bytes())).is_err());
        // A table with a bucket twice, with keys out of order, with an empty bucket.
        for buckets in [
            [(4u64, vec![1u32]), (4, vec![2])],
            [(5, vec![1]), (4, vec![2])],
            [(4, vec![1]), (5, vec![])],
        ] {
            let mut w = ByteWriter::new();
            w.put_usize(buckets.len());
            for (key, ids) in &buckets {
                w.put_u64(*key);
                ids.write(&mut w);
            }
            assert!(read_table(&mut ByteReader::new(w.as_bytes()), 2).is_err());
        }
    }
}

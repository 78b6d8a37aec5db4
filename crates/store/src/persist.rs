//! The [`Persist`] trait: structure ↔ bytes, losslessly.
//!
//! Every structure a snapshot stores — vectors, sampled LSH functions, hash tables,
//! sketched matrices, recovery trees, whole indexes — implements `Persist` over the
//! little-endian primitives of [`crate::format`]. The contract is **bit-identical
//! round-tripping**: `read(write(x))` rebuilds state whose every query answer equals
//! `x`'s, bucket for bucket and bit for bit (floats travel as IEEE-754 bit patterns,
//! hash tables are written in sorted bucket order so encoding is deterministic).
//!
//! Decoding validates through the owning types' public raw-parts constructors
//! (`from_raw_parts` / `from_planes` / `from_parts`), so a corrupt payload that
//! happens to pass the checksum still cannot materialise an inconsistent index.

use crate::error::Result;
use crate::format::{ByteReader, ByteWriter};
use ips_core::asymmetric::AlshParams;
use ips_core::mips::{BruteForceMipsIndex, MipsIndex, SketchMipsAdapter};
use ips_core::problem::{JoinSpec, JoinVariant};
use ips_core::symmetric::SymmetricParams;
use ips_core::{LshMips, LshOps, SphereMap};
use ips_linalg::{DenseVector, Matrix};
use ips_lsh::amplify::AndFunction;
use ips_lsh::hyperplane::HyperplaneFunction;
use ips_lsh::simple_alsh::{SimpleAlshFunction, SphereTransform};
use ips_lsh::table::{IndexParams, LshIndex, Table};
use ips_lsh::{BankedFamily, SymmetricFunctionPair};
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

    fn read(r: &mut ByteReader<'_>) -> Result<Self> {
        let dim = r.take_usize()?;
        let mut components = Vec::with_capacity(bounded_by_input(r, dim, 8));
        r.take_f64s(dim, &mut components)?;
        Ok(DenseVector::new(components))
    }
}

impl Persist for Matrix {
    fn write(&self, w: &mut ByteWriter) {
        w.put_usize(self.rows());
        w.put_usize(self.cols());
        for row in self.iter_rows() {
            for &x in row {
                w.put_f64(x);
            }
        }
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self> {
        let rows = r.take_usize()?;
        let cols = r.take_usize()?;
        let total = rows.checked_mul(cols).ok_or(crate::StoreError::Corrupt {
            context: "matrix",
            reason: "rows * cols overflows".into(),
        })?;
        let mut data = Vec::with_capacity(bounded_by_input(r, total, 8));
        r.take_f64s(total, &mut data)?;
        Ok(Matrix::from_row_major(rows, cols, data)?)
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
                return Err(crate::StoreError::Corrupt {
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
        w.put_opt_u64(self.rescore_limit.map(|v| v as u64));
        // PR 10: probes appended to the payload (see MIGRATION.md, "Multi-probe").
        w.put_usize(self.probes);
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(Self {
            query_radius: r.take_f64()?,
            bits_per_table: r.take_usize()?,
            tables: r.take_usize()?,
            rescore_limit: r.take_opt_u64()?.map(|v| v as usize),
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

impl Persist for HyperplaneFunction {
    fn write(&self, w: &mut ByteWriter) {
        write_slice(w, self.planes());
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(HyperplaneFunction::from_planes(Vec::read(r)?)?)
    }
}

impl Persist for SimpleAlshFunction {
    fn write(&self, w: &mut ByteWriter) {
        w.put_usize(self.transform().dim());
        w.put_f64(self.transform().query_radius());
        self.hyperplane().write(w);
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self> {
        let dim = r.take_usize()?;
        let radius = r.take_f64()?;
        let transform = SphereTransform::new(dim, radius)?;
        let inner = HyperplaneFunction::read(r)?;
        Ok(SimpleAlshFunction::from_parts(transform, inner)?)
    }
}

impl<H: Persist> Persist for SymmetricFunctionPair<H> {
    fn write(&self, w: &mut ByteWriter) {
        self.0.write(w);
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(SymmetricFunctionPair(H::read(r)?))
    }
}

impl<H: Persist> Persist for AndFunction<H> {
    fn write(&self, w: &mut ByteWriter) {
        w.put_usize(self.functions().len());
        for f in self.functions() {
            f.write(w);
        }
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self> {
        let n = r.take_usize()?;
        let mut functions = Vec::new();
        for _ in 0..n {
            functions.push(H::read(r)?);
        }
        Ok(AndFunction::from_functions(functions)?)
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

/// Params, length, the sampled functions, then the tables.
impl<F> Persist for LshIndex<F>
where
    F: BankedFamily<Function: Persist>,
{
    fn write(&self, w: &mut ByteWriter) {
        self.params().write(w);
        w.put_usize(self.len());
        write_slice(w, &self.functions());
        w.put_usize(self.tables().len());
        for table in self.tables() {
            write_table(w, table);
        }
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self> {
        let params = IndexParams::read(r)?;
        let len = r.take_usize()?;
        let functions = Vec::read(r)?;
        let mut tables = Vec::new();
        for _ in 0..r.take_usize()? {
            tables.push(read_table(r, len)?);
        }
        Ok(LshIndex::from_raw_parts(functions, tables, params, len)?)
    }
}

impl Persist for MaxIpEstimator {
    fn write(&self, w: &mut ByteWriter) {
        w.put_f64(self.kappa());
        w.put_usize(self.len());
        w.put_usize(self.dim());
        write_slice(w, &self.sketched());
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self> {
        let kappa = r.take_f64()?;
        let n = r.take_usize()?;
        let dim = r.take_usize()?;
        let sketched = Vec::read(r)?;
        Ok(MaxIpEstimator::from_raw_parts(kappa, n, dim, sketched)?)
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
        match r.take_u8()? {
            0 => {
                let corrupt = |reason: String| crate::StoreError::Corrupt {
                    context: "recovery tree",
                    reason,
                };
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
            1 => Ok(Node::Internal {
                estimator_left: MaxIpEstimator::read(r)?,
                estimator_right: MaxIpEstimator::read(r)?,
                left: Box::new(Node::read(r)?),
                right: Box::new(Node::read(r)?),
            }),
            other => Err(crate::StoreError::Corrupt {
                context: "recovery tree",
                reason: format!("unknown node tag {other}"),
            }),
        }
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
        let m = Matrix::from_rows(&[v.clone(), v.scaled(2.0)]).unwrap();
        assert_eq!(roundtrip(&m), m);
        let spec = JoinSpec::new(0.7, 0.6, JoinVariant::Unsigned).unwrap();
        assert_eq!(roundtrip(&spec), spec);
        let params = AlshParams {
            rescore_limit: Some(5),
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
    fn sampled_functions_roundtrip_bit_identically() {
        use ips_lsh::traits::{AsymmetricHashFunction, AsymmetricLshFamily};
        let mut rng = StdRng::seed_from_u64(0x9A9A);
        let family = ips_lsh::simple_alsh::SimpleAlshFamily::new(6, 1.5, 3).unwrap();
        let f = family.sample(&mut rng).unwrap();
        let back = roundtrip(&f);
        let p = DenseVector::from(&[0.1, 0.2, -0.3, 0.0, 0.4, 0.1][..]);
        assert_eq!(f.hash_data(&p).unwrap(), back.hash_data(&p).unwrap());
        assert_eq!(f.hash_query(&p).unwrap(), back.hash_query(&p).unwrap());
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
        let index = SketchMipsIndex::build(&mut rng, data.clone(), config, 2).unwrap();
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
                Err(crate::StoreError::Corrupt { .. })
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

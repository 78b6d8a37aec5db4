//! The Section 4.2 *symmetric* LSH for "almost all vectors".
//!
//! Neyshabur and Srebro \[39\] proved that no symmetric LSH for signed IPS exists when the
//! data and query domains are the same ball — the culprit being the pair `q = p`, whose
//! collision probability is forced to 1. Section 4.2 of the paper circumvents the
//! impossibility by relaxing the LSH definition to ignore identical pairs: assuming all
//! coordinates are `k`-bit numbers, each vector `p` in the unit ball is mapped to the
//! unit sphere by
//!
//! ```text
//! f(p) = ( p , √(1 − ‖p‖²) · v_p )
//! ```
//!
//! where `{v_u}` is a *strongly explicit* collection of pairwise ε-incoherent unit
//! vectors indexed by the vector's bit pattern (Reed–Solomon codes, \[38\]). For `p ≠ q`
//! the cross terms contribute at most ε, so `|f(p)ᵀf(q) − pᵀq| ≤ ε`, the map is the same
//! on both sides (symmetric!), and any sphere LSH applies; only the diagonal `p = q`
//! loses its guarantee, which is handled by an explicit exact-match lookup before the
//! hash tables are consulted.
//!
//! The index is [`LshMips`](crate::lsh_mips::LshMips)`<`[`SymmetricSphereMap`]`>`:
//! this module holds the map, which is all Section 4.2 adds to Section 4.1.
//!
//! **The image is never built.** At the defaults `f(p)` has `d + 2068` coordinates of
//! which `d + 44` are non-zero: `p` itself, then one coordinate per Reed–Solomon block,
//! all holding `√(1 − ‖p‖²)/√t`. The index works on that description — a
//! [`SphereImage`]: the fingerprint of `p`'s encoding, and the tag as `(row, value)`
//! pairs — for every operation: build, insert, delete, search and top-`k` candidates. One pass over `p` quantises it and folds the bytes
//! into the fingerprint (no encoding is collected), the fingerprint selects the tag's
//! symbols, and the sparse kernel of [`ips_lsh::table::LshIndex`] hashes `p` and the pairs with keys
//! bit-identical to hashing the dense image. A search computes one image and uses it
//! for the diagonal probe, the lookup and the probe sequence. The dense
//! [`SymmetricSphereMap::map`] remains as the definition the tests compare against.
//!
//! **The diagonal** is keyed by that fingerprint, not by the encoding (the table is
//! `diagonal.rs`): a hit is confirmed by comparing the stored vector's encoding
//! with the query's, so "identical" means what it always did.

use crate::error::{CoreError, Result};
use crate::lsh_mips::{SphereMap, Tuning};
use crate::problem::JoinSpec;
use ips_linalg::incoherent::{Fingerprint, ReedSolomonCollection};
use ips_linalg::DenseVector;
use ips_lsh::bank::{Point, Side, SparseImage};
use ips_lsh::hyperplane::HyperplaneFamily;
use ips_lsh::table::{BlockHasher, IndexParams};
use ips_lsh::SymmetricAsAsymmetric;
use std::cell::RefCell;

/// The symmetric ball-to-sphere map of Section 4.2.
#[derive(Debug, Clone)]
pub struct SymmetricSphereMap {
    dim: usize,
    precision_bits: u32,
    collection: ReedSolomonCollection,
}

/// `f(p)` without its zeros (see the module docs): what of the image is not `p` itself.
/// A buffer — [`SymmetricSphereMap::image_into`] overwrites it.
#[derive(Debug, Clone, Default)]
pub struct SphereImage {
    /// A 64-bit fold of the fingerprint of the vector's encoding — equal for vectors
    /// with equal encodings — which the tag was selected by and the diagonal is keyed by.
    fingerprint: u64,
    tag: Vec<(usize, f64)>,
}

impl SphereImage {
    /// An empty buffer that holds an image of `tag` non-zeros without growing.
    fn with_capacity(tag: usize) -> Self {
        Self {
            fingerprint: 0,
            tag: Vec::with_capacity(tag),
        }
    }

    /// The non-zero coordinates of the image after the vector's own: `(row, value)`,
    /// rows ascending. All values are `√(1 − ‖p‖²)/√t`, zero for a unit vector.
    pub fn tag(&self) -> &[(usize, f64)] {
        &self.tag
    }
}

thread_local! {
    /// The image every index operation on this thread computes into.
    static IMAGE: RefCell<SphereImage> = RefCell::new(SphereImage::default());
}

impl SymmetricSphereMap {
    /// Creates the map for `dim`-dimensional vectors whose coordinates are treated as
    /// `precision_bits`-bit fixed-point numbers in `[−1, 1]`, with pairwise tag
    /// incoherence at most `epsilon`.
    ///
    /// The tag collection is indexed by a 64-bit fingerprint of the quantised
    /// coordinates, realising the paper's "almost all vectors" guarantee: two distinct
    /// vectors receive distinct tags unless their fingerprints collide (probability
    /// `≈ 2^{−64}` per pair).
    pub fn new(dim: usize, epsilon: f64, precision_bits: u32) -> Result<Self> {
        if dim == 0 {
            return Err(CoreError::InvalidParameter {
                name: "dim",
                reason: "dimension must be positive".into(),
            });
        }
        if precision_bits == 0 || precision_bits > 32 {
            return Err(CoreError::InvalidParameter {
                name: "precision_bits",
                reason: format!("precision must be in 1..=32 bits, got {precision_bits}"),
            });
        }
        let collection = ReedSolomonCollection::with_capacity(1u128 << 64, epsilon)?;
        Ok(Self {
            dim,
            precision_bits,
            collection,
        })
    }

    /// Input dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Output dimension (`dim` + the tag dimension).
    pub fn output_dim(&self) -> usize {
        self.dim + self.collection.dim()
    }

    /// Number of non-zero coordinates of a mapped vector beyond its first `dim`: the
    /// tag is one-hot per Reed–Solomon block, and these are the rows the hashing
    /// kernel multiplies instead of the full tag dimension.
    pub fn tag_nonzeros(&self) -> usize {
        self.collection.nonzeros()
    }

    /// The incoherence bound ε of the tag collection: for distinct vectors,
    /// `|f(p)ᵀf(q) − pᵀq| ≤ ε`.
    pub fn epsilon(&self) -> f64 {
        self.collection.coherence()
    }

    /// The coordinates of `v` as fixed-point numbers at the configured precision.
    fn quantized<'a>(&self, v: &'a DenseVector) -> impl Iterator<Item = i32> + 'a {
        let scale = f64::from((1u32 << (self.precision_bits - 1)) - 1);
        v.iter()
            .map(move |&x| (x.clamp(-1.0, 1.0) * scale).round() as i32)
    }

    fn check_dim(&self, v: &DenseVector) -> Result<()> {
        if v.dim() != self.dim {
            return Err(CoreError::DimensionMismatch {
                expected: self.dim,
                actual: v.dim(),
            });
        }
        Ok(())
    }

    /// `√(1 − ‖v‖²)`, or an error when the vector is outside the unit ball.
    fn tail_mass(v: &DenseVector) -> Result<f64> {
        let norm_sq = v.norm_sq();
        // Negated so that a NaN norm is refused too.
        if !(norm_sq <= 1.0 + 1e-9) {
            return Err(CoreError::InvalidParameter {
                name: "v",
                reason: format!("vector norm {} exceeds 1", norm_sq.sqrt()),
            });
        }
        Ok((1.0 - norm_sq).max(0.0).sqrt())
    }

    /// The canonical byte encoding of a vector at the configured precision; two vectors
    /// are "identical" for the purposes of the construction iff their encodings agree.
    pub fn encode(&self, v: &DenseVector) -> Result<Vec<u8>> {
        self.check_dim(v)?;
        Ok(self.quantized(v).flat_map(i32::to_le_bytes).collect())
    }

    /// Whether two vectors of the map's dimension have the same
    /// [`SymmetricSphereMap::encode`]-ing, without building either.
    fn same_encoding(&self, a: &DenseVector, b: &DenseVector) -> bool {
        a.dim() == b.dim() && self.quantized(a).eq(self.quantized(b))
    }

    /// Applies the symmetric map `f`, materialised: the definition
    /// [`SymmetricSphereMap::image_into`] is tested against. Nothing on the index's
    /// paths calls it.
    ///
    /// Returns an error when the vector is outside the unit ball.
    pub fn map(&self, v: &DenseVector) -> Result<DenseVector> {
        let tail_mass = Self::tail_mass(v)?;
        let bytes = self.encode(v)?;
        let tag = self.collection.vector_for_bytes(&bytes)?;
        Ok(v.concat(&tag.scaled(tail_mass)))
    }

    /// Computes `f(v)` as its non-zeros: `v` itself followed by `image.tag()`, the same
    /// coordinates and the same values as [`SymmetricSphereMap::map`] produces, in one
    /// pass over `v` and with nothing of the image's dimension allocated.
    ///
    /// Fails as `map` does: a vector outside the unit ball, or of another dimension.
    pub fn image_into(&self, v: &DenseVector, image: &mut SphereImage) -> Result<()> {
        self.check_dim(v)?;
        let value = self.collection.weight() * Self::tail_mass(v)?;
        let fingerprint = self.fingerprint(v);
        let index = self.collection.index_for_fingerprint(fingerprint);
        image.tag.clear();
        image.tag.extend(
            self.collection
                .symbols(index)?
                .map(|symbol| (self.dim + symbol, value)),
        );
        image.fingerprint = fold(fingerprint);
        Ok(())
    }

    /// The fingerprint of `v`'s encoding, folded in as the encoding is produced.
    fn fingerprint(&self, v: &DenseVector) -> Fingerprint {
        let mut fingerprint = Fingerprint::new();
        for q in self.quantized(v) {
            fingerprint.update(&q.to_le_bytes());
        }
        fingerprint
    }

    /// `f(v)` as the LSH kernel takes it, from `v` and the image computed for it.
    fn sparse<'a>(&self, v: &'a DenseVector, image: &'a SphereImage) -> SparseImage<'a> {
        SparseImage {
            dim: self.output_dim(),
            head: v.as_slice(),
            tail: &image.tag,
        }
    }
}

/// The 64 bits of a fingerprint the diagonal is keyed by.
fn fold(fingerprint: Fingerprint) -> u64 {
    let wide = fingerprint.value();
    (wide >> 64) as u64 ^ wide as u64
}

/// Tuning parameters of the Section 4.2 index,
/// [`LshMips`](crate::lsh_mips::LshMips)`<`[`SymmetricSphereMap`]`>`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SymmetricParams {
    /// Incoherence ε of the tag collection (the additive inner-product error).
    pub epsilon: f64,
    /// Coordinate precision in bits.
    pub precision_bits: u32,
    /// Number of hyperplane bits per table.
    pub bits_per_table: usize,
    /// Number of hash tables.
    pub tables: usize,
    /// Extra query-directed probe buckets visited per table (see `ips_lsh::probe`).
    /// `0` (the default) is the classical single-bucket lookup, bit-identical to the
    /// pre-probing behaviour; larger values trade lookups for fewer tables.
    pub probes: usize,
}

impl Default for SymmetricParams {
    fn default() -> Self {
        Self {
            epsilon: 0.25,
            precision_bits: 16,
            bits_per_table: 10,
            tables: 32,
            probes: 0,
        }
    }
}

/// The symmetric map over a shared unit-ball domain: data and queries alike are
/// presented as their sparse sphere image, hashed by plain hyperplanes over the image
/// space, and the diagonal — identical encodings, which the incoherent tags do not
/// separate — is keyed by the encoding's fingerprint.
impl SphereMap for SymmetricSphereMap {
    type Params = SymmetricParams;
    type Family = SymmetricAsAsymmetric<HyperplaneFamily>;
    /// One image per point of a block.
    type Block = Vec<SphereImage>;

    fn new(dim: usize, _spec: &JoinSpec, params: &SymmetricParams) -> Result<Self> {
        SymmetricSphereMap::new(dim, params.epsilon, params.precision_bits)
    }

    fn family(&self) -> Result<Self::Family> {
        Ok(SymmetricAsAsymmetric(HyperplaneFamily::single_bit(
            self.output_dim(),
        )?))
    }

    fn tuning(params: &SymmetricParams) -> Tuning {
        Tuning {
            tables: IndexParams {
                k: params.bits_per_table,
                l: params.tables,
            },
            probes: params.probes,
            rescore_limit: None,
        }
    }

    fn set_probes(params: &mut SymmetricParams, probes: usize) {
        params.probes = probes;
    }

    /// Both sides alike, from one image computed into this thread's buffer.
    fn with_point<T>(
        &self,
        _side: Side,
        v: &DenseVector,
        f: impl FnOnce(Point<'_>, Option<u64>) -> Result<T>,
    ) -> Result<T> {
        IMAGE.with_borrow_mut(|image| {
            self.image_into(v, image)?;
            f(self.sparse(v, image).into(), Some(image.fingerprint))
        })
    }

    fn block(&self, points: usize) -> Vec<SphereImage> {
        let tag = self.tag_nonzeros();
        (0..points)
            .map(|_| SphereImage::with_capacity(tag))
            .collect()
    }

    fn block_keys(
        &self,
        vectors: &[DenseVector],
        images: &mut Vec<SphereImage>,
        hasher: &mut BlockHasher<'_>,
        keys: &mut [u64],
    ) -> Result<()> {
        let images = &mut images[..vectors.len()];
        for (v, image) in vectors.iter().zip(images.iter_mut()) {
            self.image_into(v, image)?;
        }
        let points = vectors.iter().zip(images.iter());
        let points = points.map(|(v, image)| Point::from(self.sparse(v, image)));
        Ok(hasher.data_keys(points, keys)?)
    }

    /// The fingerprint alone is a pass over the vector: cheaper for a build to take
    /// again on the filing thread than to carry a block's images along.
    fn diagonal_key(&self, v: &DenseVector) -> Option<u64> {
        Some(fold(self.fingerprint(v)))
    }

    fn identical(&self, a: &DenseVector, b: &DenseVector) -> bool {
        self.same_encoding(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsh_mips::{LshMips, LshOps, BUILD_BLOCK};
    use crate::mips::MipsIndex;
    use crate::problem::JoinVariant;
    use ips_linalg::par::Schedule;
    use ips_linalg::random::random_ball_vector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5CA1E)
    }

    #[test]
    fn map_validation_and_shape() {
        assert!(SymmetricSphereMap::new(0, 0.2, 16).is_err());
        assert!(SymmetricSphereMap::new(4, 0.2, 0).is_err());
        assert!(SymmetricSphereMap::new(4, 0.2, 64).is_err());
        assert!(SymmetricSphereMap::new(4, 1.5, 16).is_err());
        let map = SymmetricSphereMap::new(4, 0.25, 16).unwrap();
        assert_eq!(map.dim(), 4);
        assert!(map.output_dim() > 4);
        assert!(map.epsilon() <= 0.25 + 1e-12);
        let too_long = DenseVector::from(&[2.0, 0.0, 0.0, 0.0][..]);
        assert!(map.map(&too_long).is_err());
        assert!(map.encode(&DenseVector::zeros(3)).is_err());
    }

    #[test]
    fn mapped_vectors_are_unit_and_symmetric() {
        let mut r = rng();
        let map = SymmetricSphereMap::new(8, 0.25, 16).unwrap();
        for _ in 0..10 {
            let v = random_ball_vector(&mut r, 8, 1.0).unwrap();
            let mapped = map.map(&v).unwrap();
            assert!((mapped.norm() - 1.0).abs() < 1e-6);
            // The map is deterministic and identical for "data" and "query" roles.
            assert_eq!(map.map(&v).unwrap(), mapped);
        }
    }

    #[test]
    fn inner_products_preserved_up_to_epsilon_for_distinct_vectors() {
        let mut r = rng();
        let map = SymmetricSphereMap::new(12, 0.2, 16).unwrap();
        for _ in 0..20 {
            let a = random_ball_vector(&mut r, 12, 1.0).unwrap();
            let b = random_ball_vector(&mut r, 12, 1.0).unwrap();
            let original = a.dot(&b).unwrap();
            let mapped = map.map(&a).unwrap().dot(&map.map(&b).unwrap()).unwrap();
            assert!(
                (mapped - original).abs() <= map.epsilon() + 1e-6,
                "additive error too large: {} vs {}",
                mapped,
                original
            );
        }
    }

    #[test]
    fn identical_vectors_map_to_identical_points() {
        // For p = q the map gives f(p)ᵀf(p) = 1 regardless of pᵀp — exactly the pair the
        // relaxed definition excludes.
        let mut r = rng();
        let map = SymmetricSphereMap::new(6, 0.25, 16).unwrap();
        let v = random_ball_vector(&mut r, 6, 0.5).unwrap();
        let mapped = map.map(&v).unwrap();
        assert!((mapped.dot(&mapped).unwrap() - 1.0).abs() < 1e-9);
        assert!(v.dot(&v).unwrap() < 0.5);
    }

    crate::lsh_mips::suite::lsh_mips_suite!(SymmetricSphereMap);

    fn build(
        r: &mut StdRng,
        data: Vec<DenseVector>,
        spec: JoinSpec,
    ) -> LshMips<'static, SymmetricSphereMap> {
        let schedule = Schedule::new(BUILD_BLOCK);
        LshMips::build(schedule, r, data, spec, SymmetricParams::default()).unwrap()
    }

    #[test]
    fn identical_query_is_answered_by_the_exact_lookup() {
        let mut r = rng();
        let dim = 10;
        let data: Vec<DenseVector> = (0..50)
            .map(|_| random_ball_vector(&mut r, dim, 1.0).unwrap())
            .collect();
        let target = data[13].clone();
        let self_ip = target.dot(&target).unwrap();
        let spec = JoinSpec::new(self_ip * 0.9, 0.9, JoinVariant::Signed).unwrap();
        let index = build(&mut r, data, spec);
        let hit = index
            .search(&target)
            .unwrap()
            .expect("self-match must be found");
        assert_eq!(hit.data_index, 13);
        assert!((hit.inner_product - self_ip).abs() < 1e-9);
        assert!(index.sphere_map().epsilon() <= 0.25 + 1e-12);
    }

    #[test]
    fn duplicate_vectors_keep_an_exact_lookup_entry_after_delete() {
        let mut r = rng();
        let dim = 8;
        let v = random_ball_vector(&mut r, dim, 1.0).unwrap().scaled(0.7);
        let mut data: Vec<DenseVector> = (0..20)
            .map(|_| random_ball_vector(&mut r, dim, 1.0).unwrap().scaled(0.1))
            .collect();
        data.push(v.clone()); // slot 20
        let self_ip = v.dot(&v).unwrap();
        let spec = JoinSpec::new(self_ip * 0.9, 0.9, JoinVariant::Signed).unwrap();
        let mut index = build(&mut r, data, spec);
        // Insert a duplicate of v: the diagonal lookup now answers with the later slot
        // (matching what a fresh build over the same sequence stores).
        let dup = index.insert(v.clone()).unwrap();
        assert_eq!(index.search(&v).unwrap().unwrap().data_index, dup);
        // Deleting the duplicate falls back to the original copy, not to a miss.
        index.delete(dup).unwrap();
        assert_eq!(index.search(&v).unwrap().unwrap().data_index, 20);
    }
}

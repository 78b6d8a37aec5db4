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
//! **The image is never built.** At the defaults `f(p)` has `d + 2068` coordinates of
//! which `d + 44` are non-zero: `p` itself, then one coordinate per Reed–Solomon block,
//! all holding `√(1 − ‖p‖²)/√t`. The index works on that description — a
//! [`SphereImage`]: the fingerprint of `p`'s encoding, and the tag as `(row, value)`
//! pairs — for every operation: build, insert, delete, search, top-`k` candidates and
//! the refill after a snapshot load. One pass over `p` quantises it and folds the bytes
//! into the fingerprint (no encoding is collected), the fingerprint selects the tag's
//! symbols, and [`LshIndex`]'s sparse kernel hashes `p` and the pairs with keys
//! bit-identical to hashing the dense image. A search computes one image and uses it
//! for the diagonal probe, the lookup and the probe sequence. The dense
//! [`SymmetricSphereMap::map`] remains as the definition the tests compare against.
//!
//! **The diagonal** is keyed by that fingerprint, not by the encoding (the table is
//! `diagonal.rs`): a hit is confirmed by comparing the stored vector's encoding
//! with the query's, so "identical" means what it always did.

use crate::diagonal::Diagonal;
use crate::error::{CoreError, Result};
use crate::mips::{MipsIndex, SearchResult};
use crate::problem::JoinSpec;
use crate::shard::ShardParts;
use crate::slots::Renumbering;
use ips_linalg::incoherent::{Fingerprint, ReedSolomonCollection};
use ips_linalg::par::Schedule;
use ips_linalg::DenseVector;
use ips_lsh::bank::{Point, SparseImage};
use ips_lsh::hyperplane::HyperplaneFamily;
use ips_lsh::table::{IndexParams, LshIndex, BUILD_BLOCK};
use ips_lsh::SymmetricAsAsymmetric;
use rand::Rng;
use std::borrow::Cow;
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

    /// Runs `f` on the image of `v`, computed into this thread's buffer.
    fn with_image<T>(
        &self,
        v: &DenseVector,
        f: impl FnOnce(&SphereImage) -> Result<T>,
    ) -> Result<T> {
        IMAGE.with_borrow_mut(|image| {
            self.image_into(v, image)?;
            f(image)
        })
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

/// Tuning parameters of the [`SymmetricLshMips`] index.
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

/// The Section 4.2 symmetric-LSH MIPS index over a shared unit-ball domain.
///
/// Like [`crate::asymmetric::AlshMipsIndex`], the index is *dynamic*
/// ([`SymmetricLshMips::insert`] / [`SymmetricLshMips::delete`] maintain the hash
/// tables and the exact-match lookup incrementally, with tombstoned slots keeping
/// their vector so slot ids stay stable) and *persistable* (the sphere map is a
/// deterministic function of the parameters, so raw-parts round-trips only need the
/// data, the liveness mask and the sampled LSH state). It holds its vectors as a
/// [`Cow`]: borrowed for a one-shot join over the caller's slice, owned on the
/// serving path (`SymmetricLshMips<'static>`); the first mutation of a borrowing index
/// takes its own copy.
pub struct SymmetricLshMips<'a> {
    data: Cow<'a, [DenseVector]>,
    live: Vec<bool>,
    live_count: usize,
    map: SymmetricSphereMap,
    index: LshIndex<SymmetricAsAsymmetric<HyperplaneFamily>>,
    /// Fingerprint → live slots; the *last* one with the query's encoding answers the
    /// diagonal lookup, matching what a fresh build (which overwrites earlier ids)
    /// would store.
    diagonal: Diagonal,
    spec: JoinSpec,
    params: SymmetricParams,
    /// Quantized mirror of `data` for the cheap candidate-scoring kernel
    /// ([`SymmetricLshMips::set_scoring`]); cleared by insert/delete, which
    /// fall back to exact scoring (correctness never depends on this tile).
    quant: Option<ips_linalg::QuantTile>,
    /// Lifetime tallies of the quantized candidate kernel's activity
    /// (scored/pruned/rescored) — the serving telemetry reads deltas of this.
    kernel_counters: crate::kernel::KernelCounters,
}

/// The slot id of position `i`, which the LSH tables store as a `u32`.
fn slot_id(i: usize) -> Result<u32> {
    u32::try_from(i).map_err(|_| CoreError::InvalidParameter {
        name: "data",
        reason: "index supports at most 2^32 - 1 points".into(),
    })
}

impl<'a> SymmetricLshMips<'a> {
    /// Builds the index over `data` (all inside the unit ball) for the given spec, on
    /// every available CPU. `data` is a `Vec` to own or a slice to borrow.
    pub fn build<R: Rng + ?Sized>(
        rng: &mut R,
        data: impl Into<Cow<'a, [DenseVector]>>,
        spec: JoinSpec,
        params: SymmetricParams,
    ) -> Result<Self> {
        Self::build_scheduled(Schedule::new(BUILD_BLOCK), rng, data, spec, params)
    }

    /// [`SymmetricLshMips::build`] under an explicit schedule; the index is the same at
    /// every thread count and block size. A build beside live traffic passes one thread.
    pub fn build_scheduled<R: Rng + ?Sized>(
        schedule: Schedule,
        rng: &mut R,
        data: impl Into<Cow<'a, [DenseVector]>>,
        spec: JoinSpec,
        params: SymmetricParams,
    ) -> Result<Self> {
        let data = data.into();
        if data.is_empty() {
            return Err(CoreError::EmptyDataSet);
        }
        let dim = data[0].dim();
        if let Some(v) = data.iter().find(|v| v.dim() != dim) {
            return Err(CoreError::DimensionMismatch {
                expected: dim,
                actual: v.dim(),
            });
        }
        slot_id(data.len())?;
        let map = SymmetricSphereMap::new(dim, params.epsilon, params.precision_bits)?;
        let family = SymmetricAsAsymmetric(HyperplaneFamily::single_bit(map.output_dim())?);
        // Sample the functions over an empty index, then stream the points through it
        // block by block, each as its sparse image: a thread computes a block's images
        // (into a buffer of its own) and their keys, this thread files the keys and the
        // diagonal in slot order. Same functions, same buckets and same id order as
        // building over the materialised images one after another.
        let index_params = IndexParams {
            k: params.bits_per_table,
            l: params.tables,
        };
        let mut index = LshIndex::build_scheduled(schedule, &family, index_params, &[], rng)?;
        let live_count = data.len();
        let mut diagonal = Diagonal::with_capacity(live_count);
        let tag = map.tag_nonzeros();
        index.extend_blocks(
            schedule,
            0,
            live_count,
            |points| -> Vec<SphereImage> {
                (0..points)
                    .map(|_| SphereImage::with_capacity(tag))
                    .collect()
            },
            |hasher, slots, images, keys| -> Result<()> {
                let vectors = &data[slots];
                let images = &mut images[..vectors.len()];
                for (v, image) in vectors.iter().zip(images.iter_mut()) {
                    map.image_into(v, image)?;
                }
                let points = vectors.iter().zip(images.iter());
                let points = points.map(|(v, image)| Point::from(map.sparse(v, image)));
                Ok(hasher.data_keys(points, keys)?)
            },
            // The diagonal needs the fingerprint alone, which is a pass over the
            // vector: cheaper to take again here than to carry a block's images along.
            |slots| {
                for slot in slots {
                    diagonal.insert(fold(map.fingerprint(&data[slot])), slot as u32);
                }
            },
        )?;
        Ok(Self {
            live: vec![true; live_count],
            live_count,
            data,
            map,
            index,
            diagonal,
            spec,
            params,
            quant: None,
            kernel_counters: crate::kernel::KernelCounters::new(),
        })
    }

    /// Hashes `v` into every table under `slot` and registers it on the diagonal;
    /// a vector the map refuses touches neither.
    fn file(
        map: &SymmetricSphereMap,
        index: &mut LshIndex<SymmetricAsAsymmetric<HyperplaneFamily>>,
        diagonal: &mut Diagonal,
        slot: usize,
        v: &DenseVector,
    ) -> Result<()> {
        let id = slot_id(slot)?;
        map.with_image(v, |image| {
            index.insert_image(id, map.sparse(v, image))?;
            diagonal.insert(image.fingerprint, id);
            Ok(())
        })
    }

    /// Applies a scoring-kernel selection: `quantized=true` packs the data
    /// into an `i8` tile so [`SymmetricLshMips::candidate_best`] runs through
    /// the cheap prune-and-exact-rescore kernel (identical results — see
    /// [`crate::kernel`]). The diagonal probe stays exact either way.
    ///
    /// A subsequent [`SymmetricLshMips::insert`] or
    /// [`SymmetricLshMips::delete`] clears the tile and falls back to exact
    /// scoring; call this again after a batch of mutations.
    pub fn set_scoring(&mut self, options: crate::kernel::ScoringOptions) -> Result<()> {
        self.quant = if options.quantized {
            Some(ips_linalg::QuantTile::from_vectors(&self.data)?)
        } else {
            None
        };
        Ok(())
    }

    /// Inserts a new data vector (unit ball), hashing its sphere image into every
    /// table and registering its encoding in the exact-match lookup. Returns the new
    /// slot id; slot ids are stable and never reused.
    pub fn insert(&mut self, v: DenseVector) -> Result<usize> {
        let slot = self.data.len();
        Self::file(&self.map, &mut self.index, &mut self.diagonal, slot, &v)?;
        self.data.to_mut().push(v);
        self.live.push(true);
        self.live_count += 1;
        // The quantized tile no longer mirrors the data; drop it so scoring
        // falls back to the exact path (see `set_scoring`).
        self.quant = None;
        Ok(slot)
    }

    /// Deletes the vector in slot `id`: removes it from every hash table and from the
    /// exact-match lookup, tombstoning the slot.
    pub fn delete(&mut self, id: usize) -> Result<()> {
        if id >= self.data.len() || !self.live[id] {
            return Err(CoreError::InvalidParameter {
                name: "id",
                reason: format!("slot {id} is out of range or already deleted"),
            });
        }
        let (map, index, diagonal) = (&self.map, &mut self.index, &mut self.diagonal);
        let v = &self.data[id];
        map.with_image(v, |image| {
            index.remove_image(id as u32, map.sparse(v, image))?;
            diagonal.remove(image.fingerprint, id as u32);
            Ok(())
        })?;
        self.live[id] = false;
        self.live_count -= 1;
        self.quant = None;
        Ok(())
    }

    /// Drops every tombstoned slot and renumbers the live ones `0..len` in ascending
    /// order of `keys[slot]` (one key per slot, distinct on live slots), in place —
    /// see [`crate::asymmetric::AlshMipsIndex::compact`]. The exact-match lookup is
    /// renamed with the hash tables, so the result equals [`SymmetricLshMips::build`]
    /// over the surviving vectors in key order with the same sampled functions.
    pub fn compact(&mut self, keys: &[u64]) -> Result<()> {
        let plan = Renumbering::new(&self.live, keys)?;
        self.index.renumber(&plan.new_slot)?;
        self.diagonal.renumber(&plan.new_slot);
        plan.apply(self.data.to_mut(), || DenseVector::zeros(0));
        self.live.truncate(self.live_count);
        self.live.fill(true);
        self.quant = None;
        Ok(())
    }

    /// Whether slot `id` currently holds a live (non-deleted) vector.
    pub fn is_live(&self, id: usize) -> bool {
        self.live.get(id).copied().unwrap_or(false)
    }

    /// Total number of slots ever allocated, live or tombstoned.
    pub fn slots(&self) -> usize {
        self.data.len()
    }

    /// The quantized tile when the cheap candidate kernel is enabled
    /// ([`SymmetricLshMips::set_scoring`]) and no mutation has invalidated it.
    pub(crate) fn quant_tile(&self) -> Option<&ips_linalg::QuantTile> {
        self.quant.as_ref()
    }

    /// The quantized kernel's activity tallies (zero while exact scoring runs).
    pub fn kernel_activity(&self) -> crate::kernel::KernelActivity {
        self.kernel_counters.activity()
    }

    /// The counters the quantized candidate kernel ticks into.
    pub(crate) fn kernel_counters(&self) -> &crate::kernel::KernelCounters {
        &self.kernel_counters
    }

    /// The tuning parameters the index was built with.
    pub fn params(&self) -> SymmetricParams {
        self.params
    }

    /// Overrides the number of extra probe buckets visited per table at query time
    /// (see [`SymmetricParams::probes`]). Probing is a pure query-time policy — the
    /// tables are untouched, so the override applies to the next search immediately
    /// and `set_probes(0)` restores the classical bit-identical lookup.
    pub fn set_probes(&mut self, probes: usize) {
        self.params.probes = probes;
    }

    /// The underlying multi-table LSH index (persistence accessor). Its points are the
    /// *sphere images* of the data vectors, which the sphere map recomputes
    /// deterministically on load.
    pub fn lsh_index(&self) -> &LshIndex<SymmetricAsAsymmetric<HyperplaneFamily>> {
        &self.index
    }

    /// Reassembles an index from previously extracted state. The sphere map and the
    /// exact-match lookup are deterministic functions of `data`, `live` and `params`,
    /// so only the sampled LSH state needs to have been persisted.
    pub fn from_raw_parts(
        data: Vec<DenseVector>,
        live: Vec<bool>,
        index: LshIndex<SymmetricAsAsymmetric<HyperplaneFamily>>,
        spec: JoinSpec,
        params: SymmetricParams,
    ) -> Result<Self> {
        if data.is_empty() {
            return Err(CoreError::EmptyDataSet);
        }
        if live.len() != data.len() {
            return Err(CoreError::InvalidParameter {
                name: "live",
                reason: format!(
                    "liveness mask has {} entries for {} slots",
                    live.len(),
                    data.len()
                ),
            });
        }
        let dim = data[0].dim();
        for v in &data {
            if v.dim() != dim {
                return Err(CoreError::DimensionMismatch {
                    expected: dim,
                    actual: v.dim(),
                });
            }
        }
        let live_count = live.iter().filter(|&&l| l).count();
        if index.len() != live_count {
            return Err(CoreError::InvalidParameter {
                name: "index",
                reason: format!(
                    "LSH index stores {} points but the mask marks {live_count} live",
                    index.len()
                ),
            });
        }
        let map = SymmetricSphereMap::new(dim, params.epsilon, params.precision_bits)?;
        // The diagonal needs the fingerprint alone, and a slot's vector may lie outside
        // the ball the tag is defined on (nothing here hashes it), so it is refilled
        // from the encodings without an image.
        let mut diagonal = Diagonal::with_capacity(live_count);
        for (i, v) in data.iter().enumerate().filter(|&(i, _)| live[i]) {
            diagonal.insert(fold(map.fingerprint(v)), slot_id(i)?);
        }
        Ok(Self {
            data: Cow::Owned(data),
            live,
            live_count,
            map,
            index,
            diagonal,
            spec,
            params,
            quant: None,
            kernel_counters: crate::kernel::KernelCounters::new(),
        })
    }

    /// The symmetric sphere map in use (exposed so the additive-error guarantee can be
    /// verified externally).
    pub fn sphere_map(&self) -> &SymmetricSphereMap {
        &self.map
    }

    /// Number of LSH candidates produced for a query (before exact re-scoring).
    pub fn candidate_count(&self, query: &DenseVector) -> Result<usize> {
        self.map
            .with_image(query, |image| Ok(self.candidates(query, image)?.len()))
    }

    /// The candidate data indices produced for a query (deduplicated, ascending),
    /// including the exact-lookup hit for an identical query when present — what the
    /// top-`k` search re-scores.
    pub fn candidate_indices(&self, query: &DenseVector) -> Result<Vec<usize>> {
        self.map.with_image(query, |image| {
            let mut out = self.candidates(query, image)?;
            if let Some(i) = self.diagonal_slot(query, image) {
                if let Err(position) = out.binary_search(&i) {
                    out.insert(position, i);
                }
            }
            Ok(out)
        })
    }

    /// The vectors held by the index, one per slot — tombstoned slots keep their
    /// vector (so slot ids stay stable) but never appear as candidates.
    pub fn data(&self) -> &[DenseVector] {
        &self.data
    }

    /// Consumes the index, returning the vectors of every slot (live or tombstoned)
    /// and freeing the hash tables — how a rebuild reuses the vectors instead of
    /// copying them. (An index that still borrows its vectors copies them here.)
    pub fn into_data(self) -> Vec<DenseVector> {
        self.data.into_owned()
    }

    /// The LSH candidates of a query whose image is `image`.
    fn candidates(&self, query: &DenseVector, image: &SphereImage) -> Result<Vec<usize>> {
        Ok(self
            .index
            .probe_lookup_image(self.map.sparse(query, image), self.params.probes)?)
    }

    /// The last live slot whose vector has the query's encoding.
    fn diagonal_slot(&self, query: &DenseVector, image: &SphereImage) -> Option<usize> {
        let same = |slot: u32| self.map.same_encoding(&self.data[slot as usize], query);
        self.diagonal
            .lookup(image.fingerprint, same)
            .map(|slot| slot as usize)
    }

    fn diagonal_hit(
        &self,
        query: &DenseVector,
        image: &SphereImage,
    ) -> Result<Option<SearchResult>> {
        self.diagonal_slot(query, image)
            .map(|i| {
                Ok(SearchResult {
                    data_index: i,
                    inner_product: self.data[i].dot(query)?,
                })
            })
            .transpose()
    }

    fn best_candidate(
        &self,
        query: &DenseVector,
        image: &SphereImage,
    ) -> Result<Option<SearchResult>> {
        let candidates = self.candidates(query, image)?;
        if let Some(quant) = &self.quant {
            // Cheap integer scoring + conservative pruning + exact rescoring:
            // identical result to the exact loop below (see `crate::kernel`).
            return crate::kernel::best_among_candidates_quantized(
                &self.data,
                quant,
                &candidates,
                query,
                &self.spec,
                &self.kernel_counters,
            );
        }
        let mut best: Option<SearchResult> = None;
        for i in candidates {
            let ip = self.data[i].dot(query)?;
            let value = self.spec.variant.value(ip);
            let better = best
                .as_ref()
                .map(|b| value > self.spec.variant.value(b.inner_product))
                .unwrap_or(true);
            if better {
                best = Some(SearchResult {
                    data_index: i,
                    inner_product: ip,
                });
            }
        }
        Ok(best)
    }

    /// Step 1 of the two-step search, exposed on its own: the diagonal probe.
    ///
    /// Looks the query's encoding up in the exact-match table and returns the *last*
    /// live slot sharing it (the one a fresh build would answer with), scored exactly
    /// — **unfiltered**, so a sharded merge layer can apply the promise check across
    /// the union of shards exactly as [`MipsIndex::search`] applies it to one index.
    pub fn exact_probe(&self, query: &DenseVector) -> Result<Option<SearchResult>> {
        self.map
            .with_image(query, |image| self.diagonal_hit(query, image))
    }

    /// Step 2 of the two-step search, exposed on its own: the best LSH candidate by
    /// exact re-scoring (strict `>`, so ties keep the lowest slot) — **unfiltered**
    /// by the relaxed threshold, for the same sharded-merge reason as
    /// [`SymmetricLshMips::exact_probe`].
    pub fn candidate_best(&self, query: &DenseVector) -> Result<Option<SearchResult>> {
        self.map
            .with_image(query, |image| self.best_candidate(query, image))
    }

    /// Both steps, unfiltered, from one image of the query — what a sharded merge
    /// asks of each shard.
    pub fn search_parts(&self, query: &DenseVector) -> Result<ShardParts> {
        self.map.with_image(query, |image| {
            Ok(ShardParts {
                exact: self.diagonal_hit(query, image)?,
                best: self.best_candidate(query, image)?,
            })
        })
    }
}

impl MipsIndex for SymmetricLshMips<'_> {
    fn len(&self) -> usize {
        self.live_count
    }

    fn spec(&self) -> JoinSpec {
        self.spec
    }

    fn search(&self, query: &DenseVector) -> Result<Option<SearchResult>> {
        self.map.with_image(query, |image| {
            // Step 1 (paper): check whether the query itself is an input vector; the
            // hash guarantees do not cover the diagonal, so it is handled exactly.
            if let Some(hit) = self.diagonal_hit(query, image)? {
                if self.spec.satisfies_promise(hit.inner_product) {
                    return Ok(Some(hit));
                }
            }
            // Step 2: symmetric LSH lookup plus exact re-scoring.
            Ok(self
                .best_candidate(query, image)?
                .filter(|b| self.spec.acceptable(b.inner_product)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::JoinVariant;
    use ips_linalg::random::{random_ball_vector, random_unit_vector};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5CA1E)
    }

    fn spec(s: f64, c: f64) -> JoinSpec {
        JoinSpec::new(s, c, JoinVariant::Signed).unwrap()
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

    #[test]
    fn index_finds_planted_partner() {
        let mut r = rng();
        let dim = 16;
        let n = 200;
        let query = random_unit_vector(&mut r, dim).unwrap().scaled(0.95);
        let mut data: Vec<DenseVector> = (0..n)
            .map(|_| random_ball_vector(&mut r, dim, 1.0).unwrap().scaled(0.2))
            .collect();
        // Plant a distinct vector with a high inner product with the query.
        data[77] = query.scaled(0.9);
        let spec = spec(0.6, 0.5);
        let index =
            SymmetricLshMips::build(&mut r, data, spec, SymmetricParams::default()).unwrap();
        assert_eq!(index.len(), n);
        assert!(!index.is_empty());
        assert_eq!(index.spec(), spec);
        let hit = index
            .search(&query)
            .unwrap()
            .expect("planted partner not found");
        assert_eq!(hit.data_index, 77);
        assert!(hit.inner_product >= 0.3);
        assert!(index.candidate_count(&query).unwrap() < n);
        assert!(index.sphere_map().epsilon() <= 0.25 + 1e-12);
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
        let index =
            SymmetricLshMips::build(&mut r, data, spec, SymmetricParams::default()).unwrap();
        let hit = index
            .search(&target)
            .unwrap()
            .expect("self-match must be found");
        assert_eq!(hit.data_index, 13);
        assert!((hit.inner_product - self_ip).abs() < 1e-9);
    }

    #[test]
    fn insert_and_delete_maintain_search_and_exact_lookup() {
        let mut r = rng();
        let dim = 12;
        let data: Vec<DenseVector> = (0..60)
            .map(|_| random_ball_vector(&mut r, dim, 1.0).unwrap().scaled(0.1))
            .collect();
        let spec = spec(0.6, 0.5);
        let mut index =
            SymmetricLshMips::build(&mut r, data, spec, SymmetricParams::default()).unwrap();
        let query = random_unit_vector(&mut r, dim).unwrap().scaled(0.95);
        assert!(index.search(&query).unwrap().is_none());
        // A dynamically inserted strong partner is found...
        let id = index.insert(query.scaled(0.9)).unwrap();
        assert_eq!(id, 60);
        assert_eq!(index.len(), 61);
        let hit = index.search(&query).unwrap().expect("inserted point found");
        assert_eq!(hit.data_index, id);
        // ...including through the diagonal exact-match path.
        let self_hit = index.search(&index.data()[id].clone()).unwrap().unwrap();
        assert_eq!(self_hit.data_index, id);
        // Delete restores the original behaviour, for both paths.
        index.delete(id).unwrap();
        assert_eq!(index.len(), 60);
        assert!(!index.is_live(id));
        assert_eq!(index.slots(), 61);
        assert!(index.search(&query).unwrap().is_none());
        assert!(index.delete(id).is_err());
        // Raw-parts round-trip preserves results (the sphere map and lookup are
        // rebuilt deterministically).
        let rebuilt = SymmetricLshMips::from_raw_parts(
            index.data().to_vec(),
            (0..index.slots()).map(|i| index.is_live(i)).collect(),
            LshIndex::from_raw_parts(
                index.lsh_index().functions(),
                index.lsh_index().tables().to_vec(),
                index.lsh_index().params(),
                index.lsh_index().len(),
            )
            .unwrap(),
            index.spec(),
            index.params(),
        )
        .unwrap();
        for q in index.data().iter().take(8) {
            assert_eq!(index.search(q).unwrap(), rebuilt.search(q).unwrap());
        }
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
        let mut index =
            SymmetricLshMips::build(&mut r, data, spec, SymmetricParams::default()).unwrap();
        // Insert a duplicate of v: the diagonal lookup now answers with the later slot
        // (matching what a fresh build over the same sequence stores).
        let dup = index.insert(v.clone()).unwrap();
        assert_eq!(index.search(&v).unwrap().unwrap().data_index, dup);
        // Deleting the duplicate falls back to the original copy, not to a miss.
        index.delete(dup).unwrap();
        assert_eq!(index.search(&v).unwrap().unwrap().data_index, 20);
    }

    #[test]
    fn probes_enlarge_candidates_and_zero_restores_baseline() {
        let mut r = rng();
        let dim = 14;
        let data: Vec<DenseVector> = (0..150)
            .map(|_| random_ball_vector(&mut r, dim, 1.0).unwrap())
            .collect();
        let mut index =
            SymmetricLshMips::build(&mut r, data, spec(0.5, 0.5), SymmetricParams::default())
                .unwrap();
        let queries: Vec<DenseVector> = (0..10)
            .map(|_| random_ball_vector(&mut r, dim, 1.0).unwrap())
            .collect();
        let baseline: Vec<Vec<usize>> = queries
            .iter()
            .map(|q| index.candidate_indices(q).unwrap())
            .collect();
        index.set_probes(4);
        assert_eq!(index.params().probes, 4);
        let mut grew = false;
        for (q, base) in queries.iter().zip(&baseline) {
            let probed = index.candidate_indices(q).unwrap();
            assert!(base.iter().all(|i| probed.contains(i)));
            grew |= probed.len() > base.len();
        }
        assert!(grew, "probing never enlarged a candidate set");
        index.set_probes(0);
        for (q, base) in queries.iter().zip(&baseline) {
            assert_eq!(&index.candidate_indices(q).unwrap(), base);
        }
    }

    #[test]
    fn build_rejects_bad_input() {
        let mut r = rng();
        assert!(SymmetricLshMips::build(
            &mut r,
            vec![],
            spec(0.5, 0.5),
            SymmetricParams::default()
        )
        .is_err());
        let mixed = vec![DenseVector::zeros(3), DenseVector::zeros(4)];
        assert!(
            SymmetricLshMips::build(&mut r, mixed, spec(0.5, 0.5), SymmetricParams::default())
                .is_err()
        );
    }
}

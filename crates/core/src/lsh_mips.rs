//! The one LSH MIPS index of Sections 4.1 and 4.2.
//!
//! Both sections build the same data structure: map the ball to the unit sphere, hash
//! the images with a sphere LSH in `L` tables, and re-score the colliding candidates
//! exactly. They differ in the map alone — the asymmetric `p ↦ (p, √(1−‖p‖²), 0)` of
//! Section 4.1 ([`crate::asymmetric`]) against the symmetric incoherent-tag `f(p)` of
//! Section 4.2 with its exact lookup for the diagonal `q = p`
//! ([`crate::symmetric`]) — so the index, [`LshMips`], is generic over a [`SphereMap`]
//! and everything else exists once: build, insert, delete, compaction, candidate
//! gathering, re-scoring, the two-step search and its halves for a sharded merge.

use crate::diagonal::Diagonal;
use crate::engine::Ask;
use crate::error::{CoreError, Result};
use crate::mips::{answer_each, MipsIndex, SearchResult};
use crate::problem::{JoinSpec, MatchPair};
use crate::shard::{keep_best, ShardParts};
use crate::slots::Renumbering;
use crate::topk::rescore_candidates;
use ips_linalg::par::Schedule;
use ips_linalg::{score_block, DenseVector};
use ips_lsh::bank::{Point, Side};
pub use ips_lsh::table::BUILD_BLOCK;
use ips_lsh::table::{BlockHasher, IndexParams, LshIndex};
use ips_lsh::BankedFamily;
use rand::Rng;
use std::borrow::Cow;

/// What an [`LshMips`] reads out of its map's parameter struct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tuning {
    /// Bits per table `k` and number of tables `L`.
    pub tables: IndexParams,
    /// Extra query-directed probe buckets visited per table (see `ips_lsh::probe`).
    pub probes: usize,
}

/// How an [`LshMips`] takes its vectors to the sphere its LSH hashes on — the one
/// thing Sections 4.1 and 4.2 do differently.
///
/// A map presents a vector to the hashing kernel as a [`Point`]: the vector itself
/// when the kernel embeds it (Section 4.1's
/// [`SphereTransform`](ips_lsh::simple_alsh::SphereTransform)), or its sparse sphere
/// image (Section 4.2's [`SymmetricSphereMap`](crate::symmetric::SymmetricSphereMap)).
/// A map whose guarantee leaves out the diagonal `q = p` also names the key a vector
/// has in the index's exact-match lookup.
pub trait SphereMap: Sized + Send + Sync {
    /// The family's tuning parameters.
    type Params: Copy + Send + Sync;
    /// The LSH family sampled over the sphere, hashed through its plane bank.
    type Family: BankedFamily;
    /// What a build thread keeps to present a block of points.
    type Block: Send;

    /// The map for `dim`-dimensional data, or why `spec` cannot be served under
    /// `params`.
    fn new(dim: usize, spec: &JoinSpec, params: &Self::Params) -> Result<Self>;

    /// The family whose functions hash the points this map presents.
    fn family(&self) -> Result<Self::Family>;

    /// The part of `params` the index itself reads.
    fn tuning(params: &Self::Params) -> Tuning;

    /// Overrides [`Tuning::probes`] in `params`.
    fn set_probes(params: &mut Self::Params, probes: usize);

    /// Hands `f` the point the kernel hashes for `v` on `side`, and `v`'s key on the
    /// diagonal when the map has one. Fails, before `f` runs, for a vector the map's
    /// domain excludes (a data vector outside the unit ball, a wrong dimension).
    fn with_point<T>(
        &self,
        side: Side,
        v: &DenseVector,
        f: impl FnOnce(Point<'_>, Option<u64>) -> Result<T>,
    ) -> Result<T>;

    /// A build thread's buffers for blocks of up to `points` points.
    fn block(&self, points: usize) -> Self::Block;

    /// The data-side bucket keys of `vectors`, in order, through `hasher` — what
    /// [`SphereMap::with_point`] and [`LshIndex::insert`] compute one at a time.
    fn block_keys(
        &self,
        vectors: &[DenseVector],
        block: &mut Self::Block,
        hasher: &mut BlockHasher<'_>,
        keys: &mut [u64],
    ) -> Result<()>;

    /// The key of `v` in the exact-match lookup, from the vector alone (no image, so
    /// also for a vector outside the ball); `None` for a map that covers the diagonal.
    fn diagonal_key(&self, _v: &DenseVector) -> Option<u64> {
        None
    }

    /// Whether `a` and `b` are the same point of the diagonal — asked of two vectors
    /// that share a [`SphereMap::diagonal_key`].
    fn identical(&self, _a: &DenseVector, _b: &DenseVector) -> bool {
        false
    }
}

/// `bits_per_table`, the number of single-plane functions a table concatenates, as a
/// table's key takes them: one sign bit each, in a 64-bit word.
pub(crate) fn check_bits_per_table(bits_per_table: usize) -> Result<()> {
    if !(1..=64).contains(&bits_per_table) {
        return Err(CoreError::InvalidParameter {
            name: "bits_per_table",
            reason: format!(
                "a table's key is a 64-bit sign word: need 1..=64 bits a table, got {bits_per_table}"
            ),
        });
    }
    Ok(())
}

/// The slot id of position `i`, which the LSH tables store as a `u32`.
pub(crate) fn slot_id(i: usize) -> Result<u32> {
    u32::try_from(i).map_err(|_| CoreError::InvalidParameter {
        name: "data",
        reason: "index supports at most 2^32 - 1 points".into(),
    })
}

/// The dimension every vector of a non-empty `data` shares.
pub(crate) fn common_dim(data: &[DenseVector]) -> Result<usize> {
    let dim = data.first().ok_or(CoreError::EmptyDataSet)?.dim();
    match data.iter().find(|v| v.dim() != dim) {
        Some(v) => Err(CoreError::DimensionMismatch {
            expected: dim,
            actual: v.dim(),
        }),
        None => Ok(dim),
    }
}

/// The last slot of `data` registered in `diagonal` under `key` whose vector `map`
/// finds identical to `query`.
pub(crate) fn diagonal_slot<M: SphereMap>(
    map: &M,
    diagonal: &Diagonal,
    data: &[DenseVector],
    query: &DenseVector,
    key: Option<u64>,
) -> Option<usize> {
    let same = |slot: u32| map.identical(&data[slot as usize], query);
    diagonal.lookup(key?, same).map(|slot| slot as usize)
}

/// The [`diagonal_slot`] scored exactly: step 1 of the two-step search.
pub(crate) fn diagonal_hit<M: SphereMap>(
    map: &M,
    diagonal: &Diagonal,
    data: &[DenseVector],
    query: &DenseVector,
    key: Option<u64>,
) -> Result<Option<SearchResult>> {
    diagonal_slot(map, diagonal, data, query, key)
        .map(|i| {
            Ok(SearchResult {
                data_index: i,
                inner_product: data[i].dot(query)?,
            })
        })
        .transpose()
}

/// The best of `candidates` (slots of `data`) by exact re-scoring, ranked by
/// [`keep_best`] — unfiltered by the relaxed threshold.
pub(crate) fn best_candidate(
    spec: &JoinSpec,
    data: &[DenseVector],
    query: &DenseVector,
    candidates: Vec<usize>,
) -> Result<Option<SearchResult>> {
    let mut best = None;
    let rows = candidates.into_iter().map(|i| (i, &data[i]));
    score_block(rows, [query], |data_index, _, inner_product| {
        let hit = SearchResult {
            data_index,
            inner_product,
        };
        keep_best(spec, &mut best, hit);
    })?;
    Ok(best)
}

/// What an [`LshMips`] does that does not name its map: mutation, compaction, the
/// query-time policies and the halves of the two-step search. Object-safe, so a holder
/// of either family — the serving layer — reaches them through one `dyn LshOps`.
pub trait LshOps: MipsIndex + Send + Sync {
    /// Inserts a new data vector (unit ball), hashing it into every table with the
    /// functions sampled at build time — and registering it in the exact-match lookup
    /// of a map that has one — and returns its slot id. Slot ids are stable: they are
    /// never reused, so an id handed out here stays valid until [`LshOps::delete`]d.
    fn insert(&mut self, v: DenseVector) -> Result<usize>;

    /// Deletes the vector in slot `slot`: removes it from every hash table (and from
    /// the exact-match lookup) and tombstones the slot, which is never reused.
    ///
    /// Returns an error for an out-of-range or already-deleted slot.
    fn delete(&mut self, slot: usize) -> Result<()>;

    /// Drops every tombstoned slot and renumbers the live ones `0..len` in slot
    /// order, in place.
    ///
    /// Deletes already took the dead slots out of every bucket and a bucket depends
    /// on the vector alone, so nothing is hashed: the vectors move down where they
    /// stand and the buckets — and the exact-match lookup — are renamed. The result is
    /// the index [`LshMips::build`] gives over the surviving vectors in slot order with
    /// the same sampled functions — same buckets, same answers, same snapshot bytes.
    fn compact(&mut self) -> Result<()>;

    /// Whether slot `slot` currently holds a live (non-deleted) vector.
    fn is_live(&self, slot: usize) -> bool;

    /// Total number of slots ever allocated, live or tombstoned
    /// ([`MipsIndex::len`] counts only live vectors).
    fn slots(&self) -> usize;

    /// The vectors held by the index, one per slot — tombstoned slots keep their
    /// vector (so slot ids stay stable) but never appear as candidates.
    fn data(&self) -> &[DenseVector];

    /// Overrides the number of extra probe buckets visited per table at query time
    /// (see [`Tuning::probes`]). Probing is a pure query-time policy — the tables are
    /// untouched, so the override applies to the next search immediately and
    /// `set_probes(0)` restores the classical bit-identical lookup.
    fn set_probes(&mut self, probes: usize);

    /// Both steps of an [`Ask::Threshold`] search, **unfiltered**, from one
    /// presentation of the query: the diagonal probe (the *last* live slot identical to
    /// the query, scored exactly; `None` for a map without a diagonal) and the best LSH
    /// candidate. A sharded merge layer asks this of each shard and applies the
    /// promise and relaxed-threshold checks across the union
    /// ([`crate::shard::merge_two_step`]) exactly as the search applies them to one
    /// index.
    fn search_parts(&self, query: &DenseVector) -> Result<ShardParts>;
}

/// The Section 4.1 / 4.2 MIPS index: ball-to-sphere map `M` + multi-table sphere LSH +
/// exact re-scoring of candidates (and, for a map with a diagonal, an exact-match
/// lookup consulted first).
///
/// The index is *dynamic*: [`LshOps::insert`] and [`LshOps::delete`] maintain the
/// hash tables incrementally using the functions sampled at build time, so a serving
/// process can mutate a loaded index without rebuilding it. Deleted slots are
/// tombstoned (their vector stays in `data` to keep slot ids stable) but are removed
/// from every hash table, so they can never appear as candidates again. It is
/// *persistable*: the map is a deterministic function of the parameters, so raw-parts
/// round-trips only need the data, the liveness mask and the sampled LSH state.
///
/// The vectors are held as a [`Cow`]: a one-shot join builds over the caller's slice
/// and borrows it, the serving path hands over a `Vec` (`LshMips<'static, M>`). The
/// first mutation of a borrowing index takes its own copy.
pub struct LshMips<'a, M: SphereMap> {
    data: Cow<'a, [DenseVector]>,
    live: Vec<bool>,
    live_count: usize,
    map: M,
    index: LshIndex<M::Family>,
    /// Diagonal key → live slots; the *last* one identical to the query answers the
    /// exact lookup, matching what a fresh build (which files slots in order) stores.
    /// Empty for a map without a diagonal.
    diagonal: Diagonal,
    spec: JoinSpec,
    params: M::Params,
}

impl<'a, M: SphereMap> LshMips<'a, M> {
    /// Builds the index over `data` — a `Vec` to own, a slice to borrow — for the
    /// given `(cs, s)` spec, hashing block by block under `schedule`
    /// (`Schedule::new(BUILD_BLOCK)` uses every available CPU; a build beside live
    /// traffic passes one thread). The index is the same at every thread count and
    /// block size.
    ///
    /// Every data vector must lie in the unit ball; what else `spec` and `params`
    /// must satisfy is the map's to say ([`SphereMap::new`]).
    pub fn build<R: Rng + ?Sized>(
        schedule: Schedule,
        rng: &mut R,
        data: impl Into<Cow<'a, [DenseVector]>>,
        spec: JoinSpec,
        params: M::Params,
    ) -> Result<Self> {
        let data = data.into();
        let dim = common_dim(&data)?;
        slot_id(data.len())?;
        let map = M::new(dim, &spec, &params)?;
        // Sample the functions over an empty index, then stream the points through it
        // block by block: a thread presents a block's points (into buffers of its own)
        // and computes their keys, this thread files the keys and the diagonal in slot
        // order. Same functions, same buckets and same id order as inserting the
        // points one after another.
        let tables = M::tuning(&params).tables;
        let mut index = LshIndex::build_scheduled(schedule, &map.family()?, tables, &[], rng)?;
        let mut diagonal = Self::empty_diagonal(&map, &data);
        index.extend_blocks(
            schedule,
            0,
            data.len(),
            |points| map.block(points),
            |hasher, slots, block, keys| map.block_keys(&data[slots], block, hasher, keys),
            |slots| {
                for slot in slots {
                    if let Some(key) = map.diagonal_key(&data[slot]) {
                        diagonal.insert(key, slot as u32);
                    }
                }
            },
        )?;
        let live = vec![true; data.len()];
        Ok(Self::assemble(
            data, live, map, index, diagonal, spec, params,
        ))
    }

    /// An exact-match lookup with room for every slot of `data` — none under a map
    /// that has no diagonal.
    fn empty_diagonal(map: &M, data: &[DenseVector]) -> Diagonal {
        Diagonal::with_capacity(map.diagonal_key(&data[0]).map_or(0, |_| data.len()))
    }

    fn assemble(
        data: Cow<'a, [DenseVector]>,
        live: Vec<bool>,
        map: M,
        index: LshIndex<M::Family>,
        diagonal: Diagonal,
        spec: JoinSpec,
        params: M::Params,
    ) -> Self {
        Self {
            live_count: live.iter().filter(|&&l| l).count(),
            data,
            live,
            map,
            index,
            diagonal,
            spec,
            params,
        }
    }

    /// Reassembles an index from previously extracted state — the inverse of
    /// [`LshOps::data`] / [`LshMips::lsh_index`] / the accessors plus the liveness
    /// mask, used by snapshot persistence to restore an index bit-identically (same
    /// functions, same buckets, same query results) without re-sampling. The map and
    /// the exact-match lookup are deterministic functions of `data`, `live` and
    /// `params`, so only the sampled LSH state needs to have been persisted.
    ///
    /// Rejected: vectors of mixed dimension, a mask of another length than `data` or
    /// marking another number of slots live than the LSH index stores, and tables
    /// that hold an id which is not a live slot, or one id twice.
    pub fn from_raw_parts(
        data: Vec<DenseVector>,
        live: Vec<bool>,
        index: LshIndex<M::Family>,
        spec: JoinSpec,
        params: M::Params,
    ) -> Result<Self> {
        let dim = common_dim(&data)?;
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
        Self::check_table_ids(&index, &live)?;
        let map = M::new(dim, &spec, &params)?;
        let mut diagonal = Self::empty_diagonal(&map, &data);
        for (i, v) in data.iter().enumerate().filter(|&(i, _)| live[i]) {
            if let Some(key) = map.diagonal_key(v) {
                diagonal.insert(key, slot_id(i)?);
            }
        }
        let data = Cow::Owned(data);
        Ok(Self::assemble(
            data, live, map, index, diagonal, spec, params,
        ))
    }

    /// Every id a table stores names a live slot, and no table stores one twice. The
    /// index has checked that each table holds as many ids as there are live slots,
    /// so each live slot is then in every table exactly once — and a search can only
    /// ever gather a slot it may answer with.
    fn check_table_ids(index: &LshIndex<M::Family>, live: &[bool]) -> Result<()> {
        let mut seen = vec![0u64; live.len().div_ceil(64)];
        for table in index.tables() {
            seen.fill(0);
            for id in table.ids() {
                let slot = id as usize;
                let defect = if !live.get(slot).copied().unwrap_or(false) {
                    "is not a live slot"
                } else if seen[slot / 64] & (1 << (slot % 64)) != 0 {
                    "is stored twice in one table"
                } else {
                    seen[slot / 64] |= 1 << (slot % 64);
                    continue;
                };
                return Err(CoreError::InvalidParameter {
                    name: "index",
                    reason: format!("LSH id {id} {defect}"),
                });
            }
        }
        Ok(())
    }

    /// Files the LSH tables again under the keys the index's bank gives the live slots
    /// ([`LshIndex::refile`]): each live slot's vector is hashed once, through the
    /// map, a run of consecutive live slots up to [`BUILD_BLOCK`] at a time.
    pub fn refile(&mut self) -> Result<()> {
        let Self {
            data,
            live,
            map,
            index,
            ..
        } = self;
        let (slots, l) = (data.len(), index.params().l);
        let mut block = map.block(BUILD_BLOCK);
        index.refile(slots, |hasher, keys| {
            let mut from = 0;
            while let Some(start) = (from..slots).find(|&slot| live[slot]) {
                let limit = slots.min(start + BUILD_BLOCK);
                let end = (start..limit).find(|&slot| !live[slot]).unwrap_or(limit);
                let keys = &mut keys[start * l..end * l];
                map.block_keys(&data[start..end], &mut block, hasher, keys)?;
                from = end;
            }
            Ok(())
        })
    }

    /// The tuning parameters.
    pub fn params(&self) -> M::Params {
        self.params
    }

    /// The sphere map in use (exposed so its guarantees can be verified externally).
    pub fn sphere_map(&self) -> &M {
        &self.map
    }

    /// The underlying multi-table LSH index (persistence accessor). Its points are
    /// what the map presents for the data vectors, recomputed deterministically on
    /// load.
    pub fn lsh_index(&self) -> &LshIndex<M::Family> {
        &self.index
    }

    /// Consumes the index, returning the vectors of every slot (live or tombstoned)
    /// and freeing the hash tables — how a rebuild reuses the vectors instead of
    /// copying them. (An index that still borrows its vectors copies them here.)
    pub fn into_data(self) -> Vec<DenseVector> {
        self.data.into_owned()
    }

    /// Number of candidates the LSH tables produce for a query, before the exact
    /// lookup and re-scoring — the quantity whose growth with `n` the ρ exponent
    /// predicts.
    pub fn candidate_count(&self, query: &DenseVector) -> Result<usize> {
        self.map
            .with_point(Side::Query, query, |point, _| Ok(self.gather(point)?.len()))
    }

    /// The candidate data indices produced for a query (deduplicated, ascending),
    /// including the exact-lookup hit for an identical query when present — what the
    /// top-`k` search re-scores.
    pub fn candidate_indices(&self, query: &DenseVector) -> Result<Vec<usize>> {
        self.map.with_point(Side::Query, query, |point, key| {
            let mut out = self.gather(point)?;
            if let Some(i) = diagonal_slot(&self.map, &self.diagonal, &self.data, query, key) {
                if let Err(position) = out.binary_search(&i) {
                    out.insert(position, i);
                }
            }
            Ok(out)
        })
    }

    /// The LSH candidates of a query presented as `point` (deduplicated, ascending):
    /// the one place a search of either kind gathers them.
    fn gather(&self, point: Point<'_>) -> Result<Vec<usize>> {
        Ok(self
            .index
            .probe_lookup(point, M::tuning(&self.params).probes)?)
    }

    /// The last live slot whose vector is identical to the query, scored exactly.
    fn diagonal_hit(&self, query: &DenseVector, key: Option<u64>) -> Result<Option<SearchResult>> {
        diagonal_hit(&self.map, &self.diagonal, &self.data, query, key)
    }

    /// The two-step search of one query under [`Ask::Threshold`].
    fn best(&self, query: &DenseVector) -> Result<Option<SearchResult>> {
        self.map.with_point(Side::Query, query, |point, key| {
            // Step 1 (Section 4.2): check whether the query itself is an input vector;
            // the hash guarantees do not cover the diagonal, so it is handled exactly.
            if let Some(hit) = self.diagonal_hit(query, key)? {
                if self.spec.satisfies_promise(hit.inner_product) {
                    return Ok(Some(hit));
                }
            }
            // Step 2: LSH lookup plus exact re-scoring. Only answers clearing the
            // relaxed threshold cs are reported (Definition 1).
            let best = best_candidate(&self.spec, &self.data, query, self.gather(point)?)?;
            Ok(best.filter(|b| self.spec.acceptable(b.inner_product)))
        })
    }

    /// One query's best `k` of its candidates, the diagonal hit among them.
    fn top_k(&self, query: &DenseVector, k: usize) -> Result<Vec<SearchResult>> {
        let candidates = self.candidate_indices(query)?;
        rescore_candidates(&self.data, candidates, query, &self.spec, k)
    }
}

impl<M: SphereMap> MipsIndex for LshMips<'_, M> {
    fn len(&self) -> usize {
        self.live_count
    }

    fn spec(&self) -> JoinSpec {
        self.spec
    }

    /// A query at a time: its candidates are its own buckets' entries.
    fn answer(&self, queries: &[DenseVector], ask: Ask) -> Result<Vec<MatchPair>> {
        match ask {
            Ask::Threshold => answer_each(queries, |q| self.best(q)),
            Ask::TopK(k) => answer_each(queries, |q| self.top_k(q, k)),
        }
    }
}

impl<M: SphereMap> LshOps for LshMips<'_, M> {
    fn insert(&mut self, v: DenseVector) -> Result<usize> {
        let slot = self.data.len();
        let id = slot_id(slot)?;
        let (index, diagonal) = (&mut self.index, &mut self.diagonal);
        self.map.with_point(Side::Data, &v, |point, key| {
            index.insert(id, point)?;
            if let Some(key) = key {
                diagonal.insert(key, id);
            }
            Ok(())
        })?;
        self.data.to_mut().push(v);
        self.live.push(true);
        self.live_count += 1;
        Ok(slot)
    }

    fn delete(&mut self, slot: usize) -> Result<()> {
        if !self.is_live(slot) {
            return Err(CoreError::InvalidParameter {
                name: "id",
                reason: format!("slot {slot} is out of range or already deleted"),
            });
        }
        let id = slot_id(slot)?;
        let (index, diagonal) = (&mut self.index, &mut self.diagonal);
        self.map
            .with_point(Side::Data, &self.data[slot], |point, key| {
                index.remove(id, point)?;
                if let Some(key) = key {
                    diagonal.remove(key, id);
                }
                Ok(())
            })?;
        self.live[slot] = false;
        self.live_count -= 1;
        Ok(())
    }

    fn compact(&mut self) -> Result<()> {
        let plan = Renumbering::new(&self.live);
        self.index.renumber(&plan.new_slot)?;
        self.diagonal.renumber(&plan.new_slot);
        plan.apply(self.data.to_mut());
        self.live.truncate(self.live_count);
        self.live.fill(true);
        Ok(())
    }

    fn is_live(&self, slot: usize) -> bool {
        self.live.get(slot).copied().unwrap_or(false)
    }

    fn slots(&self) -> usize {
        self.data.len()
    }

    fn data(&self) -> &[DenseVector] {
        &self.data
    }

    fn set_probes(&mut self, probes: usize) {
        M::set_probes(&mut self.params, probes);
    }

    fn search_parts(&self, query: &DenseVector) -> Result<ShardParts> {
        self.map.with_point(Side::Query, query, |point, key| {
            Ok(ShardParts {
                exact: self.diagonal_hit(query, key)?,
                best: best_candidate(&self.spec, &self.data, query, self.gather(point)?)?,
            })
        })
    }
}

/// The generic suite both maps instantiate (`lsh_mips_suite!` in
/// [`crate::asymmetric`] and [`crate::symmetric`]'s tests): everything an index does
/// whatever its map.
#[cfg(test)]
pub(crate) mod suite {
    use super::*;
    use crate::problem::JoinVariant;
    use ips_linalg::random::{random_ball_vector, random_unit_vector};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xA15B)
    }

    fn spec(s: f64, c: f64) -> JoinSpec {
        JoinSpec::new(s, c, JoinVariant::Signed).unwrap()
    }

    fn ball(r: &mut StdRng, n: usize, dim: usize, scale: f64) -> Vec<DenseVector> {
        (0..n)
            .map(|_| random_ball_vector(r, dim, 1.0).unwrap().scaled(scale))
            .collect()
    }

    fn build<M: SphereMap>(
        r: &mut StdRng,
        data: Vec<DenseVector>,
        spec: JoinSpec,
        params: M::Params,
    ) -> Result<LshMips<'static, M>> {
        LshMips::build(Schedule::new(BUILD_BLOCK), r, data, spec, params)
    }

    /// A copy of `index` through its raw parts, as a snapshot load makes one.
    fn through_raw_parts<M: SphereMap>(
        index: &LshMips<'_, M>,
        live: Vec<bool>,
    ) -> Result<LshMips<'static, M>> {
        let lsh = index.lsh_index();
        let lsh = LshIndex::from_raw_parts(
            lsh.bank().clone(),
            lsh.tables().to_vec(),
            lsh.params(),
            lsh.len(),
        )?;
        LshMips::from_raw_parts(
            index.data().to_vec(),
            live,
            lsh,
            index.spec(),
            index.params(),
        )
    }

    pub(crate) fn build_validation<M: SphereMap>()
    where
        M::Params: Default,
    {
        let mut r = rng();
        let params = M::Params::default();
        assert!(build::<M>(&mut r, vec![], spec(0.5, 0.5), params).is_err());
        let too_long = vec![DenseVector::from(&[2.0, 0.0][..])];
        assert!(build::<M>(&mut r, too_long, spec(0.5, 0.5), params).is_err());
        let mixed = vec![
            DenseVector::from(&[0.5, 0.0][..]),
            DenseVector::from(&[0.5][..]),
        ];
        assert!(build::<M>(&mut r, mixed, spec(0.5, 0.5), params).is_err());
    }

    /// A table's key is one 64-bit sign word: both maps build 64 bits a table and
    /// refuse 65 by name, before anything is drawn.
    #[test]
    fn a_table_holds_at_most_64_bits() {
        use crate::asymmetric::{AlshParams, SphereTransform};
        use crate::symmetric::{SymmetricParams, SymmetricSphereMap};
        let data = ball(&mut rng(), 20, 4, 1.0);
        let alsh = |bits_per_table| {
            let params = AlshParams {
                bits_per_table,
                tables: 2,
                ..AlshParams::default()
            };
            build::<SphereTransform>(&mut rng(), data.clone(), spec(0.5, 0.5), params).map(|_| ())
        };
        let symmetric = |bits_per_table| {
            let params = SymmetricParams {
                bits_per_table,
                tables: 2,
                ..SymmetricParams::default()
            };
            build::<SymmetricSphereMap>(&mut rng(), data.clone(), spec(0.5, 0.5), params)
                .map(|_| ())
        };
        assert!(alsh(64).is_ok() && symmetric(64).is_ok());
        for refused in [alsh(65), symmetric(65), alsh(0)] {
            assert!(
                matches!(
                    refused,
                    Err(CoreError::InvalidParameter {
                        name: "bits_per_table",
                        ..
                    })
                ),
                "{refused:?}"
            );
        }
    }

    pub(crate) fn finds_planted_high_inner_product<M: SphereMap>()
    where
        M::Params: Default + PartialEq + std::fmt::Debug,
    {
        let mut r = rng();
        let (dim, n) = (24, 300);
        let query = random_unit_vector(&mut r, dim).unwrap();
        let mut data = ball(&mut r, n, dim, 0.3);
        data[42] = query.scaled(0.9);
        let spec = spec(0.8, 0.6);
        let index = build::<M>(&mut r, data.clone(), spec, M::Params::default()).unwrap();
        assert_eq!(index.len(), n);
        assert!(!index.is_empty());
        assert_eq!(index.spec(), spec);
        assert_eq!(index.data().len(), n);
        assert_eq!(index.params(), M::Params::default());
        let hit = index.search(&query).unwrap().expect("planted point found");
        assert_eq!(hit.data_index, 42);
        assert!(hit.inner_product >= 0.8 - 1e-9);
        // Candidate sets should be (much) smaller than the data set.
        let candidates = index.candidate_count(&query).unwrap();
        assert!(candidates < n, "candidate set not pruned: {candidates}");
        // The diagonal probe answers a data vector exactly where the map has a
        // diagonal, and is silent where it has none.
        let parts = index.search_parts(&data[7]).unwrap();
        let keyed = index.sphere_map().diagonal_key(&data[7]).is_some();
        assert_eq!(parts.exact.map(|hit| hit.data_index), keyed.then_some(7));
        assert!(index.search_parts(&query).unwrap().exact.is_none());
    }

    pub(crate) fn low_similarity_queries_return_none<M: SphereMap>()
    where
        M::Params: Default,
    {
        let mut r = rng();
        let dim = 16;
        let data: Vec<DenseVector> = (0..100)
            .map(|_| random_unit_vector(&mut r, dim).unwrap().scaled(0.05))
            .collect();
        let index = build::<M>(&mut r, data, spec(0.5, 0.8), M::Params::default()).unwrap();
        let query = random_unit_vector(&mut r, dim).unwrap();
        // All inner products are at most 0.05 < cs = 0.4: nothing may be reported.
        assert!(index.search(&query).unwrap().is_none());
    }

    pub(crate) fn insert_and_delete_maintain_search_results<M: SphereMap>()
    where
        M::Params: Default,
    {
        let mut r = rng();
        let dim = 16;
        let query = random_unit_vector(&mut r, dim).unwrap();
        let data = ball(&mut r, 120, dim, 0.2);
        let mut index = build::<M>(&mut r, data, spec(0.8, 0.6), M::Params::default()).unwrap();
        // Nothing matches the query yet.
        assert!(index.search(&query).unwrap().is_none());
        // Insert a strong partner dynamically: it must now be found.
        let id = index.insert(query.scaled(0.9)).unwrap();
        assert_eq!(id, 120);
        assert_eq!((index.len(), index.slots()), (121, 121));
        assert!(index.is_live(id));
        let hit = index.search(&query).unwrap().expect("inserted point found");
        assert_eq!(hit.data_index, id);
        // Delete it again: the index returns to reporting nothing.
        index.delete(id).unwrap();
        assert_eq!((index.len(), index.slots()), (120, 121));
        assert!(!index.is_live(id));
        assert!(index.search(&query).unwrap().is_none());
        // A tombstoned or out-of-range slot cannot be deleted again.
        assert!(index.delete(id).is_err());
        assert!(index.delete(10_000).is_err());
        // Validation of dynamic inserts matches build validation, and a refused
        // vector uses up no slot.
        assert!(index.insert(DenseVector::zeros(dim + 1)).is_err());
        let outside = random_unit_vector(&mut r, dim).unwrap().scaled(1.5);
        assert!(index.insert(outside).is_err());
        assert_eq!(index.slots(), 121);
    }

    pub(crate) fn compact_equals_a_fresh_build_over_the_survivors<M: SphereMap>()
    where
        M::Params: Default,
    {
        let dim = 10;
        let data = ball(&mut rng(), 60, dim, 0.9);
        let fresh = |data: Vec<DenseVector>| {
            build::<M>(
                &mut StdRng::seed_from_u64(9),
                data,
                spec(0.5, 0.5),
                M::Params::default(),
            )
            .unwrap()
        };
        let mut index = fresh(data.clone());
        // A duplicate of a survivor and of a victim: the diagonal is renamed too.
        let twins = [
            index.insert(data[5].clone()).unwrap(),
            index.insert(data[3].clone()).unwrap(),
        ];
        for slot in [3usize, 17, 40, twins[1]] {
            index.delete(slot).unwrap();
        }
        let survivors: Vec<DenseVector> = (0..index.slots())
            .filter(|&slot| index.is_live(slot))
            .map(|slot| index.data()[slot].clone())
            .collect();
        index.compact().unwrap();
        let rebuilt = fresh(survivors.clone());
        assert_eq!(index.data(), &survivors[..]);
        assert_eq!(
            (index.len(), index.slots()),
            (survivors.len(), survivors.len())
        );
        assert_eq!(index.lsh_index().tables(), rebuilt.lsh_index().tables());
        for q in survivors.iter().chain(&data[..8]) {
            assert_eq!(
                index.search_parts(q).unwrap(),
                rebuilt.search_parts(q).unwrap()
            );
            assert_eq!(
                index.search_top_k(q, 3).unwrap(),
                rebuilt.search_top_k(q, 3).unwrap()
            );
        }
    }

    pub(crate) fn raw_parts_roundtrip_preserves_results<M: SphereMap>()
    where
        M::Params: Default,
    {
        let mut r = rng();
        let data = ball(&mut r, 80, 12, 1.0);
        let mut index =
            build::<M>(&mut r, data.clone(), spec(0.4, 0.5), M::Params::default()).unwrap();
        index.delete(11).unwrap();
        let live: Vec<bool> = (0..index.slots()).map(|i| index.is_live(i)).collect();
        let rebuilt = through_raw_parts(&index, live).unwrap();
        assert_eq!(rebuilt.len(), 79);
        for q in &data[..16] {
            assert_eq!(index.search(q).unwrap(), rebuilt.search(q).unwrap());
            assert_eq!(
                index.search_parts(q).unwrap(),
                rebuilt.search_parts(q).unwrap()
            );
        }
        // A liveness mask that disagrees with the LSH index, or with the slots, is
        // rejected.
        assert!(through_raw_parts(&index, vec![false; index.slots()]).is_err());
        assert!(through_raw_parts(&index, vec![true; 3]).is_err());
    }

    pub(crate) fn probes_enlarge_candidates_without_changing_validity<M: SphereMap>()
    where
        M::Params: Default,
    {
        let mut r = rng();
        let dim = 16;
        let data = ball(&mut r, 150, dim, 1.0);
        let spec = spec(0.5, 0.5);
        let mut index = build::<M>(&mut r, data, spec, M::Params::default()).unwrap();
        let queries = ball(&mut r, 10, dim, 1.0);
        let baseline: Vec<Vec<usize>> = queries
            .iter()
            .map(|q| index.candidate_indices(q).unwrap())
            .collect();
        index.set_probes(4);
        assert_eq!(M::tuning(&index.params()).probes, 4);
        let mut grew = false;
        for (q, base) in queries.iter().zip(&baseline) {
            let probed = index.candidate_indices(q).unwrap();
            assert!(base.iter().all(|i| probed.contains(i)));
            grew |= probed.len() > base.len();
            // Any reported answer still clears the relaxed threshold.
            if let Some(hit) = index.search(q).unwrap() {
                assert!(spec.acceptable(hit.inner_product));
            }
        }
        assert!(grew, "probing never enlarged a candidate set");
        // Returning to zero probes restores the classical candidates exactly.
        index.set_probes(0);
        for (q, base) in queries.iter().zip(&baseline) {
            assert_eq!(&index.candidate_indices(q).unwrap(), base);
        }
    }

    /// One `#[test]` per suite function that needs nothing but the map `$map`.
    macro_rules! lsh_mips_suite {
        ($map:ty) => {
            crate::lsh_mips::suite::lsh_mips_suite!(
                $map:
                build_validation
                finds_planted_high_inner_product
                low_similarity_queries_return_none
                insert_and_delete_maintain_search_results
                compact_equals_a_fresh_build_over_the_survivors
                raw_parts_roundtrip_preserves_results
                probes_enlarge_candidates_without_changing_validity
            );
        };
        ($map:ty: $($name:ident)*) => {
            $(
                #[test]
                fn $name() {
                    crate::lsh_mips::suite::$name::<$map>();
                }
            )*
        };
    }
    pub(crate) use lsh_mips_suite;
}

//! Multi-table LSH indexes (the OR-construction).
//!
//! An [`LshIndex`] holds `L` hash tables. Table `i` stores every data point under the
//! bucket produced by an independently sampled composite (ANDed) function; querying
//! returns the union of the query's buckets across tables. With per-function collision
//! probabilities `P1 > P2`, choosing `k ≈ log n / log(1/P2)` and `L ≈ n^ρ` gives the
//! classical `O(n^ρ)` query time that all the upper-bound discussions in the paper
//! (Sections 1.1 and 4) refer to.
//!
//! **Hashing.** Every operation — build, insert, remove, lookup, probed lookup — asks
//! one place for a vector's `L` bucket keys: the index's [`PlaneBank`]. The family is
//! a [`BankedFamily`] (SIMPLE-ALSH or the symmetric hyperplane family), so the vector
//! is embedded once and all `k·L` hyperplane margins come from one pass over the
//! coordinate-major coefficients; a table's key is the sign word of its planes, see
//! [`crate::bank`]. A point arrives as a `&DenseVector` or — at an index whose
//! bank has no embedding — as a [`SparseImage`] (`impl Into<Point>` throughout): same
//! keys as the dense vector the image stands for, for the rows it names only.
//! The kernel's buffers are reused: `insert` / `remove` hash through a scratch the
//! index owns, the `&self` lookups through one per thread.
//!
//! **Tables.** A [`Table`] is a *base* of three flat arrays — strictly ascending bucket
//! keys, each bucket's start, and every bucket's ids back to back — plus a `HashMap`
//! *overlay* that only [`LshIndex::insert`] writes. [`LshIndex::remove`] overwrites a
//! base entry with a tombstone (`u32::MAX`, an id no index reaches) or takes an overlay
//! entry out. A bucket reads as its base ids minus tombstones, then its overlay ids:
//! the sequence inserting and removing the points one at a time files. A lookup is a
//! binary search per table, and a hash probe only when the overlay holds anything.
//! [`LshIndex::renumber`] folds overlay and tombstones back into the base in place,
//! and a snapshot stores the merged buckets in key order, so it loads as a copy.
//!
//! **Building.** A build is the one operation that hashes many points at once, and it
//! does so block by block ([`LshIndex::extend_blocks`]): threads claim blocks of
//! [`BUILD_BLOCK`] points through the workspace's block driver
//! ([`ips_linalg::par::pipeline`]) and hash each through the bank's block kernel into
//! a key buffer the calling thread owns; the calling thread files each block's keys
//! **in id order**, while the others hash on. Filing notes each point's bucket number
//! (a per-table map from key to the buckets opened so far); once every block is in, a
//! counting sort per table turns the numbers into the base, keys ascending, each
//! bucket's ids in filing order. A bucket's contents and order depend only on which
//! ids hash to it and on the order they are filed in, so the tables are those of
//! inserting the points one by one — at any thread count and block size — and with
//! them everything derived from the tables, snapshot bytes included. Filing on the
//! calling thread is also what keeps every table in *its* allocator arena: a table
//! filled by a worker thread lives in that worker's arena, whose pages stay resident
//! after the worker is gone. One thread runs the same code with no spawn.
//!
//! The index is *dynamic*: [`LshIndex::insert`] and [`LshIndex::remove`] maintain the
//! `L` tables incrementally (hashing the point with each table's stored function), so a
//! long-lived serving process can mutate an index without rebuilding it; and it is
//! *persistable*: [`LshIndex::bank`] / [`LshIndex::tables`] /
//! [`LshIndex::from_raw_parts`] expose exactly the state a snapshot needs to restore an
//! index bit-identically (same sampled planes, same buckets, same query results).

#[cfg(doc)]
use crate::amplify::AndConstruction;
#[cfg(doc)]
use crate::bank::SparseImage;
use crate::bank::{BankScratch, BankShape, PlaneBank, Point, Side};
use crate::error::{LshError, Result};
use crate::traits::BankedFamily;
use ips_linalg::par::{pipeline, Schedule};
use ips_linalg::random::standard_gaussian;
use ips_linalg::DenseVector;
use rand::Rng;
use std::cell::RefCell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::ops::Range;

/// Points a build thread claims at a time: enough that a claim (two lock hand-offs,
/// ~1 µs) is nothing beside hashing them (~100 µs), few enough that the key buffer — a
/// ring of `threads ×` [`ips_linalg::par::DEPTH`] blocks of `BUILD_BLOCK × L` keys,
/// 64 KB at the defaults on two threads — comes out of the heap's free space instead
/// of fresh pages, and a build leaves the process's peak where it was.
pub const BUILD_BLOCK: usize = 32;

/// The hashing buffers of one vector: the kernel's scratch and the `L` keys.
#[derive(Debug, Clone, Default)]
struct KeyBuffers {
    scratch: BankScratch,
    keys: Vec<u64>,
}

thread_local! {
    /// What the `&self` lookups of every index on this thread hash through.
    static LOOKUP_BUFFERS: RefCell<KeyBuffers> = RefCell::new(KeyBuffers::default());
}

/// Parameters of a multi-table index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexParams {
    /// Number of concatenated hash functions per table (AND-construction width).
    pub k: usize,
    /// Number of tables (OR-construction width).
    pub l: usize,
}

impl IndexParams {
    /// Standard parameter choice for `n` points given collision probabilities `p1 > p2`:
    /// `k = ⌈ln n / ln(1/p2)⌉` and `L = ⌈n^ρ⌉` with `ρ = ln p1 / ln p2`.
    pub fn theoretical(n: usize, p1: f64, p2: f64) -> Result<Self> {
        if !(p2 > 0.0 && p2 < 1.0 && p1 > p2 && p1 < 1.0) {
            return Err(LshError::InvalidParameter {
                name: "p1/p2",
                reason: format!("need 0 < p2 < p1 < 1, got p1={p1}, p2={p2}"),
            });
        }
        let n = n.max(2) as f64;
        let k = (n.ln() / (1.0 / p2).ln()).ceil().max(1.0) as usize;
        let rho = p1.ln() / p2.ln();
        let l = n.powf(rho).ceil().max(1.0) as usize;
        Ok(Self { k, l })
    }
}

/// The hashing half of an index, as a build worker sees it (see
/// [`LshIndex::extend_blocks`]): the bank, shared and read-only, and a kernel scratch
/// of the worker's own. Good for the data side only.
pub struct BlockHasher<'a> {
    bank: &'a PlaneBank,
    scratch: &'a mut BankScratch,
}

impl BlockHasher<'_> {
    /// The data-side bucket keys of a block of points, point-major: point `i`'s `L`
    /// keys are `keys[i·L..(i+1)·L]`, which must be exactly the slots given. Fails with
    /// the error of the first point the family refuses.
    pub fn data_keys<'p>(
        &mut self,
        points: impl IntoIterator<Item = Point<'p>>,
        keys: &mut [u64],
    ) -> Result<()> {
        self.bank.block_keys(Side::Data, points, self.scratch, keys)
    }
}

/// What [`LshIndex::remove`] writes over a base entry. Never a stored id: an index
/// holds at most `2^32 - 1` points, under ids below it.
const TOMBSTONE: u32 = u32::MAX;

/// One of an index's `L` hash tables: bucket key → the ids filed under it, in filing
/// order (see the module docs, "Tables").
#[derive(Clone, Default)]
pub struct Table {
    /// The base's bucket keys, strictly ascending.
    keys: Vec<u64>,
    /// Where each base bucket starts in `ids`; it ends where the next one starts.
    offsets: Vec<u32>,
    /// Every base bucket's ids, bucket after bucket; a removed one is a [`TOMBSTONE`].
    ids: Vec<u32>,
    /// How many of `ids` are tombstones.
    tombstones: usize,
    /// What was inserted since the base was laid out.
    overlay: HashMap<u64, Vec<u32>>,
}

/// The ids a [`Table`] holds under one key: the base's survivors, then the overlay's.
#[derive(Clone, Copy)]
pub struct Bucket<'a> {
    base: &'a [u32],
    overlay: &'a [u32],
}

impl<'a> Bucket<'a> {
    /// The ids, in filing order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + 'a {
        let base = self.base.iter().copied().filter(|&id| id != TOMBSTONE);
        base.chain(self.overlay.iter().copied())
    }

    /// The number of ids.
    pub fn len(&self) -> usize {
        let tombstones = self.base.iter().filter(|&&id| id == TOMBSTONE).count();
        self.base.len() - tombstones + self.overlay.len()
    }

    /// Whether the bucket holds no id.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }
}

impl PartialEq for Bucket<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for Bucket<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Table {
    /// A base laid out elsewhere — what a snapshot decodes into: bucket `b` holds the
    /// ids from `offsets[b]` up to the next bucket's start (the last one, up to the
    /// end) under `keys[b]`.
    ///
    /// Rejected with [`LshError::InvalidParameter`]: keys that are not strictly
    /// ascending, an empty bucket, offsets that do not start at 0, and an id of
    /// `u32::MAX`, which no index stores.
    pub fn from_parts(keys: Vec<u64>, offsets: Vec<u32>, ids: Vec<u32>) -> Result<Self> {
        let invalid = |reason: String| {
            Err(LshError::InvalidParameter {
                name: "table",
                reason,
            })
        };
        if keys.len() != offsets.len() {
            return invalid(format!("{} keys for {} offsets", keys.len(), offsets.len()));
        }
        if let Some(pair) = keys.windows(2).find(|pair| pair[0] >= pair[1]) {
            return invalid(format!("bucket {} follows bucket {}", pair[1], pair[0]));
        }
        let filled = offsets.first().is_none_or(|&start| start == 0)
            && offsets.windows(2).all(|pair| pair[0] < pair[1])
            && offsets
                .last()
                .map_or(ids.is_empty(), |&last| (last as usize) < ids.len());
        if !filled {
            return invalid("the offsets leave a bucket empty or out of order".into());
        }
        if ids.len() > TOMBSTONE as usize || ids.contains(&TOMBSTONE) {
            return invalid(format!("no table stores the id {TOMBSTONE}"));
        }
        Ok(Self {
            keys,
            offsets,
            ids,
            ..Self::default()
        })
    }

    /// Every non-empty bucket with its key, in ascending key order. A clone of the
    /// iterator walks them again without ordering the overlay's keys a second time.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, Bucket<'_>)> + Clone {
        // The overlay's keys the base lacks, in order: none after a fold.
        let mut fresh: Vec<u64> = self.overlay.keys().copied().collect();
        fresh.retain(|key| self.keys.binary_search(key).is_err());
        fresh.sort_unstable();
        let (mut b, mut f) = (0, 0);
        std::iter::from_fn(move || loop {
            let from_base = match (self.keys.get(b), fresh.get(f)) {
                (None, None) => return None,
                (Some(&key), other) => other.is_none_or(|&other| key < other),
                (None, Some(_)) => false,
            };
            let (key, base) = if from_base {
                b += 1;
                (self.keys[b - 1], &self.ids[self.run(b - 1)])
            } else {
                f += 1;
                (fresh[f - 1], &[][..])
            };
            let bucket = Bucket {
                base,
                overlay: self.overlaid(key),
            };
            if !bucket.is_empty() {
                return Some((key, bucket));
            }
        })
    }

    /// Every stored id, base first.
    pub fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        let base = self.ids.iter().copied().filter(|&id| id != TOMBSTONE);
        base.chain(self.overlay.values().flatten().copied())
    }

    /// The number of stored ids.
    pub fn entries(&self) -> usize {
        let overlay: usize = self.overlay.values().map(Vec::len).sum();
        self.ids.len() - self.tombstones + overlay
    }

    /// The positions of base bucket `b` in `ids`.
    fn run(&self, b: usize) -> Range<usize> {
        let end = self
            .offsets
            .get(b + 1)
            .map_or(self.ids.len(), |&o| o as usize);
        self.offsets[b] as usize..end
    }

    /// The overlay's ids under `key`. An empty overlay, a built or folded table's, is
    /// not hashed into.
    fn overlaid(&self, key: u64) -> &[u32] {
        if self.overlay.is_empty() {
            return &[];
        }
        self.overlay.get(&key).map_or(&[], Vec::as_slice)
    }

    fn get(&self, key: u64) -> Bucket<'_> {
        let base = match self.keys.binary_search(&key) {
            Ok(b) => &self.ids[self.run(b)],
            Err(_) => &[],
        };
        Bucket {
            base,
            overlay: self.overlaid(key),
        }
    }

    fn insert(&mut self, key: u64, id: u32) {
        self.overlay.entry(key).or_default().push(id);
    }

    /// Takes `id` out of the bucket under `key`: an overlay entry removed (and its
    /// list with it, once empty), or a tombstone over a base entry. The overlay is
    /// searched first: its lists are short, where a base run on concentrated data
    /// holds thousands of ids that a recent insert would be scanned past.
    fn remove(&mut self, key: u64, id: u32) -> bool {
        if let Some(ids) = self.overlay.get_mut(&key) {
            if let Some(at) = position_of(ids, id) {
                ids.remove(at);
                if ids.is_empty() {
                    self.overlay.remove(&key);
                }
                return true;
            }
        }
        let Ok(b) = self.keys.binary_search(&key) else {
            return false;
        };
        let run = self.run(b);
        let Some(at) = position_of(&self.ids[run.clone()], id) else {
            return false;
        };
        self.ids[run.start + at] = TOMBSTONE;
        self.tombstones += 1;
        true
    }

    /// Renames every id `i` to `new_id[i]` (which the caller has checked covers them
    /// and keeps their order) and folds the overlay and the tombstones into the base.
    fn renumber(&mut self, new_id: &[u32]) {
        let base = self.ids.iter_mut().filter(|id| **id != TOMBSTONE);
        for id in base.chain(self.overlay.values_mut().flatten()) {
            *id = new_id[*id as usize];
        }
        if self.tombstones > 0 {
            self.close_gaps();
        }
        if !self.overlay.is_empty() {
            self.merge_overlay();
        }
    }

    /// Drops the tombstones, and the buckets they emptied, moving everything after
    /// them down in one pass from the front.
    fn close_gaps(&mut self) {
        let (mut kept, mut end) = (0, 0);
        for b in 0..self.keys.len() {
            // Bucket `b`'s bounds are read before anything at or after `b` is written.
            let (run, start) = (self.run(b), end);
            for i in run {
                if self.ids[i] != TOMBSTONE {
                    self.ids[end] = self.ids[i];
                    end += 1;
                }
            }
            if end > start {
                self.keys[kept] = self.keys[b];
                self.offsets[kept] = start as u32;
                kept += 1;
            }
        }
        self.keys.truncate(kept);
        self.offsets.truncate(kept);
        self.ids.truncate(end);
        self.tombstones = 0;
    }

    /// Merges the overlay into the base: room for its ids is reserved on the existing
    /// arrays, then buckets are placed from the back — the largest key first, its base
    /// run moved up behind its overlay run — so nothing is overwritten before it is
    /// read, and no second table is allocated.
    fn merge_overlay(&mut self) {
        let mut extra: Vec<(u64, Vec<u32>)> = self.overlay.drain().collect();
        extra.sort_unstable_by_key(|&(key, _)| key);
        let fresh = extra
            .iter()
            .filter(|(key, _)| self.keys.binary_search(key).is_err())
            .count();
        let added: usize = extra.iter().map(|(_, ids)| ids.len()).sum();
        let (mut base_keys, mut base_ids) = (self.keys.len(), self.ids.len());
        grow_exactly(&mut self.keys, fresh);
        grow_exactly(&mut self.offsets, fresh);
        grow_exactly(&mut self.ids, added);
        let (mut slot, mut at) = (self.keys.len(), self.ids.len());
        loop {
            let base_key = base_keys.checked_sub(1).map(|b| self.keys[b]);
            let extra_key = extra.last().map(|&(key, _)| key);
            let Some(key) = base_key.max(extra_key) else {
                break;
            };
            if extra_key == Some(key) {
                let (_, ids) = extra.pop().expect("the overlay has this key");
                at -= ids.len();
                self.ids[at..at + ids.len()].copy_from_slice(&ids);
            }
            if base_key == Some(key) {
                base_keys -= 1;
                let start = self.offsets[base_keys] as usize;
                at -= base_ids - start;
                self.ids.copy_within(start..base_ids, at);
                base_ids = start;
            }
            slot -= 1;
            self.keys[slot] = key;
            self.offsets[slot] = at as u32;
        }
    }
}

/// `more` zeros at the end of `array`, which grows by exactly that.
fn grow_exactly<T: Copy + Default>(array: &mut Vec<T>, more: usize) {
    array.reserve_exact(more);
    array.resize(array.len() + more, T::default());
}

impl PartialEq for Table {
    /// Equal when they hold the same ids under the same keys in the same order,
    /// however each is laid out.
    fn eq(&self, other: &Self) -> bool {
        self.buckets().eq(other.buckets())
    }
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.buckets()).finish()
    }
}

/// A table as a build files it: the buckets opened so far, by key, and each filed
/// point's bucket, in filing order.
#[derive(Default)]
struct Filing {
    buckets: HashMap<u64, u32>,
    slots: Vec<u32>,
}

impl Filing {
    /// Files `points` consecutive points under `key`.
    fn file(&mut self, key: u64, points: usize) {
        let opened = self.buckets.len() as u32;
        let bucket = *self.buckets.entry(key).or_insert(opened);
        self.slots.extend(std::iter::repeat_n(bucket, points));
    }

    /// The base of the filed points under the ids `first_id..`: keys in order, and a
    /// counting sort into `scratch` places each point's id in its bucket. The table
    /// keeps `scratch`'s buffer and hands back the one the bucket numbers were in, so
    /// one spare buffer serves every table of a build.
    fn lay_out(self, first_id: u32, scratch: &mut Vec<u32>) -> Table {
        let Filing { buckets, slots } = self;
        let mut order: Vec<(u64, u32)> = buckets.into_iter().collect();
        order.sort_unstable_by_key(|&(key, _)| key);
        // Each bucket's size, then where its next id goes.
        let mut next = vec![0u32; order.len()];
        for &bucket in &slots {
            next[bucket as usize] += 1;
        }
        let mut keys = Vec::with_capacity(order.len());
        let mut offsets = Vec::with_capacity(order.len());
        let mut start = 0;
        for (key, bucket) in order {
            keys.push(key);
            offsets.push(start);
            start += std::mem::replace(&mut next[bucket as usize], start);
        }
        scratch.resize(slots.len(), 0);
        for (&bucket, id) in slots.iter().zip(first_id..) {
            let at = &mut next[bucket as usize];
            scratch[*at as usize] = id;
            *at += 1;
        }
        Table {
            keys,
            offsets,
            ids: std::mem::replace(scratch, slots),
            ..Table::default()
        }
    }
}

/// A multi-table LSH index over data vectors, hashed through the plane bank of a
/// [`BankedFamily`].
pub struct LshIndex<F: BankedFamily> {
    bank: PlaneBank,
    tables: Vec<Table>,
    params: IndexParams,
    len: usize,
    /// What `insert` and `remove` hash through.
    buffers: KeyBuffers,
    family: PhantomData<fn() -> F>,
}

impl<F: BankedFamily> LshIndex<F> {
    /// Builds an index over `data` using `params.l` tables of `params.k`-wise composite
    /// functions sampled from `family` — the planes `params.l` composites drawn by
    /// [`AndConstruction`] from `rng` would hold — hashing on every available CPU
    /// ([`LshIndex::build_scheduled`] with the default [`Schedule`]).
    pub fn build<R: Rng + ?Sized>(
        family: &F,
        params: IndexParams,
        data: &[DenseVector],
        rng: &mut R,
    ) -> Result<Self> {
        Self::build_scheduled(Schedule::new(BUILD_BLOCK), family, params, data, rng)
    }

    /// [`LshIndex::build`] under an explicit schedule. The functions are sampled on the
    /// calling thread, the points hashed block by block ([`LshIndex::extend_blocks`]);
    /// the index — functions, tables, bucket order — is the same at every thread count
    /// and block size. A build beside live traffic passes one thread.
    pub fn build_scheduled<R: Rng + ?Sized>(
        schedule: Schedule,
        family: &F,
        params: IndexParams,
        data: &[DenseVector],
        rng: &mut R,
    ) -> Result<Self> {
        if data.len() > u32::MAX as usize {
            return Err(LshError::InvalidParameter {
                name: "data",
                reason: "index supports at most 2^32 - 1 points".into(),
            });
        }
        // Every Gaussian goes straight into its plane's column of the bank, in the
        // order the composites' own sampler draws them: table, component, plane,
        // coordinate.
        let (embedding, planes) = family.planes();
        let shape = BankShape {
            tables: params.l,
            components: params.k,
            bits: planes.bits(),
            rows: planes.plane_dim(),
        };
        let bank = PlaneBank::new(embedding, shape, |_, plane| {
            plane.extend((0..shape.rows).map(|_| standard_gaussian(rng)));
            Ok::<_, LshError>(())
        })?;
        let mut index = Self {
            bank,
            tables: vec![Table::default(); params.l],
            params,
            len: 0,
            buffers: KeyBuffers::default(),
            family: PhantomData,
        };
        index.extend_blocks(
            schedule,
            0,
            data.len(),
            |_| (),
            |hasher, range, (), keys| hasher.data_keys(data[range].iter().map(Point::from), keys),
            |_| (),
        )?;
        Ok(index)
    }

    /// Files `count` points into an index that holds none — a build's, its functions
    /// just sampled — under the ids `first_id..first_id + count`, hashing them a block
    /// at a time on `schedule.threads` threads: the one entry point behind every build.
    ///
    /// The points travel through [`ips_linalg::par::pipeline`] in blocks of
    /// `schedule.block`. `hash(hasher, positions, state, keys)` runs on any thread: it
    /// names the points at `positions` (within `0..count`) to the [`BlockHasher`],
    /// which writes their keys into `keys`; `state` is the thread's own, for whatever
    /// `hash` has to compute on the way. Then, **on the calling thread and in id
    /// order**, the block's keys are filed and `filed(positions)` is called. Once the
    /// pass is over, each table's base is laid out from what was filed (see the
    /// module docs, "Building"). So the tables — which buckets exist, and the order of the ids in
    /// each — are those of inserting the points one after another, at every thread
    /// count and block size, and everything that outlives the call (the tables;
    /// whatever `filed` keeps) is allocated by the calling thread. The threads write
    /// into what the caller owns and allocated up front: the key buffer — a ring of
    /// [`Schedule::ring`] blocks of `block × L` keys — and, per thread, a kernel
    /// scratch and a state, `thread_state(points)` making one for blocks of up to
    /// `points` points, sized so that `hash` need not grow it.
    ///
    /// Beyond the tables it returns, the call holds the key buffer and the scratches
    /// while it hashes, and then, per table, a map from each of its keys to a bucket
    /// number until that table is laid out, plus one spare `u32` per point for the
    /// counting sort.
    ///
    /// A point the family refuses fails the call with the error inserting it alone
    /// would give — the lowest such point's, whichever block it is in. Points of
    /// earlier blocks stay filed; a build drops the index.
    ///
    /// # Panics
    ///
    /// If the index already holds a point, or the ids would reach `u32::MAX`.
    pub fn extend_blocks<T: Send, E: Send>(
        &mut self,
        schedule: Schedule,
        first_id: u32,
        count: usize,
        thread_state: impl Fn(usize) -> T,
        hash: impl Fn(&mut BlockHasher<'_>, Range<usize>, &mut T, &mut [u64]) -> std::result::Result<(), E>
            + Sync,
        mut filed: impl FnMut(Range<usize>),
    ) -> std::result::Result<(), E> {
        assert!(self.is_empty(), "extend_blocks files into an empty index");
        assert!(
            count <= (u32::MAX - first_id) as usize,
            "ids {first_id}.. of {count} points overflow the id space"
        );
        if count == 0 {
            return Ok(());
        }
        let Self { bank, tables, .. } = self;
        let bank = &*bank;
        let (block, l) = (schedule.block.clamp(1, count), tables.len());
        let blocks = count.div_ceil(block);
        let mut locals: Vec<(BankScratch, T)> = (0..schedule.threads.clamp(1, blocks))
            .map(|_| (bank.scratch(), thread_state(block)))
            .collect();
        let mut keys = vec![0u64; schedule.ring().min(blocks) * block * l];
        let mut ring: Vec<(Range<usize>, &mut [u64])> = keys
            .chunks_mut(block * l)
            .map(|keys| (0..0, keys))
            .collect();
        let mut filings: Vec<Filing> = (0..l)
            .map(|_| Filing {
                slots: Vec::with_capacity(count),
                ..Filing::default()
            })
            .collect();
        let passed = pipeline(
            &mut locals,
            &mut ring,
            |k, (positions, _)| {
                *positions = (k * block).min(count)..((k + 1) * block).min(count);
                Ok(positions.start < positions.end)
            },
            |(scratch, state), _, (positions, keys)| {
                let mut hasher = BlockHasher { bank, scratch };
                let keys = &mut keys[..positions.len() * l];
                hash(&mut hasher, positions.clone(), state, keys)
            },
            |_, (positions, keys)| {
                // A table at a time, so that a block's entries meet a warm map, and a
                // run of consecutive points under one key — on concentrated data, most
                // of a block — with one lookup.
                let points = positions.len();
                for (t, filing) in filings.iter_mut().enumerate() {
                    let key = |i: usize| keys[i * l + t];
                    let mut run = 0;
                    while run < points {
                        let after = (run + 1..points).find(|&i| key(i) != key(run));
                        let after = after.unwrap_or(points);
                        filing.file(key(run), after - run);
                        run = after;
                    }
                }
                filed(positions.clone());
                Ok(())
            },
        );
        drop(ring);
        drop((locals, keys));
        // Every block is in (or the first refused one stopped the pass): lay the
        // tables out one at a time, each dropping its map as it goes.
        let filed_points = filings[0].slots.len();
        let mut scratch = Vec::new();
        for (table, filing) in tables.iter_mut().zip(filings) {
            *table = filing.lay_out(first_id, &mut scratch);
        }
        self.len += filed_points;
        passed
    }

    /// The parameters the index was built with.
    pub fn params(&self) -> IndexParams {
        self.params
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the index holds no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the (deduplicated) candidate indices colliding with the query in at
    /// least one table, in ascending order.
    pub fn query_candidates(&self, q: &DenseVector) -> Result<Vec<usize>> {
        self.home_candidates(q.into())
    }

    fn home_candidates(&self, q: Point<'_>) -> Result<Vec<usize>> {
        LOOKUP_BUFFERS.with_borrow_mut(|KeyBuffers { scratch, keys }| {
            self.bank.keys(Side::Query, q, scratch, keys)?;
            let buckets = self.tables.iter().zip(&*keys);
            Ok(sorted_candidates(
                buckets.map(|(table, &key)| table.get(key)),
            ))
        })
    }

    /// Like [`LshIndex::query_candidates`], but additionally visits up to `probes`
    /// extra buckets per table, chosen by the query-directed probe sequence of each
    /// table's composite function (see [`crate::probe`]): the buckets the query came
    /// closest to hashing into, in decreasing estimated collision probability.
    ///
    /// `probes = 0` takes the exact [`LshIndex::query_candidates`] code path, so the
    /// default is bit-identical to the classical lookup. The candidate set is always a
    /// superset of the classical one, deduplicated and in ascending order — the union
    /// over tables of the union over probed buckets, so the result is deterministic
    /// for a given index structure regardless of probe count.
    ///
    /// The query is a `&DenseVector` or a [`SparseImage`] — the candidates of the
    /// dense vector the image stands for; only an index whose bank has no embedding
    /// takes one.
    ///
    /// ```
    /// use ips_lsh::simple_alsh::SimpleAlshFamily;
    /// use ips_lsh::table::{IndexParams, LshIndex};
    /// use ips_linalg::random::random_ball_vector;
    /// use rand::rngs::StdRng;
    /// use rand::SeedableRng;
    ///
    /// let mut rng = StdRng::seed_from_u64(5);
    /// let family = SimpleAlshFamily::new(8, 1.0, 1)?;
    /// let data: Vec<_> = (0..50)
    ///     .map(|_| random_ball_vector(&mut rng, 8, 1.0).unwrap())
    ///     .collect();
    /// let index = LshIndex::build(&family, IndexParams { k: 4, l: 4 }, &data, &mut rng)?;
    /// let q = random_ball_vector(&mut rng, 8, 1.0)?;
    /// let classical = index.query_candidates(&q)?;
    /// assert_eq!(index.probe_lookup(&q, 0)?, classical);
    /// let probed = index.probe_lookup(&q, 4)?;
    /// assert!(classical.iter().all(|id| probed.contains(id)));
    /// # Ok::<(), ips_lsh::LshError>(())
    /// ```
    pub fn probe_lookup<'p>(&self, q: impl Into<Point<'p>>, probes: usize) -> Result<Vec<usize>> {
        let q = q.into();
        if probes == 0 {
            return self.home_candidates(q);
        }
        let sequences = LOOKUP_BUFFERS
            .with_borrow_mut(|buffers| self.bank.probe_keys(q, probes, &mut buffers.scratch))?;
        Ok(self.probed_candidates(&sequences))
    }

    fn probed_candidates(&self, sequences: &[Vec<u64>]) -> Vec<usize> {
        let buckets = self.tables.iter().zip(sequences);
        sorted_candidates(
            buckets.flat_map(|(table, sequence)| sequence.iter().map(|&key| table.get(key))),
        )
    }

    /// Total number of stored (bucket, point) entries across all tables — a proxy for
    /// the index's memory footprint used by the benchmarks.
    pub fn stored_entries(&self) -> usize {
        self.tables.iter().map(Table::entries).sum()
    }

    /// The `L` sampled composites' planes (persistence accessor).
    pub fn bank(&self) -> &PlaneBank {
        &self.bank
    }

    /// The `L` hash tables, in table order (persistence accessor). Each maps a bucket
    /// key to the point ids stored under it, in insertion order.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// Reassembles an index from previously extracted state — the inverse of
    /// [`LshIndex::bank`] / [`LshIndex::tables`] / [`LshIndex::params`], used by
    /// snapshot persistence to restore an index without re-sampling its planes.
    ///
    /// `len` is the number of *distinct* points stored (each point appears once per
    /// table). Everything a later query would otherwise trip over is rejected here
    /// with [`LshError::InvalidParameter`]: a bank whose composites are not `params.l`
    /// of `params.k` components, a table count other than `params.l`, and a table whose
    /// entry count differs from `len`. Which ids the tables may hold is the id space's
    /// owner's to check.
    pub fn from_raw_parts(
        bank: PlaneBank,
        tables: Vec<Table>,
        params: IndexParams,
        len: usize,
    ) -> Result<Self> {
        let shape = bank.shape();
        if (shape.tables, shape.components, tables.len()) != (params.l, params.k, params.l) {
            return Err(LshError::InvalidParameter {
                name: "bank/tables",
                reason: format!(
                    "params (k = {}, l = {}) for {} composites of {} components and {} tables",
                    params.k,
                    params.l,
                    shape.tables,
                    shape.components,
                    tables.len()
                ),
            });
        }
        for table in &tables {
            let entries = table.entries();
            if entries != len {
                return Err(LshError::InvalidParameter {
                    name: "tables",
                    reason: format!("table holds {entries} entries for a length-{len} index"),
                });
            }
        }
        Ok(Self {
            bank,
            tables,
            params,
            len,
            buffers: KeyBuffers::default(),
            family: PhantomData,
        })
    }

    /// Files every stored id again under the keys the bank gives it, keeping the order
    /// each bucket holds its ids in: for tables laid out under another function of the
    /// same signs, a bucket splits, in order, into the buckets of its ids' sign words.
    /// The overlay and the tombstones fold into the base on the way.
    ///
    /// `hash(hasher, keys)` writes the `L` data-side keys of every stored id `i` into
    /// `keys[i·L..(i+1)·L]`, which has room for the ids below `ids`; its error is
    /// returned as it is. A stored id at or above `ids` is refused before `hash` runs.
    pub fn refile<E: From<LshError>>(
        &mut self,
        ids: usize,
        hash: impl FnOnce(&mut BlockHasher<'_>, &mut [u64]) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let l = self.tables.len();
        let stored = self.tables.iter().flat_map(Table::ids);
        if let Some(id) = stored.max().filter(|&id| id as usize >= ids) {
            return Err(LshError::InvalidParameter {
                name: "ids",
                reason: format!("stored id {id} is not below {ids}"),
            }
            .into());
        }
        let mut keys = vec![0u64; ids * l];
        let mut scratch = self.bank.scratch();
        let bank = &self.bank;
        hash(
            &mut BlockHasher {
                bank,
                scratch: &mut scratch,
            },
            &mut keys,
        )?;
        for (t, table) in self.tables.iter_mut().enumerate() {
            let ids = table.buckets().flat_map(|(_, bucket)| bucket.iter());
            let mut filed: Vec<(u64, u32)> =
                ids.map(|id| (keys[id as usize * l + t], id)).collect();
            // Stable: a bucket's ids keep their order.
            filed.sort_by_key(|&(key, _)| key);
            let mut refiled = Table::default();
            for (at, &(key, id)) in (0u32..).zip(&filed) {
                if refiled.keys.last() != Some(&key) {
                    refiled.keys.push(key);
                    refiled.offsets.push(at);
                }
                refiled.ids.push(id);
            }
            *table = refiled;
        }
        Ok(())
    }

    /// Inserts a point under id `id`, hashing it into every table with that table's
    /// stored function — the dynamic-maintenance half of the serving layer. A point
    /// given as a [`SparseImage`] is filed where the dense vector it stands for would
    /// go; only an index whose bank has no embedding takes one.
    ///
    /// The caller owns the id space, which ends below `u32::MAX` (an id of `u32::MAX`
    /// is refused); inserting an id that is already present stores it twice and is a
    /// logic error.
    pub fn insert<'p>(&mut self, id: u32, p: impl Into<Point<'p>>) -> Result<()> {
        self.insert_point(id, p.into())
    }

    fn insert_point(&mut self, id: u32, p: Point<'_>) -> Result<()> {
        if id == TOMBSTONE {
            return Err(LshError::InvalidParameter {
                name: "id",
                reason: format!("ids end below {TOMBSTONE}"),
            });
        }
        // Every key before any table is touched, so a domain or dimension error
        // cannot leave the point half-inserted.
        let KeyBuffers { scratch, keys } = &mut self.buffers;
        self.bank.keys(Side::Data, p, scratch, keys)?;
        for (table, &key) in self.tables.iter_mut().zip(&*keys) {
            table.insert(key, id);
        }
        self.len += 1;
        Ok(())
    }

    /// Removes the point stored under id `id`, locating its bucket in each table by
    /// re-hashing the point `p` it was inserted with.
    ///
    /// Returns `true` when the id was found (in any table) and removed. A bucket reads
    /// as if the id had never been filed, so a remove exactly undoes the matching
    /// insert.
    pub fn remove<'p>(&mut self, id: u32, p: impl Into<Point<'p>>) -> Result<bool> {
        self.remove_point(id, p.into())
    }

    fn remove_point(&mut self, id: u32, p: Point<'_>) -> Result<bool> {
        let KeyBuffers { scratch, keys } = &mut self.buffers;
        self.bank.keys(Side::Data, p, scratch, keys)?;
        let mut removed = false;
        for (table, &key) in self.tables.iter_mut().zip(&*keys) {
            removed |= table.remove(key, id);
        }
        if removed {
            self.len -= 1;
        }
        Ok(removed)
    }

    /// Renames every stored id `i` to `new_id[i]` in place — what lets the owner of
    /// the id space close the gaps its removals left without hashing a single vector
    /// again (a point's bucket depends on the vector alone, never on its id) — and
    /// folds each table's overlay and tombstones into its base on the way.
    ///
    /// The names `new_id` gives — its entries other than `u32::MAX` — must strictly
    /// ascend, so every bucket keeps its order: after a build or any sequence of
    /// ascending inserts, the tables then equal those of an index built over the same
    /// points under the new ids. A map whose names do not ascend, and a stored id
    /// outside `new_id` or renamed to `u32::MAX`, are rejected before any table is
    /// touched.
    pub fn renumber(&mut self, new_id: &[u32]) -> Result<()> {
        let names = new_id.iter().filter(|&&to| to != TOMBSTONE);
        if let Some((a, b)) = names.clone().zip(names.skip(1)).find(|(a, b)| a >= b) {
            return Err(LshError::InvalidParameter {
                name: "new_id",
                reason: format!("new id {b} follows {a}: a renaming must keep the ids' order"),
            });
        }
        let renamed = |id: u32| new_id.get(id as usize).filter(|&&to| to != TOMBSTONE);
        let unnamed = (self.tables.iter().flat_map(Table::ids)).find(|&id| renamed(id).is_none());
        if let Some(id) = unnamed {
            return Err(LshError::InvalidParameter {
                name: "new_id",
                reason: format!("stored id {id} has no new id among {}", new_id.len()),
            });
        }
        for table in &mut self.tables {
            table.renumber(new_id);
        }
        Ok(())
    }
}

/// Where `id` stands in a bucket. The scan is nearly all a remove costs (a planted
/// data set files thousands of ids under one key), and as a loop inlined into the
/// generic `remove` its code — and its speed, by a factor of two — was whatever each
/// instantiating crate's optimiser made of it. Compiled once, here, block by block so
/// that the comparison vectorises: a block is searched only if it holds a match.
#[inline(never)]
fn position_of(ids: &[u32], id: u32) -> Option<usize> {
    const BLOCK: usize = 16;
    let blocks = ids.chunks_exact(BLOCK);
    let tail = blocks.remainder();
    let within = |block: &[u32]| block.iter().position(|&x| x == id);
    for (b, block) in blocks.enumerate() {
        if block.iter().fold(false, |hit, &x| hit | (x == id)) {
            return within(block).map(|at| b * BLOCK + at);
        }
    }
    within(tail).map(|at| ids.len() - tail.len() + at)
}

/// The ids of the visited buckets, deduplicated, in ascending order.
fn sorted_candidates<'a>(buckets: impl Iterator<Item = Bucket<'a>>) -> Vec<usize> {
    let mut ids = Vec::new();
    for bucket in buckets {
        ids.extend_from_slice(bucket.base);
        ids.extend_from_slice(bucket.overlay);
    }
    ids.sort_unstable();
    ids.dedup();
    // Tombstones, gathered with the runs they stand in, sort last.
    if ids.last() == Some(&TOMBSTONE) {
        ids.pop();
    }
    ids.into_iter().map(|id| id as usize).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hyperplane::HyperplaneFamily;
    use crate::simple_alsh::SimpleAlshFamily;
    use crate::traits::SymmetricAsAsymmetric;
    use ips_linalg::random::{random_ball_vector, random_unit_vector};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn position_of_is_the_first_occurrence_at_every_length() {
        for len in 0..70u32 {
            let ids: Vec<u32> = (0..len).map(|i| i / 2 * 3).collect();
            for id in 0..110 {
                assert_eq!(
                    position_of(&ids, id),
                    ids.iter().position(|&x| x == id),
                    "len {len} id {id}"
                );
            }
        }
    }

    fn listed(table: &Table) -> Vec<(u64, Vec<u32>)> {
        let buckets = table.buckets();
        buckets
            .map(|(key, ids)| (key, ids.iter().collect()))
            .collect()
    }

    #[test]
    fn a_fold_keeps_every_bucket_and_leaves_only_a_base() {
        let mut table =
            Table::from_parts(vec![10, 20, 30], vec![0, 2, 3], vec![0, 1, 2, 3, 4, 5]).unwrap();
        // Overlay keys before, between, after and on base keys; tombstones that empty
        // the first bucket and one in the last; an overlay entry inserted and removed.
        for (key, id) in [(5, 6), (20, 7), (25, 8), (40, 9), (30, 10)] {
            table.insert(key, id);
        }
        for (key, id) in [(10, 0), (10, 1), (30, 4), (25, 8)] {
            assert!(table.remove(key, id));
        }
        assert!(!table.remove(10, 0) && !table.remove(99, 3));
        let expected = vec![
            (5, vec![6]),
            (20, vec![2, 7]),
            (30, vec![3, 5, 10]),
            (40, vec![9]),
        ];
        assert_eq!(listed(&table), expected);
        assert_eq!(table.entries(), 7);
        let identity: Vec<u32> = (0..11).collect();
        table.renumber(&identity);
        assert_eq!(listed(&table), expected);
        assert_eq!((table.tombstones, table.overlay.len()), (0, 0));
        assert_eq!(table.keys, [5, 20, 30, 40]);
        assert_eq!(table.offsets, [0, 1, 3, 6]);
        assert_eq!(table.ids, [6, 2, 7, 3, 5, 10, 9]);
        // Closing the gaps keeps every bucket's order.
        let mut closed = [u32::MAX; 11];
        for (new, old) in (0..).zip([2, 3, 5, 6, 7, 9, 10]) {
            closed[old] = new;
        }
        table.renumber(&closed);
        assert_eq!(
            listed(&table),
            [
                (5, vec![3]),
                (20, vec![0, 4]),
                (30, vec![1, 2, 6]),
                (40, vec![5])
            ]
        );
    }

    #[test]
    fn from_parts_refuses_what_no_build_lays_out() {
        assert!(Table::from_parts(vec![1, 2], vec![0, 1], vec![7, 8]).is_ok());
        let empty = Table::from_parts(vec![], vec![], vec![]).unwrap();
        assert_eq!(empty.entries(), 0);
        let defects: [(Vec<u64>, Vec<u32>, Vec<u32>); 8] = [
            (vec![2, 1], vec![0, 1], vec![7, 8]),
            (vec![1, 1], vec![0, 1], vec![7, 8]),
            (vec![1, 2], vec![0, 2], vec![7, 8]),
            (vec![1, 2], vec![0, 0], vec![7, 8]),
            (vec![1, 2], vec![1, 2], vec![6, 7, 8]),
            (vec![1], vec![0, 1], vec![7, 8]),
            (vec![], vec![], vec![7]),
            (vec![1], vec![0], vec![TOMBSTONE]),
        ];
        for (keys, offsets, ids) in defects {
            let shown = format!("{keys:?} {offsets:?} {ids:?}");
            assert!(Table::from_parts(keys, offsets, ids).is_err(), "{shown}");
        }
    }

    #[test]
    fn theoretical_params_sane() {
        let p = IndexParams::theoretical(1000, 0.8, 0.4).unwrap();
        assert!(p.k >= 1 && p.l >= 1);
        assert!(IndexParams::theoretical(1000, 0.4, 0.8).is_err());
        assert!(IndexParams::theoretical(1000, 1.1, 0.5).is_err());
    }

    #[test]
    fn build_rejects_zero_tables() {
        let mut rng = StdRng::seed_from_u64(91);
        let fam = SymmetricAsAsymmetric(HyperplaneFamily::single_bit(4).unwrap());
        let data = vec![DenseVector::from(&[1.0, 0.0, 0.0, 0.0][..])];
        assert!(LshIndex::build(&fam, IndexParams { k: 1, l: 0 }, &data, &mut rng).is_err());
    }

    #[test]
    fn near_duplicates_are_found() {
        let mut rng = StdRng::seed_from_u64(92);
        let dim = 16;
        let fam = SymmetricAsAsymmetric(HyperplaneFamily::single_bit(dim).unwrap());
        let mut data: Vec<DenseVector> = (0..200)
            .map(|_| random_unit_vector(&mut rng, dim).unwrap())
            .collect();
        // Plant a near-duplicate of the query at index 0.
        let query = random_unit_vector(&mut rng, dim).unwrap();
        data[0] = query.scaled(1.0 - 1e-9);
        let index = LshIndex::build(&fam, IndexParams { k: 4, l: 16 }, &data, &mut rng).unwrap();
        assert_eq!(index.len(), 200);
        assert!(!index.is_empty());
        assert!(index.stored_entries() >= 200 * 16);
        let candidates = index.query_candidates(&query).unwrap();
        assert!(
            candidates.contains(&0),
            "planted near-duplicate not retrieved; got {candidates:?}"
        );
        // The candidate set should be (much) smaller than the full data set.
        assert!(candidates.len() < 200);
    }

    #[test]
    fn asymmetric_family_index_finds_high_inner_product() {
        let mut rng = StdRng::seed_from_u64(93);
        let dim = 12;
        let fam = SimpleAlshFamily::new(dim, 1.0, 1).unwrap();
        let query = random_unit_vector(&mut rng, dim).unwrap();
        let mut data: Vec<DenseVector> = (0..150)
            .map(|_| random_ball_vector(&mut rng, dim, 1.0).unwrap())
            .collect();
        data[7] = query.scaled(0.98); // high inner product with the query
        let index = LshIndex::build(&fam, IndexParams { k: 6, l: 24 }, &data, &mut rng).unwrap();
        let candidates = index.query_candidates(&query).unwrap();
        assert!(
            candidates.contains(&7),
            "high-IP point missed: {candidates:?}"
        );
    }

    #[test]
    fn raw_parts_roundtrip_preserves_queries() {
        let mut rng = StdRng::seed_from_u64(96);
        let dim = 8;
        let fam = SimpleAlshFamily::new(dim, 1.0, 1).unwrap();
        let data: Vec<DenseVector> = (0..30)
            .map(|_| random_ball_vector(&mut rng, dim, 1.0).unwrap())
            .collect();
        let params = IndexParams { k: 2, l: 6 };
        let index = LshIndex::build(&fam, params, &data, &mut rng).unwrap();
        let rebuilt = LshIndex::<SimpleAlshFamily>::from_raw_parts(
            index.bank().clone(),
            index.tables().to_vec(),
            index.params(),
            index.len(),
        )
        .unwrap();
        for q in &data[..5] {
            assert_eq!(
                index.query_candidates(q).unwrap(),
                rebuilt.query_candidates(q).unwrap()
            );
        }
        // Validation: mismatched table count and wrong entry totals are rejected.
        assert!(LshIndex::<SimpleAlshFamily>::from_raw_parts(
            index.bank().clone(),
            index.tables()[..3].to_vec(),
            index.params(),
            index.len(),
        )
        .is_err());
        assert!(LshIndex::<SimpleAlshFamily>::from_raw_parts(
            index.bank().clone(),
            index.tables().to_vec(),
            index.params(),
            index.len() + 1,
        )
        .is_err());
    }

    #[test]
    fn renumbering_equals_a_build_under_the_new_ids() {
        let dim = 8;
        let fam = SimpleAlshFamily::new(dim, 1.0, 1).unwrap();
        let data: Vec<DenseVector> = {
            let mut rng = StdRng::seed_from_u64(98);
            (0..40)
                .map(|_| random_ball_vector(&mut rng, dim, 1.0).unwrap())
                .collect()
        };
        let params = IndexParams { k: 3, l: 5 };
        // Same seed, same functions: only the ids and the point set differ.
        let build = |points: &[DenseVector]| {
            LshIndex::build(&fam, params, points, &mut StdRng::seed_from_u64(99)).unwrap()
        };
        let dead = [3usize, 7, 8, 39];
        let survivors: Vec<usize> = (0..data.len()).filter(|i| !dead.contains(i)).collect();
        let removed = || {
            let mut index = build(&data);
            for &i in &dead {
                assert!(index.remove(i as u32, &data[i]).unwrap());
            }
            index
        };

        // Closing the gaps keeps every bucket's order: no sort, same tables.
        let mut closed = vec![u32::MAX; data.len()];
        for (new, &old) in survivors.iter().enumerate() {
            closed[old] = new as u32;
        }
        let mut index = removed();
        index.renumber(&closed).unwrap();
        let kept: Vec<DenseVector> = survivors.iter().map(|&i| data[i].clone()).collect();
        assert_eq!(index.tables(), build(&kept).tables());
        assert_eq!(index.len(), kept.len());

        // Names with gaps between them keep the order too: the tables of the same
        // points inserted one by one under those ids.
        let spread: Vec<u32> = closed.iter().map(|&to| to.saturating_mul(2)).collect();
        let mut index = removed();
        index.renumber(&spread).unwrap();
        let mut inserted = build(&[]);
        for (id, p) in (0..).step_by(2).zip(&kept) {
            inserted.insert(id, p).unwrap();
        }
        assert_eq!(index.tables(), inserted.tables());
    }

    #[test]
    fn renumber_refuses_a_map_that_reorders_or_drops_an_id_before_anything_moves() {
        let dim = 8;
        let fam = SimpleAlshFamily::new(dim, 1.0, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(97);
        let data: Vec<DenseVector> = (0..30)
            .map(|_| random_ball_vector(&mut rng, dim, 1.0).unwrap())
            .collect();
        let params = IndexParams { k: 3, l: 4 };
        let mut index = LshIndex::build(&fam, params, &data[..20], &mut rng).unwrap();
        // An overlay and a tombstone in every table: the state a fold would change.
        for (id, p) in (20..).zip(&data[20..]) {
            index.insert(id, p).unwrap();
        }
        assert!(index.remove(4, &data[4]).unwrap());
        let mut closed: Vec<u32> = (0..30).map(|id| id - u32::from(id > 4)).collect();
        closed[4] = u32::MAX;
        let mut swapped = closed.clone();
        swapped.swap(7, 8);
        let mut dropped = closed.clone();
        dropped[12] = u32::MAX;
        let before = index.tables().to_vec();
        for refused in [&swapped[..], &dropped[..], &closed[..25]] {
            assert!(index.renumber(refused).is_err());
            assert_eq!(index.tables(), before);
        }
        index.renumber(&closed).unwrap();
        assert_ne!(index.tables(), before);
    }

    #[test]
    fn probe_lookup_is_a_superset_and_identical_at_zero() {
        let mut rng = StdRng::seed_from_u64(97);
        let dim = 12;
        let fam = SimpleAlshFamily::new(dim, 1.0, 1).unwrap();
        let data: Vec<DenseVector> = (0..120)
            .map(|_| random_ball_vector(&mut rng, dim, 1.0).unwrap())
            .collect();
        let index = LshIndex::build(&fam, IndexParams { k: 6, l: 8 }, &data, &mut rng).unwrap();
        let mut grew = false;
        for q in &data[..10] {
            let classical = index.query_candidates(q).unwrap();
            assert_eq!(index.probe_lookup(q, 0).unwrap(), classical);
            let mut previous = classical;
            for probes in [1usize, 2, 4, 8] {
                let probed = index.probe_lookup(q, probes).unwrap();
                assert!(previous.iter().all(|id| probed.contains(id)));
                grew |= probed.len() > previous.len();
                previous = probed;
            }
        }
        assert!(grew, "probing never found an extra candidate");
    }

    #[test]
    #[should_panic(expected = "files into an empty index")]
    fn extend_blocks_refuses_an_index_that_holds_points() {
        let mut rng = StdRng::seed_from_u64(95);
        let fam = SymmetricAsAsymmetric(HyperplaneFamily::single_bit(4).unwrap());
        let data = vec![DenseVector::from(&[0.5, 0.5, 0.5, 0.5][..])];
        let params = IndexParams { k: 2, l: 3 };
        let mut index = LshIndex::build(&fam, params, &data, &mut rng).unwrap();
        let _ = index.extend_blocks(
            Schedule::new(BUILD_BLOCK),
            1,
            1,
            |_| (),
            |hasher, _, (), keys| hasher.data_keys([Point::from(&data[0])], keys),
            |_| (),
        );
    }

    #[test]
    fn refile_splits_merged_buckets_into_the_tables_of_a_build() {
        let mut rng = StdRng::seed_from_u64(41);
        let family = SymmetricAsAsymmetric(HyperplaneFamily::new(6, 2).unwrap());
        let data: Vec<DenseVector> = (0..40)
            .map(|_| random_unit_vector(&mut rng, 6).unwrap())
            .collect();
        let params = IndexParams { k: 3, l: 2 };
        let built = LshIndex::build(&family, params, &data, &mut rng).unwrap();
        // Every table one bucket of every id in order: the coarsest keys the signs
        // could have been filed under.
        let merged = || Table::from_parts(vec![0], vec![0], (0..40).collect()).unwrap();
        let tables = vec![merged(), merged()];
        let mut index: LshIndex<SymmetricAsAsymmetric<HyperplaneFamily>> =
            LshIndex::from_raw_parts(built.bank().clone(), tables, params, 40).unwrap();
        index
            .refile(data.len(), |hasher, keys| {
                hasher.data_keys(data.iter().map(Point::from), keys)
            })
            .unwrap();
        assert_eq!(index.tables(), built.tables());
        // A stored id the keys have no room for is refused before anything is hashed.
        let refused = index.refile(39, |_, _| -> Result<()> { panic!("hashed") });
        assert!(refused.is_err());
    }

    #[test]
    fn params_accessor_roundtrips() {
        let mut rng = StdRng::seed_from_u64(94);
        let fam = SymmetricAsAsymmetric(HyperplaneFamily::single_bit(4).unwrap());
        let data = vec![DenseVector::from(&[0.5, 0.5, 0.5, 0.5][..])];
        let params = IndexParams { k: 2, l: 3 };
        let index = LshIndex::build(&fam, params, &data, &mut rng).unwrap();
        assert_eq!(index.params(), params);
    }
}

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
//! one place for a vector's `L` bucket keys. For a family that provides a
//! [`PlaneBank`] ([`AsymmetricLshFamily::plane_bank`]: SIMPLE-ALSH and the symmetric
//! hyperplane family) that place is the bank's kernel: the vector is embedded once and
//! all `k·L` hyperplane margins come from one pass over the coordinate-major
//! coefficients, with keys bit-identical to the per-function walk. Any other family
//! (e.g. MH-ALSH) is hashed function by function through its trait implementation.
//! The index holds exactly one of the two representations; see [`crate::bank`].
//! A point arrives as a `&DenseVector` or — at a banked index — as a [`SparseImage`]
//! (`impl Into<Point>` throughout): same keys as the dense vector the image stands
//! for, for the rows it names only.
//! The kernel's buffers are reused: `insert` / `remove` hash through a scratch the
//! index owns, the `&self` lookups through one per thread.
//!
//! **Building.** A build is the one operation that hashes many points at once, and it
//! does so block by block ([`LshIndex::extend_blocks`]): threads claim blocks of
//! [`BUILD_BLOCK`] points through the workspace's block driver
//! ([`ips_linalg::par::pipeline`]) and hash each through the bank's block kernel into
//! a key buffer the calling thread owns; the calling thread files each block's keys
//! into the tables **in id order**, while the others hash on. A bucket's contents and
//! order depend only on which ids hash to it and on the order they are filed in, so
//! the tables are those of inserting the points one by one — at any thread count and
//! block size — and with them everything derived from the tables, snapshot bytes
//! included. Filing on the calling thread is also what keeps every bucket in *its*
//! allocator arena: a table filled by a worker thread lives in that worker's arena,
//! whose pages stay resident after the worker is gone. One thread runs the same code
//! with no spawn.
//!
//! The index is *dynamic*: [`LshIndex::insert`] and [`LshIndex::remove`] maintain the
//! `L` tables incrementally (hashing the point with each table's stored function), so a
//! long-lived serving process can mutate an index without rebuilding it; and it is
//! *persistable*: [`LshIndex::functions`] / [`LshIndex::tables`] /
//! [`LshIndex::from_raw_parts`] expose exactly the state a snapshot needs to restore an
//! index bit-identically (same sampled functions, same buckets, same query results).

use crate::amplify::{AndConstruction, AndFunction};
#[cfg(doc)]
use crate::bank::SparseImage;
use crate::bank::{BankScratch, PlaneBank, Point, Side};
use crate::error::{LshError, Result};
use crate::probe::ProbeSequence;
use crate::traits::{AsymmetricHashFunction, AsymmetricLshFamily};
use ips_linalg::par::{pipeline, Schedule};
use ips_linalg::DenseVector;
use rand::Rng;
use std::cell::RefCell;
use std::collections::HashMap;
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

/// The `L` sampled composite functions in the one form the index evaluates them in.
enum Hasher<F: AsymmetricLshFamily> {
    /// Hyperplane families: every normal in one coordinate-major bank.
    Bank(PlaneBank),
    /// Every other family: the functions as sampled.
    Functions(Vec<AndFunction<F::Function>>),
}

impl<F: AsymmetricLshFamily> Hasher<F> {
    fn new(functions: Vec<AndFunction<F::Function>>) -> Result<Self> {
        Ok(match F::plane_bank(&functions)? {
            Some(bank) => Self::Bank(bank),
            None => Self::Functions(functions),
        })
    }

    /// `tables` composites drawn from `composite`, in table order. A banked family's
    /// go into the bank one table at a time (see [`PlaneBank::sampled`]): same draws
    /// in the same order as collecting them first, half the memory.
    fn sampled<R: Rng + ?Sized>(
        composite: &AndConstruction<F>,
        tables: usize,
        rng: &mut R,
    ) -> Result<Self> {
        let first = composite.sample(rng)?;
        if !first.functions().iter().all(|f| F::bank_parts(f).is_some()) {
            let rest = (1..tables).map(|_| composite.sample(rng));
            let functions = std::iter::once(Ok(first)).chain(rest);
            return Ok(Self::Functions(functions.collect::<Result<_>>()?));
        }
        let mut first = Some(first);
        let bank = PlaneBank::sampled(
            tables,
            || first.take().map_or_else(|| composite.sample(rng), Ok),
            |f| F::bank_parts(f).expect("a banked family banks every function"),
        )?;
        Ok(Self::Bank(bank))
    }

    /// The `L` bucket keys of the point into `buffers.keys`, every one computed
    /// before the caller sees any — so a dimension or domain error leaves nothing
    /// half-done.
    fn keys_into(&self, side: Side, point: Point<'_>, buffers: &mut KeyBuffers) -> Result<()> {
        let KeyBuffers { scratch, keys } = buffers;
        keys.clear();
        keys.resize(self.tables(), 0);
        self.block_keys(side, [point], scratch, keys)
    }

    /// The bucket keys of a block of points, point-major (`L` per point) — for a bank,
    /// [`PlaneBank::block_keys`]; for any other family, function by function.
    fn block_keys<'a>(
        &self,
        side: Side,
        points: impl IntoIterator<Item = Point<'a>>,
        scratch: &mut BankScratch,
        keys: &mut [u64],
    ) -> Result<()> {
        let functions = match self {
            Self::Bank(bank) => return bank.block_keys(side, points, scratch, keys),
            Self::Functions(functions) => functions,
        };
        for (point, keys) in points
            .into_iter()
            .zip(keys.chunks_exact_mut(functions.len()))
        {
            let Point::Dense(v) = point else {
                return Err(not_banked());
            };
            for (key, f) in keys.iter_mut().zip(functions) {
                *key = match side {
                    Side::Data => f.hash_data(v)?,
                    Side::Query => f.hash_query(v)?,
                };
            }
        }
        Ok(())
    }

    fn tables(&self) -> usize {
        match self {
            Self::Bank(bank) => bank.tables(),
            Self::Functions(functions) => functions.len(),
        }
    }

    /// A kernel scratch at its full size, so that hashing through it allocates nothing.
    fn scratch(&self) -> BankScratch {
        match self {
            Self::Bank(bank) => bank.scratch(),
            Self::Functions(_) => BankScratch::default(),
        }
    }
}

/// The hashing half of an index, as a build worker sees it (see
/// [`LshIndex::extend_blocks`]): the functions, shared and read-only, and a kernel
/// scratch of the worker's own. Good for the data side only.
pub struct BlockHasher<'a, F: AsymmetricLshFamily> {
    hasher: &'a Hasher<F>,
    scratch: &'a mut BankScratch,
}

impl<F: AsymmetricLshFamily> BlockHasher<'_, F> {
    /// The data-side bucket keys of a block of points, point-major: point `i`'s `L`
    /// keys are `keys[i·L..(i+1)·L]`, which must be exactly the slots given. Fails with
    /// the error of the first point the family refuses.
    pub fn data_keys<'p>(
        &mut self,
        points: impl IntoIterator<Item = Point<'p>>,
        keys: &mut [u64],
    ) -> Result<()> {
        self.hasher
            .block_keys(Side::Data, points, self.scratch, keys)
    }
}

/// What a family hashed function by function answers to a [`SparseImage`].
fn not_banked() -> LshError {
    LshError::InvalidParameter {
        name: "image",
        reason: "only a family hashed through a plane bank takes a sparse image".into(),
    }
}

/// A multi-table LSH index over data vectors, generic over any asymmetric family.
pub struct LshIndex<F: AsymmetricLshFamily> {
    hasher: Hasher<F>,
    tables: Vec<HashMap<u64, Vec<u32>>>,
    params: IndexParams,
    len: usize,
    /// What `insert` and `remove` hash through.
    buffers: KeyBuffers,
}

impl<F: AsymmetricLshFamily + Clone> LshIndex<F> {
    /// Builds an index over `data` using `params.l` tables of `params.k`-wise composite
    /// functions sampled from `family`, hashing on every available CPU
    /// ([`LshIndex::build_scheduled`] with the default [`Schedule`]).
    pub fn build<R: Rng + ?Sized>(
        family: &F,
        params: IndexParams,
        data: &[DenseVector],
        rng: &mut R,
    ) -> Result<Self>
    where
        F::Function: Sync,
    {
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
    ) -> Result<Self>
    where
        F::Function: Sync,
    {
        if params.l == 0 {
            return Err(LshError::InvalidParameter {
                name: "l",
                reason: "index needs at least one table".into(),
            });
        }
        if data.len() > u32::MAX as usize {
            return Err(LshError::InvalidParameter {
                name: "data",
                reason: "index supports at most 2^32 - 1 points".into(),
            });
        }
        let composite = AndConstruction::new(family.clone(), params.k)?;
        let mut index = Self {
            hasher: Hasher::sampled(&composite, params.l, rng)?,
            tables: vec![HashMap::new(); params.l],
            params,
            len: 0,
            buffers: KeyBuffers::default(),
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

    /// Files `count` more points under the ids `first_id..first_id + count`, hashing
    /// them a block at a time on `schedule.threads` threads — the one entry point
    /// behind every build.
    ///
    /// The points travel through [`ips_linalg::par::pipeline`] in blocks of
    /// `schedule.block`. `hash(hasher, positions, state, keys)` runs on any thread: it
    /// names the points at `positions` (within `0..count`) to the [`BlockHasher`],
    /// which writes their keys into `keys`; `state` is the thread's own, for whatever
    /// `hash` has to compute on the way. Then, **on the calling thread and in id
    /// order**, the block's keys are filed into the tables and `filed(positions)` is
    /// called. So the tables — which buckets exist, and the order of the ids in each —
    /// are those of inserting the points one after another, at every thread count and
    /// block size, and everything that outlives the call (bucket lists here; whatever
    /// `filed` keeps) is allocated by the calling thread. The threads write into what
    /// the caller owns and allocated up front: the key buffer — a ring of
    /// [`Schedule::ring`] blocks of `block × L` keys — and, per thread, a kernel
    /// scratch and a state, `thread_state(points)` making one for blocks of up to
    /// `points` points, sized so that `hash` need not grow it.
    ///
    /// A point the family refuses fails the call with the error inserting it alone
    /// would give — the lowest such point's, whichever block it is in. Points of
    /// earlier blocks stay filed; a build drops the index.
    pub fn extend_blocks<T: Send, E: Send>(
        &mut self,
        schedule: Schedule,
        first_id: u32,
        count: usize,
        thread_state: impl Fn(usize) -> T,
        hash: impl Fn(
                &mut BlockHasher<'_, F>,
                Range<usize>,
                &mut T,
                &mut [u64],
            ) -> std::result::Result<(), E>
            + Sync,
        mut filed: impl FnMut(Range<usize>),
    ) -> std::result::Result<(), E>
    where
        F::Function: Sync,
    {
        assert!(
            count <= (u32::MAX - first_id) as usize,
            "ids {first_id}.. of {count} points overflow the id space"
        );
        if count == 0 {
            return Ok(());
        }
        let Self { hasher, tables, .. } = self;
        let hasher = &*hasher;
        let (block, l) = (schedule.block.clamp(1, count), tables.len());
        let blocks = count.div_ceil(block);
        let mut locals: Vec<(BankScratch, T)> = (0..schedule.threads.clamp(1, blocks))
            .map(|_| (hasher.scratch(), thread_state(block)))
            .collect();
        let mut keys = vec![0u64; schedule.ring().min(blocks) * block * l];
        let mut ring: Vec<(Range<usize>, &mut [u64])> = keys
            .chunks_mut(block * l)
            .map(|keys| (0..0, keys))
            .collect();
        pipeline(
            &mut locals,
            &mut ring,
            |k, (positions, _)| {
                *positions = (k * block).min(count)..((k + 1) * block).min(count);
                Ok(positions.start < positions.end)
            },
            |(scratch, state), _, (positions, keys)| {
                let mut hasher = BlockHasher { hasher, scratch };
                let keys = &mut keys[..positions.len() * l];
                hash(&mut hasher, positions.clone(), state, keys)
            },
            |_, (positions, keys)| {
                // A table at a time, so that a block's entries meet a warm table, and
                // a run of consecutive points under one key — on concentrated data,
                // most of a block — with one lookup. Ids ascend either way.
                let id = |position: usize| first_id + position as u32;
                let (start, points) = (positions.start, positions.len());
                for (t, table) in tables.iter_mut().enumerate() {
                    let key = |i: usize| keys[i * l + t];
                    let mut run = 0;
                    while run < points {
                        let after = (run + 1..points).find(|&i| key(i) != key(run));
                        let after = after.unwrap_or(points);
                        let bucket = table.entry(key(run)).or_default();
                        bucket.extend(id(start + run)..id(start + after));
                        run = after;
                    }
                }
                filed(positions.clone());
                Ok(())
            },
        )?;
        self.len += count;
        Ok(())
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
        LOOKUP_BUFFERS.with_borrow_mut(|buffers| {
            self.hasher.keys_into(Side::Query, q, buffers)?;
            let buckets = self.tables.iter().zip(&buffers.keys);
            Ok(sorted_candidates(
                buckets.filter_map(|(table, key)| table.get(key)),
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
    /// dense vector the image stands for; only an index hashed through a plane bank
    /// without an embedding takes one.
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
    pub fn probe_lookup<'p>(&self, q: impl Into<Point<'p>>, probes: usize) -> Result<Vec<usize>>
    where
        <AndConstruction<F> as AsymmetricLshFamily>::Function: ProbeSequence,
    {
        let q = q.into();
        if probes == 0 {
            return self.home_candidates(q);
        }
        let sequences = match (&self.hasher, q) {
            (Hasher::Bank(bank), q) => Self::bank_probe_keys(bank, q, probes)?,
            (Hasher::Functions(functions), Point::Dense(q)) => functions
                .iter()
                .map(|f| f.probe_query(q, probes))
                .collect::<Result<Vec<_>>>()?,
            (Hasher::Functions(_), Point::Sparse(_)) => return Err(not_banked()),
        };
        Ok(self.probed_candidates(&sequences))
    }

    fn bank_probe_keys(bank: &PlaneBank, q: Point<'_>, probes: usize) -> Result<Vec<Vec<u64>>> {
        LOOKUP_BUFFERS.with_borrow_mut(|buffers| bank.probe_keys(q, probes, &mut buffers.scratch))
    }

    fn probed_candidates(&self, sequences: &[Vec<u64>]) -> Vec<usize> {
        let buckets = self.tables.iter().zip(sequences);
        sorted_candidates(
            buckets.flat_map(|(table, sequence)| sequence.iter().filter_map(|key| table.get(key))),
        )
    }

    /// Total number of stored (bucket, point) entries across all tables — a proxy for
    /// the index's memory footprint used by the benchmarks.
    pub fn stored_entries(&self) -> usize {
        self.tables
            .iter()
            .map(|t| t.values().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// The `L` sampled composite functions, in table order (persistence accessor).
    ///
    /// Owned, not borrowed: a hyperplane family's functions live in the index only as
    /// its [`PlaneBank`] and are scattered back out here, bit for bit.
    pub fn functions(&self) -> Vec<AndFunction<F::Function>>
    where
        F::Function: Clone,
    {
        match &self.hasher {
            Hasher::Bank(bank) => F::functions_of_bank(bank)
                .expect("a family that banks its functions also rebuilds them"),
            Hasher::Functions(functions) => functions.clone(),
        }
    }

    /// The `L` hash tables, in table order (persistence accessor). Each maps a bucket
    /// key to the point ids stored under it, in insertion order.
    pub fn tables(&self) -> &[HashMap<u64, Vec<u32>>] {
        &self.tables
    }

    /// Reassembles an index from previously extracted state — the inverse of
    /// [`LshIndex::functions`] / [`LshIndex::tables`] / [`LshIndex::params`], used by
    /// snapshot persistence to restore an index without re-sampling its functions.
    ///
    /// `len` is the number of *distinct* points stored (each point appears once per
    /// table). Everything a later query would otherwise trip over is rejected here
    /// with [`LshError::InvalidParameter`]: function and table counts that disagree
    /// with each other or with `params.l`, a function that does not concatenate
    /// exactly `params.k` components, a table whose entry count differs from `len`,
    /// and — for a family hashed through a [`PlaneBank`] — components that disagree on
    /// embedding, plane count or plane dimension (see [`PlaneBank::from_functions`]).
    pub fn from_raw_parts(
        functions: Vec<AndFunction<F::Function>>,
        tables: Vec<HashMap<u64, Vec<u32>>>,
        params: IndexParams,
        len: usize,
    ) -> Result<Self> {
        if functions.is_empty() || functions.len() != tables.len() || functions.len() != params.l {
            return Err(LshError::InvalidParameter {
                name: "functions/tables",
                reason: format!(
                    "need params.l = {} non-empty matching function and table lists, got {} and {}",
                    params.l,
                    functions.len(),
                    tables.len()
                ),
            });
        }
        if let Some(f) = functions.iter().find(|f| f.functions().len() != params.k) {
            return Err(LshError::InvalidParameter {
                name: "functions",
                reason: format!(
                    "a function concatenates {} components, params.k = {}",
                    f.functions().len(),
                    params.k
                ),
            });
        }
        for table in &tables {
            let entries: usize = table.values().map(Vec::len).sum();
            if entries != len {
                return Err(LshError::InvalidParameter {
                    name: "tables",
                    reason: format!("table holds {entries} entries for a length-{len} index"),
                });
            }
        }
        Ok(Self {
            hasher: Hasher::new(functions)?,
            tables,
            params,
            len,
            buffers: KeyBuffers::default(),
        })
    }

    /// Inserts a point under id `id`, hashing it into every table with that table's
    /// stored function — the dynamic-maintenance half of the serving layer. A point
    /// given as a [`SparseImage`] is filed where the dense vector it stands for would
    /// go; only an index hashed through a plane bank without an embedding takes one.
    ///
    /// The caller owns the id space; inserting an id that is already present stores it
    /// twice and is a logic error.
    pub fn insert<'p>(&mut self, id: u32, p: impl Into<Point<'p>>) -> Result<()> {
        self.insert_point(id, p.into())
    }

    fn insert_point(&mut self, id: u32, p: Point<'_>) -> Result<()> {
        // Every key before any table is touched, so a domain or dimension error
        // cannot leave the point half-inserted.
        self.hasher.keys_into(Side::Data, p, &mut self.buffers)?;
        for (table, &key) in self.tables.iter_mut().zip(&self.buffers.keys) {
            table.entry(key).or_default().push(id);
        }
        self.len += 1;
        Ok(())
    }

    /// Removes the point stored under id `id`, locating its bucket in each table by
    /// re-hashing the point `p` it was inserted with.
    ///
    /// Returns `true` when the id was found (in any table) and removed. Buckets left
    /// empty are dropped, so a remove exactly undoes the matching insert.
    pub fn remove<'p>(&mut self, id: u32, p: impl Into<Point<'p>>) -> Result<bool> {
        self.remove_point(id, p.into())
    }

    fn remove_point(&mut self, id: u32, p: Point<'_>) -> Result<bool> {
        self.hasher.keys_into(Side::Data, p, &mut self.buffers)?;
        let mut removed = false;
        for (table, bucket) in self.tables.iter_mut().zip(&self.buffers.keys) {
            if let Some(ids) = table.get_mut(bucket) {
                if let Some(pos) = position_of(ids, id) {
                    ids.remove(pos);
                    removed = true;
                }
                if ids.is_empty() {
                    table.remove(bucket);
                }
            }
        }
        if removed {
            self.len -= 1;
        }
        Ok(removed)
    }

    /// Renames every stored id `i` to `new_id[i]` in place — what lets the owner of
    /// the id space close the gaps its removals left without hashing a single vector
    /// again (a point's bucket depends on the vector alone, never on its id).
    ///
    /// `new_id` must be injective on the stored ids. Buckets list ids in ascending
    /// order after a build or any sequence of ascending inserts; a bucket whose order
    /// the renaming breaks is sorted again, so the tables equal those of an index
    /// built over the same points under the new ids. A stored id outside `new_id` is
    /// rejected before any table is touched.
    pub fn renumber(&mut self, new_id: &[u32]) -> Result<()> {
        let stored = self.tables.iter().flat_map(|t| t.values().flatten());
        if let Some(id) = stored.into_iter().find(|&&id| id as usize >= new_id.len()) {
            return Err(LshError::InvalidParameter {
                name: "new_id",
                reason: format!("stored id {id} has no entry among {}", new_id.len()),
            });
        }
        for bucket in self.tables.iter_mut().flat_map(HashMap::values_mut) {
            for id in bucket.iter_mut() {
                *id = new_id[*id as usize];
            }
            if !bucket.is_sorted() {
                bucket.sort_unstable();
            }
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
fn sorted_candidates<'a>(buckets: impl Iterator<Item = &'a Vec<u32>>) -> Vec<usize> {
    let mut ids: Vec<u32> = buckets.flatten().copied().collect();
    ids.sort_unstable();
    ids.dedup();
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
            index.functions(),
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
            index.functions(),
            index.tables()[..3].to_vec(),
            index.params(),
            index.len(),
        )
        .is_err());
        assert!(LshIndex::<SimpleAlshFamily>::from_raw_parts(
            index.functions(),
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

        // A renaming that reverses the order has every bucket sorted again.
        let mut reversed = vec![u32::MAX; data.len()];
        for (new, &old) in survivors.iter().rev().enumerate() {
            reversed[old] = new as u32;
        }
        let mut index = removed();
        index.renumber(&reversed).unwrap();
        let kept: Vec<DenseVector> = survivors.iter().rev().map(|&i| data[i].clone()).collect();
        assert_eq!(index.tables(), build(&kept).tables());

        // An id with no new name is refused and nothing moves.
        let mut index = removed();
        let before = index.tables().to_vec();
        assert!(index.renumber(&closed[..20]).is_err());
        assert_eq!(index.tables(), before);
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
    fn params_accessor_roundtrips() {
        let mut rng = StdRng::seed_from_u64(94);
        let fam = SymmetricAsAsymmetric(HyperplaneFamily::single_bit(4).unwrap());
        let data = vec![DenseVector::from(&[0.5, 0.5, 0.5, 0.5][..])];
        let params = IndexParams { k: 2, l: 3 };
        let index = LshIndex::build(&fam, params, &data, &mut rng).unwrap();
        assert_eq!(index.params(), params);
    }
}

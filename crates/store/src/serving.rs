//! The long-lived serving layer: a loaded snapshot that answers query batches and
//! accepts incremental `insert` / `delete`, with per-index counters.
//!
//! A [`ServingIndex`] owns one [`AnyIndex`] (the *primary* structure) and hands out
//! **stable external ids**: the id returned by [`ServingIndex::insert`] stays valid
//! across every later mutation, rebuild and save/load cycle, which is what clients of
//! a long-lived service key their state on. Ids only grow: the index takes no id
//! below its `next_id` ([`ServingIndex::insert_with_id`]) and a snapshot's ids
//! ascend ([`Snapshot::with_ids`]), so the slots hold their ids in ascending order —
//! the order a fresh build gives — and an id's slot is a binary search away.
//!
//! # Mutation strategy per family
//!
//! * **ALSH / symmetric LSH** — true dynamic maintenance: inserts hash the new vector
//!   into every table with the functions sampled at build time, deletes remove it
//!   again (see [`ips_lsh::table::LshIndex::insert`]). Tombstoned slots still occupy
//!   memory, so when their fraction exceeds the rebuild threshold the index is
//!   compacted **in place**: the dead slots are dropped and the buckets renumbered,
//!   with no vector hashed again (see [`ips_core::LshOps::compact`]).
//! * **Brute force** — building *is* storing the vectors in ascending id order, so
//!   writes land where a build would put them: an insert, whose id is above every
//!   held one, appends its vector, and a delete takes its slot out. The index is
//!   after every write the one a fresh build over its live vectors gives; it never
//!   rebuilds (the threshold is irrelevant).
//! * **Sketch** — the Section 4.3 structure cannot absorb single-vector updates, so
//!   inserts go to a brute-scanned *overlay* and deletes *tombstone* the id (a
//!   tombstoned primary answer is suppressed, costing recall, never validity). When
//!   `(overlay + tombstones) / live` exceeds [`ServingConfig::rebuild_threshold`]
//!   (default 0.25) the structure is rebuilt over the live set.
//!
//! Rebuilds re-seed from [`ServingConfig::seed`] and an in-place compaction keeps the
//! functions that seed sampled, so a mutated-then-compacted index is *identical* to
//! one built fresh from the same live vectors with the same seed — down to the
//! snapshot bytes, the equivalence the insert/delete property tests pin down.
//!
//! Queries run through the existing [`JoinEngine`] (same chunking, work stealing and
//! result assembly as every join in the workspace) via [`ServingIndex::query`] /
//! [`ServingIndex::query_top_k`], and results carry external ids.
//!
//! Construction and loading are usually spelled through the fluent
//! [`crate::builder::Index`] facade (`Index::build(data).spec(s).strategy(…).serve()` /
//! `Index::open(path).serve()`), which resolves a strategy — including the
//! planner-consulting `Auto` — into the [`IndexConfig`] + [`ServingConfig`] pair the
//! constructors below take; the direct constructors stay public for callers that
//! already hold those configs.

use crate::error::{Result, StoreError};
use crate::snapshot::{AnyIndex, IndexFamily, Snapshot, SnapshotRef, ViewMut};
use ips_core::engine::{Ask, EngineConfig, JoinEngine};
use ips_core::mips::{BruteForceMipsIndex, MipsIndex, SearchResult, SketchMipsAdapter};
use ips_core::problem::{JoinSpec, MatchPair};
use ips_core::topk::BestPerQuery;
use ips_core::LshMips;
use ips_linalg::par::{available_threads, Schedule};
use ips_linalg::{score_block, DenseVector};
use ips_lsh::table::BUILD_BLOCK;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

pub use ips_core::IndexConfig;

/// Tuning of a [`ServingIndex`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingConfig {
    /// Schedule of the [`JoinEngine`] answering query batches.
    pub engine: EngineConfig,
    /// Rebuild when `(tombstoned + overlaid) / live` exceeds this fraction
    /// (brute has neither: it writes in place and never rebuilds).
    pub rebuild_threshold: f64,
    /// Seed for every build and rebuild, making maintenance reproducible.
    pub seed: u64,
    /// Extra query-directed probe buckets per LSH table (see [`ips_lsh::probe`]),
    /// applied to ALSH / symmetric primaries. `None` (the default) keeps
    /// whatever the loaded snapshot or the [`IndexConfig`] parameters carry;
    /// `Some(p)` overrides it at load time — and, because the override lands
    /// *before* the family configuration is extracted, every later rebuild,
    /// compaction and migration rebuild keeps probing at `p`. Brute and sketch
    /// primaries have no buckets to probe and ignore the override.
    pub probes: Option<usize>,
}

impl Default for ServingConfig {
    fn default() -> Self {
        Self {
            engine: EngineConfig::default(),
            rebuild_threshold: 0.25,
            seed: 0x1B5_5E4E,
            probes: None,
        }
    }
}

/// A point-in-time copy of a serving index's counters.
///
/// # Tearing model
///
/// Counters are recorded lock-free from concurrent sessions, so a snapshot
/// taken mid-query can lag the true totals. The tear is **consistent in one
/// direction**: the recording order is `queries → hits → query_ns` with
/// release stores, and a snapshot reads them back in the *reverse* order with
/// acquire loads — so any batch whose `hits` (or `query_ns`) contribution is
/// visible has its `queries` contribution visible too. Concretely: a snapshot
/// never shows an effect without its cause (`hits > queries` on a threshold
/// workload is impossible, and `avg_query_ns` never divides latency by a
/// query count that excludes the batch that produced it). Snapshots are exact
/// at quiescent points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServingStats {
    /// Query vectors answered.
    pub queries: u64,
    /// Pairs reported across all queries.
    pub hits: u64,
    /// Total wall-clock nanoseconds spent answering query batches.
    pub query_ns: u64,
    /// Vectors inserted.
    pub inserts: u64,
    /// Vectors deleted.
    pub deletes: u64,
    /// Primary-structure rebuilds performed: LSH compactions and sketch rebuilds
    /// (a brute index writes in place and never rebuilds).
    pub rebuilds: u64,
    /// Network connections accepted (0 unless served over TCP).
    pub connections: u64,
    /// Multi-request engine passes formed by the query coalescer (0 unless
    /// coalescing is enabled and concurrent requests actually merged).
    pub coalesced_batches: u64,
}

impl ServingStats {
    /// Mean nanoseconds per query vector (0 before the first query).
    pub fn avg_query_ns(&self) -> u64 {
        self.query_ns.checked_div(self.queries).unwrap_or(0)
    }
}

/// The relaxed-atomic counter block behind [`ServingStats`]: shared between
/// [`ServingIndex`] and the sharded layer so metric bumps never need a write lock
/// — queries hold shard *read* locks and still tick these.
#[derive(Default)]
pub(crate) struct Counters {
    queries: AtomicU64,
    hits: AtomicU64,
    query_ns: AtomicU64,
    inserts: AtomicU64,
    deletes: AtomicU64,
    rebuilds: AtomicU64,
    connections: AtomicU64,
    coalesced_batches: AtomicU64,
}

impl Counters {
    /// A point-in-time copy.
    ///
    /// The three query-path counters are read in the *reverse* of the order
    /// [`Counters::note_queries`] writes them (acquire loads against its
    /// release increments), which pins the tear direction: a batch whose
    /// `query_ns` or `hits` is visible always has its `queries` visible —
    /// see the [`ServingStats`] tearing-model docs. The remaining counters
    /// are independent facts and stay relaxed.
    pub(crate) fn snapshot(&self) -> ServingStats {
        let query_ns = self.query_ns.load(Ordering::Acquire);
        let hits = self.hits.load(Ordering::Acquire);
        let queries = self.queries.load(Ordering::Acquire);
        ServingStats {
            queries,
            hits,
            query_ns,
            inserts: self.inserts.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            rebuilds: self.rebuilds.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            coalesced_batches: self.coalesced_batches.load(Ordering::Relaxed),
        }
    }

    /// Ticks the query/hit/latency counters for one answered batch.
    ///
    /// Write order `queries → hits → query_ns` with release increments: a
    /// [`Counters::snapshot`] that observes a batch's later counter is
    /// guaranteed (by its reversed acquire reads) to observe the earlier
    /// ones, so snapshots never show hits or latency from an uncounted batch.
    pub(crate) fn note_queries(&self, queries: usize, hits: usize, start: Instant) {
        self.queries.fetch_add(queries as u64, Ordering::Release);
        self.hits.fetch_add(hits as u64, Ordering::Release);
        self.query_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Release);
    }

    /// Folds another counter block's mutation history (inserts, deletes,
    /// rebuilds) into this one — how the sharded layer keeps `stats()` totals
    /// intact when a strategy migration retires a shard whose replacement is
    /// empty (`None`) and so has no counter block to adopt them.
    pub(crate) fn absorb_mutations(&self, stats: &ServingStats) {
        self.inserts.fetch_add(stats.inserts, Ordering::Relaxed);
        self.deletes.fetch_add(stats.deletes, Ordering::Relaxed);
        self.rebuilds.fetch_add(stats.rebuilds, Ordering::Relaxed);
    }

    /// Ticks the accepted-connection counter (one accepted TCP session).
    pub(crate) fn note_connection(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Ticks the coalesced-batch counter (one engine pass that merged two or
    /// more concurrent requests).
    pub(crate) fn note_coalesced_batch(&self) {
        self.coalesced_batches.fetch_add(1, Ordering::Relaxed);
    }
}

/// A loaded, mutable, query-serving index with stable external ids.
pub struct ServingIndex {
    primary: AnyIndex,
    /// Slot → external id, for every primary slot (live or tombstoned), strictly
    /// ascending: every id the index takes is at or above `next_id`, so an id's slot
    /// is a binary search away.
    primary_ids: Vec<u64>,
    /// Sketch-family inserts not yet absorbed by a rebuild, ascending by id like
    /// every insert, and so above every primary id.
    overlay: Vec<(u64, DenseVector)>,
    /// Sketch-family deletes not yet absorbed by a rebuild.
    tombstones: HashSet<u64>,
    /// The lowest id the index may take: above every id it holds or has held.
    next_id: u64,
    dim: usize,
    spec: JoinSpec,
    index_config: IndexConfig,
    config: ServingConfig,
    counters: Counters,
}

/// Builds the structure `index_config` names over `data`. The LSH families hash on
/// `threads` workers — [`available_threads`] for a build that has the machine, `1` for
/// one that runs beside live traffic; the structure is the same either way.
pub(crate) fn build_index(
    data: Vec<DenseVector>,
    spec: JoinSpec,
    index_config: IndexConfig,
    seed: u64,
    threads: usize,
) -> Result<AnyIndex> {
    let mut rng = StdRng::seed_from_u64(seed);
    let schedule = Schedule::new(BUILD_BLOCK).with_threads(threads);
    Ok(match index_config {
        IndexConfig::Brute => AnyIndex::Brute(BruteForceMipsIndex::new(data, spec)),
        IndexConfig::Alsh(params) => {
            AnyIndex::Alsh(LshMips::build(schedule, &mut rng, data, spec, params)?)
        }
        IndexConfig::Symmetric(params) => {
            AnyIndex::Symmetric(LshMips::build(schedule, &mut rng, data, spec, params)?)
        }
        IndexConfig::Sketch(config) => {
            AnyIndex::Sketch(SketchMipsAdapter::build(&mut rng, data, spec, config)?)
        }
    })
}

/// Refuses a vector with a NaN or infinite coordinate, so no family ranks a score that
/// compares false with everything. The public entry points check here: the fresh
/// builds ([`ServingIndex::build`], `ShardedServingIndex::build`) and the inserts
/// ([`ServingIndex::insert_with_id`], `ShardedServingIndex::insert`). A snapshot's
/// decoder refuses such a vector too, so a rebuild does not check again.
pub(crate) fn finite(v: &DenseVector) -> Result<()> {
    match v.iter().find(|x| !x.is_finite()) {
        Some(x) => Err(StoreError::InvalidParameter {
            name: "v",
            reason: format!("non-finite coordinate `{x}`"),
        }),
        None => Ok(()),
    }
}

fn extract_index_config(index: &AnyIndex) -> IndexConfig {
    match index {
        AnyIndex::Brute(_) => IndexConfig::Brute,
        AnyIndex::Alsh(i) => IndexConfig::Alsh(i.params()),
        AnyIndex::Symmetric(i) => IndexConfig::Symmetric(i.params()),
        AnyIndex::Sketch(i) => IndexConfig::Sketch(i.inner().config()),
    }
}

impl ServingIndex {
    /// Builds a fresh index over `data` and wraps it for serving, numbering external
    /// ids `0..data.len()`.
    pub fn build(
        data: Vec<DenseVector>,
        spec: JoinSpec,
        index_config: IndexConfig,
        config: ServingConfig,
    ) -> Result<Self> {
        if data.is_empty() {
            return Err(StoreError::InvalidParameter {
                name: "data",
                reason: "a serving index needs at least one vector".into(),
            });
        }
        data.iter().try_for_each(finite)?;
        let primary = build_index(data, spec, index_config, config.seed, available_threads())?;
        Self::from_snapshot(Snapshot::new(primary), config)
    }

    /// Wraps a loaded [`Snapshot`] for serving.
    pub fn from_snapshot(snapshot: Snapshot, config: ServingConfig) -> Result<Self> {
        if !(config.rebuild_threshold > 0.0) {
            return Err(StoreError::InvalidParameter {
                name: "rebuild_threshold",
                reason: format!("must be positive, got {}", config.rebuild_threshold),
            });
        }
        let Snapshot {
            index: mut primary,
            ids: primary_ids,
            next_id,
        } = snapshot;
        // Apply the probes override *before* extracting the family config: the
        // extracted params seed every rebuild, so the override sticks across
        // compactions instead of silently reverting to the snapshot's value.
        if let (Some(probes), Some(index)) = (config.probes, primary.as_lsh_mut()) {
            index.set_probes(probes);
        }
        let dim = match primary.vector(0) {
            Some(v) => v.dim(),
            None => {
                return Err(StoreError::InvalidParameter {
                    name: "snapshot",
                    reason: "a serving index needs at least one vector".into(),
                })
            }
        };
        let index_config = extract_index_config(&primary);
        let spec = primary.spec();
        Ok(Self {
            primary,
            primary_ids,
            overlay: Vec::new(),
            tombstones: HashSet::new(),
            next_id,
            dim,
            spec,
            index_config,
            config,
            counters: Counters::default(),
        })
    }

    /// Loads a snapshot file and wraps it for serving.
    pub fn open(path: &Path, config: ServingConfig) -> Result<Self> {
        Self::from_snapshot(Snapshot::load(path)?, config)
    }

    /// Compacts pending state into the primary structure and writes a snapshot file,
    /// returning the number of bytes written. The saved snapshot preserves every
    /// live external id and the id allocator, so a reload continues exactly where
    /// this index stands.
    ///
    /// An index with **no live vectors cannot be saved**: the snapshot format
    /// carries the dimension through its vectors, and the non-brute structures
    /// cannot be rebuilt empty — a snapshot written in that state would either be
    /// unloadable (brute) or resurrect tombstoned vectors (sketch). The error is
    /// returned before anything is written; insert at least one vector first.
    pub fn save(&mut self, path: &Path) -> Result<u64> {
        let snapshot = self.compacted()?;
        crate::snapshot::save_atomically(path, |w| snapshot.write(w))
    }

    /// Compacts pending state and encodes the index as single-shard snapshot bytes —
    /// byte for byte what [`ServingIndex::save`] streams into its file. The same
    /// no-live-vectors restriction applies (see [`ServingIndex::save`]).
    pub fn snapshot_bytes(&mut self) -> Result<Vec<u8>> {
        let mut w = crate::format::ByteWriter::new();
        self.compacted()?.write(&mut w);
        Ok(w.into_bytes())
    }

    /// Compacts pending state and lends out what a snapshot of this index stores —
    /// the first half of every save, with everything that can fail in it, so that a
    /// save which starts writing has only I/O left to go wrong.
    pub(crate) fn compacted(&mut self) -> Result<SnapshotRef<'_>> {
        if self.is_empty() {
            return Err(StoreError::InvalidParameter {
                name: "serving",
                reason: "cannot snapshot an index with no live vectors; insert before saving"
                    .into(),
            });
        }
        self.compact()?;
        Ok(SnapshotRef {
            index: &self.primary,
            ids: &self.primary_ids,
            next_id: self.next_id,
        })
    }

    /// The index family being served.
    pub fn family(&self) -> IndexFamily {
        self.primary.family()
    }

    /// The `(cs, s)` spec queries are answered under.
    pub fn spec(&self) -> JoinSpec {
        self.spec
    }

    /// The data dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of live vectors.
    pub fn len(&self) -> usize {
        self.primary_live() + self.overlay.len()
    }

    /// Returns `true` when every vector has been deleted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The live external ids, ascending.
    pub fn ids(&self) -> Vec<u64> {
        let slots = self.primary_ids.iter().enumerate();
        let live = slots.filter(|&(slot, id)| self.is_live(slot, *id));
        let pending = self.overlay.iter().map(|(id, _)| *id);
        live.map(|(_, &id)| id).chain(pending).collect()
    }

    /// The vector behind a live external id.
    pub fn vector(&self, id: u64) -> Result<&DenseVector> {
        let vector = match self.slot_of(id) {
            Some(slot) => self.primary.vector(slot),
            None => self.overlay_position(id).map(|at| &self.overlay[at].1),
        };
        vector.ok_or(StoreError::UnknownId { id })
    }

    /// The primary slot of a live external id.
    fn slot_of(&self, id: u64) -> Option<usize> {
        let slot = self.primary_ids.binary_search(&id).ok()?;
        self.is_live(slot, id).then_some(slot)
    }

    /// Whether primary slot `slot`, which holds external id `id`, is live.
    fn is_live(&self, slot: usize, id: u64) -> bool {
        self.primary.is_live(slot) && !self.tombstones.contains(&id)
    }

    /// Where external id `id` stands in the overlay.
    fn overlay_position(&self, id: u64) -> Option<usize> {
        self.overlay.binary_search_by_key(&id, |(id, _)| *id).ok()
    }

    /// Live vectors in the primary structure.
    fn primary_live(&self) -> usize {
        self.primary.len() - self.tombstones.len()
    }

    /// What a compaction folds in: dead slots, tombstones and overlay entries.
    fn dirty(&self) -> usize {
        self.primary_ids.len() - self.primary_live() + self.overlay.len()
    }

    /// The family configuration this index was built with (what a rebuild re-builds).
    pub(crate) fn index_config(&self) -> IndexConfig {
        self.index_config
    }

    /// The next external id the internal allocator would hand out.
    pub(crate) fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Advances the internal allocator to at least `next` — used when a
    /// strategy migration swaps in a freshly built shard, whose allocator
    /// must match the sharded layer's global one (a fresh sharded build
    /// seeds every shard with the global value, so this keeps a migrated
    /// index bit-identical to that oracle and stops a later single-shard
    /// save/reload from regressing the allocator).
    pub(crate) fn raise_next_id(&mut self, next: u64) {
        self.next_id = self.next_id.max(next);
    }

    /// Overwrites this index's mutation counters (inserts, deletes, rebuilds)
    /// with another stats block's values. A migration replays the mutations
    /// that landed during its background build onto the replacement shard —
    /// mutations the retired shard already counted — so the replacement's
    /// counters are *set* to the retired shard's totals rather than summed.
    pub(crate) fn set_mutation_history(&mut self, stats: &ServingStats) {
        self.counters
            .inserts
            .store(stats.inserts, Ordering::Relaxed);
        self.counters
            .deletes
            .store(stats.deletes, Ordering::Relaxed);
        self.counters
            .rebuilds
            .store(stats.rebuilds, Ordering::Relaxed);
    }

    /// The two halves of the LSH two-step search, translated to external ids and left
    /// unfiltered — what the sharded merge layer
    /// ([`ips_core::shard::merge_two_step`]) needs from each shard of a family with a
    /// diagonal. Only meaningful for an LSH-family index (the caller dispatches on the
    /// family).
    pub(crate) fn search_parts(&self, query: &DenseVector) -> Result<ips_core::shard::ShardParts> {
        let Some(index) = self.primary.as_lsh() else {
            return Err(StoreError::InvalidParameter {
                name: "family",
                reason: format!(
                    "two-step search parts are an LSH notion, index is {}",
                    self.family()
                ),
            });
        };
        let translate = |hit: SearchResult| SearchResult {
            data_index: self.primary_ids[hit.data_index] as usize,
            inner_product: hit.inner_product,
        };
        let parts = index.search_parts(query)?;
        Ok(ips_core::shard::ShardParts {
            exact: parts.exact.map(translate),
            best: parts.best.map(translate),
        })
    }

    /// A point-in-time copy of the per-index counters.
    pub fn stats(&self) -> ServingStats {
        self.counters.snapshot()
    }

    /// Inserts a vector, returning its stable external id.
    pub fn insert(&mut self, v: DenseVector) -> Result<u64> {
        let id = self.next_id;
        self.insert_with_id(id, v)?;
        Ok(id)
    }

    /// Inserts a vector under a caller-assigned external id — the mutation-routing
    /// entry point of the sharded serving layer, whose ids come from a global
    /// allocator and so are assigned *outside* any one shard.
    ///
    /// The id must be at or above the internal allocator ([`ServingIndex::insert`]'s
    /// next id): every id the index holds or has held — live, pending, tombstoned or
    /// compacted away — is below it, so reusing an id, which would break the
    /// stable-external-id contract, is refused, and the ids of the slots ascend. The
    /// allocator is advanced past `id`.
    pub fn insert_with_id(&mut self, id: u64, v: DenseVector) -> Result<()> {
        if v.dim() != self.dim {
            return Err(StoreError::InvalidParameter {
                name: "v",
                reason: format!("dimension {} != index dimension {}", v.dim(), self.dim),
            });
        }
        finite(&v)?;
        if id < self.next_id {
            return Err(StoreError::InvalidParameter {
                name: "id",
                reason: format!(
                    "external id {id} is below the next free id {}",
                    self.next_id
                ),
            });
        }
        match self.primary.view_mut() {
            ViewMut::Lsh(index) => {
                let slot = index.insert(v)?;
                debug_assert_eq!(slot, self.primary_ids.len());
                self.primary_ids.push(id);
            }
            // Storing is all there is to building a brute index: the vector goes
            // where a build would put it, after every lower id.
            ViewMut::Brute(index) => {
                index.insert(self.primary_ids.len(), v);
                self.primary_ids.push(id);
            }
            ViewMut::Sketch => {
                self.overlay.push((id, v));
            }
        }
        self.next_id = id + 1;
        self.counters.inserts.fetch_add(1, Ordering::Relaxed);
        self.maybe_rebuild()?;
        Ok(())
    }

    /// Deletes the vector behind a live external id.
    pub fn delete(&mut self, id: u64) -> Result<()> {
        if let Some(at) = self.overlay_position(id) {
            self.overlay.remove(at);
            self.counters.deletes.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        let slot = self.slot_of(id).ok_or(StoreError::UnknownId { id })?;
        match self.primary.view_mut() {
            ViewMut::Lsh(index) => index.delete(slot)?,
            ViewMut::Brute(index) => {
                index.remove(slot);
                self.primary_ids.remove(slot);
            }
            ViewMut::Sketch => {
                self.tombstones.insert(id);
            }
        }
        self.counters.deletes.fetch_add(1, Ordering::Relaxed);
        self.maybe_rebuild()?;
        Ok(())
    }

    /// Answers a batch of `(cs, s)` above-threshold queries through the
    /// [`JoinEngine`] (one best partner per query at most, external ids in
    /// `data_index`), updating the query/hit/latency counters.
    pub fn query(&self, queries: &[DenseVector]) -> Result<Vec<MatchPair>> {
        self.answer(queries, Ask::Threshold)
    }

    /// Answers a batch of top-`k` queries through the [`JoinEngine`] (up to `k`
    /// partners per query, best first, external ids in `data_index`), updating the
    /// counters. For a sketch-family index the structure recovers at most one
    /// candidate per query, so fewer than `k` partners are expected.
    pub fn query_top_k(&self, queries: &[DenseVector], k: usize) -> Result<Vec<MatchPair>> {
        self.answer(queries, Ask::TopK(k))
    }

    /// The body of both queries: one engine pass over [`ServingView`], counted.
    fn answer(&self, queries: &[DenseVector], ask: Ask) -> Result<Vec<MatchPair>> {
        let start = Instant::now();
        let engine = JoinEngine::with_config(ServingView(self), self.config.engine);
        let pairs = engine.answer(queries, ask)?;
        self.counters
            .note_queries(queries.len(), pairs.len(), start);
        Ok(pairs)
    }

    /// Folds the pending overlay / tombstones / dead slots into the primary structure
    /// now, whatever the threshold says. After a compact, the index is identical to
    /// one built from its live vectors, in ascending id order, with
    /// [`ServingConfig::seed`] — down to its snapshot bytes.
    pub fn compact(&mut self) -> Result<()> {
        if self.dirty() == 0 {
            return Ok(());
        }
        self.rebuild()
    }

    fn maybe_rebuild(&mut self) -> Result<()> {
        let live = self.len().max(1);
        if self.dirty() as f64 / live as f64 > self.config.rebuild_threshold {
            return self.rebuild();
        }
        Ok(())
    }

    /// Folds the pending state — dead slots, overlay, tombstones — into the primary
    /// structure, leaving the index identical to one built from its live vectors in
    /// **ascending id order** with the configured seed: the order the slots already
    /// hold, since every id the index takes is above those it holds. With no live
    /// vectors left, the structures cannot be built (their constructors reject empty
    /// data), so pending state is kept and filtered at query time instead. A brute
    /// index has no pending state — it writes in place — so it never gets here.
    ///
    /// **ALSH / symmetric LSH compact in place** ([`LshOps::compact`]): a
    /// delete already took its slot out of every bucket, and the bucket of a vector
    /// is a function of the vector and the sampled functions alone, so the tables a
    /// fresh build would produce are the ones already held, under other slot numbers.
    /// The vectors and the id list close their gaps where they stand and the buckets
    /// are renamed in one pass — no vector is hashed, no table is allocated, and the
    /// write lock is held for that one pass. The functions stay the ones the index
    /// was built or loaded with (what [`ServingConfig::seed`] samples, whenever the
    /// index was built under that seed — and the ones the sibling shards hold in any
    /// case).
    ///
    /// **Sketch really rebuilds**: the vectors are moved, not copied, and the old
    /// structure is freed before its replacement is built, so a rebuild holds one
    /// index worth of memory, not two. The build cannot fail for vectors the index
    /// already holds — they passed the same constructor's checks under the same
    /// configuration. Should it fail all the same, the vectors went with it: the
    /// error is returned and the index is left empty (and consistent), not half-built.
    fn rebuild(&mut self) -> Result<()> {
        if self.is_empty() {
            return Ok(());
        }
        if let Some(index) = self.primary.as_lsh_mut() {
            // The slot → id list closes its gaps as the slots do: the live ones keep
            // their order.
            let mut slots = 0..;
            self.primary_ids
                .retain(|_| slots.next().is_some_and(|slot| index.is_live(slot)));
            index.compact()?;
        } else {
            let emptied = AnyIndex::Brute(BruteForceMipsIndex::new(Vec::new(), self.spec));
            let vectors = std::mem::replace(&mut self.primary, emptied).into_vectors();
            let slots = std::mem::take(&mut self.primary_ids)
                .into_iter()
                .zip(vectors);
            let tombstones = std::mem::take(&mut self.tombstones);
            let (ids, data): (Vec<u64>, Vec<DenseVector>) = slots
                .filter(|(id, _)| !tombstones.contains(id))
                .chain(std::mem::take(&mut self.overlay))
                .unzip();
            let threads = available_threads();
            self.primary = build_index(
                data,
                self.spec,
                self.index_config,
                self.config.seed,
                threads,
            )?;
            self.primary_ids = ids;
        }
        self.counters.rebuilds.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// A borrow of a [`ServingIndex`] that speaks [`MipsIndex`] with
/// **external ids** in `data_index`, merging the primary structure with the overlay
/// and suppressing tombstoned answers — the adapter [`ServingIndex::query`] feeds to
/// the [`JoinEngine`].
pub struct ServingView<'a>(pub &'a ServingIndex);

impl MipsIndex for ServingView<'_> {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn spec(&self) -> JoinSpec {
        self.0.spec
    }

    /// One batch body for both asks: the primary structure answers the whole batch
    /// (a brute primary in one data-major scan), its pairs go under their external ids
    /// with tombstoned ones dropped, the pending overlay is scored against the whole
    /// batch, and everything is folded into one best-`k` per query ([`BestPerQuery`];
    /// its best one under [`Ask::Threshold`]).
    fn answer(&self, queries: &[DenseVector], ask: Ask) -> ips_core::Result<Vec<MatchPair>> {
        let index = self.0;
        let spec = index.spec;
        let mut best = BestPerQuery::new(&spec, queries.len(), ask);
        // An all-deleted serving index answers misses rather than erroring like a
        // never-built index would: an empty live set is a legal serving state.
        if index.primary_live() > 0 {
            for pair in index.primary.answer(queries, ask)? {
                let id = index.primary_ids[pair.data_index];
                if !index.tombstones.contains(&id) {
                    let hit = SearchResult {
                        data_index: id as usize,
                        inner_product: pair.inner_product,
                    };
                    best.offer(pair.query_index, hit);
                }
            }
        }
        let rows = index.overlay.iter().map(|(id, v)| (*id as usize, v));
        score_block(rows, queries, |data_index, j, inner_product| {
            if spec.acceptable(inner_product) {
                let hit = SearchResult {
                    data_index,
                    inner_product,
                };
                best.offer(j, hit);
            }
        })?;
        Ok(best.into_pairs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::{ShardedConfig, ShardedServingIndex};
    use ips_core::asymmetric::AlshParams;
    use ips_core::problem::JoinVariant;
    use ips_core::symmetric::SymmetricParams;
    use ips_linalg::random::{random_ball_vector, random_unit_vector};
    use ips_sketch::linf_mips::MaxIpConfig;

    fn vectors(seed: u64, n: usize, dim: usize, scale: f64) -> Vec<DenseVector> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                random_ball_vector(&mut rng, dim, 1.0)
                    .unwrap()
                    .scaled(scale)
            })
            .collect()
    }

    fn spec() -> JoinSpec {
        JoinSpec::new(0.7, 0.6, JoinVariant::Signed).unwrap()
    }

    #[test]
    fn serving_lifecycle_across_families() {
        let dim = 12;
        let data = vectors(0x11, 80, dim, 0.2);
        let mut rng = StdRng::seed_from_u64(0x12);
        let query = random_unit_vector(&mut rng, dim).unwrap();
        for index_config in [
            IndexConfig::Brute,
            IndexConfig::Alsh(AlshParams::default()),
            IndexConfig::Symmetric(SymmetricParams::default()),
            IndexConfig::Sketch(MaxIpConfig {
                kappa: 2.0,
                copies: 11,
                rows: None,
            }),
        ] {
            let mut serving =
                ServingIndex::build(data.clone(), spec(), index_config, ServingConfig::default())
                    .unwrap();
            assert_eq!(serving.family(), index_config.family());
            assert_eq!(serving.len(), 80);
            assert!(!serving.is_empty());
            assert_eq!(serving.dim(), dim);
            // Background is far below cs: no hit.
            assert!(
                serving
                    .query(std::slice::from_ref(&query))
                    .unwrap()
                    .is_empty(),
                "{:?}",
                serving.family()
            );
            // Insert a strong partner: every family must now find it.
            let id = serving.insert(query.scaled(0.9)).unwrap();
            assert_eq!(id, 80);
            let pairs = serving.query(std::slice::from_ref(&query)).unwrap();
            assert_eq!(pairs.len(), 1, "{:?}", serving.family());
            assert_eq!(pairs[0].data_index as u64, id);
            assert!(pairs[0].inner_product >= 0.7 * 0.6 - 1e-9);
            // Top-k returns it too, through the engine.
            let top = serving
                .query_top_k(std::slice::from_ref(&query), 3)
                .unwrap();
            assert!(top.iter().any(|p| p.data_index as u64 == id));
            // Delete it: back to a miss, for every family (sketch via tombstone).
            serving.delete(id).unwrap();
            assert!(serving
                .query(std::slice::from_ref(&query))
                .unwrap()
                .is_empty());
            assert!(serving.delete(id).is_err(), "double delete must fail");
            assert!(serving.delete(9999).is_err());
            // Counters track all of it.
            let stats = serving.stats();
            assert_eq!(stats.queries, 4);
            assert_eq!(stats.inserts, 1);
            assert_eq!(stats.deletes, 1);
            assert!(stats.hits >= 2);
            assert!(stats.query_ns > 0);
            assert!(stats.avg_query_ns() > 0);
            assert_eq!(serving.len(), 80);
            assert_eq!(serving.ids(), (0..80).collect::<Vec<u64>>());
            // Dimension mismatches are rejected.
            assert!(serving.insert(DenseVector::zeros(dim + 1)).is_err());
        }
    }

    #[test]
    fn compacted_index_matches_fresh_build() {
        let dim = 10;
        let data = vectors(0x21, 60, dim, 0.9);
        let config = ServingConfig::default();
        for index_config in [
            IndexConfig::Brute,
            IndexConfig::Alsh(AlshParams::default()),
            IndexConfig::Sketch(MaxIpConfig::default()),
        ] {
            let mut serving =
                ServingIndex::build(data.clone(), spec(), index_config, config).unwrap();
            // Delete some, insert some.
            for id in [3u64, 17, 42] {
                serving.delete(id).unwrap();
            }
            let extra = vectors(0x22, 5, dim, 0.9);
            for v in extra.clone() {
                serving.insert(v).unwrap();
            }
            serving.compact().unwrap();
            // Fresh build over the same final vector sequence with the same seed.
            let mut final_data: Vec<DenseVector> = data
                .iter()
                .enumerate()
                .filter(|(i, _)| ![3usize, 17, 42].contains(i))
                .map(|(_, v)| v.clone())
                .collect();
            final_data.extend(extra);
            let fresh = ServingIndex::build(final_data, spec(), index_config, config).unwrap();
            let queries = vectors(0x23, 12, dim, 1.0);
            let a = serving.query(&queries).unwrap();
            let b = fresh.query(&queries).unwrap();
            // External ids differ (the mutated index kept its originals), but the
            // answers — which vector, which inner product — are identical.
            assert_eq!(a.len(), b.len(), "{:?}", serving.family());
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.query_index, y.query_index);
                assert_eq!(x.inner_product.to_bits(), y.inner_product.to_bits());
                assert_eq!(
                    serving.vector(x.data_index as u64).unwrap(),
                    fresh.vector(y.data_index as u64).unwrap()
                );
            }
        }
    }

    /// The index a fresh build gives over `entries` (ascending ids) under the
    /// allocator state `next_id`, as snapshot bytes.
    fn fresh_bytes(
        entries: &[(u64, DenseVector)],
        next_id: u64,
        index_config: IndexConfig,
        config: ServingConfig,
    ) -> Vec<u8> {
        let (ids, data): (Vec<u64>, Vec<DenseVector>) = entries.iter().cloned().unzip();
        let index = build_index(data, spec(), index_config, config.seed, 2).unwrap();
        let snapshot = Snapshot::with_ids(index, ids, next_id).unwrap();
        ServingIndex::from_snapshot(snapshot, config)
            .unwrap()
            .snapshot_bytes()
            .unwrap()
    }

    #[test]
    fn compaction_in_place_equals_a_fresh_build_byte_for_byte() {
        let dim = 10;
        let data = vectors(0x71, 120, dim, 0.9);
        let extra = vectors(0x72, 12, dim, 0.9);
        let config = ServingConfig::default();
        for index_config in [
            IndexConfig::Alsh(AlshParams::default()),
            IndexConfig::Symmetric(SymmetricParams::default()),
            IndexConfig::Brute,
        ] {
            let mut serving =
                ServingIndex::build(data.clone(), spec(), index_config, config).unwrap();
            let mut live: Vec<(u64, DenseVector)> = (0..).zip(data.iter().cloned()).collect();
            // Ids the way a sharded layer routes them into one shard: ascending,
            // with gaps.
            let assigned = [
                121u64, 122, 125, 130, 139, 140, 149, 150, 151, 160, 165, 170,
            ];
            for (round, (&id, v)) in assigned.iter().zip(&extra).enumerate() {
                serving.insert_with_id(id, v.clone()).unwrap();
                live.push((id, v.clone()));
                // Deletes in between, of old and of new points (one duplicated
                // vector too: the symmetric family's exact-match lookup).
                let victim = live.remove((round * 7) % live.len());
                serving.delete(victim.0).unwrap();
            }
            let twin = serving.insert(extra[0].clone()).unwrap();
            live.push((twin, extra[0].clone()));
            serving.compact().unwrap();
            assert_eq!(twin, assigned[11] + 1);
            assert_eq!(
                serving.snapshot_bytes().unwrap(),
                fresh_bytes(&live, twin + 1, index_config, config),
                "{:?}",
                serving.family()
            );
            assert_eq!(
                serving.ids(),
                live.iter().map(|(id, _)| *id).collect::<Vec<_>>()
            );
            for (id, v) in &live {
                assert_eq!(serving.vector(*id).unwrap(), v);
            }
        }
    }

    #[test]
    fn lsh_threshold_compaction_keeps_every_answer_and_counts_as_a_rebuild() {
        let dim = 12;
        let data = vectors(0x73, 200, dim, 0.9);
        let queries = vectors(0x74, 20, dim, 1.0);
        for index_config in [
            IndexConfig::Alsh(AlshParams::default()),
            IndexConfig::Symmetric(SymmetricParams::default()),
        ] {
            let mut serving =
                ServingIndex::build(data.clone(), spec(), index_config, ServingConfig::default())
                    .unwrap();
            // 41 dead slots over 159 live ones is the first ratio above a quarter.
            for id in 0..41u64 {
                assert_eq!(serving.stats().rebuilds, 0, "after {id} deletes");
                serving.delete(id).unwrap();
            }
            assert_eq!(serving.stats().rebuilds, 1);
            let live: Vec<(u64, DenseVector)> = (41..).zip(data[41..].iter().cloned()).collect();
            let fresh = fresh_bytes(&live, 200, index_config, ServingConfig::default());
            assert_eq!(serving.snapshot_bytes().unwrap(), fresh);
            assert_eq!(
                serving.stats().rebuilds,
                1,
                "nothing left to compact at save"
            );
            let reloaded = ServingIndex::from_snapshot(
                Snapshot::from_bytes(&fresh).unwrap(),
                ServingConfig::default(),
            )
            .unwrap();
            assert_eq!(
                serving.query_top_k(&queries, 3).unwrap(),
                reloaded.query_top_k(&queries, 3).unwrap()
            );
        }
    }

    #[test]
    fn brute_writes_in_place_at_the_rank_of_the_id_and_never_rebuilds() {
        let dim = 6;
        let data = vectors(0x75, 30, dim, 0.9);
        let extra = vectors(0x76, 3, dim, 0.9);
        let mut serving =
            ServingIndex::build(data, spec(), IndexConfig::Brute, ServingConfig::default())
                .unwrap();
        let ascending = |serving: &ServingIndex| {
            let AnyIndex::Brute(index) = &serving.primary else {
                panic!("a brute index");
            };
            assert_eq!(serving.primary_ids, serving.ids());
            assert_eq!(index.len(), serving.primary_ids.len());
        };
        assert_eq!(serving.insert(extra[0].clone()).unwrap(), 30);
        serving.insert_with_id(35, extra[1].clone()).unwrap();
        ascending(&serving);
        assert_eq!(serving.vector(35).unwrap(), &extra[1]);
        serving.delete(4).unwrap();
        ascending(&serving);
        assert_eq!(serving.insert(extra[2].clone()).unwrap(), 36);
        ascending(&serving);
        assert_eq!(serving.stats().rebuilds, 0, "every write landed in place");
        let mut expected: Vec<u64> = (0..31).filter(|id| *id != 4).collect();
        expected.extend([35, 36]);
        assert_eq!(serving.ids(), expected);
        assert_eq!(serving.stats().inserts, 3);
    }

    #[test]
    fn a_deleted_id_is_never_accepted_again() {
        let dim = 8;
        let data = vectors(0x7B, 40, dim, 0.9);
        let v = vectors(0x7C, 1, dim, 0.9).pop().unwrap();
        let sketch = IndexConfig::Sketch(MaxIpConfig::default());
        // (family, whether the deleted id is an overlay insert, whether a compaction
        // then forgets it).
        let symmetric = IndexConfig::Symmetric(SymmetricParams::default());
        let cases = [
            (IndexConfig::Brute, false, false),
            (IndexConfig::Alsh(AlshParams::default()), false, true),
            (symmetric, false, true),
            (sketch, true, false),
            (sketch, false, true),
        ];
        for (index_config, overlaid, compacted) in cases {
            let mut serving =
                ServingIndex::build(data.clone(), spec(), index_config, ServingConfig::default())
                    .unwrap();
            let deleted = if overlaid {
                serving.insert(v.clone()).unwrap()
            } else {
                7
            };
            serving.delete(deleted).unwrap();
            if compacted {
                serving.compact().unwrap();
                assert_eq!(serving.stats().rebuilds, 1, "{index_config:?}");
            }
            let before = serving.snapshot_bytes().unwrap();
            assert!(
                serving.insert_with_id(deleted, v.clone()).is_err(),
                "{index_config:?} overlaid={overlaid} compacted={compacted}"
            );
            assert!(serving.vector(deleted).is_err());
            assert_eq!(serving.snapshot_bytes().unwrap(), before);
            assert_eq!(serving.stats().inserts, u64::from(overlaid));
        }
    }

    #[test]
    fn vectors_with_a_nan_coordinate_are_refused_on_insert() {
        let dim = 8;
        let data = vectors(0x77, 40, dim, 0.9);
        let mut poisoned = data[0].clone();
        poisoned[3] = f64::NAN;
        let mut infinite = data[0].clone();
        infinite[5] = f64::NEG_INFINITY;
        for index_config in [
            IndexConfig::Brute,
            IndexConfig::Alsh(AlshParams::default()),
            IndexConfig::Symmetric(SymmetricParams::default()),
            IndexConfig::Sketch(MaxIpConfig::default()),
        ] {
            // NaN compares false with everything, so one check refuses it for every
            // family before any of them ranks a score.
            let mut serving =
                ServingIndex::build(data.clone(), spec(), index_config, ServingConfig::default())
                    .unwrap();
            let before = serving.snapshot_bytes().unwrap();
            for bad in [&poisoned, &infinite] {
                assert!(serving.insert(bad.clone()).is_err(), "{index_config:?}");
            }
            assert_eq!(serving.len(), 40);
            assert_eq!(serving.stats().inserts, 0);
            assert_eq!(serving.snapshot_bytes().unwrap(), before);
            assert_eq!(
                serving.insert(data[1].clone()).unwrap(),
                40,
                "no id was used up"
            );
            // A build over such a vector is refused the same way.
            let mut with_nan = data.clone();
            with_nan.push(poisoned.clone());
            let config = ServingConfig::default();
            let refused = ServingIndex::build(with_nan.clone(), spec(), index_config, config);
            assert!(refused.is_err());
            // The sharded layer reaches the same check on build and on insert.
            let sharded = ShardedConfig {
                shards: 2,
                ..Default::default()
            };
            assert!(ShardedServingIndex::build(with_nan, spec(), index_config, sharded).is_err());
            let sharded =
                ShardedServingIndex::build(data.clone(), spec(), index_config, sharded).unwrap();
            let dir = std::env::temp_dir().join(format!("ips-store-nan-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let saved = |name: &str| {
                let path = dir.join(format!("{name}.snap"));
                sharded.save(&path).unwrap();
                std::fs::read(&path).unwrap()
            };
            let before = saved("before");
            for bad in [&poisoned, &infinite] {
                assert!(sharded.insert(bad.clone()).is_err(), "{index_config:?}");
            }
            assert_eq!(sharded.len(), 40);
            assert_eq!(sharded.next_id(), 40, "no id was used up");
            assert_eq!(saved("after"), before);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn a_snapshot_with_a_nan_coordinate_is_refused_at_load_and_left_untouched() {
        // Only the unchecked internal build can write such a file: the fresh builds and
        // inserts refuse the vector, and the ALSH and symmetric builds refuse it as a
        // vector outside the ball.
        let dim = 8;
        let mut data = vectors(0x7A, 40, dim, 0.9);
        data[7][2] = f64::NAN;
        let dir = std::env::temp_dir().join(format!("ips-store-nan-load-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for index_config in [
            IndexConfig::Brute,
            IndexConfig::Sketch(MaxIpConfig::default()),
        ] {
            let index = build_index(data.clone(), spec(), index_config, 0, 1).unwrap();
            let config = ServingConfig::default();
            let mut written = ServingIndex::from_snapshot(Snapshot::new(index), config).unwrap();
            let path = dir.join(format!("{index_config:?}.snap"));
            written.save(&path).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            assert!(
                matches!(
                    ServingIndex::open(&path, config),
                    Err(StoreError::Corrupt { .. })
                ),
                "{index_config:?}"
            );
            assert!(ShardedServingIndex::open(&path, config).is_err());
            assert!(Snapshot::from_bytes(&bytes).is_err());
            assert!(std::fs::read(&path).unwrap() == bytes, "{index_config:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_sketch_overlay_ranks_equal_hits_by_id() {
        let dim = 8;
        let data = vectors(0x78, 40, dim, 0.2);
        let query = random_unit_vector(&mut StdRng::seed_from_u64(0x79), dim).unwrap();
        let v = query.scaled(0.9);
        let sketch = IndexConfig::Sketch(MaxIpConfig::default());
        let mut serving =
            ServingIndex::build(data, spec(), sketch, ServingConfig::default()).unwrap();
        // Two equal vectors reach the overlay; an id below the last one taken is
        // refused, so ids arrive in ascending order.
        serving.insert_with_id(45, v.clone()).unwrap();
        serving.insert_with_id(50, v.clone()).unwrap();
        assert!(serving.insert_with_id(48, v.clone()).is_err());
        let ids =
            |pairs: Vec<MatchPair>| -> Vec<usize> { pairs.iter().map(|p| p.data_index).collect() };
        let query = std::slice::from_ref(&query);
        assert_eq!(ids(serving.query(query).unwrap()), [45]);
        assert_eq!(ids(serving.query_top_k(query, 1).unwrap()), [45]);
        serving.compact().unwrap();
        assert_eq!(ids(serving.query(query).unwrap()), [45]);
    }

    #[test]
    fn sketch_overlay_and_threshold_rebuild() {
        let dim = 8;
        let data = vectors(0x31, 40, dim, 0.2);
        let config = ServingConfig {
            rebuild_threshold: 0.25,
            ..Default::default()
        };
        let mut serving = ServingIndex::build(
            data,
            spec(),
            IndexConfig::Sketch(MaxIpConfig::default()),
            config,
        )
        .unwrap();
        assert_eq!(serving.stats().rebuilds, 0);
        // The overlay counts as dirty; with 40 built vectors the pending fraction
        // crosses 25% at the 14th un-absorbed insert (14 / 54 > 0.25).
        for _ in 0..16 {
            let v = vectors(0x32, 1, dim, 0.2).pop().unwrap();
            serving.insert(v).unwrap();
        }
        assert!(
            serving.stats().rebuilds >= 1,
            "threshold rebuild did not fire"
        );
        // After the rebuild the overlay is gone but every id still resolves.
        assert_eq!(serving.len(), 56);
        for id in serving.ids() {
            serving.vector(id).unwrap();
        }
    }

    #[test]
    fn deleting_everything_yields_misses_not_errors() {
        let dim = 6;
        let data = vectors(0x41, 5, dim, 0.9);
        let mut rng = StdRng::seed_from_u64(0x42);
        let query = random_unit_vector(&mut rng, dim).unwrap();
        for index_config in [
            IndexConfig::Brute,
            IndexConfig::Alsh(AlshParams::default()),
            IndexConfig::Sketch(MaxIpConfig::default()),
        ] {
            let mut serving =
                ServingIndex::build(data.clone(), spec(), index_config, ServingConfig::default())
                    .unwrap();
            for id in serving.ids() {
                serving.delete(id).unwrap();
            }
            assert!(serving.is_empty());
            // An empty serving state is legal to *serve* but not to *snapshot*:
            // saving would write an unloadable (brute) or vector-resurrecting
            // (sketch) file, so it must fail before touching the disk.
            let path = std::env::temp_dir().join("ips-store-empty-save.snap");
            let _ = std::fs::remove_file(&path);
            assert!(serving.save(&path).is_err());
            assert!(!path.exists(), "failed save must not leave a file behind");
            assert!(serving
                .query(std::slice::from_ref(&query))
                .unwrap()
                .is_empty());
            assert!(serving
                .query_top_k(std::slice::from_ref(&query), 2)
                .unwrap()
                .is_empty());
            // Serving can resume: inserts keep allocating fresh ids.
            let id = serving.insert(query.scaled(0.9)).unwrap();
            assert_eq!(id, 5);
            assert_eq!(
                serving.query(std::slice::from_ref(&query)).unwrap().len(),
                1
            );
        }
    }

    #[test]
    fn probes_override_lands_in_the_family_config_and_survives_compaction() {
        let dim = 12;
        let data = vectors(0x61, 90, dim, 0.9);
        let probed_config = ServingConfig {
            probes: Some(4),
            ..ServingConfig::default()
        };
        let family_probes = |serving: &ServingIndex| match serving.index_config() {
            IndexConfig::Alsh(p) => p.probes,
            IndexConfig::Symmetric(p) => p.probes,
            other => panic!("unexpected family {other:?}"),
        };
        for index_config in [
            IndexConfig::Alsh(AlshParams::default()),
            IndexConfig::Symmetric(SymmetricParams::default()),
        ] {
            // `probes: None` keeps the params' own value (0 for the defaults).
            let plain =
                ServingIndex::build(data.clone(), spec(), index_config, ServingConfig::default())
                    .unwrap();
            assert_eq!(family_probes(&plain), 0);
            let mut probed =
                ServingIndex::build(data.clone(), spec(), index_config, probed_config).unwrap();
            assert_eq!(family_probes(&probed), 4);
            // Probing widens lookups, never loses an existing answer.
            let queries = vectors(0x62, 10, dim, 1.0);
            let a = plain.query(&queries).unwrap();
            let b = probed.query(&queries).unwrap();
            assert!(b.len() >= a.len(), "probing lost hits: {b:?} vs {a:?}");
            // The override was folded into the extracted family config, so a
            // compaction (which rebuilds from that config) keeps it.
            for id in 0..30u64 {
                probed.delete(id).unwrap();
            }
            probed.compact().unwrap();
            assert_eq!(family_probes(&probed), 4, "compaction dropped the override");
        }
    }

    #[test]
    fn save_load_preserves_ids_and_results() {
        let dim = 10;
        let data = vectors(0x51, 50, dim, 0.9);
        let dir = std::env::temp_dir().join("ips-store-serving-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("alsh.snap");
        let mut serving = ServingIndex::build(
            data,
            spec(),
            IndexConfig::Alsh(AlshParams::default()),
            ServingConfig::default(),
        )
        .unwrap();
        serving.delete(7).unwrap();
        let added = serving
            .insert(vectors(0x52, 1, dim, 0.9).pop().unwrap())
            .unwrap();
        let bytes = serving.save(&path).unwrap();
        assert!(bytes > 0);
        let reloaded = ServingIndex::open(&path, ServingConfig::default()).unwrap();
        assert_eq!(reloaded.len(), serving.len());
        assert_eq!(reloaded.ids(), serving.ids());
        assert!(reloaded.ids().contains(&added));
        assert!(!reloaded.ids().contains(&7));
        let queries = vectors(0x53, 10, dim, 1.0);
        let a = serving.query(&queries).unwrap();
        let b = reloaded.query(&queries).unwrap();
        assert_eq!(a, b, "save → load must not change a single answer");
        std::fs::remove_file(&path).unwrap();
    }
}

//! The long-lived serving layer: a loaded snapshot that answers query batches and
//! accepts incremental `insert` / `delete`, with per-index counters.
//!
//! A [`ServingIndex`] owns one [`AnyIndex`] (the *primary* structure) and hands out
//! **stable external ids**: the id returned by [`ServingIndex::insert`] stays valid
//! across every later mutation, rebuild and save/load cycle, which is what clients of
//! a long-lived service key their state on.
//!
//! # Mutation strategy per family
//!
//! * **ALSH / symmetric LSH** — true dynamic maintenance: inserts hash the new vector
//!   into every table with the functions sampled at build time, deletes remove it
//!   again (see [`ips_lsh::table::LshIndex::insert`]). Tombstoned slots still occupy
//!   memory, so when their fraction exceeds the rebuild threshold the index is
//!   compacted **in place**: the dead slots are dropped and the buckets renumbered,
//!   with no vector hashed again (see [`ips_core::LshOps::compact`]).
//! * **Brute force** — building *is* storing the vectors: an insert under a new
//!   highest id appends, every other mutation rebuilds the primary (the threshold
//!   is irrelevant).
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
use ips_core::asymmetric::AlshParams;
use ips_core::engine::{EngineConfig, JoinEngine};
use ips_core::mips::{BruteForceMipsIndex, MipsIndex, SearchResult, SketchMipsAdapter};
use ips_core::problem::{JoinSpec, MatchPair};
use ips_core::symmetric::SymmetricParams;
use ips_core::topk::TopKMipsIndex;
use ips_core::LshMips;
use ips_linalg::par::{available_threads, Schedule};
use ips_linalg::DenseVector;
use ips_lsh::table::BUILD_BLOCK;
use ips_sketch::linf_mips::MaxIpConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Which structure to build over the data, with its family-specific tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IndexConfig {
    /// The exact quadratic scan.
    Brute,
    /// The Section 4.1 asymmetric-LSH index.
    Alsh(AlshParams),
    /// The Section 4.2 symmetric LSH.
    Symmetric(SymmetricParams),
    /// The Section 4.3 sketch structure.
    Sketch {
        /// Per-node sketch configuration.
        config: MaxIpConfig,
        /// The recovery tree's leaf-size floor: a range of at most this many vectors
        /// is never split (the tree also stops where a sketch would cost more than
        /// the scan).
        leaf_size: usize,
    },
}

impl IndexConfig {
    /// The family this configuration builds.
    pub fn family(&self) -> IndexFamily {
        match self {
            IndexConfig::Brute => IndexFamily::Brute,
            IndexConfig::Alsh(_) => IndexFamily::Alsh,
            IndexConfig::Symmetric(_) => IndexFamily::Symmetric,
            IndexConfig::Sketch { .. } => IndexFamily::Sketch,
        }
    }
}

/// Tuning of a [`ServingIndex`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingConfig {
    /// Schedule of the [`JoinEngine`] answering query batches.
    pub engine: EngineConfig,
    /// Rebuild when `(tombstoned + overlaid) / live` exceeds this fraction
    /// (brute rebuilds on every mutation but an appending insert, regardless).
    pub rebuild_threshold: f64,
    /// Seed for every build and rebuild, making maintenance reproducible.
    pub seed: u64,
    /// Scoring-kernel selection (`dtype`): brute primaries only; re-prepared
    /// after a rebuild. The default keeps serving bit-identical to the
    /// pre-kernel layer; `dtype=f32` scans an `f32` tile and exactly rescores
    /// each winner. ALSH, symmetric and sketch primaries score their few
    /// candidates exactly in `f64` and ignore it. Not persisted in snapshots.
    pub scoring: ips_core::ScoringOptions,
    /// Slow-query log threshold in microseconds; `0` (the default) disables
    /// the log. A query batch whose wall time meets the threshold emits one
    /// structured line on stderr from the sharded serving layer.
    pub slow_log_micros: u64,
    /// Extra query-directed probe buckets per LSH table (see [`ips_lsh::probe`]),
    /// applied to ALSH / symmetric primaries. `None` (the default) keeps
    /// whatever the loaded snapshot or the [`IndexConfig`] parameters carry;
    /// `Some(p)` overrides it at load time — and, because the override lands
    /// *before* the family configuration is extracted, every later rebuild,
    /// compaction and migration rebuild keeps probing at `p`. Brute and sketch
    /// primaries have no buckets to probe and ignore the override.
    pub probes: Option<usize>,
    /// Run the closed-loop adaptive controller (`ips-adapt`) over this index:
    /// periodically compare the observed workload against the statistics the
    /// live plan was costed on, re-plan on drift, and migrate strategies
    /// in place. The serving layers themselves ignore the flag — it rides
    /// here so front ends (the CLI `serve` command) know to spawn the
    /// controller next to the index they built.
    pub adaptive: bool,
    /// Seconds between the adaptive controller's drift checks.
    pub drift_check_secs: u64,
}

impl Default for ServingConfig {
    fn default() -> Self {
        Self {
            engine: EngineConfig::default(),
            rebuild_threshold: 0.25,
            seed: 0x1B5_5E4E,
            scoring: ips_core::ScoringOptions::default(),
            slow_log_micros: 0,
            probes: None,
            adaptive: false,
            drift_check_secs: 5,
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
    /// Primary-structure rebuilds performed.
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
    /// A counter block pre-loaded with another index's query/hit/latency history —
    /// what the one-shard `ServingIndex → ShardedServingIndex` conversion uses so
    /// wrapping a warm index does not zero its query metrics. Mutation counters
    /// stay zero here: those keep living (and arriving pre-accumulated) in the
    /// wrapped shard itself.
    pub(crate) fn with_query_history(stats: &ServingStats) -> Self {
        let counters = Self::default();
        counters.queries.store(stats.queries, Ordering::Relaxed);
        counters.hits.store(stats.hits, Ordering::Relaxed);
        counters.query_ns.store(stats.query_ns, Ordering::Relaxed);
        counters
    }

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
    /// Slot → external id, for every primary slot (live or tombstoned).
    primary_ids: Vec<u64>,
    /// Live external id → primary slot.
    id_to_slot: HashMap<u64, usize>,
    /// Sketch-family inserts not yet absorbed by a rebuild, in id order.
    overlay: Vec<(u64, DenseVector)>,
    /// Sketch-family deletes not yet absorbed by a rebuild.
    tombstones: HashSet<u64>,
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
        IndexConfig::Sketch { config, leaf_size } => AnyIndex::Sketch(SketchMipsAdapter::build(
            &mut rng, data, spec, config, leaf_size,
        )?),
    })
}

fn extract_index_config(index: &AnyIndex) -> IndexConfig {
    match index {
        AnyIndex::Brute(_) => IndexConfig::Brute,
        AnyIndex::Alsh(i) => IndexConfig::Alsh(i.params()),
        AnyIndex::Symmetric(i) => IndexConfig::Symmetric(i.params()),
        AnyIndex::Sketch(i) => IndexConfig::Sketch {
            config: i.inner().config(),
            leaf_size: i.inner().leaf_size(),
        },
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
        let mut id_to_slot = HashMap::with_capacity(primary_ids.len());
        for (slot, &id) in primary_ids.iter().enumerate() {
            if primary.is_live(slot) {
                id_to_slot.insert(id, slot);
            }
        }
        let index_config = extract_index_config(&primary);
        let spec = primary.spec();
        let mut serving = Self {
            primary,
            primary_ids,
            id_to_slot,
            overlay: Vec::new(),
            tombstones: HashSet::new(),
            next_id,
            dim,
            spec,
            index_config,
            config,
            counters: Counters::default(),
        };
        serving.apply_scoring()?;
        Ok(serving)
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
        self.id_to_slot.len() + self.overlay.len()
    }

    /// Returns `true` when every vector has been deleted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The live external ids, ascending.
    pub fn ids(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.id_to_slot.keys().copied().collect();
        out.extend(self.overlay.iter().map(|(id, _)| *id));
        out.sort_unstable();
        out
    }

    /// The vector behind a live external id.
    pub fn vector(&self, id: u64) -> Result<&DenseVector> {
        if let Some(&slot) = self.id_to_slot.get(&id) {
            return self
                .primary
                .vector(slot)
                .ok_or(StoreError::UnknownId { id });
        }
        self.overlay
            .iter()
            .find(|(oid, _)| *oid == id)
            .map(|(_, v)| v)
            .ok_or(StoreError::UnknownId { id })
    }

    /// The family configuration this index was built with (what a rebuild re-builds).
    pub(crate) fn index_config(&self) -> IndexConfig {
        self.index_config
    }

    /// The serving configuration (engine schedule, rebuild threshold, seed).
    pub(crate) fn serving_config(&self) -> ServingConfig {
        self.config
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
    /// The id must be fresh: an id that is currently live, pending in the overlay,
    /// tombstoned, or occupying a (possibly deleted) primary slot is rejected —
    /// reusing ids would break the stable-external-id contract. The internal
    /// allocator is advanced past `id`, so a later [`ServingIndex::insert`] can
    /// never collide with it.
    pub fn insert_with_id(&mut self, id: u64, v: DenseVector) -> Result<()> {
        if v.dim() != self.dim {
            return Err(StoreError::InvalidParameter {
                name: "v",
                reason: format!("dimension {} != index dimension {}", v.dim(), self.dim),
            });
        }
        // Ids at or above the allocator are fresh by construction; below it, the id
        // may have been used before (even a tombstoned LSH slot still owns its id),
        // so every holder of old ids is consulted.
        if id < self.next_id
            && (self.primary_ids.contains(&id)
                || self.tombstones.contains(&id)
                || self.overlay.iter().any(|(oid, _)| *oid == id))
        {
            return Err(StoreError::InvalidParameter {
                name: "id",
                reason: format!("external id {id} is already in use"),
            });
        }
        match self.primary.view_mut() {
            ViewMut::Lsh(index) => {
                let slot = index.insert(v)?;
                debug_assert_eq!(slot, self.primary_ids.len());
                self.primary_ids.push(id);
                self.id_to_slot.insert(id, slot);
            }
            // Storing is all there is to building a brute index: behind ids that
            // ascend, a new highest id appends where a rebuild would put it.
            ViewMut::Brute(index) if id >= self.next_id && self.primary_ids.is_sorted() => {
                self.id_to_slot.insert(id, self.primary_ids.len());
                self.primary_ids.push(id);
                index.push(v);
                // The push dropped a prepared `f32` tile; cover the new vector.
                index.set_scoring(self.config.scoring)?;
            }
            ViewMut::Brute(_) => self.rebuild(Some((id, v)))?,
            ViewMut::Sketch => {
                self.overlay.push((id, v));
            }
        }
        self.next_id = self.next_id.max(id + 1);
        self.counters.inserts.fetch_add(1, Ordering::Relaxed);
        self.maybe_rebuild()?;
        Ok(())
    }

    /// Deletes the vector behind a live external id.
    pub fn delete(&mut self, id: u64) -> Result<()> {
        if let Some(pos) = self.overlay.iter().position(|(oid, _)| *oid == id) {
            self.overlay.remove(pos);
            self.counters.deletes.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        let slot = *self
            .id_to_slot
            .get(&id)
            .ok_or(StoreError::UnknownId { id })?;
        match self.primary.view_mut() {
            ViewMut::Lsh(index) => {
                index.delete(slot)?;
                self.id_to_slot.remove(&id);
            }
            ViewMut::Brute(_) => {
                self.id_to_slot.remove(&id);
                self.rebuild(None)?;
            }
            ViewMut::Sketch => {
                self.tombstones.insert(id);
                self.id_to_slot.remove(&id);
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
        let start = Instant::now();
        let engine = JoinEngine::with_config(ServingView(self), self.config.engine);
        let pairs = engine.run(queries)?;
        self.note_queries(queries.len(), pairs.len(), start);
        Ok(pairs)
    }

    /// Answers a batch of top-`k` queries through the [`JoinEngine`] (up to `k`
    /// partners per query, best first, external ids in `data_index`), updating the
    /// counters. For a sketch-family index the structure recovers at most one
    /// candidate per query, so fewer than `k` partners are expected.
    pub fn query_top_k(&self, queries: &[DenseVector], k: usize) -> Result<Vec<MatchPair>> {
        let start = Instant::now();
        let engine = JoinEngine::with_config(ServingView(self), self.config.engine);
        let pairs = engine.run_top_k(queries, k)?;
        self.note_queries(queries.len(), pairs.len(), start);
        Ok(pairs)
    }

    /// Folds the pending overlay / tombstones / dead slots into the primary structure
    /// now, whatever the threshold says. After a compact, the index is identical to
    /// one built from its live vectors, in ascending id order, with
    /// [`ServingConfig::seed`] — down to its snapshot bytes.
    pub fn compact(&mut self) -> Result<()> {
        let dirty = (self.primary_ids.len() - self.id_to_slot.len()) + self.overlay.len();
        // Slots out of id order are pending state too: the sharded layer can route
        // ids into an LSH shard out of order, and a fresh build would not keep them so.
        if dirty == 0 && self.primary_ids.is_sorted() {
            return Ok(());
        }
        self.rebuild(None)
    }

    fn note_queries(&self, queries: usize, hits: usize, start: Instant) {
        self.counters.note_queries(queries, hits, start);
    }

    fn maybe_rebuild(&mut self) -> Result<()> {
        let dead = self.primary_ids.len() - self.id_to_slot.len();
        let dirty = dead + self.overlay.len();
        if dirty == 0 {
            return Ok(());
        }
        let live = self.len().max(1);
        if dirty as f64 / live as f64 > self.config.rebuild_threshold {
            return self.rebuild(None);
        }
        Ok(())
    }

    /// Folds the pending state — dead slots, overlay, tombstones, plus `inserted` for
    /// the brute family's out-of-order insert — into the primary structure, leaving
    /// the index identical to one built from its live vectors in **ascending id
    /// order** with the configured seed. That order is the canonical one: a
    /// sequential index inserts in ascending id order anyway; it matters when the
    /// sharded layer routed out-of-order ids into this shard. With no live vectors
    /// left, non-brute structures cannot be built (their constructors reject empty
    /// data), so pending state is kept and filtered at query time instead.
    ///
    /// **ALSH / symmetric LSH compact in place** ([`LshOps::compact`]): a
    /// delete already took its slot out of every bucket, and the bucket of a vector
    /// is a function of the vector and the sampled functions alone, so the tables a
    /// fresh build would produce are the ones already held, under other slot numbers.
    /// The vectors and the id list close their gaps where they stand, the buckets are
    /// renamed in one pass, the id map is refilled in its own capacity — no vector is
    /// hashed, no table is allocated, and the write lock is held for that one pass.
    /// The functions stay the ones the index was built or loaded with (what
    /// [`ServingConfig::seed`] samples, whenever the index was built under that
    /// seed — and the ones the sibling shards hold in any case).
    ///
    /// **Brute and sketch really rebuild**: the vectors are moved, not copied, and
    /// the old structure is freed before its replacement is built, so a rebuild holds
    /// one index worth of memory, not two. The build cannot fail for vectors the index
    /// already holds — they passed the same constructor's checks under the same
    /// configuration. Should it fail all the same, the vectors went with it: the
    /// error is returned and the index is left empty (and consistent), not half-built.
    fn rebuild(&mut self, inserted: Option<(u64, DenseVector)>) -> Result<()> {
        if self.is_empty() && inserted.is_none() && !matches!(self.index_config, IndexConfig::Brute)
        {
            return Ok(());
        }
        if let Some(index) = self.primary.as_lsh_mut() {
            index.compact(&self.primary_ids)?;
            // The slots now follow ascending id order; so must the slot → id list.
            let live = &self.id_to_slot;
            self.primary_ids.retain(|id| live.contains_key(id));
            if !self.primary_ids.is_sorted() {
                self.primary_ids.sort_unstable();
            }
            self.id_to_slot.clear();
            let renumbered = self.primary_ids.iter().enumerate();
            self.id_to_slot
                .extend(renumbered.map(|(slot, &id)| (id, slot)));
        } else {
            self.rebuild_from_vectors(inserted)?;
        }
        self.counters.rebuilds.fetch_add(1, Ordering::Relaxed);
        self.apply_scoring()
    }

    /// The brute / sketch half of [`ServingIndex::rebuild`].
    fn rebuild_from_vectors(&mut self, inserted: Option<(u64, DenseVector)>) -> Result<()> {
        let emptied = AnyIndex::Brute(BruteForceMipsIndex::new(Vec::new(), self.spec));
        let vectors = std::mem::replace(&mut self.primary, emptied).into_vectors();
        let slots = std::mem::take(&mut self.primary_ids)
            .into_iter()
            .zip(vectors);
        let mut entries: Vec<(u64, DenseVector)> = slots
            .filter(|(id, _)| self.id_to_slot.contains_key(id))
            .collect();
        entries.append(&mut self.overlay);
        entries.extend(inserted);
        entries.sort_unstable_by_key(|(id, _)| *id);
        self.id_to_slot.clear();
        self.tombstones.clear();
        let (ids, data): (Vec<u64>, Vec<DenseVector>) = entries.into_iter().unzip();
        let threads = available_threads();
        self.primary = build_index(
            data,
            self.spec,
            self.index_config,
            self.config.seed,
            threads,
        )?;
        self.id_to_slot = ids.iter().enumerate().map(|(s, &id)| (id, s)).collect();
        self.primary_ids = ids;
        Ok(())
    }

    /// Re-applies [`ServingConfig::scoring`] to a brute primary, the one family
    /// that reads it: re-packs the `f32` tile over the current vectors (free for
    /// the default options, which prepare nothing).
    fn apply_scoring(&mut self) -> Result<()> {
        if let ViewMut::Brute(index) = self.primary.view_mut() {
            index.set_scoring(self.config.scoring)?;
        }
        Ok(())
    }
}

/// A borrow of a [`ServingIndex`] that speaks [`MipsIndex`] / [`TopKMipsIndex`] with
/// **external ids** in `data_index`, merging the primary structure with the overlay
/// and suppressing tombstoned answers — the adapter [`ServingIndex::query`] feeds to
/// the [`JoinEngine`].
pub struct ServingView<'a>(pub &'a ServingIndex);

impl ServingView<'_> {
    fn merge_overlay(
        &self,
        query: &DenseVector,
        mut best: Option<SearchResult>,
    ) -> ips_core::Result<Option<SearchResult>> {
        let spec = self.0.spec;
        for (id, v) in &self.0.overlay {
            let ip = v.dot(query)?;
            if !spec.acceptable(ip) {
                continue;
            }
            let better = best
                .as_ref()
                .map(|b| spec.variant.value(ip) > spec.variant.value(b.inner_product))
                .unwrap_or(true);
            if better {
                best = Some(SearchResult {
                    data_index: *id as usize,
                    inner_product: ip,
                });
            }
        }
        Ok(best)
    }
}

impl MipsIndex for ServingView<'_> {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn spec(&self) -> JoinSpec {
        self.0.spec
    }

    fn search(&self, query: &DenseVector) -> ips_core::Result<Option<SearchResult>> {
        // An all-deleted serving index answers misses rather than erroring like a
        // never-built index would: an empty live set is a legal serving state.
        let primary = if self.0.id_to_slot.is_empty() {
            None
        } else {
            self.0.primary.search(query)?.and_then(|hit| {
                let id = self.0.primary_ids[hit.data_index];
                (!self.0.tombstones.contains(&id)).then_some(SearchResult {
                    data_index: id as usize,
                    inner_product: hit.inner_product,
                })
            })
        };
        self.merge_overlay(query, primary)
    }
}

impl TopKMipsIndex for ServingView<'_> {
    fn search_top_k(&self, query: &DenseVector, k: usize) -> ips_core::Result<Vec<SearchResult>> {
        let spec = self.0.spec;
        let mut hits: Vec<SearchResult> = Vec::new();
        if !self.0.id_to_slot.is_empty() {
            for hit in self.0.primary.search_top_k(query, k)? {
                let id = self.0.primary_ids[hit.data_index];
                if !self.0.tombstones.contains(&id) {
                    hits.push(SearchResult {
                        data_index: id as usize,
                        inner_product: hit.inner_product,
                    });
                }
            }
        }
        for (id, v) in &self.0.overlay {
            let ip = v.dot(query)?;
            if spec.acceptable(ip) {
                hits.push(SearchResult {
                    data_index: *id as usize,
                    inner_product: ip,
                });
            }
        }
        // Same ordering contract as `TopKMipsIndex`: best first, ties by ascending id.
        hits.sort_by(|a, b| {
            spec.variant
                .value(b.inner_product)
                .partial_cmp(&spec.variant.value(a.inner_product))
                .expect("inner products are finite")
                .then(a.data_index.cmp(&b.data_index))
        });
        hits.truncate(k);
        Ok(hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_core::problem::JoinVariant;
    use ips_linalg::random::{random_ball_vector, random_unit_vector};

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
            IndexConfig::Sketch {
                config: MaxIpConfig {
                    kappa: 2.0,
                    copies: 11,
                    rows: None,
                },
                leaf_size: 8,
            },
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
            IndexConfig::Sketch {
                config: MaxIpConfig::default(),
                leaf_size: 4,
            },
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
            // Ids the way a sharded layer can route them into one shard: with
            // gaps, and not in the order they were drawn.
            let mut assigned = [
                125u64, 121, 140, 122, 139, 130, 150, 151, 149, 160, 170, 165,
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
            live.sort_unstable_by_key(|(id, _)| *id);
            assigned.sort_unstable();
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
    fn brute_appends_a_new_highest_id_and_rebuilds_for_anything_else() {
        let dim = 6;
        let data = vectors(0x75, 30, dim, 0.9);
        let extra = vectors(0x76, 4, dim, 0.9);
        let mut serving =
            ServingIndex::build(data, spec(), IndexConfig::Brute, ServingConfig::default())
                .unwrap();
        assert_eq!(serving.insert(extra[0].clone()).unwrap(), 30);
        serving.insert_with_id(35, extra[1].clone()).unwrap();
        assert_eq!(serving.stats().rebuilds, 0, "appended where they stand");
        assert_eq!(serving.vector(35).unwrap(), &extra[1]);
        // An id below the highest belongs in the middle: that is a rebuild.
        serving.insert_with_id(33, extra[2].clone()).unwrap();
        assert_eq!(serving.stats().rebuilds, 1);
        serving.delete(4).unwrap();
        assert_eq!(serving.stats().rebuilds, 2);
        assert_eq!(serving.insert(extra[3].clone()).unwrap(), 36);
        assert_eq!(serving.stats().rebuilds, 2);
        let mut expected: Vec<u64> = (0..31).filter(|id| *id != 4).collect();
        expected.extend([33, 35, 36]);
        assert_eq!(serving.ids(), expected);
        assert_eq!(serving.stats().inserts, 4);
    }

    #[test]
    fn vectors_with_a_nan_coordinate_are_refused_on_insert() {
        let dim = 8;
        let data = vectors(0x77, 40, dim, 0.9);
        let mut poisoned = data[0].clone();
        poisoned[3] = f64::NAN;
        for index_config in [
            IndexConfig::Alsh(AlshParams::default()),
            IndexConfig::Symmetric(SymmetricParams::default()),
        ] {
            // NaN compares false with everything, `norm > 1` included.
            let mut serving =
                ServingIndex::build(data.clone(), spec(), index_config, ServingConfig::default())
                    .unwrap();
            let before = serving.snapshot_bytes().unwrap();
            assert!(
                serving.insert(poisoned.clone()).is_err(),
                "{index_config:?}"
            );
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
            assert!(
                ServingIndex::build(with_nan, spec(), index_config, ServingConfig::default())
                    .is_err()
            );
        }
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
            IndexConfig::Sketch {
                config: MaxIpConfig::default(),
                leaf_size: 4,
            },
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
            IndexConfig::Sketch {
                config: MaxIpConfig::default(),
                leaf_size: 2,
            },
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

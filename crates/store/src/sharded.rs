//! The sharded serving layer: one index, `N` shards, concurrent reads, routed
//! mutations, exact merges.
//!
//! A [`ShardedServingIndex`] partitions its data across `N` shards by a
//! deterministic hash of the **external id** ([`shard_of`]); every shard is a
//! full [`ServingIndex`] behind its own [`RwLock`], so
//!
//! * **query batches** take read locks on every shard and run through the
//!   existing [`ips_core::JoinEngine`] (scoped worker threads, work-stealing
//!   chunk claims) over a [`ShardedView`] that searches each shard and merges
//!   per-shard answers exactly ([`ips_core::shard`]); arbitrarily many batches
//!   run concurrently, and none of them blocks on a mutation of an unrelated
//!   shard;
//! * **mutations** route to the owning shard alone: [`ShardedServingIndex::insert`]
//!   draws a fresh id from a global atomic allocator and write-locks one shard,
//!   [`ShardedServingIndex::delete`] hashes the id to its shard — each shard
//!   keeps its own rebuild threshold, so compaction cost is per-shard, not
//!   whole-index;
//! * **counters** are aggregated: query/hit/latency tick at this layer with
//!   relaxed atomics (no lock write is ever needed for bookkeeping), mutation
//!   and rebuild counts are summed from the shards.
//!
//! # Why every shard shares one structure seed
//!
//! All shards are built (and rebuilt) from the *same* [`ServingConfig::seed`].
//! LSH function sampling depends only on the seed and the dimension — not on
//! the data — so the sampled hash functions are **identical across shards and
//! identical to an unsharded index built with that seed**. That is what makes
//! the exact merge reproduce the unsharded answer bit for bit: a data point
//! collides with the query in its shard's tables iff it collides in the
//! unsharded tables, so the candidate union decomposes over the partition, and
//! merging per-shard bests (or per-shard top-`k` heaps) under the search's own
//! comparator is the unsharded result. A *derived* per-shard seed was
//! considered and rejected: it would give every shard incomparable candidate
//! sets and silently change answers with the shard count.
//!
//! Per family this yields:
//!
//! | family | `shards = N` vs unsharded |
//! |---|---|
//! | brute | bit-identical (the exact maximum decomposes) |
//! | ALSH | bit-identical (shared functions ⇒ candidate union decomposes) |
//! | symmetric | bit-identical (two-step merge via [`ips_core::shard::merge_two_step`]) |
//! | sketch | deterministic and valid, but the Section 4.3 recovery tree is a *global* structure (its descent compares whole-subtree estimates), so only `shards = 1` reproduces the unsharded walk; with more shards the merged answer is a different — typically better-recall — approximation |
//!
//! All four families are bit-identical at `shards = 1`, and all four keep the
//! serving determinism invariant: mutate + compact ≡ a fresh sharded build
//! from the same live `(id, vector)` set (property-tested in
//! `tests/tests/proptest_store.rs`; hammered concurrently in
//! `tests/tests/sharded_stress.rs`).
//!
//! # Persistence
//!
//! [`ShardedServingIndex::save`] writes the PR-3 single-shard format
//! ([`crate::snapshot::VERSION`]) when the index has exactly one shard — those
//! files stay interchangeable with plain [`ServingIndex`] — and the
//! multi-shard container ([`crate::snapshot::VERSION_SHARDED`]: one section
//! per shard plus the global id allocator) otherwise.
//! [`ShardedServingIndex::open`] accepts both, so every pre-existing snapshot
//! keeps loading.

use crate::error::{Result, StoreError};
use crate::format::fnv1a64;
use crate::serving::{build_index, IndexConfig, ServingConfig, ServingIndex, ServingStats};
use crate::serving::{Counters, ServingView};
use crate::snapshot::{self, IndexFamily, LoadedSnapshot, Snapshot};
use ips_core::engine::JoinEngine;
use ips_core::mips::{MipsIndex, SearchResult};
use ips_core::problem::{JoinSpec, MatchPair};
use ips_core::shard::{merge_best, merge_top_k, merge_two_step};
use ips_core::topk::TopKMipsIndex;
use ips_linalg::par::available_threads;
use ips_linalg::DenseVector;
use ips_obs::prom::PromWriter;
use ips_obs::{
    Counter, Fanout, Gauge, HistogramSnapshot, Observable, Stage, Telemetry, TraceSink, NOOP_SINK,
};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

/// Tuning of a [`ShardedServingIndex`]: the shard count plus the per-shard
/// serving configuration (engine schedule, rebuild threshold, structure seed —
/// shared by every shard; see the [module docs](self) for why the seed must be).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardedConfig {
    /// Number of shards (at least 1).
    pub shards: usize,
    /// Per-shard serving configuration.
    pub serving: ServingConfig,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            serving: ServingConfig::default(),
        }
    }
}

impl ShardedConfig {
    /// `shards` shards with the default serving configuration.
    pub fn with_shards(shards: usize) -> Self {
        Self {
            shards,
            ..Self::default()
        }
    }
}

/// What one atomic strategy migration did — returned by
/// [`ShardedServingIndex::migrate_to`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationReport {
    /// The family served before the swap.
    pub from: IndexFamily,
    /// The family served after it.
    pub to: IndexFamily,
    /// Live vectors in the background build's snapshot.
    pub entries: usize,
    /// Mutations that landed during the build and were replayed inside the
    /// swap critical section (0 on a quiescent index).
    pub reconciled: usize,
    /// Wall time of the background build — the old index served throughout.
    pub build_ns: u64,
    /// Wall time write locks were held: the serving pause the swap caused.
    pub swap_ns: u64,
}

/// The shard an external id lives in: a deterministic FNV-1a hash of the id's
/// little-endian bytes, reduced modulo the shard count. Pure function of
/// `(id, shards)`, so routing agrees across processes and across save/load.
pub fn shard_of(id: u64, shards: usize) -> usize {
    debug_assert!(shards >= 1);
    (fnv1a64(&id.to_le_bytes()) % shards as u64) as usize
}

/// A sharded, concurrently readable serving index; see the [module docs](self).
pub struct ShardedServingIndex {
    /// `None` = the shard currently holds no vectors (possible under hash
    /// routing with few ids, or after deleting a shard's last vector and
    /// compacting it away on save/reload).
    shards: Vec<RwLock<Option<ServingIndex>>>,
    next_id: AtomicU64,
    spec: JoinSpec,
    dim: usize,
    /// The strategy currently served. Behind its own lock (not a plain field)
    /// because [`ShardedServingIndex::migrate_to`] replaces it at runtime
    /// from `&self`. Lock order: shard locks first, then this — readers that
    /// hold shard guards (the query path's family dispatch) and the migration
    /// writer (which holds every shard write lock at the swap point) both
    /// follow it, so acquisition cannot cycle.
    index_config: RwLock<IndexConfig>,
    config: ShardedConfig,
    counters: Counters,
    /// Always-on aggregate telemetry: stage-latency and workload histograms
    /// every query batch records into (a few relaxed atomic adds per batch),
    /// rendered by [`ShardedServingIndex::prometheus_metrics`].
    telemetry: Telemetry,
    /// Completed strategy migrations ([`ShardedServingIndex::migrate_to`]).
    migrations: Counter,
    /// Last drift score published by an adaptive controller, in thousandths
    /// (gauges hold integers; milli resolution matches the hysteresis
    /// thresholds' granularity). 0 until a controller reports.
    drift_milli: Gauge,
    /// Baseline for the windowed `stats` percentiles: the query-latency
    /// snapshot taken at the previous [`ShardedServingIndex::query_latency_window`]
    /// call, diffed against and replaced on each call.
    stats_window: Mutex<HistogramSnapshot>,
}

impl ShardedServingIndex {
    /// Builds a fresh sharded index over `data`, numbering external ids
    /// `0..data.len()` and routing each to its [`shard_of`] shard.
    pub fn build(
        data: Vec<DenseVector>,
        spec: JoinSpec,
        index_config: IndexConfig,
        config: ShardedConfig,
    ) -> Result<Self> {
        let next_id = data.len() as u64;
        let entries = data
            .into_iter()
            .enumerate()
            .map(|(i, v)| (i as u64, v))
            .collect();
        Self::from_entries(entries, next_id, spec, index_config, config)
    }

    /// Builds a sharded index from explicit `(external id, vector)` entries and an
    /// allocator state — the general constructor behind [`ShardedServingIndex::build`],
    /// resharding on open, and the fresh-build oracle of the determinism tests.
    ///
    /// Ids must be unique and below `next_id`; entries are routed to their
    /// [`shard_of`] shard and built there in ascending id order (the canonical
    /// order a compaction also restores), so two indexes holding the same live
    /// set are bit-identical however either got there.
    pub fn from_entries(
        mut entries: Vec<(u64, DenseVector)>,
        next_id: u64,
        spec: JoinSpec,
        index_config: IndexConfig,
        config: ShardedConfig,
    ) -> Result<Self> {
        Self::validate_config(&config)?;
        let index_config = Self::overridden(index_config, &config.serving);
        if entries.is_empty() {
            return Err(StoreError::InvalidParameter {
                name: "entries",
                reason: "a serving index needs at least one vector".into(),
            });
        }
        entries.sort_unstable_by_key(|(id, _)| *id);
        if entries.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(StoreError::InvalidParameter {
                name: "entries",
                reason: "duplicate external id".into(),
            });
        }
        let dim = entries[0].1.dim();
        let mut per_shard: Vec<Vec<(u64, DenseVector)>> =
            (0..config.shards).map(|_| Vec::new()).collect();
        for (id, v) in entries {
            per_shard[shard_of(id, config.shards)].push((id, v));
        }
        let mut shards = Vec::with_capacity(config.shards);
        for entries in per_shard {
            shards.push(RwLock::new(Self::build_shard(
                entries,
                next_id,
                spec,
                index_config,
                config.serving,
                available_threads(),
            )?));
        }
        Ok(Self {
            shards,
            next_id: AtomicU64::new(next_id),
            spec,
            dim,
            index_config: RwLock::new(index_config),
            config,
            counters: Counters::default(),
            telemetry: Telemetry::new(),
            migrations: Counter::new(),
            drift_milli: Gauge::new(),
            stats_window: Mutex::new(HistogramSnapshot::empty()),
        })
    }

    /// Applies the [`ServingConfig::probes`] override to a family
    /// configuration. `build_shard` applies the same override per shard
    /// (inside [`ServingIndex::from_snapshot`]); normalising the incoming
    /// configuration too keeps the publicly reported
    /// [`ShardedServingIndex::index_config`] — which also seeds the adaptive
    /// controller's planner — consistent with what the shards actually run.
    fn overridden(mut index_config: IndexConfig, serving: &ServingConfig) -> IndexConfig {
        if let Some(probes) = serving.probes {
            match &mut index_config {
                IndexConfig::Alsh(params) => params.probes = probes,
                IndexConfig::Symmetric(params) => params.probes = probes,
                IndexConfig::Brute | IndexConfig::Sketch { .. } => {}
            }
        }
        index_config
    }

    /// Builds one shard's [`ServingIndex`] over its routed entries (`None` when the
    /// shard receives no vectors). Entries arrive in ascending id order.
    fn build_shard(
        entries: Vec<(u64, DenseVector)>,
        next_id: u64,
        spec: JoinSpec,
        index_config: IndexConfig,
        serving: ServingConfig,
        threads: usize,
    ) -> Result<Option<ServingIndex>> {
        if entries.is_empty() {
            return Ok(None);
        }
        let ids: Vec<u64> = entries.iter().map(|(id, _)| *id).collect();
        let data: Vec<DenseVector> = entries.into_iter().map(|(_, v)| v).collect();
        let index = build_index(data, spec, index_config, serving.seed, threads)?;
        let snapshot = Snapshot::with_ids(index, ids, next_id)?;
        Ok(Some(ServingIndex::from_snapshot(snapshot, serving)?))
    }

    fn validate_config(config: &ShardedConfig) -> Result<()> {
        if config.shards == 0 {
            return Err(StoreError::InvalidParameter {
                name: "shards",
                reason: "a sharded index needs at least one shard".into(),
            });
        }
        if !(config.serving.rebuild_threshold > 0.0) {
            return Err(StoreError::InvalidParameter {
                name: "rebuild_threshold",
                reason: format!("must be positive, got {}", config.serving.rebuild_threshold),
            });
        }
        Ok(())
    }

    /// Loads a snapshot file — either layout — preserving its stored shard count.
    /// Only serving-time configuration applies; the structures are restored
    /// bit-identically, never rebuilt.
    pub fn open(path: &Path, serving: ServingConfig) -> Result<Self> {
        match snapshot::load_any(path)? {
            LoadedSnapshot::Single(snap) => Ok(ServingIndex::from_snapshot(*snap, serving)?.into()),
            LoadedSnapshot::Sharded { shards, next_id } => {
                Self::from_shard_snapshots(shards, next_id, serving)
            }
        }
    }

    /// Loads a snapshot file and re-partitions its live vectors across `config.shards`
    /// shards (a no-op rearrangement when the counts already agree — but the
    /// structures are rebuilt from the live set either way, re-seeded from
    /// `config.serving.seed`, so use [`ShardedServingIndex::open`] when the stored
    /// layout should be preserved).
    pub fn open_resharded(path: &Path, config: ShardedConfig) -> Result<Self> {
        Self::validate_config(&config)?;
        let loaded = Self::open(path, config.serving)?;
        let entries = loaded.live_entries();
        let next_id = loaded.next_id.load(Ordering::Relaxed);
        Self::from_entries(entries, next_id, loaded.spec, loaded.index_config(), config)
    }

    fn from_shard_snapshots(
        snaps: Vec<Option<Snapshot>>,
        next_id: u64,
        serving: ServingConfig,
    ) -> Result<Self> {
        let shard_count = snaps.len();
        let mut shards = Vec::with_capacity(shard_count);
        let mut meta: Option<(JoinSpec, usize, IndexConfig)> = None;
        let mut max_next = next_id;
        for (j, snap) in snaps.into_iter().enumerate() {
            let shard = match snap {
                None => None,
                Some(snap) => {
                    let index = ServingIndex::from_snapshot(snap, serving)?;
                    for id in index.ids() {
                        if shard_of(id, shard_count) != j {
                            return Err(StoreError::Corrupt {
                                context: "sharded body",
                                reason: format!(
                                    "id {id} stored in shard {j} but routes to shard {}",
                                    shard_of(id, shard_count)
                                ),
                            });
                        }
                    }
                    match &meta {
                        None => meta = Some((index.spec(), index.dim(), index.index_config())),
                        Some((spec, dim, _)) => {
                            if index.spec() != *spec || index.dim() != *dim {
                                return Err(StoreError::Corrupt {
                                    context: "sharded body",
                                    reason: "shards disagree on spec or dimension".into(),
                                });
                            }
                        }
                    }
                    max_next = max_next.max(index.next_id());
                    Some(index)
                }
            };
            shards.push(RwLock::new(shard));
        }
        let (spec, dim, index_config) = meta.ok_or(StoreError::Corrupt {
            context: "sharded body",
            reason: "every shard is empty".into(),
        })?;
        Ok(Self {
            shards,
            next_id: AtomicU64::new(max_next),
            spec,
            dim,
            index_config: RwLock::new(index_config),
            config: ShardedConfig {
                shards: shard_count,
                serving,
            },
            counters: Counters::default(),
            telemetry: Telemetry::new(),
            migrations: Counter::new(),
            drift_milli: Gauge::new(),
            stats_window: Mutex::new(HistogramSnapshot::empty()),
        })
    }

    /// Compacts every shard and writes a snapshot file, returning the bytes written:
    /// the single-shard format for one shard, the multi-shard container otherwise.
    /// Like [`ServingIndex::save`], an index with no live vectors cannot be saved.
    pub fn save(&self, path: &Path) -> Result<u64> {
        // Write locks are taken on every shard in index order (the same order the
        // readers use), so the snapshot is a consistent point-in-time cut.
        let mut guards = self.write_all();
        if guards
            .iter()
            .all(|g| g.as_ref().is_none_or(|s| s.is_empty()))
        {
            return Err(StoreError::InvalidParameter {
                name: "serving",
                reason: "cannot snapshot an index with no live vectors; insert before saving"
                    .into(),
            });
        }
        // Everything that can fail short of I/O happens before a byte is written:
        // each shard is compacted here and only read from while streaming.
        let mut shards = Vec::with_capacity(guards.len());
        for guard in guards.iter_mut() {
            shards.push(match guard.as_mut() {
                Some(shard) if !shard.is_empty() => Some(shard.compacted()?),
                // A shard whose last vector was deleted is saved as empty; its
                // allocator state is covered by the container's global next id.
                _ => None,
            });
        }
        let next_id = self.next_id.load(Ordering::Relaxed);
        snapshot::save_atomically(path, |w| match shards.as_slice() {
            [Some(only)] => only.write(w),
            _ => snapshot::write_sharded(w, &shards, next_id),
        })
    }

    /// The index family being served. Under an adaptive controller this can
    /// change over the index's lifetime — see [`ShardedServingIndex::migrate_to`].
    pub fn family(&self) -> IndexFamily {
        self.index_config().family()
    }

    /// The strategy configuration currently served (what a rebuild — or an
    /// empty shard's first insert — builds).
    pub fn index_config(&self) -> IndexConfig {
        *self
            .index_config
            .read()
            .expect("index_config lock poisoned")
    }

    /// The per-shard serving configuration (engine schedule, rebuild
    /// threshold, structure seed, adaptive knobs).
    pub fn serving_config(&self) -> ServingConfig {
        self.config.serving
    }

    /// The next external id the global allocator will hand out — together
    /// with [`ShardedServingIndex::live_entries`] this is the full input of
    /// the fresh-build oracle ([`ShardedServingIndex::from_entries`]).
    pub fn next_id(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed)
    }

    /// Completed strategy migrations ([`ShardedServingIndex::migrate_to`]).
    pub fn migrations(&self) -> u64 {
        self.migrations.get()
    }

    /// Publishes the drift score an adaptive controller measured (clamped to
    /// `[0, 1]`), surfaced by the `plan` / `stats` protocol commands and the
    /// Prometheus exposition.
    pub fn set_drift_score(&self, score: f64) {
        self.drift_milli
            .set((score.clamp(0.0, 1.0) * 1000.0).round() as u64);
    }

    /// The last published drift score (0.0 until a controller reports).
    pub fn drift_score(&self) -> f64 {
        self.drift_milli.get() as f64 / 1000.0
    }

    /// The `(cs, s)` spec queries are answered under.
    pub fn spec(&self) -> JoinSpec {
        self.spec
    }

    /// The data dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Live vectors per shard, in shard order.
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| self.read_shard(s).as_ref().map_or(0, |shard| shard.len()))
            .collect()
    }

    /// Number of live vectors across all shards.
    pub fn len(&self) -> usize {
        self.shard_lens().iter().sum()
    }

    /// Returns `true` when no shard holds a live vector.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The live external ids, ascending.
    pub fn ids(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for shard in &self.shards {
            if let Some(shard) = self.read_shard(shard).as_ref() {
                out.extend(shard.ids());
            }
        }
        out.sort_unstable();
        out
    }

    /// The vector behind a live external id (cloned out of its shard, since the
    /// shard lock cannot outlive this call).
    pub fn vector(&self, id: u64) -> Result<DenseVector> {
        let shard = self.read_shard(&self.shards[shard_of(id, self.shards.len())]);
        match shard.as_ref() {
            Some(shard) => Ok(shard.vector(id)?.clone()),
            None => Err(StoreError::UnknownId { id }),
        }
    }

    /// Aggregated counters: query/hit/latency from this layer (queries run across
    /// shards), insert/delete/rebuild summed from the shards.
    pub fn stats(&self) -> ServingStats {
        let mut total = self.counters.snapshot();
        for (_, stats) in self.per_shard(|s| s.stats()) {
            total.inserts += stats.inserts;
            total.deletes += stats.deletes;
            total.rebuilds += stats.rebuilds;
        }
        total
    }

    /// Ticks the accepted-connection counter — called by the network serving
    /// front-end once per accepted TCP session, so `stats` can report
    /// `connections=` without the server owning its own counter block.
    pub fn note_connection(&self) {
        self.counters.note_connection();
    }

    /// Ticks the coalesced-batch counter — called by the query coalescer when an
    /// engine pass merged two or more concurrent requests.
    pub(crate) fn note_coalesced_batch(&self) {
        self.counters.note_coalesced_batch();
    }

    /// Per-shard `(live vectors, counters)` rows, in shard order — what `ips serve`
    /// prints so a skewed shard is visible.
    pub fn shard_stats(&self) -> Vec<(usize, ServingStats)> {
        self.per_shard(|s| (s.len(), s.stats()))
            .into_iter()
            .map(|(_, v)| v)
            .collect()
    }

    fn per_shard<T: Default>(&self, f: impl Fn(&ServingIndex) -> T) -> Vec<(usize, T)> {
        self.shards
            .iter()
            .enumerate()
            .map(|(j, s)| (j, self.read_shard(s).as_ref().map(&f).unwrap_or_default()))
            .collect()
    }

    /// Inserts a vector, returning its stable external id. The id comes from the
    /// global atomic allocator; only the owning shard is write-locked, so inserts
    /// into different shards proceed concurrently, as do queries that have not yet
    /// reached the owning shard.
    pub fn insert(&self, v: DenseVector) -> Result<u64> {
        if v.dim() != self.dim {
            return Err(StoreError::InvalidParameter {
                name: "v",
                reason: format!("dimension {} != index dimension {}", v.dim(), self.dim),
            });
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.write_shard(&self.shards[shard_of(id, self.shards.len())]);
        match shard.as_mut() {
            Some(shard) => shard.insert_with_id(id, v)?,
            None => {
                *shard = Self::build_shard(
                    vec![(id, v)],
                    id + 1,
                    self.spec,
                    self.index_config(),
                    self.config.serving,
                    1,
                )?;
            }
        }
        Ok(id)
    }

    /// Deletes the vector behind a live external id, write-locking only the owning
    /// shard.
    pub fn delete(&self, id: u64) -> Result<()> {
        let mut shard = self.write_shard(&self.shards[shard_of(id, self.shards.len())]);
        match shard.as_mut() {
            Some(shard) => shard.delete(id),
            None => Err(StoreError::UnknownId { id }),
        }
    }

    /// Answers a batch of `(cs, s)` above-threshold queries: read locks on every
    /// shard, the batch chunked across the [`JoinEngine`]'s workers, per-shard
    /// answers merged exactly (see the [module docs](self) for the per-family
    /// bit-identity guarantees). Results carry external ids in `data_index`.
    pub fn query(&self, queries: &[DenseVector]) -> Result<Vec<MatchPair>> {
        self.query_with_sink(queries, &NOOP_SINK)
    }

    /// [`ShardedServingIndex::query`] with a caller-supplied [`TraceSink`]
    /// receiving the per-stage breakdown of this batch (lock wait, engine,
    /// merge) and its workload observables — the `trace on`
    /// implementation. The sink only observes: answers are bit-identical to
    /// [`ShardedServingIndex::query`], and the always-on aggregate
    /// [`Telemetry`] records either way.
    pub fn query_with_sink(
        &self,
        queries: &[DenseVector],
        sink: &dyn TraceSink,
    ) -> Result<Vec<MatchPair>> {
        let fan = Fanout {
            a: &self.telemetry,
            b: sink,
        };
        let start = Instant::now();
        let guards = self.read_all();
        fan.stage_ns(Stage::LockWait, start.elapsed().as_nanos() as u64);
        let engine =
            JoinEngine::with_config(self.sink_view(&guards, &fan), self.config.serving.engine);
        let pairs = engine.run_with_sink(queries, &fan)?;
        self.observe_workload(&fan, queries);
        let total = start.elapsed();
        self.telemetry.record_query_latency(total.as_nanos() as u64);
        self.counters
            .note_queries(queries.len(), pairs.len(), start);
        self.slow_log("query", queries.len(), pairs.len(), total);
        Ok(pairs)
    }

    /// Answers a batch of top-`k` queries (up to `k` partners per query, best first):
    /// per-shard top-`k` heaps merged exactly through [`ips_core::shard::merge_top_k`].
    pub fn query_top_k(&self, queries: &[DenseVector], k: usize) -> Result<Vec<MatchPair>> {
        self.query_top_k_with_sink(queries, k, &NOOP_SINK)
    }

    /// [`ShardedServingIndex::query_top_k`] with a caller-supplied
    /// [`TraceSink`]; see [`ShardedServingIndex::query_with_sink`].
    pub fn query_top_k_with_sink(
        &self,
        queries: &[DenseVector],
        k: usize,
        sink: &dyn TraceSink,
    ) -> Result<Vec<MatchPair>> {
        let fan = Fanout {
            a: &self.telemetry,
            b: sink,
        };
        let start = Instant::now();
        let guards = self.read_all();
        fan.stage_ns(Stage::LockWait, start.elapsed().as_nanos() as u64);
        let engine =
            JoinEngine::with_config(self.sink_view(&guards, &fan), self.config.serving.engine);
        let pairs = engine.run_top_k_with_sink(queries, k, &fan)?;
        self.observe_workload(&fan, queries);
        let total = start.elapsed();
        self.telemetry.record_query_latency(total.as_nanos() as u64);
        self.counters
            .note_queries(queries.len(), pairs.len(), start);
        self.slow_log("query_top_k", queries.len(), pairs.len(), total);
        Ok(pairs)
    }

    /// The always-on aggregate telemetry block (stage-latency and workload
    /// histograms) — what `stats` percentiles and the slow-query log read.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Records the batch's workload observables: one norm sample per query.
    fn observe_workload(&self, sink: &dyn TraceSink, queries: &[DenseVector]) {
        for q in queries {
            sink.observe(Observable::QueryNormMilli, (q.norm() * 1000.0) as u64);
        }
    }

    /// Emits one structured stderr line when the batch's wall time meets
    /// [`ServingConfig::slow_log_micros`] (0 disables).
    fn slow_log(&self, op: &str, queries: usize, hits: usize, total: std::time::Duration) {
        let threshold = self.config.serving.slow_log_micros;
        if threshold > 0 && total.as_micros() as u64 >= threshold {
            eprintln!(
                "slow-query op={op} queries={queries} hits={hits} total_micros={}",
                total.as_micros()
            );
        }
    }

    /// Renders the full metric registry as Prometheus text exposition,
    /// terminated by `# EOF` — the `metrics` protocol command. Reading the
    /// metrics records nothing, so two back-to-back scrapes of a quiescent
    /// index are byte-identical.
    pub fn prometheus_metrics(&self) -> String {
        let stats = self.stats();
        let shard_lens = self.shard_lens();
        let mut w = PromWriter::new();
        w.counter(
            "ips_queries_total",
            "Query vectors answered.",
            stats.queries,
        );
        w.counter(
            "ips_hits_total",
            "Matches returned across all queries.",
            stats.hits,
        );
        w.counter("ips_inserts_total", "Vectors inserted.", stats.inserts);
        w.counter("ips_deletes_total", "Vectors deleted.", stats.deletes);
        w.counter(
            "ips_rebuilds_total",
            "Shard structure rebuilds.",
            stats.rebuilds,
        );
        w.counter(
            "ips_connections_total",
            "TCP sessions accepted.",
            stats.connections,
        );
        w.counter(
            "ips_coalesced_batches_total",
            "Engine passes that merged two or more concurrent requests.",
            stats.coalesced_batches,
        );
        w.counter(
            "ips_migrations_total",
            "Completed strategy migrations.",
            self.migrations.get(),
        );
        w.gauge(
            "ips_drift_score_milli",
            "Last adaptive drift score, in thousandths.",
            self.drift_milli.get(),
        );
        w.gauge(
            "ips_live_vectors",
            "Live vectors across all shards.",
            shard_lens.iter().sum::<usize>() as u64,
        );
        w.gauge_family("ips_shard_live_vectors", "Live vectors per shard.");
        for (j, len) in shard_lens.iter().enumerate() {
            let shard = j.to_string();
            w.gauge_sample(
                "ips_shard_live_vectors",
                &[("shard", shard.as_str())],
                *len as u64,
            );
        }
        w.histogram(
            "ips_query_latency_ns",
            "End-to-end wall time per query batch.",
            &self.telemetry.query_latency().snapshot(),
        );
        w.histogram_family("ips_stage_ns", "Wall time per pipeline stage.");
        for stage in Stage::ALL {
            w.histogram_series(
                "ips_stage_ns",
                &[("stage", stage.name())],
                &self.telemetry.stage(stage).snapshot(),
            );
        }
        w.histogram_family(
            "ips_observed",
            "Workload observables: query norms, batch sizes, kernel candidate counts.",
        );
        for obs in Observable::ALL {
            w.histogram_series(
                "ips_observed",
                &[("observable", obs.name())],
                &self.telemetry.observable(obs).snapshot(),
            );
        }
        w.finish()
    }

    /// Forces every shard's pending state into a fresh primary structure now. After
    /// a compaction the whole index is bit-identical to a fresh sharded build from
    /// its live `(id, vector)` set.
    pub fn compact(&self) -> Result<()> {
        for shard in &self.shards {
            if let Some(shard) = self.write_shard(shard).as_mut() {
                shard.compact()?;
            }
        }
        Ok(())
    }

    /// The query-latency histogram of the window since the previous call
    /// (the whole lifetime on the first call) — what the `stats` protocol
    /// command's percentiles report, so `p50_query_ns=` describes recent
    /// traffic rather than averaging a long-lived server's history away.
    /// Callers share one window: each call advances the baseline.
    pub fn query_latency_window(&self) -> HistogramSnapshot {
        let current = self.telemetry.query_latency().snapshot();
        let mut baseline = self.stats_window.lock().expect("stats window poisoned");
        let window = current.diff(&baseline);
        *baseline = current;
        window
    }

    /// Atomically migrates the whole index to a new strategy configuration,
    /// preserving external ids, counters, and the global id allocator — the
    /// swap step of the `ips-adapt` closed control loop.
    ///
    /// Two phases:
    ///
    /// 1. **Background build** (old index keeps serving): the live
    ///    `(id, vector)` set is snapshotted under briefly-held read locks and
    ///    replacement shard structures are built from it with *no* locks held,
    ///    through exactly the deterministic machinery of
    ///    [`ShardedServingIndex::from_entries`] (same routing, same shared
    ///    structure seed). Queries and mutations proceed concurrently.
    /// 2. **Atomic swap** (bounded pause): write locks are taken on every
    ///    shard in index order and the replacements are swapped in. Mutations
    ///    that landed between the snapshot and the swap are reconciled inside
    ///    the critical section — replayed onto the replacement shard and
    ///    compacted — so no mutation is ever lost, and the swapped-in index is
    ///    bit-identical to a fresh build from the *final* live set under the
    ///    new configuration (the determinism oracle the migration proptests
    ///    pin). The pause is the swap, not the build:
    ///    [`MigrationReport::swap_ns`] bounds it.
    ///
    /// Queries in flight when the swap begins finish on the old structures
    /// (they hold read locks the swap waits for); queries arriving during the
    /// swap block briefly and are answered by the new ones. The migration
    /// counter ticks once on success.
    pub fn migrate_to(&self, target: IndexConfig) -> Result<MigrationReport> {
        // The serving-config probes override outlives any one family: a
        // migration target is normalised just like the build-time
        // configuration, so an operator's load-time override is not silently
        // dropped by the adaptive controller's next migration.
        let target = Self::overridden(target, &self.config.serving);
        let from = self.family();
        let build_start = Instant::now();
        // Phase 1: snapshot and build — no locks held while building.
        let entries = self.live_entries();
        if entries.is_empty() {
            return Err(StoreError::InvalidParameter {
                name: "migrate",
                reason: "cannot migrate an index with no live vectors".into(),
            });
        }
        // Loaded after the snapshot, so it covers every id the snapshot saw.
        let next_at_snapshot = self.next_id.load(Ordering::Relaxed);
        let shard_count = self.shards.len();
        let mut per_shard: Vec<Vec<(u64, DenseVector)>> =
            (0..shard_count).map(|_| Vec::new()).collect();
        for (id, v) in entries {
            per_shard[shard_of(id, shard_count)].push((id, v));
        }
        let built_count = per_shard.iter().map(Vec::len).sum();
        let mut built = Vec::with_capacity(shard_count);
        for entries in per_shard {
            // One thread: the old index is serving on the others.
            built.push(Self::build_shard(
                entries,
                next_at_snapshot,
                self.spec,
                target,
                self.config.serving,
                1,
            )?);
        }
        let build_ns = build_start.elapsed().as_nanos() as u64;

        // Phase 2: stop-the-world swap with mutation reconciliation.
        let swap_start = Instant::now();
        let mut guards = self.write_all();
        let global_next = self.next_id.load(Ordering::Relaxed);
        let mut reconciled = 0usize;
        for (guard, replacement) in guards.iter_mut().zip(built) {
            reconciled += Self::swap_shard(
                guard,
                replacement,
                global_next,
                self.spec,
                target,
                self.config.serving,
                &self.counters,
            )?;
        }
        *self
            .index_config
            .write()
            .expect("index_config lock poisoned") = target;
        drop(guards);
        self.migrations.inc();
        Ok(MigrationReport {
            from,
            to: target.family(),
            entries: built_count,
            reconciled,
            build_ns,
            swap_ns: swap_start.elapsed().as_nanos() as u64,
        })
    }

    /// Swaps one shard's replacement in, reconciling mutations that landed
    /// after the build snapshot. Runs inside the migration's write-lock
    /// critical section; returns how many mutations were replayed.
    fn swap_shard(
        guard: &mut RwLockWriteGuard<'_, Option<ServingIndex>>,
        replacement: Option<ServingIndex>,
        global_next: u64,
        spec: JoinSpec,
        target: IndexConfig,
        serving: ServingConfig,
        layer_counters: &Counters,
    ) -> Result<usize> {
        // The live set the swapped-in shard must end up holding.
        let current: Vec<(u64, DenseVector)> = match guard.as_ref() {
            Some(shard) => {
                let mut entries: Vec<(u64, DenseVector)> = shard
                    .ids()
                    .into_iter()
                    .map(|id| (id, shard.vector(id).expect("listed id is live").clone()))
                    .collect();
                entries.sort_unstable_by_key(|(id, _)| *id);
                entries
            }
            None => Vec::new(),
        };
        let old_stats = guard.as_ref().map(|s| s.stats()).unwrap_or_default();
        if current.is_empty() {
            // The canonical form of an empty shard is `None` (what a fresh
            // build produces). Its mutation history moves to the layer
            // counters so `stats()` totals survive the retirement.
            if guard.is_some() {
                layer_counters.absorb_mutations(&old_stats);
            }
            **guard = None;
            return Ok(0);
        }
        let current_ids: BTreeSet<u64> = current.iter().map(|(id, _)| *id).collect();
        let built_ids: BTreeSet<u64> = replacement
            .as_ref()
            .map(|r| r.ids().into_iter().collect())
            .unwrap_or_default();
        let mut replacement = match replacement {
            Some(r) => r,
            // Built empty (the shard had no vectors at the snapshot) but
            // mutations have since populated it: build it fresh — already
            // canonical, nothing to replay.
            None => {
                let replayed = current.len();
                let threads = available_threads();
                let mut shard =
                    Self::build_shard(current, global_next, spec, target, serving, threads)?
                        .expect("non-empty entries build a shard");
                shard.set_mutation_history(&old_stats);
                **guard = Some(shard);
                return Ok(replayed);
            }
        };
        let mut replayed = 0usize;
        if current_ids != built_ids {
            // Replay the delta: deletes of snapshotted ids that died during
            // the build, inserts of ids born during it. Vectors behind a
            // stable id never change, so the symmetric difference is the
            // entire divergence. Compaction then restores the canonical
            // fresh-build form (the serving determinism invariant).
            for id in built_ids.difference(&current_ids) {
                replacement.delete(*id)?;
                replayed += 1;
            }
            for (id, v) in &current {
                if !built_ids.contains(id) {
                    replacement.insert_with_id(*id, v.clone())?;
                    replayed += 1;
                }
            }
            replacement.compact()?;
        }
        // Replayed mutations were already counted by the retired shard: set,
        // not add, so totals stay exact.
        replacement.set_mutation_history(&old_stats);
        replacement.raise_next_id(global_next);
        **guard = Some(replacement);
        Ok(replayed)
    }

    /// Live `(external id, vector)` pairs across all shards, ascending by id —
    /// with [`ShardedServingIndex::next_id`], the input a fresh-build oracle
    /// ([`ShardedServingIndex::from_entries`]) or an adaptive controller's
    /// re-sampled [`ips_core::planner::WorkloadStats`] needs. Shard read locks
    /// are taken one at a time, so this does not block concurrent queries.
    pub fn live_entries(&self) -> Vec<(u64, DenseVector)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            if let Some(shard) = self.read_shard(shard).as_ref() {
                for id in shard.ids() {
                    out.push((id, shard.vector(id).expect("listed id is live").clone()));
                }
            }
        }
        out.sort_unstable_by_key(|(id, _)| *id);
        out
    }

    fn read_shard<'a>(
        &self,
        shard: &'a RwLock<Option<ServingIndex>>,
    ) -> RwLockReadGuard<'a, Option<ServingIndex>> {
        shard.read().expect("shard lock poisoned")
    }

    fn write_shard<'a>(
        &self,
        shard: &'a RwLock<Option<ServingIndex>>,
    ) -> RwLockWriteGuard<'a, Option<ServingIndex>> {
        shard.write().expect("shard lock poisoned")
    }

    /// Read guards over every shard, acquired in index order (writers that take
    /// multiple locks use the same order, so lock acquisition cannot cycle).
    fn read_all(&self) -> Vec<RwLockReadGuard<'_, Option<ServingIndex>>> {
        self.shards.iter().map(|s| self.read_shard(s)).collect()
    }

    fn write_all(&self) -> Vec<RwLockWriteGuard<'_, Option<ServingIndex>>> {
        self.shards.iter().map(|s| self.write_shard(s)).collect()
    }

    fn sink_view<'a>(
        &self,
        guards: &'a [RwLockReadGuard<'_, Option<ServingIndex>>],
        sink: &'a dyn TraceSink,
    ) -> ShardedView<'a> {
        ShardedView {
            shards: guards.iter().filter_map(|g| g.as_ref()).collect(),
            spec: self.spec,
            family: self.family(),
            sink,
        }
    }
}

/// A one-shard sharded index is exactly a [`ServingIndex`] plus the (trivial)
/// merge layer — the conversion the registry and builder use so unsharded and
/// sharded serving share one routing surface.
impl From<ServingIndex> for ShardedServingIndex {
    fn from(index: ServingIndex) -> Self {
        Self {
            next_id: AtomicU64::new(index.next_id()),
            spec: index.spec(),
            dim: index.dim(),
            index_config: RwLock::new(index.index_config()),
            config: ShardedConfig {
                shards: 1,
                serving: index.serving_config(),
            },
            // Query/hit/latency history carries over (queries tick at this layer
            // from now on); mutation counters keep living in the wrapped shard.
            counters: Counters::with_query_history(&index.stats()),
            telemetry: Telemetry::new(),
            migrations: Counter::new(),
            drift_milli: Gauge::new(),
            stats_window: Mutex::new(HistogramSnapshot::empty()),
            shards: vec![RwLock::new(Some(index))],
        }
    }
}

/// A borrow of every (non-empty) shard that speaks [`MipsIndex`] /
/// [`TopKMipsIndex`] with external ids, merging per-shard answers exactly — the
/// adapter [`ShardedServingIndex::query`] feeds to the [`JoinEngine`], mirroring
/// what [`ServingView`] is to a single [`ServingIndex`].
pub struct ShardedView<'a> {
    shards: Vec<&'a ServingIndex>,
    spec: JoinSpec,
    family: IndexFamily,
    /// Receives per-query merge timings; engine workers record concurrently,
    /// so an accumulating sink sums across threads.
    sink: &'a dyn TraceSink,
}

impl MipsIndex for ShardedView<'_> {
    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    fn spec(&self) -> JoinSpec {
        self.spec
    }

    fn search(&self, query: &DenseVector) -> ips_core::Result<Option<SearchResult>> {
        // The symmetric two-step search must merge its steps separately: the
        // diagonal probe's early exit can shadow a better candidate, and which
        // probe answers is a property of the union, not of any one shard.
        if self.family == IndexFamily::Symmetric {
            let mut parts = Vec::with_capacity(self.shards.len());
            for shard in &self.shards {
                parts.push(shard.search_parts(query).map_err(to_core)?);
            }
            let start = Instant::now();
            let merged = merge_two_step(&self.spec, &parts);
            self.sink
                .stage_ns(Stage::Merge, start.elapsed().as_nanos() as u64);
            return Ok(merged);
        }
        let mut hits = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            hits.extend(ServingView(shard).search(query)?);
        }
        let start = Instant::now();
        let merged = merge_best(&self.spec, hits);
        self.sink
            .stage_ns(Stage::Merge, start.elapsed().as_nanos() as u64);
        Ok(merged)
    }
}

impl TopKMipsIndex for ShardedView<'_> {
    fn search_top_k(&self, query: &DenseVector, k: usize) -> ips_core::Result<Vec<SearchResult>> {
        let mut lists = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            lists.push(ServingView(shard).search_top_k(query, k)?);
        }
        let start = Instant::now();
        let merged = merge_top_k(&self.spec, lists, k);
        self.sink
            .stage_ns(Stage::Merge, start.elapsed().as_nanos() as u64);
        Ok(merged)
    }
}

/// The serving layer reports its own error type; the engine speaks
/// [`ips_core::CoreError`]. Wrap rather than lose the message.
fn to_core(e: StoreError) -> ips_core::CoreError {
    ips_core::CoreError::InvalidParameter {
        name: "shard",
        reason: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_core::asymmetric::AlshParams;
    use ips_core::problem::JoinVariant;
    use ips_core::symmetric::SymmetricParams;
    use ips_linalg::random::{random_ball_vector, random_unit_vector};
    use ips_sketch::linf_mips::MaxIpConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    fn families() -> Vec<IndexConfig> {
        vec![
            IndexConfig::Brute,
            IndexConfig::Alsh(AlshParams::default()),
            IndexConfig::Symmetric(SymmetricParams::default()),
            IndexConfig::Sketch {
                config: MaxIpConfig::default(),
                leaf_size: 8,
            },
        ]
    }

    #[test]
    fn sharded_matches_unsharded_for_decomposable_families() {
        let dim = 10;
        let data = vectors(0x5A, 90, dim, 0.9);
        let queries = vectors(0x5B, 16, dim, 1.0);
        for index_config in [
            IndexConfig::Brute,
            IndexConfig::Alsh(AlshParams::default()),
            IndexConfig::Symmetric(SymmetricParams::default()),
        ] {
            let unsharded =
                ServingIndex::build(data.clone(), spec(), index_config, ServingConfig::default())
                    .unwrap();
            let expected = unsharded.query(&queries).unwrap();
            let expected_top = unsharded.query_top_k(&queries, 3).unwrap();
            for shards in [1usize, 2, 3, 5] {
                let sharded = ShardedServingIndex::build(
                    data.clone(),
                    spec(),
                    index_config,
                    ShardedConfig::with_shards(shards),
                )
                .unwrap();
                assert_eq!(sharded.shard_count(), shards);
                assert_eq!(sharded.len(), 90);
                assert_eq!(
                    sharded.shard_lens().iter().sum::<usize>(),
                    90,
                    "shard sizes must partition the data"
                );
                let got = sharded.query(&queries).unwrap();
                assert_eq!(got, expected, "{index_config:?} shards={shards}");
                let got_top = sharded.query_top_k(&queries, 3).unwrap();
                assert_eq!(got_top, expected_top, "{index_config:?} shards={shards}");
            }
        }
    }

    #[test]
    fn single_shard_sketch_matches_unsharded_and_multi_shard_is_deterministic() {
        let dim = 8;
        let data = vectors(0x6A, 60, dim, 0.9);
        let queries = vectors(0x6B, 12, dim, 1.0);
        let index_config = IndexConfig::Sketch {
            config: MaxIpConfig::default(),
            leaf_size: 4,
        };
        let unsharded =
            ServingIndex::build(data.clone(), spec(), index_config, ServingConfig::default())
                .unwrap();
        let one = ShardedServingIndex::build(
            data.clone(),
            spec(),
            index_config,
            ShardedConfig::default(),
        )
        .unwrap();
        assert_eq!(
            one.query(&queries).unwrap(),
            unsharded.query(&queries).unwrap()
        );
        // Multi-shard sketch: a different (per-shard) walk, but deterministic and
        // valid — two identical builds agree bit for bit, every answer clears cs.
        let a = ShardedServingIndex::build(
            data.clone(),
            spec(),
            index_config,
            ShardedConfig::with_shards(4),
        )
        .unwrap();
        let b =
            ShardedServingIndex::build(data, spec(), index_config, ShardedConfig::with_shards(4))
                .unwrap();
        let pa = a.query(&queries).unwrap();
        assert_eq!(pa, b.query(&queries).unwrap());
        for p in &pa {
            assert!(spec().acceptable(p.inner_product));
        }
    }

    #[test]
    fn mutations_route_to_shards_and_lifecycle_works_per_family() {
        let dim = 12;
        let data = vectors(0x7A, 40, dim, 0.2);
        let mut rng = StdRng::seed_from_u64(0x7B);
        let query = random_unit_vector(&mut rng, dim).unwrap();
        for index_config in families() {
            let sharded = ShardedServingIndex::build(
                data.clone(),
                spec(),
                index_config,
                ShardedConfig::with_shards(4),
            )
            .unwrap();
            assert!(sharded
                .query(std::slice::from_ref(&query))
                .unwrap()
                .is_empty());
            let id = sharded.insert(query.scaled(0.9)).unwrap();
            assert_eq!(id, 40);
            let pairs = sharded.query(std::slice::from_ref(&query)).unwrap();
            assert_eq!(pairs.len(), 1, "{index_config:?}");
            assert_eq!(pairs[0].data_index as u64, id);
            let top = sharded
                .query_top_k(std::slice::from_ref(&query), 2)
                .unwrap();
            assert!(top.iter().any(|p| p.data_index as u64 == id));
            assert_eq!(sharded.vector(id).unwrap(), query.scaled(0.9));
            sharded.delete(id).unwrap();
            assert!(sharded.delete(id).is_err(), "double delete must fail");
            assert!(sharded.delete(9_999).is_err());
            assert!(sharded
                .query(std::slice::from_ref(&query))
                .unwrap()
                .is_empty());
            assert!(sharded.insert(DenseVector::zeros(dim + 1)).is_err());
            let stats = sharded.stats();
            assert_eq!(stats.queries, 4);
            assert_eq!(stats.inserts, 1);
            assert_eq!(stats.deletes, 1);
            assert!(stats.query_ns > 0);
            assert_eq!(sharded.len(), 40);
            assert_eq!(sharded.ids(), (0..40).collect::<Vec<u64>>());
            assert_eq!(sharded.shard_stats().len(), 4);
        }
    }

    #[test]
    fn save_load_round_trips_both_layouts() {
        let dim = 10;
        let data = vectors(0x8A, 50, dim, 0.9);
        let queries = vectors(0x8B, 10, dim, 1.0);
        let dir = std::env::temp_dir().join("ips-store-sharded-test");
        std::fs::create_dir_all(&dir).unwrap();
        for shards in [1usize, 4] {
            let sharded = ShardedServingIndex::build(
                data.clone(),
                spec(),
                IndexConfig::Alsh(AlshParams::default()),
                ShardedConfig::with_shards(shards),
            )
            .unwrap();
            sharded.delete(7).unwrap();
            let added = sharded
                .insert(vectors(0x8C, 1, dim, 0.9).pop().unwrap())
                .unwrap();
            let path = dir.join(format!("sharded-{shards}.snap"));
            let bytes = sharded.save(&path).unwrap();
            assert!(bytes > 0);
            let reloaded = ShardedServingIndex::open(&path, ServingConfig::default()).unwrap();
            assert_eq!(reloaded.shard_count(), shards);
            assert_eq!(reloaded.ids(), sharded.ids());
            assert!(reloaded.ids().contains(&added));
            assert_eq!(
                reloaded.query(&queries).unwrap(),
                sharded.query(&queries).unwrap(),
                "save → load must not change a single answer (shards={shards})"
            );
            // The single-shard layout stays interchangeable with ServingIndex.
            if shards == 1 {
                let plain = ServingIndex::open(&path, ServingConfig::default()).unwrap();
                assert_eq!(plain.len(), sharded.len());
            } else {
                let err = match ServingIndex::open(&path, ServingConfig::default()) {
                    Err(e) => e,
                    Ok(_) => panic!("a multi-shard file must not load as single-shard"),
                };
                assert!(err.to_string().contains("multi-shard"), "{err}");
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn resharding_preserves_answers_for_decomposable_families() {
        let dim = 8;
        let data = vectors(0x9A, 70, dim, 0.9);
        let queries = vectors(0x9B, 9, dim, 1.0);
        let dir = std::env::temp_dir().join("ips-store-reshard-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reshard.snap");
        let four = ShardedServingIndex::build(
            data,
            spec(),
            IndexConfig::Alsh(AlshParams::default()),
            ShardedConfig::with_shards(4),
        )
        .unwrap();
        four.save(&path).unwrap();
        let expected = four.query(&queries).unwrap();
        for shards in [1usize, 2, 4, 6] {
            let resharded =
                ShardedServingIndex::open_resharded(&path, ShardedConfig::with_shards(shards))
                    .unwrap();
            assert_eq!(resharded.shard_count(), shards);
            assert_eq!(
                resharded.query(&queries).unwrap(),
                expected,
                "resharding to {shards} changed answers"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_shards_and_deleted_out_shards_serve_and_save() {
        // 3 vectors over 8 shards: most shards are empty from the start.
        let dim = 6;
        let data = vectors(0xAA, 3, dim, 0.9);
        let sharded = ShardedServingIndex::build(
            data,
            spec(),
            IndexConfig::Brute,
            ShardedConfig::with_shards(8),
        )
        .unwrap();
        assert_eq!(sharded.len(), 3);
        let mut rng = StdRng::seed_from_u64(0xAB);
        let q = random_unit_vector(&mut rng, dim).unwrap();
        sharded.query(std::slice::from_ref(&q)).unwrap();
        // Delete everything: still serveable (misses), not snapshot-able.
        for id in sharded.ids() {
            sharded.delete(id).unwrap();
        }
        assert!(sharded.is_empty());
        assert!(sharded.query(std::slice::from_ref(&q)).unwrap().is_empty());
        let path = std::env::temp_dir().join("ips-store-sharded-empty.snap");
        let _ = std::fs::remove_file(&path);
        assert!(sharded.save(&path).is_err());
        assert!(!path.exists());
        // Inserts resume with fresh ids from the global allocator.
        let id = sharded.insert(q.scaled(0.9)).unwrap();
        assert_eq!(id, 3);
        assert_eq!(sharded.query(std::slice::from_ref(&q)).unwrap().len(), 1);
        // And a partially-emptied index saves: empty shards round-trip as empty,
        // the allocator never regresses.
        let bytes = sharded.save(&path).unwrap();
        assert!(bytes > 0);
        let reloaded = ShardedServingIndex::open(&path, ServingConfig::default()).unwrap();
        assert_eq!(reloaded.len(), 1);
        let next = reloaded.insert(q.scaled(0.8)).unwrap();
        assert_eq!(next, 4, "allocator must survive empty-shard round trips");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let data = vectors(0xBA, 4, 4, 0.9);
        assert!(ShardedServingIndex::build(
            data.clone(),
            spec(),
            IndexConfig::Brute,
            ShardedConfig::with_shards(0),
        )
        .is_err());
        assert!(ShardedServingIndex::build(
            Vec::new(),
            spec(),
            IndexConfig::Brute,
            ShardedConfig::default(),
        )
        .is_err());
        let bad = ShardedConfig {
            shards: 2,
            serving: ServingConfig {
                rebuild_threshold: 0.0,
                ..ServingConfig::default()
            },
        };
        assert!(ShardedServingIndex::build(data, spec(), IndexConfig::Brute, bad).is_err());
    }

    #[test]
    fn migrate_to_swaps_the_family_and_matches_the_fresh_build_oracle() {
        let dim = 10;
        let data = vectors(0xDA, 48, dim, 0.9);
        let queries = vectors(0xDB, 12, dim, 1.0);
        let sharded = ShardedServingIndex::build(
            data,
            spec(),
            IndexConfig::Brute,
            ShardedConfig::with_shards(3),
        )
        .unwrap();
        // Warm history the migration must preserve.
        let extra = vectors(0xDC, 2, dim, 0.9);
        for v in extra {
            sharded.insert(v).unwrap();
        }
        sharded.delete(5).unwrap();
        sharded.query(&queries).unwrap();
        let before = sharded.stats();
        for target in families() {
            let report = sharded.migrate_to(target).unwrap();
            assert_eq!(report.to, target.family());
            assert_eq!(report.entries, 49);
            assert_eq!(report.reconciled, 0, "quiescent index replays nothing");
            assert_eq!(sharded.family(), target.family());
            // Bit-identical to a fresh sharded build from the live set under
            // the target configuration.
            let oracle = ShardedServingIndex::from_entries(
                sharded.live_entries(),
                sharded.next_id(),
                sharded.spec(),
                target,
                ShardedConfig::with_shards(3),
            )
            .unwrap();
            assert_eq!(
                sharded.query(&queries).unwrap(),
                oracle.query(&queries).unwrap(),
                "{target:?}"
            );
            assert_eq!(
                sharded.query_top_k(&queries, 3).unwrap(),
                oracle.query_top_k(&queries, 3).unwrap(),
                "{target:?}"
            );
            // Mutation history survives every swap.
            let now = sharded.stats();
            assert_eq!(now.inserts, before.inserts, "{target:?}");
            assert_eq!(now.deletes, before.deletes, "{target:?}");
        }
        assert_eq!(sharded.migrations(), families().len() as u64);
        // The report's pause is the swap, not the build.
        let report = sharded.migrate_to(IndexConfig::Brute).unwrap();
        assert!(report.build_ns > 0);
        assert_eq!(report.from, IndexFamily::Sketch);
        // Ids keep flowing from the preserved global allocator.
        let q = vectors(0xDD, 1, dim, 0.9).pop().unwrap();
        assert_eq!(sharded.insert(q).unwrap(), 50);
    }

    #[test]
    fn migrating_an_empty_index_is_rejected_and_drift_gauge_round_trips() {
        let dim = 6;
        let data = vectors(0xEA, 2, dim, 0.9);
        let sharded = ShardedServingIndex::build(
            data,
            spec(),
            IndexConfig::Brute,
            ShardedConfig::with_shards(2),
        )
        .unwrap();
        for id in sharded.ids() {
            sharded.delete(id).unwrap();
        }
        assert!(sharded.migrate_to(IndexConfig::Brute).is_err());
        assert_eq!(sharded.migrations(), 0);
        assert_eq!(sharded.drift_score(), 0.0);
        sharded.set_drift_score(0.375);
        assert_eq!(sharded.drift_score(), 0.375);
        sharded.set_drift_score(7.0);
        assert_eq!(sharded.drift_score(), 1.0, "scores clamp to [0, 1]");
    }

    #[test]
    fn query_latency_window_reports_only_traffic_since_the_last_call() {
        let dim = 8;
        let data = vectors(0xFA, 10, dim, 0.9);
        let queries = vectors(0xFB, 4, dim, 1.0);
        let sharded =
            ShardedServingIndex::build(data, spec(), IndexConfig::Brute, ShardedConfig::default())
                .unwrap();
        sharded.query(&queries).unwrap();
        let first = sharded.query_latency_window();
        assert_eq!(first.count, 1, "first window covers the whole lifetime");
        assert!(first.percentile(99) > 0);
        let quiet = sharded.query_latency_window();
        assert!(quiet.is_empty(), "no traffic since the last call");
        sharded.query(&queries).unwrap();
        sharded.query(&queries).unwrap();
        assert_eq!(sharded.query_latency_window().count, 2);
        // The lifetime histogram is untouched by windowing.
        assert_eq!(sharded.telemetry().query_latency().snapshot().count, 3);
    }

    #[test]
    fn one_shard_conversion_preserves_behaviour() {
        let dim = 6;
        let data = vectors(0xCA, 20, dim, 0.9);
        let queries = vectors(0xCB, 5, dim, 1.0);
        let mut plain = ServingIndex::build(
            data.clone(),
            spec(),
            IndexConfig::Brute,
            ServingConfig::default(),
        )
        .unwrap();
        plain.delete(0).unwrap();
        plain.insert(queries[0].scaled(0.5)).unwrap();
        let expected = plain.query(&queries).unwrap();
        let history = plain.stats();
        let wrapped: ShardedServingIndex = plain.into();
        assert_eq!(wrapped.shard_count(), 1);
        // Wrapping a warm index keeps its whole counter history...
        assert_eq!(wrapped.stats(), history);
        // ...and its answers.
        assert_eq!(wrapped.query(&queries).unwrap(), expected);
        let id = wrapped.insert(queries[0].scaled(0.9)).unwrap();
        assert_eq!(id, 21);
        let after = wrapped.stats();
        assert_eq!(after.inserts, history.inserts + 1);
        assert_eq!(after.queries, history.queries + queries.len() as u64);
    }
}

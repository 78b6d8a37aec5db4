//! The fluent index facade: one typed entry point over build / load / save /
//! serve configuration.
//!
//! The sibling of [`ips_core::facade::JoinBuilder`] for the persistent side of
//! the workspace: where the join builder answers one ad-hoc batch,
//! [`IndexBuilder`] produces a long-lived [`ServingIndex`] — built fresh over a
//! data set or loaded from a snapshot file — from the same typed strategy and
//! parameter vocabulary ([`Strategy`], [`ips_core::asymmetric::AlshParams`],
//! [`EngineConfig`], …), so the CLI's `build`/`serve`/`query` subcommands, the
//! benches, and library users all configure serving the same way.
//!
//! ```
//! use ips_core::facade::Strategy;
//! use ips_core::problem::{JoinSpec, JoinVariant};
//! use ips_linalg::DenseVector;
//! use ips_store::Index;
//!
//! let data = vec![
//!     DenseVector::from(&[0.9, 0.0][..]),
//!     DenseVector::from(&[0.0, 0.8][..]),
//! ];
//! // Build an ALSH index over the data and serve it...
//! let mut serving = Index::build(data)
//!     .spec(JoinSpec::new(0.5, 0.8, JoinVariant::Signed).unwrap())
//!     .strategy(Strategy::Alsh)
//!     .seed(3)
//!     .serve()
//!     .unwrap();
//! // ...persist it, and reopen the snapshot with a different schedule.
//! let dir = std::env::temp_dir().join("ips-store-builder-doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("doc.snap");
//! serving.save(&path).unwrap();
//! let reopened = Index::open(&path).threads(1).serve().unwrap();
//! assert_eq!(reopened.len(), 2);
//! ```
//!
//! [`Strategy::Auto`] consults the cost-based planner of `ips_core::planner`
//! and therefore needs a representative query workload
//! ([`IndexBuilder::queries`]); the planner's resolved parameters (e.g. the
//! raised ALSH query radius) are what gets built, exactly as `ips build
//! algorithm=auto` has always behaved.

use crate::coalesce::{CoalesceConfig, Coalescer};
use crate::error::{Result, StoreError};
use crate::serving::{IndexConfig, ServingConfig, ServingIndex};
use crate::sharded::{ShardedConfig, ShardedServingIndex};
use ips_core::asymmetric::AlshParams;
use ips_core::engine::EngineConfig;
use ips_core::facade::Strategy;
use ips_core::planner::{self, JoinPlanner, PlannerConfig};
use ips_core::problem::JoinSpec;
use ips_core::symmetric::SymmetricParams;
use ips_linalg::DenseVector;
use ips_sketch::linf_mips::MaxIpConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

/// Entry point of the fluent index facade: [`Index::build`] starts from a data
/// set, [`Index::open`] from a snapshot file; both end in
/// [`IndexBuilder::serve`].
#[derive(Debug, Clone, Copy)]
pub struct Index;

impl Index {
    /// Starts a builder that constructs a fresh index over `data`.
    pub fn build(data: Vec<DenseVector>) -> IndexBuilder {
        IndexBuilder {
            source: Source::Data(data),
            ..IndexBuilder::empty()
        }
    }

    /// Starts a builder that loads the snapshot at `path` (the `(cs, s)` spec,
    /// family and parameters all live in the snapshot; only serving-time
    /// configuration applies).
    pub fn open<P: Into<PathBuf>>(path: P) -> IndexBuilder {
        IndexBuilder {
            source: Source::Snapshot(path.into()),
            ..IndexBuilder::empty()
        }
    }
}

#[derive(Debug, Clone)]
enum Source {
    Data(Vec<DenseVector>),
    Snapshot(PathBuf),
}

/// The fluent serving-index configuration; see the [module docs](self).
///
/// Defaults: `strategy` [`Strategy::Alsh`] (an index worth persisting, matching
/// `ips build`), per-family parameters at their [`Default`]s, engine schedule
/// [`EngineConfig::default`], rebuild threshold and seed from
/// [`ServingConfig::default`], `shards` unset (build → one shard, open → the
/// file's stored layout; see [`IndexBuilder::serve_sharded`]).
#[derive(Debug, Clone)]
#[must_use = "an IndexBuilder does nothing until `serve` is called"]
pub struct IndexBuilder {
    source: Source,
    spec: Option<JoinSpec>,
    strategy: Strategy,
    queries: Option<Vec<DenseVector>>,
    alsh: AlshParams,
    symmetric: SymmetricParams,
    sketch: MaxIpConfig,
    sketch_leaf_size: usize,
    engine: EngineConfig,
    rebuild_threshold: f64,
    seed: u64,
    scoring: ips_core::ScoringOptions,
    slow_log_micros: u64,
    probes: Option<usize>,
    adaptive: bool,
    drift_check_secs: u64,
    shards: Option<usize>,
    coalesce: CoalesceConfig,
}

impl IndexBuilder {
    fn empty() -> Self {
        let serving = ServingConfig::default();
        Self {
            source: Source::Snapshot(PathBuf::new()),
            spec: None,
            strategy: Strategy::Alsh,
            queries: None,
            alsh: AlshParams::default(),
            symmetric: SymmetricParams::default(),
            sketch: MaxIpConfig::default(),
            sketch_leaf_size: ips_sketch::DEFAULT_LEAF_SIZE,
            engine: serving.engine,
            rebuild_threshold: serving.rebuild_threshold,
            seed: serving.seed,
            scoring: serving.scoring,
            slow_log_micros: serving.slow_log_micros,
            probes: serving.probes,
            adaptive: serving.adaptive,
            drift_check_secs: serving.drift_check_secs,
            shards: None,
            coalesce: CoalesceConfig::default(),
        }
    }

    /// The `(cs, s)` contract queries are answered under. Required when
    /// building from data; rejected when opening a snapshot (the spec is part
    /// of the snapshot).
    pub fn spec(mut self, spec: JoinSpec) -> Self {
        self.spec = Some(spec);
        self
    }

    /// Which index family to build (default [`Strategy::Alsh`]);
    /// [`Strategy::Auto`] consults the cost-based planner and needs
    /// [`IndexBuilder::queries`]. Ignored when opening a snapshot.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// A representative query workload for the [`Strategy::Auto`] planner.
    /// An explicitly supplied *empty* workload is planned as-is (the planner
    /// handles an empty query set); only a workload that was never supplied
    /// makes [`Strategy::Auto`] fail.
    pub fn queries(mut self, queries: Vec<DenseVector>) -> Self {
        self.queries = Some(queries);
        self
    }

    /// ALSH parameters used by [`Strategy::Alsh`] (and as the planner's ALSH
    /// candidate under [`Strategy::Auto`]).
    pub fn alsh_params(mut self, params: AlshParams) -> Self {
        self.alsh = params;
        self
    }

    /// Symmetric-LSH parameters used by [`Strategy::Symmetric`].
    pub fn symmetric_params(mut self, params: SymmetricParams) -> Self {
        self.symmetric = params;
        self
    }

    /// Sketch configuration used by [`Strategy::Sketch`].
    pub fn sketch_config(mut self, config: MaxIpConfig) -> Self {
        self.sketch = config;
        self
    }

    /// Leaf-size floor of the sketch recovery tree (default
    /// [`ips_sketch::DEFAULT_LEAF_SIZE`]): never split a range of at most this many
    /// vectors. The tree also stops where a sketch would cost more than the scan.
    pub fn sketch_leaf_size(mut self, leaf_size: usize) -> Self {
        self.sketch_leaf_size = leaf_size;
        self
    }

    /// Worker threads of the serving [`ips_core::JoinEngine`] (`0` = one per
    /// available CPU, the default).
    pub fn threads(mut self, threads: usize) -> Self {
        self.engine.threads = threads;
        self
    }

    /// Queries per batched engine work unit (default 32).
    pub fn chunk_size(mut self, chunk_size: usize) -> Self {
        self.engine.chunk_size = chunk_size;
        self
    }

    /// The whole engine schedule in one call.
    pub fn engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// Rebuild when `(tombstoned + overlaid) / live` exceeds this fraction
    /// (default 0.25; see [`ServingConfig::rebuild_threshold`]).
    pub fn rebuild_threshold(mut self, threshold: f64) -> Self {
        self.rebuild_threshold = threshold;
        self
    }

    /// Seed for every build and rebuild, making maintenance reproducible.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Floating-point width of the serving scoring kernel (default
    /// [`ips_core::Dtype::F64`], bit-identical to the pre-kernel layer); see
    /// [`ServingConfig::scoring`]. Read by a brute primary only: the ALSH,
    /// symmetric and sketch families score their few candidates exactly in
    /// `f64` whatever the `dtype`.
    pub fn dtype(mut self, dtype: ips_core::Dtype) -> Self {
        self.scoring.dtype = dtype;
        self
    }

    /// Number of shards for [`IndexBuilder::serve_sharded`] (at least 1). When
    /// building from data the default is 1; when opening a snapshot the default is
    /// to *keep the file's stored layout* — setting a count re-partitions the live
    /// vectors across that many shards (rebuilding the structures, re-seeded from
    /// [`IndexBuilder::seed`]). Every shard derives its structure from the same
    /// seed, which is what keeps sharded answers bit-identical to unsharded ones
    /// for the candidate-decomposable families (see [`crate::sharded`]).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Extra query-directed probe buckets per LSH table (see
    /// [`ips_lsh::probe`]; default: keep the parameters' or the snapshot's own
    /// value, 0 for the defaults). Applies to [`Strategy::Alsh`] and
    /// [`Strategy::Symmetric`] builds, to the planner's LSH candidates under
    /// [`Strategy::Auto`], and — via [`ServingConfig::probes`] — to snapshots
    /// loaded with [`Index::open`], where it overrides the stored value and
    /// sticks across rebuilds. Brute and sketch indexes have no buckets to
    /// probe and ignore it.
    pub fn probes(mut self, probes: usize) -> Self {
        self.alsh.probes = probes;
        self.symmetric.probes = probes;
        self.probes = Some(probes);
        self
    }

    /// Slow-query threshold in microseconds (default 0 = disabled): a query
    /// batch whose total wall time meets the threshold emits one structured
    /// line on stderr. See [`ServingConfig::slow_log_micros`].
    pub fn slow_log_micros(mut self, micros: u64) -> Self {
        self.slow_log_micros = micros;
        self
    }

    /// Marks the served index for closed-loop adaptive control (default off):
    /// front ends spawn an `ips-adapt` drift controller next to it, which
    /// re-plans and migrates strategies when the observed workload drifts
    /// from the one the live plan was costed on. See
    /// [`ServingConfig::adaptive`]; the serving layers themselves only carry
    /// the flag.
    pub fn adaptive(mut self, adaptive: bool) -> Self {
        self.adaptive = adaptive;
        self
    }

    /// Seconds between the adaptive controller's drift checks (default 5).
    /// See [`ServingConfig::drift_check_secs`].
    pub fn drift_check_secs(mut self, secs: u64) -> Self {
        self.drift_check_secs = secs;
        self
    }

    /// How long the query coalescer of [`IndexBuilder::serve_coalescing`] waits
    /// for concurrent requests to merge, in microseconds (default 200; `0`
    /// disables coalescing). See [`CoalesceConfig::window_micros`].
    pub fn coalesce_window_micros(mut self, micros: u64) -> Self {
        self.coalesce.window_micros = micros;
        self
    }

    /// Maximum query vectors merged into one coalesced engine pass (default 32;
    /// reaching it closes the window early). See [`CoalesceConfig::max_batch`].
    pub fn coalesce_max(mut self, max_batch: usize) -> Self {
        self.coalesce.max_batch = max_batch;
        self
    }

    /// The serving-time configuration this builder describes.
    fn serving_config(&self) -> ServingConfig {
        ServingConfig {
            engine: self.engine,
            rebuild_threshold: self.rebuild_threshold,
            seed: self.seed,
            scoring: self.scoring,
            slow_log_micros: self.slow_log_micros,
            probes: self.probes,
            adaptive: self.adaptive,
            drift_check_secs: self.drift_check_secs,
        }
    }

    /// Resolves the strategy choice into a concrete [`IndexConfig`],
    /// consulting the cost-based planner for [`Strategy::Auto`].
    fn resolve_index_config(&self, data: &[DenseVector], spec: JoinSpec) -> Result<IndexConfig> {
        Ok(match self.strategy {
            Strategy::Brute => IndexConfig::Brute,
            Strategy::Alsh => IndexConfig::Alsh(self.alsh),
            Strategy::Symmetric => IndexConfig::Symmetric(self.symmetric),
            Strategy::Sketch => IndexConfig::Sketch {
                config: self.sketch,
                leaf_size: self.sketch_leaf_size,
            },
            Strategy::Auto => {
                let Some(queries) = &self.queries else {
                    return Err(StoreError::InvalidParameter {
                        name: "queries",
                        reason: "Strategy::Auto needs a representative query workload for the \
                                 cost-based planner; call .queries(...)"
                            .into(),
                    });
                };
                let mut config = PlannerConfig::with_params(
                    self.alsh,
                    self.symmetric,
                    self.sketch,
                    self.sketch_leaf_size,
                    self.engine,
                );
                config.scoring = self.scoring;
                let planner = JoinPlanner {
                    config,
                    ..JoinPlanner::default()
                };
                let mut rng = StdRng::seed_from_u64(self.seed);
                let plan = planner.plan(&mut rng, data, queries, spec)?;
                match plan.choice {
                    planner::Strategy::BruteForce => IndexConfig::Brute,
                    planner::Strategy::Alsh => IndexConfig::Alsh(plan.alsh_params),
                    planner::Strategy::Symmetric => IndexConfig::Symmetric(plan.symmetric_params),
                    planner::Strategy::Sketch => IndexConfig::Sketch {
                        config: plan.sketch_config,
                        leaf_size: plan.sketch_leaf_size,
                    },
                }
            }
        })
    }

    /// Terminal call: builds (or loads) the index and wraps it for serving.
    ///
    /// This is the *unsharded* terminal; it rejects a [`IndexBuilder::shards`]
    /// count other than 1 (use [`IndexBuilder::serve_sharded`], which also accepts
    /// multi-shard snapshot files).
    pub fn serve(mut self) -> Result<ServingIndex> {
        if let Some(shards) = self.shards {
            if shards != 1 {
                return Err(StoreError::InvalidParameter {
                    name: "shards",
                    reason: format!(
                        "serve() builds an unsharded index; use serve_sharded() for \
                         shards = {shards}"
                    ),
                });
            }
        }
        let config = self.serving_config();
        let source = std::mem::replace(&mut self.source, Source::Snapshot(PathBuf::new()));
        match source {
            Source::Snapshot(path) => {
                self.reject_spec_on_snapshot()?;
                ServingIndex::open(&path, config)
            }
            Source::Data(data) => {
                let spec = self.require_spec()?;
                let index_config = self.resolve_index_config(&data, spec)?;
                ServingIndex::build(data, spec, index_config, config)
            }
        }
    }

    /// Terminal call: builds (or loads) a [`ShardedServingIndex`].
    ///
    /// Building from data partitions the vectors across [`IndexBuilder::shards`]
    /// shards (default 1). Opening a snapshot accepts both file layouts and keeps
    /// the stored shard count unless [`IndexBuilder::shards`] asks for a
    /// re-partition.
    pub fn serve_sharded(mut self) -> Result<ShardedServingIndex> {
        let serving = self.serving_config();
        let source = std::mem::replace(&mut self.source, Source::Snapshot(PathBuf::new()));
        match source {
            Source::Snapshot(path) => {
                self.reject_spec_on_snapshot()?;
                match self.shards {
                    None => ShardedServingIndex::open(&path, serving),
                    Some(shards) => ShardedServingIndex::open_resharded(
                        &path,
                        ShardedConfig { shards, serving },
                    ),
                }
            }
            Source::Data(data) => {
                let spec = self.require_spec()?;
                let index_config = self.resolve_index_config(&data, spec)?;
                ShardedServingIndex::build(
                    data,
                    spec,
                    index_config,
                    ShardedConfig {
                        shards: self.shards.unwrap_or(1),
                        serving,
                    },
                )
            }
        }
    }

    /// Terminal call: [`IndexBuilder::serve_sharded`] wrapped in a query
    /// [`Coalescer`] configured by [`IndexBuilder::coalesce_window_micros`] /
    /// [`IndexBuilder::coalesce_max`] — the entry point of the network serving
    /// front-end, where concurrent single queries merge into one engine pass.
    pub fn serve_coalescing(self) -> Result<Coalescer> {
        let coalesce = self.coalesce;
        let serving = self.serve_sharded()?;
        Ok(Coalescer::new(std::sync::Arc::new(serving), coalesce))
    }

    fn reject_spec_on_snapshot(&self) -> Result<()> {
        if self.spec.is_some() {
            return Err(StoreError::InvalidParameter {
                name: "spec",
                reason: "a snapshot carries its own (cs, s) spec, set at build time; \
                         .spec() only applies when building from data"
                    .into(),
            });
        }
        Ok(())
    }

    fn require_spec(&self) -> Result<JoinSpec> {
        self.spec.ok_or_else(|| StoreError::InvalidParameter {
            name: "spec",
            reason: "building an index from data needs a (cs, s) spec: call .spec(...)".into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::IndexFamily;
    use ips_core::problem::JoinVariant;
    use ips_datagen::planted::{PlantedConfig, PlantedInstance};

    fn spec() -> JoinSpec {
        JoinSpec::new(0.8, 0.6, JoinVariant::Signed).unwrap()
    }

    fn workload() -> PlantedInstance {
        let mut rng = StdRng::seed_from_u64(0x1DB);
        PlantedInstance::generate(
            &mut rng,
            PlantedConfig {
                data: 150,
                queries: 12,
                dim: 16,
                background_scale: 0.05,
                planted_ip: 0.85,
                planted: 4,
            },
        )
        .unwrap()
    }

    #[test]
    fn builder_matches_direct_serving_build() {
        let inst = workload();
        let built = Index::build(inst.data().to_vec())
            .spec(spec())
            .strategy(Strategy::Alsh)
            .seed(7)
            .serve()
            .unwrap();
        let direct = ServingIndex::build(
            inst.data().to_vec(),
            spec(),
            IndexConfig::Alsh(AlshParams::default()),
            ServingConfig {
                seed: 7,
                ..ServingConfig::default()
            },
        )
        .unwrap();
        assert_eq!(built.family(), IndexFamily::Alsh);
        // Same seed, same family, same parameters: bit-equal answers.
        assert_eq!(
            built.query(inst.queries()).unwrap(),
            direct.query(inst.queries()).unwrap()
        );
    }

    #[test]
    fn every_fixed_strategy_builds_its_family() {
        let inst = workload();
        for (strategy, family) in [
            (Strategy::Brute, IndexFamily::Brute),
            (Strategy::Alsh, IndexFamily::Alsh),
            (Strategy::Sketch, IndexFamily::Sketch),
        ] {
            let serving = Index::build(inst.data().to_vec())
                .spec(spec())
                .strategy(strategy)
                .serve()
                .unwrap();
            assert_eq!(serving.family(), family);
        }
    }

    #[test]
    fn auto_requires_queries_and_then_plans() {
        let inst = workload();
        let err = Index::build(inst.data().to_vec())
            .spec(spec())
            .strategy(Strategy::Auto)
            .serve()
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("queries"), "{err}");
        // With a workload, the planner picks brute on this tiny instance.
        let serving = Index::build(inst.data().to_vec())
            .spec(spec())
            .strategy(Strategy::Auto)
            .queries(inst.queries().to_vec())
            .serve()
            .unwrap();
        assert_eq!(serving.family(), IndexFamily::Brute);
    }

    #[test]
    fn build_requires_a_spec_and_open_rejects_one() {
        let inst = workload();
        let err = Index::build(inst.data().to_vec())
            .serve()
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("spec"), "{err}");

        let dir = std::env::temp_dir().join("ips-store-builder-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.snap");
        let mut built = Index::build(inst.data().to_vec())
            .spec(spec())
            .seed(5)
            .serve()
            .unwrap();
        built.save(&path).unwrap();

        let err = Index::open(&path)
            .spec(spec())
            .serve()
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("spec"), "{err}");
        let reopened = Index::open(&path).threads(1).chunk_size(8).serve().unwrap();
        assert_eq!(reopened.len(), inst.data().len());
        assert_eq!(
            reopened.query(inst.queries()).unwrap(),
            built.query(inst.queries()).unwrap()
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sharded_terminal_builds_reshards_and_matches_unsharded() {
        let inst = workload();
        // serve() is the unsharded terminal: a shard count != 1 is redirected.
        let err = Index::build(inst.data().to_vec())
            .spec(spec())
            .shards(4)
            .serve()
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("serve_sharded"), "{err}");
        // ...but shards(1) is the same thing and allowed.
        assert!(Index::build(inst.data().to_vec())
            .spec(spec())
            .shards(1)
            .serve()
            .is_ok());

        let unsharded = Index::build(inst.data().to_vec())
            .spec(spec())
            .strategy(Strategy::Alsh)
            .seed(7)
            .serve()
            .unwrap();
        let sharded = Index::build(inst.data().to_vec())
            .spec(spec())
            .strategy(Strategy::Alsh)
            .seed(7)
            .shards(4)
            .serve_sharded()
            .unwrap();
        assert_eq!(sharded.shard_count(), 4);
        // Same seed everywhere → identical hash functions → bit-equal answers.
        assert_eq!(
            sharded.query(inst.queries()).unwrap(),
            unsharded.query(inst.queries()).unwrap()
        );

        // Round-trip through a multi-shard file, preserving and resharding.
        let dir = std::env::temp_dir().join("ips-store-builder-sharded-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("four.snap");
        sharded.save(&path).unwrap();
        let preserved = Index::open(&path).serve_sharded().unwrap();
        assert_eq!(preserved.shard_count(), 4);
        // Resharding rebuilds the structures from the live set, so the original
        // build seed must ride along for the answers to be preserved exactly.
        let resharded = Index::open(&path)
            .seed(7)
            .shards(2)
            .serve_sharded()
            .unwrap();
        assert_eq!(resharded.shard_count(), 2);
        assert_eq!(
            preserved.query(inst.queries()).unwrap(),
            resharded.query(inst.queries()).unwrap()
        );
        // The unsharded terminal cannot load a multi-shard file...
        let err = Index::open(&path).serve().map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("multi-shard"), "{err}");
        // ...and a snapshot still owns its spec under the sharded terminal too.
        let err = Index::open(&path)
            .spec(spec())
            .serve_sharded()
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("spec"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn f32_serving_reports_valid_pairs() {
        let inst = workload();
        let serving = Index::build(inst.data().to_vec())
            .spec(spec())
            .strategy(Strategy::Brute)
            .dtype(ips_core::Dtype::F32)
            .serve()
            .unwrap();
        let pairs = serving.query(inst.queries()).unwrap();
        assert!(!pairs.is_empty());
        for p in &pairs {
            let v = serving.vector(p.data_index as u64).unwrap();
            let exact = v.dot(&inst.queries()[p.query_index]).unwrap();
            assert_eq!(exact.to_bits(), p.inner_product.to_bits());
            assert!(spec().satisfies_promise(exact));
        }
    }

    #[test]
    fn probes_flow_through_build_and_override_a_reopened_snapshot() {
        let inst = workload();
        // Built with probes: the serving answers stay a superset of unprobed.
        let plain = Index::build(inst.data().to_vec())
            .spec(spec())
            .strategy(Strategy::Alsh)
            .seed(7)
            .serve()
            .unwrap();
        let mut probed = Index::build(inst.data().to_vec())
            .spec(spec())
            .strategy(Strategy::Alsh)
            .seed(7)
            .probes(4)
            .serve()
            .unwrap();
        let a = plain.query(inst.queries()).unwrap();
        let b = probed.query(inst.queries()).unwrap();
        assert!(b.len() >= a.len(), "probing lost hits");

        // Snapshots store the probed parameters; reopening without .probes()
        // keeps them, reopening with .probes(0) overrides back to classical.
        let dir = std::env::temp_dir().join("ips-store-builder-probes-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("probed.snap");
        probed.save(&path).unwrap();
        let kept = Index::open(&path).serve().unwrap();
        assert_eq!(kept.query(inst.queries()).unwrap(), b);
        let overridden = Index::open(&path).probes(0).serve().unwrap();
        assert_eq!(
            overridden.query(inst.queries()).unwrap(),
            a,
            "probes(0) on open must restore the classical lookups"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn serving_knobs_reach_the_config() {
        let inst = workload();
        let serving = Index::build(inst.data().to_vec())
            .spec(spec())
            .strategy(Strategy::Brute)
            .engine(EngineConfig::serial())
            .rebuild_threshold(0.5)
            .slow_log_micros(1_500)
            .serve()
            .unwrap();
        assert_eq!(serving.spec(), spec());
        assert_eq!(serving.serving_config().slow_log_micros, 1_500);
        // A non-positive rebuild threshold is rejected by the serving layer.
        assert!(Index::build(inst.data().to_vec())
            .spec(spec())
            .strategy(Strategy::Brute)
            .rebuild_threshold(0.0)
            .serve()
            .is_err());
    }
}

//! The [`ServingRegistry`]: a named collection of loaded serving indexes.
//!
//! A serving process typically hosts several snapshots at once (one per tenant,
//! dataset — or, since the sharded layer, one *sharded* index per tenant); the
//! registry owns them, routes by name, and aggregates their counters. It is the
//! programmatic seam under `ips serve` — the CLI serves one registry entry,
//! embedders can hold many.
//!
//! Entries are [`ShardedServingIndex`]es; a plain
//! [`ServingIndex`](crate::ServingIndex) registers via its lossless one-shard
//! conversion (`registry.register(name, index)` accepts both), so unsharded and
//! sharded serving share one routing surface — and every routed operation takes
//! `&self` on the entry (the shard locks live inside), so concurrent readers of
//! different entries, or even of one entry, never contend on the registry itself.

use crate::error::{Result, StoreError};
use crate::serving::{ServingConfig, ServingStats};
use crate::sharded::ShardedServingIndex;
use std::collections::BTreeMap;
use std::path::Path;

/// A named collection of [`ShardedServingIndex`]es.
#[derive(Default)]
pub struct ServingRegistry {
    indexes: BTreeMap<String, ShardedServingIndex>,
}

impl ServingRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered indexes.
    pub fn len(&self) -> usize {
        self.indexes.len()
    }

    /// Returns `true` when no index is registered.
    pub fn is_empty(&self) -> bool {
        self.indexes.is_empty()
    }

    /// The registered names, ascending.
    pub fn names(&self) -> Vec<&str> {
        self.indexes.keys().map(String::as_str).collect()
    }

    /// Registers an already-constructed serving index under `name` — sharded, or a
    /// plain [`ServingIndex`](crate::ServingIndex) via its one-shard conversion —
    /// replacing and returning any previous holder of the name.
    pub fn register(
        &mut self,
        name: &str,
        index: impl Into<ShardedServingIndex>,
    ) -> Option<ShardedServingIndex> {
        self.indexes.insert(name.to_string(), index.into())
    }

    /// Loads a snapshot file (either layout, keeping its stored shard count) and
    /// registers it under `name`.
    pub fn open(&mut self, name: &str, path: &Path, config: ServingConfig) -> Result<()> {
        let index = ShardedServingIndex::open(path, config)?;
        self.indexes.insert(name.to_string(), index);
        Ok(())
    }

    /// Serves a configured [`crate::builder::IndexBuilder`] and registers the
    /// result under `name` — the fluent spelling of [`ServingRegistry::open`]
    /// (and the only registration path that can also *build*):
    ///
    /// ```no_run
    /// # use ips_store::{Index, ServingRegistry};
    /// let mut registry = ServingRegistry::new();
    /// registry.serve("tenant-a", Index::open("/srv/a.snap").threads(4).shards(8))?;
    /// # ips_store::Result::Ok(())
    /// ```
    pub fn serve(&mut self, name: &str, builder: crate::builder::IndexBuilder) -> Result<()> {
        let index = builder.serve_sharded()?;
        self.indexes.insert(name.to_string(), index);
        Ok(())
    }

    /// The index registered under `name`. Queries *and* mutations route through
    /// this shared reference — the entry's shard locks provide the interior
    /// mutability.
    pub fn get(&self, name: &str) -> Result<&ShardedServingIndex> {
        self.indexes
            .get(name)
            .ok_or_else(|| StoreError::UnknownIndex {
                name: name.to_string(),
            })
    }

    /// Exclusive access to the index registered under `name`.
    pub fn get_mut(&mut self, name: &str) -> Result<&mut ShardedServingIndex> {
        self.indexes
            .get_mut(name)
            .ok_or_else(|| StoreError::UnknownIndex {
                name: name.to_string(),
            })
    }

    /// Unregisters and returns the index under `name`.
    pub fn close(&mut self, name: &str) -> Result<ShardedServingIndex> {
        self.indexes
            .remove(name)
            .ok_or_else(|| StoreError::UnknownIndex {
                name: name.to_string(),
            })
    }

    /// Per-index aggregated counters, one `(name, stats)` row per registered index,
    /// ascending by name.
    pub fn stats(&self) -> Vec<(&str, ServingStats)> {
        self.indexes
            .iter()
            .map(|(name, index)| (name.as_str(), index.stats()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::{IndexConfig, ServingIndex};
    use crate::sharded::ShardedConfig;
    use ips_core::problem::{JoinSpec, JoinVariant};
    use ips_linalg::random::random_ball_vector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_spec() -> JoinSpec {
        JoinSpec::new(0.4, 0.5, JoinVariant::Signed).unwrap()
    }

    fn sample_index(seed: u64) -> ServingIndex {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..20)
            .map(|_| random_ball_vector(&mut rng, 6, 1.0).unwrap())
            .collect();
        ServingIndex::build(
            data,
            sample_spec(),
            IndexConfig::Brute,
            ServingConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn serve_registers_through_the_builder() {
        let mut rng = StdRng::seed_from_u64(9);
        let data: Vec<_> = (0..12)
            .map(|_| random_ball_vector(&mut rng, 4, 1.0).unwrap())
            .collect();
        let mut registry = ServingRegistry::new();
        registry
            .serve(
                "built",
                crate::builder::Index::build(data)
                    .spec(sample_spec())
                    .strategy(ips_core::facade::Strategy::Brute)
                    .shards(3),
            )
            .unwrap();
        assert_eq!(registry.names(), vec!["built"]);
        assert_eq!(registry.get("built").unwrap().len(), 12);
        assert_eq!(registry.get("built").unwrap().shard_count(), 3);
        // A failing builder (missing spec) leaves the registry untouched.
        let empty =
            crate::builder::Index::build(vec![random_ball_vector(&mut rng, 4, 1.0).unwrap()]);
        assert!(registry.serve("bad", empty).is_err());
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn register_route_and_close() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut registry = ServingRegistry::new();
        assert!(registry.is_empty());
        assert!(registry.get("a").is_err());
        assert!(registry.get_mut("a").is_err());
        // A plain ServingIndex registers via the one-shard conversion; a sharded
        // index registers as-is.
        registry.register("b", sample_index(1));
        let data: Vec<_> = (0..20)
            .map(|_| random_ball_vector(&mut rng, 6, 1.0).unwrap())
            .collect();
        registry.register(
            "a",
            ShardedServingIndex::build(
                data,
                sample_spec(),
                IndexConfig::Brute,
                ShardedConfig::with_shards(4),
            )
            .unwrap(),
        );
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.names(), vec!["a", "b"]);
        assert_eq!(registry.get("a").unwrap().len(), 20);
        assert_eq!(registry.get("a").unwrap().shard_count(), 4);
        assert_eq!(registry.get("b").unwrap().shard_count(), 1);
        // Mutations route through the shared reference (shard locks inside).
        registry.get("a").unwrap().delete(0).unwrap();
        assert_eq!(registry.get("a").unwrap().len(), 19);
        let stats = registry.stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].0, "a");
        assert_eq!(stats[0].1.deletes, 1);
        let closed = registry.close("a").unwrap();
        assert_eq!(closed.len(), 19);
        assert!(registry.close("a").is_err());
        assert_eq!(registry.len(), 1);
        assert!(registry.get_mut("b").is_ok());
    }

    #[test]
    fn open_round_trips_through_a_file() {
        let dir = std::env::temp_dir().join("ips-store-registry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reg.snap");
        sample_index(3).save(&path).unwrap();
        let mut registry = ServingRegistry::new();
        registry
            .open("loaded", &path, ServingConfig::default())
            .unwrap();
        assert_eq!(registry.get("loaded").unwrap().len(), 20);
        std::fs::remove_file(&path).unwrap();
    }
}

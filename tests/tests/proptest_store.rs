//! Property tests for the `ips-store` subsystem.
//!
//! Five load-bearing properties:
//!
//! 1. **Snapshot round-trips are lossless** for every index family, whatever the
//!    dimensions, sizes and seeds: a saved-then-loaded index answers every query
//!    bit-identically to the in-memory original, and re-encoding the loaded snapshot
//!    reproduces the same bytes (the encoding is deterministic, which is what the
//!    checksum protects).
//! 2. **Insert/delete equivalence**: a serving index after an arbitrary mutation
//!    sequence answers queries exactly like an index built fresh from the final
//!    vector set with the same seed — same inner products (to the bit), same vectors.
//!    External ids differ (the mutated index keeps its originals), so answers are
//!    compared through the vectors they name.
//! 3. **Sharding is invisible** (the PR-5 exact-merge contract): under one seed, a
//!    `ShardedServingIndex` answers above-threshold and top-`k` queries
//!    bit-identically to the unsharded `ServingIndex` — for every shard count for
//!    the candidate-decomposable families (brute / ALSH / symmetric, whose per-shard
//!    candidate sets partition the unsharded ones when the hash functions are
//!    shared), and at one shard for all four families including sketch (whose
//!    recovery tree is a global structure: with more shards the merged answer is a
//!    different, deterministic approximation — pinned separately).
//! 4. **Sharded insert/delete equivalence**: property 2 lifted to the sharded layer
//!    — mutate + compact ≡ a fresh sharded build from the surviving
//!    `(id, vector)` set, and a multi-shard sketch index is build-deterministic.
//! 5. **Out-of-order ids**: a shard that received its ids with gaps and out of order
//!    compacts to the snapshot *bytes* of a fresh build in ascending id order — the
//!    same structure, not only the same answers. (Checked a shard at a time: the
//!    shards of a mutated index and of a fresh one legitimately differ in their
//!    private id allocators, which the container's global one supersedes.)

use ips_core::asymmetric::AlshParams;
use ips_core::lsh_mips::{LshMips, BUILD_BLOCK};
use ips_core::mips::{BruteForceMipsIndex, MipsIndex, SketchMipsAdapter};
use ips_core::problem::{JoinSpec, JoinVariant};
use ips_core::symmetric::SymmetricParams;
use ips_linalg::par::Schedule;
use ips_linalg::random::random_ball_vector;
use ips_linalg::DenseVector;
use ips_sketch::linf_mips::MaxIpConfig;
use ips_store::{
    AnyIndex, IndexConfig, ServingConfig, ServingIndex, ShardedConfig, ShardedServingIndex,
    Snapshot,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn vectors(seed: u64, n: usize, dim: usize) -> Vec<DenseVector> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| random_ball_vector(&mut rng, dim, 1.0).unwrap().scaled(0.95))
        .collect()
}

fn small_alsh() -> AlshParams {
    AlshParams {
        bits_per_table: 4,
        tables: 8,
        ..Default::default()
    }
}

fn small_symmetric() -> SymmetricParams {
    SymmetricParams {
        bits_per_table: 4,
        tables: 8,
        ..Default::default()
    }
}

/// Three copies of one row, so that the recovery tree still splits these small data
/// sets (any range of more than six vectors) and the snapshots hold internal nodes.
fn small_sketch() -> MaxIpConfig {
    MaxIpConfig {
        kappa: 2.0,
        copies: 3,
        rows: Some(1),
    }
}

/// Builds one index of each family over the same data (seeded), wrapped in
/// [`AnyIndex`].
fn build_families(seed: u64, data: &[DenseVector], spec: JoinSpec) -> Vec<AnyIndex> {
    let mut rng = StdRng::seed_from_u64(seed);
    let schedule = Schedule::new(BUILD_BLOCK);
    vec![
        AnyIndex::Brute(BruteForceMipsIndex::new(data.to_vec(), spec)),
        AnyIndex::Alsh(
            LshMips::build(schedule, &mut rng, data.to_vec(), spec, small_alsh()).unwrap(),
        ),
        AnyIndex::Symmetric(
            LshMips::build(schedule, &mut rng, data.to_vec(), spec, small_symmetric()).unwrap(),
        ),
        AnyIndex::Sketch(
            SketchMipsAdapter::build(&mut rng, data.to_vec(), spec, small_sketch(), 4).unwrap(),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Property 1: save → load → identical query results, for all four families,
    // arbitrary dims/sizes/seeds — and byte-stable re-encoding.
    #[test]
    fn snapshot_roundtrip_is_lossless_for_every_family(
        data_seed in any::<u64>(),
        build_seed in any::<u64>(),
        n in 4usize..40,
        dim in 2usize..8,
        s in 0.05f64..0.6,
        c in 0.3f64..0.95,
        signed in any::<bool>(),
    ) {
        let data = vectors(data_seed, n, dim);
        let queries = vectors(data_seed ^ 0x9E3779B9, 8, dim);
        let variant = if signed { JoinVariant::Signed } else { JoinVariant::Unsigned };
        let spec = JoinSpec::new(s, c, variant).unwrap();
        for index in build_families(build_seed, &data, spec) {
            let family = index.family();
            let snapshot = Snapshot::new(index);
            let bytes = snapshot.to_bytes();
            let loaded = Snapshot::from_bytes(&bytes).unwrap();
            prop_assert_eq!(loaded.index.family(), family);
            // Bit-identical query behaviour (SearchResult compares the f64 exactly).
            for q in &queries {
                prop_assert_eq!(
                    snapshot.index.search(q).unwrap(),
                    loaded.index.search(q).unwrap(),
                    "family {} diverged after reload", family
                );
            }
            // Deterministic encoding: the loaded snapshot re-encodes byte-for-byte.
            prop_assert_eq!(loaded.to_bytes(), bytes, "family {} bytes unstable", family);
        }
    }

    // Property 2: a serving index after a random insert/delete sequence answers
    // like one built fresh from the final vector set (same seed). For sketch and
    // brute this holds after compaction; the dynamic LSH families are compacted
    // too so all four share one oracle.
    #[test]
    fn mutated_serving_index_equals_fresh_build(
        data_seed in any::<u64>(),
        op_seed in any::<u64>(),
        n in 6usize..24,
        dim in 2usize..6,
        ops in prop::collection::vec(any::<u32>(), 1..12),
    ) {
        let data = vectors(data_seed, n, dim);
        let queries = vectors(data_seed ^ 0x51, 6, dim);
        let spec = JoinSpec::new(0.2, 0.6, JoinVariant::Signed).unwrap();
        let config = ServingConfig::default();
        let mut op_rng = StdRng::seed_from_u64(op_seed);
        for index_config in [
            IndexConfig::Brute,
            IndexConfig::Alsh(small_alsh()),
            IndexConfig::Symmetric(small_symmetric()),
            IndexConfig::Sketch { config: small_sketch(), leaf_size: 4 },
        ] {
            let mut serving =
                ServingIndex::build(data.clone(), spec, index_config, config).unwrap();
            // Track the live vector sequence (in external-id order) alongside.
            let mut live: Vec<(u64, DenseVector)> =
                data.iter().cloned().enumerate().map(|(i, v)| (i as u64, v)).collect();
            for &op in &ops {
                // Keep at least 2 vectors so non-brute rebuilds stay legal.
                if op % 2 == 0 && live.len() > 2 {
                    let victim = live[(op as usize / 2) % live.len()].0;
                    serving.delete(victim).unwrap();
                    live.retain(|(id, _)| *id != victim);
                } else {
                    let v = random_ball_vector(&mut op_rng, dim, 1.0).unwrap().scaled(0.95);
                    let id = serving.insert(v.clone()).unwrap();
                    live.push((id, v));
                }
            }
            serving.compact().unwrap();
            prop_assert_eq!(serving.len(), live.len());
            let final_vectors: Vec<DenseVector> =
                live.iter().map(|(_, v)| v.clone()).collect();
            let fresh =
                ServingIndex::build(final_vectors, spec, index_config, config).unwrap();
            let a = serving.query(&queries).unwrap();
            let b = fresh.query(&queries).unwrap();
            prop_assert_eq!(a.len(), b.len(), "family {:?}", serving.family());
            for (x, y) in a.iter().zip(b.iter()) {
                prop_assert_eq!(x.query_index, y.query_index);
                prop_assert_eq!(x.inner_product.to_bits(), y.inner_product.to_bits(),
                    "family {:?}", serving.family());
                prop_assert_eq!(
                    serving.vector(x.data_index as u64).unwrap(),
                    fresh.vector(y.data_index as u64).unwrap()
                );
            }
            // Top-k answers agree the same way.
            let a = serving.query_top_k(&queries, 3).unwrap();
            let b = fresh.query_top_k(&queries, 3).unwrap();
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                prop_assert_eq!(x.inner_product.to_bits(), y.inner_product.to_bits());
            }
        }
    }

    // Property 3: sharding is invisible under one seed — above-threshold and top-k
    // answers of the sharded index are bit-identical to the unsharded one (MatchPair
    // equality compares the f64 exactly): at every shard count for the
    // candidate-decomposable families, at one shard for all four; a multi-shard
    // sketch index is pinned to determinism + validity (its recovery tree is a
    // global structure, so N > 1 walks differently by design).
    #[test]
    fn sharded_answers_match_unsharded_under_one_seed(
        data_seed in any::<u64>(),
        n in 8usize..40,
        dim in 2usize..7,
        shards in 2usize..6,
        k in 1usize..4,
    ) {
        let data = vectors(data_seed, n, dim);
        let queries = vectors(data_seed ^ 0xF00D, 6, dim);
        let spec = JoinSpec::new(0.2, 0.6, JoinVariant::Signed).unwrap();
        let serving = ServingConfig::default();
        for index_config in [
            IndexConfig::Brute,
            IndexConfig::Alsh(small_alsh()),
            IndexConfig::Symmetric(small_symmetric()),
            IndexConfig::Sketch { config: small_sketch(), leaf_size: 4 },
        ] {
            let unsharded =
                ServingIndex::build(data.clone(), spec, index_config, serving).unwrap();
            let expected = unsharded.query(&queries).unwrap();
            let expected_top = unsharded.query_top_k(&queries, k).unwrap();
            let one = ShardedServingIndex::build(
                data.clone(), spec, index_config, ShardedConfig { shards: 1, serving },
            ).unwrap();
            prop_assert_eq!(&one.query(&queries).unwrap(), &expected,
                "family {:?} shards=1", index_config);
            prop_assert_eq!(&one.query_top_k(&queries, k).unwrap(), &expected_top,
                "family {:?} shards=1 top-k", index_config);
            let many = ShardedServingIndex::build(
                data.clone(), spec, index_config, ShardedConfig { shards, serving },
            ).unwrap();
            if matches!(index_config, IndexConfig::Sketch { .. }) {
                // Deterministic: an identical build answers bit-identically...
                let again = ShardedServingIndex::build(
                    data.clone(), spec, index_config, ShardedConfig { shards, serving },
                ).unwrap();
                let pairs = many.query(&queries).unwrap();
                prop_assert_eq!(&pairs, &again.query(&queries).unwrap());
                // ...and every reported pair is valid (clears the relaxed cs).
                for p in &pairs {
                    prop_assert!(spec.acceptable(p.inner_product));
                }
            } else {
                prop_assert_eq!(&many.query(&queries).unwrap(), &expected,
                    "family {:?} shards={}", index_config, shards);
                prop_assert_eq!(&many.query_top_k(&queries, k).unwrap(), &expected_top,
                    "family {:?} shards={} top-k", index_config, shards);
            }
        }
    }

    // Property 4: the serving determinism invariant lifted to the sharded layer —
    // an arbitrary insert/delete sequence, compacted, is bit-identical to a fresh
    // sharded build from the surviving (id, vector) set. Unlike property 2 the
    // external ids agree on both sides, so whole MatchPair lists are compared.
    #[test]
    fn mutated_sharded_index_equals_fresh_sharded_build(
        data_seed in any::<u64>(),
        op_seed in any::<u64>(),
        n in 6usize..20,
        dim in 2usize..6,
        shards in 2usize..5,
        ops in prop::collection::vec(any::<u32>(), 1..10),
    ) {
        let data = vectors(data_seed, n, dim);
        let queries = vectors(data_seed ^ 0x51, 6, dim);
        let spec = JoinSpec::new(0.2, 0.6, JoinVariant::Signed).unwrap();
        let config = ShardedConfig { shards, serving: ServingConfig::default() };
        let mut op_rng = StdRng::seed_from_u64(op_seed);
        for index_config in [
            IndexConfig::Brute,
            IndexConfig::Alsh(small_alsh()),
            IndexConfig::Symmetric(small_symmetric()),
            IndexConfig::Sketch { config: small_sketch(), leaf_size: 4 },
        ] {
            let sharded =
                ShardedServingIndex::build(data.clone(), spec, index_config, config).unwrap();
            let mut live: Vec<(u64, DenseVector)> =
                data.iter().cloned().enumerate().map(|(i, v)| (i as u64, v)).collect();
            let mut inserted = 0u64;
            for &op in &ops {
                if op % 2 == 0 && live.len() > 2 {
                    let victim = live[(op as usize / 2) % live.len()].0;
                    sharded.delete(victim).unwrap();
                    live.retain(|(id, _)| *id != victim);
                } else {
                    let v = random_ball_vector(&mut op_rng, dim, 1.0).unwrap().scaled(0.95);
                    let id = sharded.insert(v.clone()).unwrap();
                    prop_assert_eq!(id, n as u64 + inserted, "allocator is sequential");
                    inserted += 1;
                    live.push((id, v));
                }
            }
            sharded.compact().unwrap();
            prop_assert_eq!(sharded.len(), live.len());
            let fresh = ShardedServingIndex::from_entries(
                live.clone(), n as u64 + inserted, spec, index_config, config,
            ).unwrap();
            prop_assert_eq!(
                sharded.query(&queries).unwrap(),
                fresh.query(&queries).unwrap(),
                "family {:?} shards={}", index_config, shards
            );
            prop_assert_eq!(
                sharded.query_top_k(&queries, 3).unwrap(),
                fresh.query_top_k(&queries, 3).unwrap(),
                "family {:?} shards={} top-k", index_config, shards
            );
        }
    }

    // Property 5: one shard fed ids the way concurrent writers can route them — with
    // gaps and out of order — and deleting in between compacts to the bytes of a
    // fresh build over its live set in ascending id order. (In-place compaction has
    // to permute, not just close gaps, when slot order and id order disagree.)
    #[test]
    fn out_of_order_ids_compact_to_the_fresh_build(
        data_seed in any::<u64>(),
        n in 6usize..24,
        dim in 2usize..6,
        ops in prop::collection::vec((any::<bool>(), 0u64..40), 1..16),
    ) {
        let data = vectors(data_seed, n, dim);
        let extra = vectors(data_seed ^ 0xA5, 16, dim);
        let spec = JoinSpec::new(0.2, 0.6, JoinVariant::Signed).unwrap();
        let serving = ServingConfig::default();
        for index_config in [
            IndexConfig::Brute,
            IndexConfig::Alsh(small_alsh()),
            IndexConfig::Symmetric(small_symmetric()),
        ] {
            let mut index = ServingIndex::build(data.clone(), spec, index_config, serving).unwrap();
            let mut live: Vec<(u64, DenseVector)> =
                data.iter().cloned().enumerate().map(|(i, v)| (i as u64, v)).collect();
            let mut next_id = n as u64;
            for (k, &(insert, pick)) in ops.iter().enumerate() {
                if insert || live.len() <= 2 {
                    // Any id not in use and not used before: above, or in a gap left
                    // below the allocator by an earlier out-of-order insert.
                    let id = n as u64 + pick;
                    if index.insert_with_id(id, extra[k].clone()).is_ok() {
                        live.push((id, extra[k].clone()));
                        next_id = next_id.max(id + 1);
                    }
                } else {
                    let (victim, _) = live.remove(pick as usize % live.len());
                    index.delete(victim).unwrap();
                }
            }
            index.compact().unwrap();
            live.sort_unstable_by_key(|(id, _)| *id);
            let fresh = ShardedServingIndex::from_entries(
                live, next_id, spec, index_config, ShardedConfig { shards: 1, serving },
            ).unwrap();
            prop_assert!(index.snapshot_bytes().unwrap() == saved(&fresh),
                "family {:?}", index_config);
        }
    }
}

/// The bytes `index.save` writes.
fn saved(index: &ShardedServingIndex) -> Vec<u8> {
    static FILES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let file = FILES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!(
        "ips-proptest-store-{}-{file}.snap",
        std::process::id()
    ));
    index.save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    bytes
}

//! Property tests for the `ips-store` subsystem.
//!
//! Four load-bearing properties:
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
//!    compared through the vectors they name. A brute index writes in place, so it
//!    answers so *before* the compaction too, and never rebuilds.
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

use ips_core::lsh_mips::{LshMips, BUILD_BLOCK};
use ips_core::mips::{BruteForceMipsIndex, MipsIndex, SketchMipsAdapter};
use ips_core::problem::{JoinSpec, JoinVariant};
use ips_linalg::par::Schedule;
use ips_linalg::random::random_ball_vector;
use ips_linalg::DenseVector;
use ips_store::{
    AnyIndex, IndexConfig, ServingConfig, ServingIndex, ShardedConfig, ShardedServingIndex,
    Snapshot,
};
use ips_tests::{families, small_alsh, small_sketch, small_symmetric, vectors};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

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
            SketchMipsAdapter::build(&mut rng, data.to_vec(), spec, small_sketch()).unwrap(),
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
    // like one built fresh from the final vector set (same seed). For sketch this
    // holds after compaction; the dynamic LSH families are compacted too so all
    // four share one oracle. Brute answers so before the compaction as well.
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
        for index_config in families() {
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
                if index_config == IndexConfig::Brute {
                    prop_assert_eq!(serving.stats().rebuilds, 0);
                }
            }
            let final_vectors: Vec<DenseVector> =
                live.iter().map(|(_, v)| v.clone()).collect();
            let fresh =
                ServingIndex::build(final_vectors, spec, index_config, config).unwrap();
            if index_config == IndexConfig::Brute {
                answers_like(&serving, &fresh, &queries)?;
            }
            serving.compact().unwrap();
            prop_assert_eq!(serving.len(), live.len());
            answers_like(&serving, &fresh, &queries)?;
            if index_config == IndexConfig::Brute {
                prop_assert_eq!(serving.stats().rebuilds, 0);
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
        for index_config in families() {
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
            if matches!(index_config, IndexConfig::Sketch(_)) {
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
        for index_config in families() {
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
}

/// Checks that `serving` answers `queries` like `fresh` — above-threshold and
/// top-`k` — by inner product to the bit and by the vector each answer names.
fn answers_like(
    serving: &ServingIndex,
    fresh: &ServingIndex,
    queries: &[DenseVector],
) -> Result<(), TestCaseError> {
    let a = serving.query(queries).unwrap();
    let b = fresh.query(queries).unwrap();
    prop_assert_eq!(a.len(), b.len(), "family {:?}", serving.family());
    for (x, y) in a.iter().zip(b.iter()) {
        prop_assert_eq!(x.query_index, y.query_index);
        prop_assert_eq!(
            x.inner_product.to_bits(),
            y.inner_product.to_bits(),
            "family {:?}",
            serving.family()
        );
        prop_assert_eq!(
            serving.vector(x.data_index as u64).unwrap(),
            fresh.vector(y.data_index as u64).unwrap()
        );
    }
    // Top-k answers agree the same way.
    let a = serving.query_top_k(queries, 3).unwrap();
    let b = fresh.query_top_k(queries, 3).unwrap();
    prop_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        prop_assert_eq!(x.inner_product.to_bits(), y.inner_product.to_bits());
    }
    Ok(())
}

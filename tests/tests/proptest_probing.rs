//! Property tests pinning the multi-probe contract (PR 10) across every entry
//! point that learned a `probes` knob:
//!
//! 1. **`probes=0` is bit-identical** — the classical single-bucket behaviour
//!    is the default and the zero setting, not merely an approximation of it:
//!    a facade join with `.probes(0)`, a serving index whose
//!    [`ServingConfig::probes`] override zeroes a probed snapshot, and a
//!    sharded index after a cross-family migration all answer exactly like
//!    their pre-probing counterparts, to the bit.
//! 2. **Probing only adds** — the join reports each query's single *best*
//!    candidate, so for `probes > 0` the guarantee is per-query coverage:
//!    every query the classical run answers stays answered (the probed
//!    candidate set is a superset, so the best over it can only improve),
//!    with an equal-or-better inner product, and the reported set stays
//!    *valid* per [`evaluate_join`] (every pair clears the relaxed threshold
//!    `cs`). Extra lookups can surface better partners, never wrong ones —
//!    and never lose an answer.
//! 3. **Probes can stand in for tables** — on the adversarial suite's
//!    `sparse_needles` workload, half the ALSH tables plus eight probes report
//!    only valid pairs and recall at least what the full table count does.
//!
//! Together these are the compatibility half of the probing layer's contract:
//! existing deployments see identical answers until they opt in, and opting
//! in can only grow the (already-valid) match set.

use ips_core::asymmetric::AlshParams;
use ips_core::problem::{evaluate_join, JoinSpec, JoinVariant, MatchPair};
use ips_core::symmetric::SymmetricParams;
use ips_core::{Join, Strategy};
use ips_datagen::adversarial::{sparse_needles, AdversarialScale};
use ips_store::{IndexConfig, ServingConfig, ShardedConfig, ShardedServingIndex};
use ips_tests::vectors;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

fn spec() -> JoinSpec {
    JoinSpec::new(0.6, 0.6, JoinVariant::Signed).unwrap()
}

fn alsh(probes: usize) -> AlshParams {
    AlshParams {
        bits_per_table: 4,
        tables: 6,
        probes,
        ..Default::default()
    }
}

fn symmetric(probes: usize) -> SymmetricParams {
    SymmetricParams {
        bits_per_table: 4,
        tables: 6,
        probes,
        ..Default::default()
    }
}

/// Sorts pairs into a canonical order so set comparisons are order-free.
fn sorted(mut pairs: Vec<MatchPair>) -> Vec<MatchPair> {
    pairs.sort_by_key(|p| (p.query_index, p.data_index));
    pairs
}

/// The probed run `sup` covers the classical run `sub`: every query `sub`
/// answers, `sup` answers too, and (under the signed variant these tests use)
/// with an inner product at least as large — the join reports each query's
/// best candidate, and probing only grows the candidate set it maximises
/// over.
fn covers(sup: &[MatchPair], sub: &[MatchPair]) -> bool {
    sub.iter().all(|a| {
        sup.iter()
            .any(|b| b.query_index == a.query_index && b.inner_product >= a.inner_product)
    })
}

proptest! {
    // Each case builds several LSH indexes; a few medium cases pin the
    // property without dominating the suite's runtime.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Facade joins: `.probes(0)` is bit-identical to not mentioning probes at
    /// all, and `.probes(p)` reports a valid superset — for both LSH families.
    /// These joins are below the scan rule, so each is the exact scan, which
    /// draws nothing and reads no probe count; the hashing join's probes are held
    /// to the whole index's by `ips_core`'s `lsh_join` tests.
    #[test]
    fn facade_probes_zero_is_bit_identical_and_probing_only_adds(
        seed in 0u64..1_000,
        n in 40usize..120,
        dim in 4usize..10,
        probes in 1usize..6,
    ) {
        let data = vectors(seed, n, dim);
        let queries = vectors(seed ^ 0x5EED, 16, dim);
        for strategy in [Strategy::Alsh, Strategy::Symmetric] {
            let run = |probes: Option<usize>| {
                let mut builder = Join::data(&data)
                    .queries(&queries)
                    .spec(spec())
                    .strategy(strategy);
                if let Some(p) = probes {
                    builder = builder.probes(p);
                }
                let mut rng = StdRng::seed_from_u64(seed);
                let matches = builder.run_with_rng(&mut rng).unwrap().matches;
                assert_eq!(
                    rng.next_u64(),
                    StdRng::seed_from_u64(seed).next_u64(),
                    "{strategy:?} hashed"
                );
                matches
            };
            let classical = sorted(run(None));
            prop_assert_eq!(
                &sorted(run(Some(0))),
                &classical,
                "probes=0 diverged from the classical {:?} join",
                strategy
            );
            let probed = sorted(run(Some(probes)));
            prop_assert!(
                covers(&probed, &classical),
                "{:?} probing lost a classically answered query",
                strategy
            );
            let (_, valid) = evaluate_join(&data, &queries, &spec(), &probed).unwrap();
            prop_assert!(valid, "{:?} probing reported an invalid pair", strategy);
        }
    }

    /// Serving stack: a sharded index built from probed family params but
    /// opened with a `probes: Some(0)` override answers bit-identically to a
    /// plain build — including after a cross-family migration — and the
    /// probed override reports valid supersets.
    #[test]
    fn serving_probes_override_is_bit_identical_at_zero_and_valid_when_probing(
        seed in 0u64..1_000,
        n in 40usize..100,
        dim in 4usize..8,
        probes in 1usize..5,
        shards in 1usize..4,
    ) {
        let data = vectors(seed, n, dim);
        let queries = vectors(seed ^ 0x5EED, 12, dim);
        let build = |family: IndexConfig, probe_override: Option<usize>| {
            ShardedServingIndex::build(
                data.clone(),
                spec(),
                family,
                ShardedConfig {
                    shards,
                    serving: ServingConfig {
                        seed,
                        probes: probe_override,
                        ..ServingConfig::default()
                    },
                },
            )
            .unwrap()
        };

        // The override zeroes a probed snapshot: answers match the plain build.
        let plain = build(IndexConfig::Alsh(alsh(0)), None);
        let zeroed = build(IndexConfig::Alsh(alsh(probes)), Some(0));
        prop_assert_eq!(
            sorted(zeroed.query(&queries).unwrap()),
            sorted(plain.query(&queries).unwrap()),
            "probes override 0 diverged from the classical build"
        );
        prop_assert_eq!(
            sorted(zeroed.query_top_k(&queries, 3).unwrap()),
            sorted(plain.query_top_k(&queries, 3).unwrap()),
            "probes override 0 diverged on top-k"
        );

        // A probed serving index only adds, and what it adds is valid.
        let probed = build(IndexConfig::Alsh(alsh(0)), Some(probes));
        let classical = sorted(plain.query(&queries).unwrap());
        let extended = sorted(probed.query(&queries).unwrap());
        prop_assert!(
            covers(&extended, &classical),
            "serving-layer probing lost a classically answered query"
        );
        let (_, valid) = evaluate_join(&data, &queries, &spec(), &extended).unwrap();
        prop_assert!(valid, "serving-layer probing reported an invalid pair");

        // Migration rebuilds under the same ServingConfig: the zero override
        // keeps the migrated index bit-identical to a fresh classical build of
        // the target family, and a probed override survives the migration as a
        // valid superset.
        let migrated_zero = build(IndexConfig::Alsh(alsh(probes)), Some(0));
        migrated_zero.migrate_to(IndexConfig::Symmetric(symmetric(probes))).unwrap();
        let fresh = build(IndexConfig::Symmetric(symmetric(0)), None);
        prop_assert_eq!(
            sorted(migrated_zero.query(&queries).unwrap()),
            sorted(fresh.query(&queries).unwrap()),
            "post-migration probes=0 diverged from the fresh classical build"
        );

        let migrated_probed = build(IndexConfig::Alsh(alsh(0)), Some(probes));
        migrated_probed.migrate_to(IndexConfig::Symmetric(symmetric(0))).unwrap();
        match migrated_probed.index_config() {
            IndexConfig::Symmetric(p) => prop_assert_eq!(
                p.probes, probes,
                "the probes override did not survive the migration rebuild"
            ),
            other => prop_assert!(false, "unexpected family after migration: {:?}", other),
        }
        let classical = sorted(fresh.query(&queries).unwrap());
        let extended = sorted(migrated_probed.query(&queries).unwrap());
        prop_assert!(
            covers(&extended, &classical),
            "post-migration probing lost a classically answered query"
        );
        let (_, valid) = evaluate_join(&data, &queries, &spec(), &extended).unwrap();
        prop_assert!(valid, "post-migration probing reported an invalid pair");
    }
}

/// Half the tables plus query-directed probing keeps the match set: on
/// `sparse_needles` (near-orthogonal background with planted needles, ALSH's
/// home turf) 16 tables with 8 probes report only valid pairs and recall at
/// least what 32 tables without probes do. Asked of the index: a join of these
/// sets keeps 50 points by the norm bound and is below the scan rule either way.
#[test]
fn half_the_tables_with_probes_keep_the_recall_on_sparse_needles() {
    let seed = 0x9806;
    let scale = AdversarialScale {
        n: 2000,
        m: 400,
        dim: 32,
    };
    let w = sparse_needles(&mut StdRng::seed_from_u64(seed), scale).unwrap();
    let variant = if w.unsigned {
        JoinVariant::Unsigned
    } else {
        JoinVariant::Signed
    };
    let spec = JoinSpec::new(w.threshold, w.approximation, variant).unwrap();
    let run = |tables: usize, probes: usize| {
        let index = ShardedServingIndex::build(
            w.data.clone(),
            spec,
            IndexConfig::Alsh(AlshParams {
                tables,
                probes,
                ..AlshParams::default()
            }),
            ShardedConfig {
                shards: 1,
                serving: ServingConfig {
                    seed: seed ^ 0x517,
                    ..ServingConfig::default()
                },
            },
        )
        .unwrap();
        let matches = index.query(&w.queries).unwrap();
        evaluate_join(&w.data, &w.queries, &spec, &matches).unwrap()
    };
    let (classical_recall, classical_valid) = run(32, 0);
    let (probed_recall, probed_valid) = run(16, 8);
    assert!(
        classical_valid && probed_valid,
        "an invalid pair was reported"
    );
    assert!(
        probed_recall + 1e-9 >= classical_recall,
        "probed recall {probed_recall} fell below the classical {classical_recall}"
    );
}

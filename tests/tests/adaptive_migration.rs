//! Integration tests for atomic strategy migration
//! ([`ShardedServingIndex::migrate_to`]) — the swap step of the `ips-adapt`
//! closed control loop.
//!
//! Two layers:
//!
//! 1. **Property**: after an arbitrary mutation history, migrating a sharded
//!    index from any family to any other leaves it answering `query` and
//!    `query_top_k` *bit-identically* to a fresh sharded build from the final
//!    live `(id, vector)` set under the new configuration — external ids,
//!    mutation counters, and the global id allocator all preserved, and the
//!    migration counter ticking exactly once per swap.
//! 2. **Concurrency**: a migration fired in the middle of a reader/mutator
//!    storm loses no mutation and serves only valid answers throughout; the
//!    post-storm index still equals the sequential oracle's fresh build.
//! 3. **Closed loop**: the two `ips_datagen::drift` scenarios driven through
//!    [`AdaptiveController::check`] by hand. A streaming join whose norms ramp
//!    up walks baseline → pending → migrated (ALSH → brute) exactly once; a
//!    recommender whose query norms triple is re-planned once and stays on the
//!    exact scan. The controller reads histogram counts and norms, never
//!    times, so both decision sequences are fixed by their seeds.

use ips_adapt::{AdaptiveConfig, AdaptiveController, ControlDecision};
use ips_core::asymmetric::AlshParams;
use ips_core::planner::{JoinPlanner, PlannerConfig, WorkloadStats};
use ips_core::problem::{JoinSpec, JoinVariant, MatchPair};
use ips_core::symmetric::SymmetricParams;
use ips_datagen::{
    recommender_shift, streaming_join, RecommenderShiftConfig, RecommenderShiftScenario,
    StreamingJoinConfig, StreamingJoinScenario,
};
use ips_linalg::random::random_ball_vector;
use ips_linalg::DenseVector;
use ips_sketch::linf_mips::MaxIpConfig;
use ips_store::{
    IndexConfig, IndexFamily, ServingConfig, ShardedConfig, ShardedServingIndex, StoreError,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

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

/// All four family configurations, smallest-parameter editions.
fn family_configs() -> [IndexConfig; 4] {
    [
        IndexConfig::Brute,
        IndexConfig::Alsh(small_alsh()),
        IndexConfig::Symmetric(small_symmetric()),
        IndexConfig::Sketch {
            config: small_sketch(),
            leaf_size: 4,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Property: for every ordered (from, to) family pair, mutate → migrate ≡
    // a fresh sharded build from the surviving live set under the *target*
    // configuration, bit for bit, with ids/counters/allocator preserved.
    #[test]
    fn migration_equals_fresh_build_under_new_strategy(
        data_seed in any::<u64>(),
        n in 8usize..32,
        dim in 2usize..6,
        shards in 1usize..4,
        mutations in proptest::collection::vec((any::<bool>(), any::<u64>()), 0..12),
    ) {
        let spec = JoinSpec::new(0.15, 0.6, JoinVariant::Signed).unwrap();
        let config = ShardedConfig {
            shards,
            serving: ServingConfig::default(),
        };
        let data = vectors(data_seed, n, dim);
        let queries = vectors(data_seed ^ 0x9E3779B9, 6, dim);
        let configs = family_configs();
        for (i, from) in configs.iter().enumerate() {
            let to = configs[(i + 1) % configs.len()];
            let sharded =
                ShardedServingIndex::build(data.clone(), spec, *from, config).unwrap();
            prop_assert_eq!(sharded.family(), from.family());

            // An arbitrary mutation history, tracked against a sequential
            // oracle of the live `(id, vector)` set.
            let mut live: Vec<(u64, DenseVector)> = data
                .iter()
                .cloned()
                .enumerate()
                .map(|(i, v)| (i as u64, v))
                .collect();
            let mut insert_rng = StdRng::seed_from_u64(data_seed ^ 0xFACE);
            let mut next_expected = n as u64;
            for (insert, pick) in &mutations {
                if *insert || live.len() <= 2 {
                    let v = random_ball_vector(&mut insert_rng, dim, 1.0)
                        .unwrap()
                        .scaled(0.95);
                    let id = sharded.insert(v.clone()).unwrap();
                    prop_assert_eq!(id, next_expected, "allocator hands out sequential ids");
                    next_expected += 1;
                    live.push((id, v));
                } else {
                    let victim = (*pick as usize) % live.len();
                    let (id, _) = live.remove(victim);
                    sharded.delete(id).unwrap();
                }
            }
            let next_id = sharded.next_id();
            let stats_before = sharded.stats();

            let report = sharded.migrate_to(to).unwrap();
            prop_assert_eq!(report.from, from.family());
            prop_assert_eq!(report.to, to.family());
            prop_assert_eq!(report.entries, live.len(),
                "the report counts the snapshotted live set");
            prop_assert_eq!(report.reconciled, 0,
                "nothing mutates between snapshot and swap in a single thread");
            prop_assert_eq!(sharded.family(), to.family());
            prop_assert_eq!(sharded.index_config(), to);
            prop_assert_eq!(sharded.migrations(), 1);

            // Ids, vectors, allocator and mutation counters all survive.
            let mut expected_ids: Vec<u64> = live.iter().map(|(id, _)| *id).collect();
            expected_ids.sort_unstable();
            prop_assert_eq!(sharded.ids(), expected_ids);
            prop_assert_eq!(sharded.next_id(), next_id);
            let stats_after = sharded.stats();
            prop_assert_eq!(stats_after.inserts, stats_before.inserts);
            prop_assert_eq!(stats_after.deletes, stats_before.deletes);
            for (id, v) in &live {
                prop_assert_eq!(&sharded.vector(*id).unwrap(), v);
            }

            // The determinism oracle: bit-identical answers to a fresh build
            // from the final live set under the *new* configuration.
            live.sort_unstable_by_key(|(id, _)| *id);
            let fresh = ShardedServingIndex::from_entries(
                live.clone(),
                next_id,
                spec,
                to,
                config,
            )
            .unwrap();
            prop_assert_eq!(
                sharded.query(&queries).unwrap(),
                fresh.query(&queries).unwrap(),
                "{:?} -> {:?}: migrated index diverged from the fresh build",
                from.family(),
                to.family()
            );
            prop_assert_eq!(
                sharded.query_top_k(&queries, 3).unwrap(),
                fresh.query_top_k(&queries, 3).unwrap(),
                "{:?} -> {:?}: top-k diverged from the fresh build",
                from.family(),
                to.family()
            );

            // A second migration back is just as clean, and the counter keeps
            // counting.
            sharded.migrate_to(*from).unwrap();
            prop_assert_eq!(sharded.migrations(), 2);
            prop_assert_eq!(sharded.family(), from.family());
        }
    }
}

#[test]
fn migrating_an_empty_index_is_rejected() {
    let spec = JoinSpec::new(0.2, 0.6, JoinVariant::Signed).unwrap();
    let sharded = ShardedServingIndex::build(
        vectors(7, 4, 4),
        spec,
        IndexConfig::Brute,
        ShardedConfig::default(),
    )
    .unwrap();
    for id in sharded.ids() {
        sharded.delete(id).unwrap();
    }
    let err = sharded
        .migrate_to(IndexConfig::Alsh(small_alsh()))
        .unwrap_err();
    assert!(
        matches!(
            err,
            StoreError::InvalidParameter {
                name: "migrate",
                ..
            }
        ),
        "unexpected error: {err}"
    );
    assert_eq!(
        sharded.migrations(),
        0,
        "a rejected migration does not count"
    );
}

const THREADS: usize = 4;
const OPS_PER_THREAD: usize = 24;
const N: usize = 64;
const DIM: usize = 8;

/// What one storm thread did, for the sequential oracle (the
/// `sharded_stress.rs` protocol: threads own disjoint slices of the initial
/// ids and otherwise delete only their own inserts, so the final live set is
/// interleaving-independent).
#[derive(Default)]
struct ThreadLog {
    inserted_live: Vec<(u64, DenseVector)>,
    deleted_initial: Vec<u64>,
    inserts: u64,
    deletes: u64,
}

/// Queries and mutations hammer the index from `THREADS` threads while the
/// main thread migrates it to `target` mid-storm. Every answer observed
/// during the storm — before, during, and after the swap — must be valid,
/// no mutation may be lost, and the final state must equal the sequential
/// oracle's fresh build under the new configuration.
fn storm_through_migration(initial: IndexConfig, target: IndexConfig, seed: u64) {
    let spec = JoinSpec::new(0.2, 0.6, JoinVariant::Signed).unwrap();
    let config = ShardedConfig {
        shards: 4,
        serving: ServingConfig::default(),
    };
    let data = vectors(seed, N, DIM);
    let queries = vectors(seed ^ 0xBEEF, 8, DIM);
    let sharded = ShardedServingIndex::build(data.clone(), spec, initial, config).unwrap();

    let observed: Mutex<Vec<MatchPair>> = Mutex::new(Vec::new());
    let report = Mutex::new(None);

    let logs: Vec<ThreadLog> = std::thread::scope(|scope| {
        let sharded = &sharded;
        let queries = &queries;
        let observed = &observed;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let mut log = ThreadLog::default();
                    let mut rng = StdRng::seed_from_u64(seed ^ (t as u64) << 32);
                    let mut own_initial: Vec<u64> = (t as u64..N as u64).step_by(THREADS).collect();
                    for op in 0..OPS_PER_THREAD {
                        match op % 4 {
                            0 => {
                                let pairs = sharded.query(queries).unwrap();
                                observed.lock().unwrap().extend(pairs);
                            }
                            1 => {
                                let pairs = sharded.query_top_k(queries, 3).unwrap();
                                observed.lock().unwrap().extend(pairs);
                            }
                            2 => {
                                let v =
                                    random_ball_vector(&mut rng, DIM, 1.0).unwrap().scaled(0.95);
                                let id = sharded.insert(v.clone()).unwrap();
                                log.inserts += 1;
                                log.inserted_live.push((id, v));
                            }
                            _ => {
                                if op % 8 == 3 && !own_initial.is_empty() {
                                    let id = own_initial.pop().unwrap();
                                    sharded.delete(id).unwrap();
                                    log.deletes += 1;
                                    log.deleted_initial.push(id);
                                } else if let Some((id, _)) = log.inserted_live.pop() {
                                    sharded.delete(id).unwrap();
                                    log.deletes += 1;
                                }
                            }
                        }
                    }
                    log
                })
            })
            .collect();
        // The migration runs on the scope's own thread, concurrent with every
        // storm thread: the snapshot→build→swap pipeline races real inserts,
        // deletes, and in-flight queries.
        *report.lock().unwrap() = Some(sharded.migrate_to(target).unwrap());
        handles
            .into_iter()
            .map(|h| h.join().expect("storm thread panicked"))
            .collect()
    });

    let report = report.into_inner().unwrap().unwrap();
    assert_eq!(report.from, initial.family());
    assert_eq!(report.to, target.family());
    assert_eq!(sharded.family(), target.family());
    assert_eq!(sharded.migrations(), 1);

    // Everything served mid-storm — through the swap included — is valid.
    let total_inserts: u64 = logs.iter().map(|l| l.inserts).sum();
    let total_deletes: u64 = logs.iter().map(|l| l.deletes).sum();
    let max_id = N as u64 + total_inserts;
    for pair in observed.into_inner().unwrap() {
        assert!(
            spec.acceptable(pair.inner_product),
            "invalid pair served while migrating: {pair:?}"
        );
        assert!((pair.data_index as u64) < max_id, "unallocated id answered");
    }

    // The sequential oracle's live set.
    let mut live: Vec<(u64, DenseVector)> = data
        .into_iter()
        .enumerate()
        .map(|(i, v)| (i as u64, v))
        .filter(|(id, _)| !logs.iter().any(|l| l.deleted_initial.contains(id)))
        .collect();
    for log in &logs {
        live.extend(log.inserted_live.iter().cloned());
    }
    live.sort_unstable_by_key(|(id, _)| *id);

    let mut expected_ids: Vec<u64> = live.iter().map(|(id, _)| *id).collect();
    expected_ids.sort_unstable();
    assert_eq!(
        sharded.ids(),
        expected_ids,
        "a mutation was lost in the swap"
    );
    let stats = sharded.stats();
    assert_eq!(
        stats.inserts, total_inserts,
        "insert counters survive the swap"
    );
    assert_eq!(
        stats.deletes, total_deletes,
        "delete counters survive the swap"
    );
    assert_eq!(sharded.next_id(), max_id, "the allocator survives the swap");

    // Determinism through storm *and* migration: compacted ≡ fresh build from
    // the oracle's live set under the new configuration.
    sharded.compact().unwrap();
    let fresh = ShardedServingIndex::from_entries(live, max_id, spec, target, config).unwrap();
    let probes = vectors(seed ^ 0xD00D, 10, DIM);
    assert_eq!(
        sharded.query(&probes).unwrap(),
        fresh.query(&probes).unwrap(),
        "migrated-under-load state diverged from the sequential oracle"
    );
    assert_eq!(
        sharded.query_top_k(&probes, 3).unwrap(),
        fresh.query_top_k(&probes, 3).unwrap(),
        "top-k diverged from the sequential oracle"
    );
}

#[test]
fn storm_while_migrating_alsh_to_brute() {
    storm_through_migration(IndexConfig::Alsh(small_alsh()), IndexConfig::Brute, 0x91601);
}

#[test]
fn storm_while_migrating_brute_to_sketch() {
    storm_through_migration(
        IndexConfig::Brute,
        IndexConfig::Sketch {
            config: small_sketch(),
            leaf_size: 4,
        },
        0x91602,
    );
}

#[test]
fn storm_while_migrating_symmetric_to_alsh() {
    storm_through_migration(
        IndexConfig::Symmetric(small_symmetric()),
        IndexConfig::Alsh(small_alsh()),
        0x91603,
    );
}

#[test]
fn migration_report_is_plumbed() {
    // Compile-time field pin plus basic sanity on the timing split.
    let spec = JoinSpec::new(0.2, 0.6, JoinVariant::Signed).unwrap();
    let sharded = ShardedServingIndex::build(
        vectors(11, 16, 4),
        spec,
        IndexConfig::Brute,
        ShardedConfig::default(),
    )
    .unwrap();
    let ips_store::MigrationReport {
        from,
        to,
        entries,
        reconciled,
        build_ns,
        swap_ns,
    } = sharded.migrate_to(IndexConfig::Alsh(small_alsh())).unwrap();
    assert_eq!(from, IndexFamily::Brute);
    assert_eq!(to, IndexFamily::Alsh);
    assert_eq!(entries, 16);
    assert_eq!(reconciled, 0);
    assert!(build_ns > 0, "the build phase takes measurable time");
    assert!(swap_ns > 0, "the swap phase takes measurable time");
}

/// Steps of the streaming scenario after which the adaptive run folds its
/// window: one to lock the baseline, one mid-ramp, one at the end of the ramp.
const STREAM_CHECKS: [usize; 3] = [0, 5, 11];

/// Eight 8-bit ALSH tables: selective on the low-norm opening window, so the
/// build-time plan picks them, and degenerate once the ramp drags the window's
/// inner products up, so a re-plan prefers the exact scan.
fn stream_planner_config() -> PlannerConfig {
    PlannerConfig {
        alsh: AlshParams {
            bits_per_table: 8,
            tables: 8,
            ..AlshParams::default()
        },
        ..PlannerConfig::default()
    }
}

/// Replays the whole stream (inserts, expiries, query batches) against one
/// index, folding the controller after the [`STREAM_CHECKS`] steps when one is
/// given. The mutation order is the same for every caller, so two runs hold the
/// same live set under the same ids.
fn run_stream(
    scenario: &StreamingJoinScenario,
    spec: JoinSpec,
    initial: IndexConfig,
    adaptive: Option<AdaptiveConfig>,
) -> (Arc<ShardedServingIndex>, Vec<ControlDecision>) {
    let index = Arc::new(
        ShardedServingIndex::build(
            scenario.initial.clone(),
            spec,
            initial,
            ShardedConfig::default(),
        )
        .unwrap(),
    );
    let mut controller = adaptive.map(|config| AdaptiveController::new(Arc::clone(&index), config));
    let mut ids: VecDeque<u64> = (0..scenario.initial.len() as u64).collect();
    let mut decisions = Vec::new();
    for (i, step) in scenario.steps.iter().enumerate() {
        for v in &step.inserts {
            ids.push_back(index.insert(v.clone()).unwrap());
        }
        for _ in 0..step.expire {
            index.delete(ids.pop_front().unwrap()).unwrap();
        }
        index.query(&step.queries).unwrap();
        if let Some(controller) = controller.as_mut() {
            if STREAM_CHECKS.contains(&i) {
                decisions.push(controller.check().unwrap());
            }
        }
    }
    (index, decisions)
}

#[test]
fn streaming_drift_migrates_alsh_to_brute_once() {
    let mut rng = StdRng::seed_from_u64(0xAD_5E81);
    let config = StreamingJoinConfig {
        dim: 3,
        window: 1024,
        steps: 12,
        inserts_per_step: 256,
        queries_per_step: 1024,
        scale_start: 0.3,
        scale_end: 0.95,
    };
    let scenario = streaming_join(&mut rng, config).unwrap();
    let spec = JoinSpec::new(
        scenario.threshold,
        scenario.approximation,
        JoinVariant::Signed,
    )
    .unwrap();
    // The initial structure of a serving index, planned as `IndexBuilder` plans one: on
    // the whole window, which the index serves to every later query.
    let stats = WorkloadStats::sample(
        &mut rng,
        &scenario.initial,
        &scenario.steps[0].queries,
        spec,
    )
    .unwrap();
    let plan =
        JoinPlanner::new(stream_planner_config(), Default::default()).plan_from_stats(stats, spec);
    assert_eq!(
        plan.choice.family(),
        IndexFamily::Alsh,
        "the low-norm opening window is asymmetric LSH's turf"
    );
    let initial = plan.choice;
    let adaptive_config = AdaptiveConfig {
        planner: stream_planner_config(),
        seed: 0xBE7A,
        ..AdaptiveConfig::default()
    };
    let (frozen, _) = run_stream(&scenario, spec, initial, None);
    let (adaptive, decisions) = run_stream(&scenario, spec, initial, Some(adaptive_config));

    assert_eq!(decisions.len(), STREAM_CHECKS.len());
    assert!(
        matches!(decisions[0], ControlDecision::BaselineEstablished),
        "{decisions:?}"
    );
    assert!(
        matches!(decisions[1], ControlDecision::Pending { streak: 1, .. }),
        "{decisions:?}"
    );
    let ControlDecision::Migrated { drift, report } = &decisions[2] else {
        panic!("the end-of-ramp check must migrate: {decisions:?}");
    };
    assert!(*drift >= 0.3, "migrated below the drift threshold: {drift}");
    assert_eq!(report.from, IndexFamily::Alsh);
    assert_eq!(report.to, IndexFamily::Brute);
    assert_eq!(report.entries, config.window, "no entry lost in the swap");
    assert_eq!(adaptive.migrations(), 1);
    assert_eq!(adaptive.family(), IndexFamily::Brute);
    assert_eq!(frozen.family(), IndexFamily::Alsh);
    assert_eq!(frozen.live_entries(), adaptive.live_entries());

    // The migrated index answers the post-drift traffic as a fresh build of the
    // same strategy over the same live set does.
    let post_drift = &scenario.steps.last().unwrap().queries;
    let fresh = ShardedServingIndex::from_entries(
        adaptive.live_entries(),
        adaptive.next_id(),
        spec,
        adaptive.index_config(),
        ShardedConfig::default(),
    )
    .unwrap();
    assert_eq!(
        fresh.query(post_drift).unwrap(),
        adaptive.query(post_drift).unwrap()
    );
}

/// Serves both phases of the recommender scenario top-k in fixed chunks, folding
/// the controller after every chunk when one is given; returns the index, the
/// answer transcript and the decisions.
fn run_recommender(
    scenario: &RecommenderShiftScenario,
    spec: JoinSpec,
    adaptive: Option<AdaptiveConfig>,
) -> (
    Arc<ShardedServingIndex>,
    Vec<MatchPair>,
    Vec<ControlDecision>,
) {
    let index = Arc::new(
        ShardedServingIndex::build(
            scenario.items.clone(),
            spec,
            IndexConfig::Brute,
            ShardedConfig::default(),
        )
        .unwrap(),
    );
    let mut controller = adaptive.map(|config| AdaptiveController::new(Arc::clone(&index), config));
    let mut transcript = Vec::new();
    let mut decisions = Vec::new();
    let chunks = scenario
        .phase_one
        .chunks(128)
        .chain(scenario.phase_two.chunks(86));
    for chunk in chunks {
        transcript.extend(index.query_top_k(chunk, scenario.k).unwrap());
        if let Some(controller) = controller.as_mut() {
            decisions.push(controller.check().unwrap());
        }
    }
    (index, transcript, decisions)
}

#[test]
fn recommender_norm_shift_replans_without_migrating() {
    let mut rng = StdRng::seed_from_u64(0xAD_0C4);
    let scenario = recommender_shift(&mut rng, RecommenderShiftConfig::default()).unwrap();
    let spec = JoinSpec::new(
        scenario.threshold,
        scenario.approximation,
        JoinVariant::Signed,
    )
    .unwrap();
    // Planned as `IndexBuilder` plans a serving index: on the whole item set.
    let stats =
        WorkloadStats::sample(&mut rng, &scenario.items, &scenario.phase_one, spec).unwrap();
    let plan = JoinPlanner::default().plan_from_stats(stats, spec);
    assert_eq!(plan.choice, IndexConfig::Brute);
    let adaptive_config = AdaptiveConfig {
        seed: 0x0C4B,
        ..AdaptiveConfig::default()
    };
    let (_, frozen, _) = run_recommender(&scenario, spec, None);
    let (adaptive, transcript, decisions) = run_recommender(&scenario, spec, Some(adaptive_config));

    let consulted = |d: &&ControlDecision| {
        matches!(
            d,
            ControlDecision::Replanned { .. } | ControlDecision::Migrated { .. }
        )
    };
    let phase_one = scenario.phase_one.chunks(128).count();
    assert!(decisions.len() > phase_one + 1, "{decisions:?}");
    assert!(
        !decisions[..phase_one].iter().any(|d| consulted(&d)),
        "phase one must not consult the planner: {decisions:?}"
    );
    let replans: Vec<&ControlDecision> = decisions[phase_one..].iter().filter(consulted).collect();
    assert!(
        matches!(
            replans[..],
            [ControlDecision::Replanned {
                choice: IndexFamily::Brute,
                ..
            }]
        ),
        "the shift must re-confirm the exact scan exactly once: {decisions:?}"
    );
    assert_eq!(adaptive.migrations(), 0);
    assert_eq!(adaptive.family(), IndexFamily::Brute);
    assert_eq!(
        frozen, transcript,
        "the control loop changed a top-k answer"
    );
}

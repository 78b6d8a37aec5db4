//! Concurrency stress test for the sharded serving layer.
//!
//! Many threads hammer one [`ShardedServingIndex`] with interleaved `query` /
//! `query_top_k` / `insert` / `delete` — readers hold shard read locks while
//! writers mutate other (and the same) shards — and afterwards the index must
//! be *exactly* the index the surviving operations describe:
//!
//! * every query answered **during** the storm is valid (clears the relaxed
//!   threshold `cs`) and names an id that existed at some point;
//! * the final compacted state is bit-identical to a fresh sharded build from
//!   the sequential oracle's live `(id, vector)` set — the determinism
//!   invariant of `proptest_store.rs`, surviving real thread interleavings;
//! * aggregated counters account for every operation, and the global id
//!   allocator never reuses an id.
//!
//! Threads own disjoint slices of the initial ids (so the final live set is
//! interleaving-independent) and otherwise insert fresh vectors and delete only
//! what they themselves inserted.

use ips_core::asymmetric::AlshParams;
use ips_core::problem::{JoinSpec, JoinVariant, MatchPair};
use ips_core::symmetric::SymmetricParams;
use ips_linalg::random::random_ball_vector;
use ips_linalg::DenseVector;
use ips_sketch::linf_mips::MaxIpConfig;
use ips_store::{IndexConfig, ServingConfig, ShardedConfig, ShardedServingIndex};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

const THREADS: usize = 4;
const OPS_PER_THREAD: usize = 24;
const N: usize = 64;
const DIM: usize = 8;
const SHARDS: usize = 4;

fn vectors(seed: u64, n: usize) -> Vec<DenseVector> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| random_ball_vector(&mut rng, DIM, 1.0).unwrap().scaled(0.95))
        .collect()
}

fn spec() -> JoinSpec {
    JoinSpec::new(0.2, 0.6, JoinVariant::Signed).unwrap()
}

/// What one thread did, for the sequential oracle.
#[derive(Default)]
struct ThreadLog {
    inserted_live: Vec<(u64, DenseVector)>,
    deleted_initial: Vec<u64>,
    inserts: u64,
    deletes: u64,
}

fn stress_family(index_config: IndexConfig, seed: u64) {
    let data = vectors(seed, N);
    let queries = vectors(seed ^ 0xBEEF, 8);
    let config = ShardedConfig {
        shards: SHARDS,
        serving: ServingConfig::default(),
    };
    let sharded = ShardedServingIndex::build(data.clone(), spec(), index_config, config).unwrap();

    // Queries answered during the storm are collected for validity checking
    // (a Mutex on the *results*, never on the index).
    let observed: Mutex<Vec<MatchPair>> = Mutex::new(Vec::new());

    let logs: Vec<ThreadLog> = std::thread::scope(|scope| {
        let sharded = &sharded;
        let queries = &queries;
        let observed = &observed;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let mut log = ThreadLog::default();
                    let mut rng = StdRng::seed_from_u64(seed ^ (t as u64) << 32);
                    // This thread may delete initial ids t, t+THREADS, t+2·THREADS, …
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
                                // Alternate deleting an owned initial id and one of
                                // this thread's own inserts (when any remain).
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
        handles
            .into_iter()
            .map(|h| h.join().expect("stress thread panicked"))
            .collect()
    });

    // Validity of everything observed mid-storm: reported pairs clear cs and name
    // ids the allocator has handed out (initial or inserted).
    let total_inserts: u64 = logs.iter().map(|l| l.inserts).sum();
    let total_deletes: u64 = logs.iter().map(|l| l.deletes).sum();
    let max_id = N as u64 + total_inserts;
    for pair in observed.into_inner().unwrap() {
        assert!(
            spec().acceptable(pair.inner_product),
            "{index_config:?}: invalid pair served mid-storm: {pair:?}"
        );
        assert!((pair.data_index as u64) < max_id, "unallocated id answered");
    }

    // The sequential oracle: initial ids minus deleted-initial, plus surviving
    // inserts — interleaving-independent because deletions are thread-owned.
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
        "{index_config:?}: live set differs"
    );
    assert_eq!(sharded.len(), live.len());
    for (id, v) in &live {
        assert_eq!(
            &sharded.vector(*id).unwrap(),
            v,
            "{index_config:?}: id {id}"
        );
    }

    // Counters account for every mutation; queries/hits tick at the sharded layer.
    let stats = sharded.stats();
    assert_eq!(stats.inserts, total_inserts, "{index_config:?}");
    assert_eq!(stats.deletes, total_deletes, "{index_config:?}");
    assert_eq!(
        stats.queries,
        (THREADS * OPS_PER_THREAD / 2 * queries.len()) as u64,
        "{index_config:?}: every batch of every thread is counted"
    );

    // The allocator never reuses an id, even after all those deletes.
    let fresh_id = sharded
        .insert(vectors(seed ^ 0xA11, 1).pop().unwrap())
        .unwrap();
    assert_eq!(fresh_id, max_id, "{index_config:?}: allocator regressed");
    sharded.delete(fresh_id).unwrap();

    // Determinism through the storm: compacted ≡ fresh sharded build from the
    // oracle's live set, bit for bit, for both query modes.
    sharded.compact().unwrap();
    let fresh =
        ShardedServingIndex::from_entries(live, max_id + 1, spec(), index_config, config).unwrap();
    let probes = vectors(seed ^ 0xD00D, 10);
    assert_eq!(
        sharded.query(&probes).unwrap(),
        fresh.query(&probes).unwrap(),
        "{index_config:?}: compacted state diverged from the sequential oracle"
    );
    assert_eq!(
        sharded.query_top_k(&probes, 3).unwrap(),
        fresh.query_top_k(&probes, 3).unwrap(),
        "{index_config:?}: top-k diverged from the sequential oracle"
    );
}

#[test]
fn sharded_index_is_sync_and_send() {
    fn assert_sync_send<T: Sync + Send>() {}
    assert_sync_send::<ShardedServingIndex>();
}

#[test]
fn concurrent_storm_brute() {
    stress_family(IndexConfig::Brute, 0x51_01);
}

#[test]
fn concurrent_storm_alsh() {
    stress_family(
        IndexConfig::Alsh(AlshParams {
            bits_per_table: 4,
            tables: 8,
            ..AlshParams::default()
        }),
        0x51_02,
    );
}

#[test]
fn concurrent_storm_symmetric() {
    stress_family(
        IndexConfig::Symmetric(SymmetricParams {
            bits_per_table: 4,
            tables: 8,
            ..SymmetricParams::default()
        }),
        0x51_03,
    );
}

#[test]
fn concurrent_storm_sketch() {
    stress_family(
        IndexConfig::Sketch {
            config: MaxIpConfig {
                kappa: 2.0,
                copies: 3,
                rows: Some(1),
            },
            leaf_size: 4,
        },
        0x51_04,
    );
}

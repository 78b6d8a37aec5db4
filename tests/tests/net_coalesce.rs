//! Coalescing-correctness property: merging concurrent requests is invisible.
//!
//! `N` threads each submit **one** single-vector request through a shared
//! [`Coalescer`] whose window is wide open (`max_batch = N`, generous
//! deadline), so the requests really do merge into one engine pass — the
//! `coalesced_batches` counter proves it. Every thread's answer must be
//! bit-identical ([`MatchPair`] equality compares the `f64` exactly) to
//!
//! * the **serial** answer of the same [`ShardedServingIndex`] asked the same
//!   single vector with no concurrency at all, and
//! * the plain unsharded [`ServingIndex`] under the same seed — for every
//!   shard count for the candidate-decomposable families (brute / ALSH /
//!   symmetric), and at one shard for sketch (whose recovery tree is global;
//!   multi-shard sketch answers are a different deterministic approximation,
//!   pinned by `proptest_store.rs`).
//!
//! Exercised across shard counts, thread counts, `k`, and all four index
//! families — the coalescing satellite of the TCP-serving PR. A second storm
//! releases threshold, top-2 and top-3 requests together: different asks never
//! share an engine pass, and each answers as its own request alone does.

use ips_core::engine::Ask;
use ips_core::problem::{JoinSpec, JoinVariant, MatchPair};
use ips_obs::NOOP_SINK;
use ips_store::{
    CoalesceConfig, Coalescer, IndexConfig, ServingConfig, ServingIndex, ShardedConfig,
    ShardedServingIndex,
};
use ips_tests::{families, vectors};
use proptest::prelude::*;
use std::sync::{Arc, Barrier};

/// Releases all `clients` at once, each submitting one single-vector request
/// through the coalescer; returns the per-client answers in client order.
fn storm<F>(clients: usize, submit: F) -> Vec<Vec<MatchPair>>
where
    F: Fn(usize) -> ips_store::Result<Vec<MatchPair>> + Sync,
{
    let barrier = Barrier::new(clients);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                let barrier = &barrier;
                let submit = &submit;
                scope.spawn(move || {
                    barrier.wait();
                    submit(i).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn concurrent_coalesced_requests_answer_bit_identically_to_serial_queries(
        data_seed in any::<u64>(),
        n in 8usize..32,
        dim in 2usize..7,
        shards in 1usize..4,
        clients in 2usize..6,
        k in 1usize..4,
    ) {
        let data = vectors(data_seed, n, dim);
        let queries = vectors(data_seed ^ 0xF00D, clients, dim);
        let spec = JoinSpec::new(0.2, 0.6, JoinVariant::Signed).unwrap();
        let serving = ServingConfig::default();
        for index_config in families() {
            let index = Arc::new(ShardedServingIndex::build(
                data.clone(),
                spec,
                index_config,
                ShardedConfig { shards, serving },
            ).unwrap());
            // max_batch = clients closes the window the moment everyone has
            // arrived; the wide deadline only matters if a thread stalls.
            let coalescer = Coalescer::new(Arc::clone(&index), CoalesceConfig {
                window_micros: 2_000_000,
                max_batch: clients,
            });
            let batches_before = index.stats().coalesced_batches;

            let got = storm(clients, |i| coalescer.query(vec![queries[i].clone()]));
            let got_top =
                storm(clients, |i| coalescer.answer(vec![queries[i].clone()], Ask::TopK(k)));

            // At least one pass merged ≥ 2 requests in each storm (the barrier
            // makes anything else a pathological scheduling accident, which
            // would still answer correctly — it just would not test merging).
            prop_assert!(
                index.stats().coalesced_batches >= batches_before + 2,
                "family {:?}: storms did not coalesce", index_config
            );

            let unsharded = ServingIndex::build(data.clone(), spec, index_config, serving).unwrap();
            let decomposable = !matches!(index_config, IndexConfig::Sketch(_)) || shards == 1;
            for (i, q) in queries.iter().enumerate() {
                let single = std::slice::from_ref(q);
                prop_assert_eq!(
                    &got[i], &index.query(single).unwrap(),
                    "family {:?} shards={} client {}", index_config, shards, i
                );
                prop_assert_eq!(
                    &got_top[i], &index.query_top_k(single, k).unwrap(),
                    "family {:?} shards={} client {} top-{}", index_config, shards, i, k
                );
                if decomposable {
                    prop_assert_eq!(
                        &got[i], &unsharded.query(single).unwrap(),
                        "family {:?} shards={} vs unsharded", index_config, shards
                    );
                    prop_assert_eq!(
                        &got_top[i], &unsharded.query_top_k(single, k).unwrap(),
                        "family {:?} shards={} vs unsharded top-{}", index_config, shards, k
                    );
                }
            }
        }
    }

    #[test]
    fn different_asks_released_together_answer_as_each_alone(
        data_seed in any::<u64>(),
        n in 8usize..32,
        dim in 2usize..7,
        shards in 1usize..4,
        per_ask in 2usize..4,
    ) {
        const ASKS: [Ask; 3] = [Ask::Threshold, Ask::TopK(2), Ask::TopK(3)];
        let clients = ASKS.len() * per_ask;
        let data = vectors(data_seed, n, dim);
        let queries = vectors(data_seed ^ 0xA5C, clients, dim);
        let spec = JoinSpec::new(0.2, 0.6, JoinVariant::Signed).unwrap();
        for index_config in families() {
            let index = Arc::new(ShardedServingIndex::build(
                data.clone(),
                spec,
                index_config,
                ShardedConfig { shards, serving: ServingConfig::default() },
            ).unwrap());
            // Each ask's lane closes once its `per_ask` requests have arrived.
            let coalescer = Coalescer::new(Arc::clone(&index), CoalesceConfig {
                window_micros: 2_000_000,
                max_batch: per_ask,
            });
            let ask = |i: usize| ASKS[i % ASKS.len()];
            let batches_before = index.stats().coalesced_batches;
            let got = storm(clients, |i| coalescer.answer(vec![queries[i].clone()], ask(i)));
            prop_assert!(
                index.stats().coalesced_batches >= batches_before + ASKS.len() as u64,
                "family {:?}: the asks did not coalesce", index_config
            );
            for (i, q) in queries.iter().enumerate() {
                let alone = index.answer(std::slice::from_ref(q), ask(i), &NOOP_SINK).unwrap();
                prop_assert_eq!(
                    &got[i], &alone,
                    "family {:?} shards={} client {} {:?}", index_config, shards, i, ask(i)
                );
            }
        }
    }
}

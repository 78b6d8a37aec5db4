//! Property-based integration tests: every join implementation, whatever its recall,
//! must produce *valid* output under Definition 1 (no reported pair below `cs`), the
//! one exact join — the brute-force scan — must give the same pairs serial and
//! parallel on arbitrary inputs, and the sketch join, which holds one node of its tree
//! at a time, must give the pairs of the whole tree run through the engine, bit for
//! bit. The LSH joins hash only above their scan rule, which these small inputs are
//! below; their tables, a group at a time, are held to the whole index by the tests of
//! `ips_core`'s `lsh_join` module, which reach the hashing join whatever its inputs.

use ips_core::asymmetric::{AlshParams, SphereTransform};
use ips_core::brute::brute_force_join;
use ips_core::engine::{EngineConfig, JoinEngine};
use ips_core::facade::{Join, Strategy as JoinStrategy};
use ips_core::lsh_mips::{LshMips, BUILD_BLOCK};
use ips_core::mips::{BruteForceMipsIndex, MipsIndex, SearchResult, SketchMipsAdapter};
use ips_core::problem::{evaluate_join, JoinSpec, JoinVariant, MatchPair};
use ips_linalg::par::Schedule;
use ips_linalg::DenseVector;
use ips_sketch::linf_mips::MaxIpConfig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Strategy: a small collection of vectors with coordinates in [−0.4, 0.4] so that every
/// vector stays comfortably inside the unit ball (dimension ≤ 6).
fn vectors(count: std::ops::Range<usize>) -> impl Strategy<Value = Vec<DenseVector>> {
    (count, 2usize..6).prop_flat_map(|(n, dim)| {
        prop::collection::vec(prop::collection::vec(-0.4f64..0.4, dim..=dim), n..=n)
            .prop_map(|rows| rows.into_iter().map(DenseVector::new).collect())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn exact_joins_agree_and_are_valid(
        data in vectors(1..20),
        queries in vectors(1..10),
        s in 0.01f64..0.3,
        c in 0.2f64..1.0,
        signed in any::<bool>(),
    ) {
        // Give data and queries the same dimension by truncating/padding the queries.
        let dim = data[0].dim();
        let queries: Vec<DenseVector> = queries
            .iter()
            .map(|q| {
                DenseVector::new((0..dim).map(|i| if i < q.dim() { q[i] } else { 0.0 }).collect())
            })
            .collect();
        let variant = if signed { JoinVariant::Signed } else { JoinVariant::Unsigned };
        let spec = JoinSpec::new(s, c, variant).unwrap();
        let reference = brute_force_join(&data, &queries, &spec).unwrap();
        let parallel = Join::data(&data)
            .queries(&queries)
            .spec(spec)
            .strategy(JoinStrategy::Brute)
            .threads(3)
            .chunk_size(queries.len().div_ceil(3))
            .run()
            .unwrap()
            .matches;
        prop_assert_eq!(&parallel, &reference);
        // Exact joins answer every promised query with a valid pair.
        let (recall, valid) = evaluate_join(&data, &queries, &spec, &reference).unwrap();
        prop_assert_eq!(recall, 1.0);
        prop_assert!(valid);
    }

    #[test]
    fn alsh_join_output_is_always_valid(
        seed in any::<u64>(),
        s in 0.05f64..0.3,
        c in 0.3f64..0.95,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = 8;
        let data: Vec<DenseVector> = (0..40)
            .map(|_| ips_linalg::random::random_ball_vector(&mut rng, dim, 1.0).unwrap())
            .collect();
        let queries: Vec<DenseVector> = (0..10)
            .map(|_| ips_linalg::random::random_unit_vector(&mut rng, dim).unwrap())
            .collect();
        let spec = JoinSpec::new(s, c, JoinVariant::Signed).unwrap();
        let pairs = Join::data(&data)
            .queries(&queries)
            .spec(spec)
            .strategy(JoinStrategy::Alsh)
            .alsh_params(AlshParams {
                bits_per_table: 4,
                tables: 8,
                ..Default::default()
            })
            .run_with_rng(&mut rng)
            .unwrap()
            .matches;
        let (_, valid) = evaluate_join(&data, &queries, &spec, &pairs).unwrap();
        prop_assert!(valid, "ALSH reported a pair below cs");
    }

    #[test]
    fn join_spec_promise_implies_acceptance(
        s in 0.01f64..10.0,
        c in 0.01f64..1.0,
        ip in -20.0f64..20.0,
        signed in any::<bool>(),
    ) {
        let variant = if signed { JoinVariant::Signed } else { JoinVariant::Unsigned };
        let spec = JoinSpec::new(s, c, variant).unwrap();
        if spec.satisfies_promise(ip) {
            prop_assert!(spec.acceptable(ip), "a pair above s must clear cs (c <= 1)");
        }
        if !spec.acceptable(ip) {
            prop_assert!(!spec.satisfies_promise(ip));
        }
        prop_assert!((spec.relaxed_threshold() - c * s).abs() < 1e-12);
    }
}

/// The serial reference the batch path must reproduce: one `search` per query.
fn serial_search_loop<I: MipsIndex>(
    index: &I,
    queries: &[DenseVector],
) -> Vec<Option<SearchResult>> {
    queries.iter().map(|q| index.search(q).unwrap()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The batch-path contract behind the JoinEngine: `search_batch` (and the
    // engine built on it) must return exactly what the serial `search` loop
    // returns for the brute-force and ALSH indexes, for every chunking and
    // thread count.
    #[test]
    fn search_batch_matches_serial_search(
        seed in any::<u64>(),
        n in 5usize..60,
        q in 1usize..25,
        s in 0.05f64..0.4,
        c in 0.3f64..0.95,
        chunk_size in 1usize..40,
        threads in 1usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = 8;
        let data: Vec<DenseVector> = (0..n)
            .map(|_| ips_linalg::random::random_ball_vector(&mut rng, dim, 1.0).unwrap())
            .collect();
        let queries: Vec<DenseVector> = (0..q)
            .map(|_| ips_linalg::random::random_unit_vector(&mut rng, dim).unwrap())
            .collect();
        let spec = JoinSpec::new(s, c, JoinVariant::Signed).unwrap();
        let brute = BruteForceMipsIndex::new(data.clone(), spec);
        let alsh = LshMips::<SphereTransform>::build(
            Schedule::new(BUILD_BLOCK),
            &mut rng,
            data,
            spec,
            AlshParams { bits_per_table: 4, tables: 8, ..Default::default() },
        )
        .unwrap();

        let brute_serial = serial_search_loop(&brute, &queries);
        let alsh_serial = serial_search_loop(&alsh, &queries);

        // The whole-set batch call (covers the brute-force data-major override).
        prop_assert_eq!(&brute.search_batch(&queries).unwrap(), &brute_serial);
        prop_assert_eq!(&alsh.search_batch(&queries).unwrap(), &alsh_serial);

        // Arbitrary chunkings of the batch call.
        for chunk in queries.chunks(chunk_size) {
            let base = (chunk.as_ptr() as usize - queries.as_ptr() as usize)
                / std::mem::size_of::<DenseVector>();
            prop_assert_eq!(
                &brute.search_batch(chunk).unwrap()[..],
                &brute_serial[base..base + chunk.len()]
            );
        }

        // The engine over both indexes, under the sampled schedule, against the
        // pair set the serial loop induces.
        let config = EngineConfig { threads, chunk_size };
        for (index_name, serial, engine_pairs) in [
            (
                "brute",
                &brute_serial,
                JoinEngine::with_config(&brute, config).run(&queries).unwrap(),
            ),
            (
                "alsh",
                &alsh_serial,
                JoinEngine::with_config(&alsh, config).run(&queries).unwrap(),
            ),
        ] {
            let expected: Vec<(usize, usize, f64)> = serial
                .iter()
                .enumerate()
                .filter_map(|(j, hit)| hit.map(|h| (h.data_index, j, h.inner_product)))
                .collect();
            let got: Vec<(usize, usize, f64)> = engine_pairs
                .iter()
                .map(|p| (p.data_index, p.query_index, p.inner_product))
                .collect();
            prop_assert_eq!(&got, &expected, "index = {}", index_name);
        }
    }
}

/// A data set and a query set of one dimension inside the unit ball, where some data
/// vectors come twice and some queries are data vectors — every twinned one among them,
/// so that ties between equal scores have to be broken as the whole structure breaks
/// them.
fn twinned_workload() -> impl Strategy<Value = (Vec<DenseVector>, Vec<DenseVector>)> {
    (2usize..6, 4usize..40, 1usize..12)
        .prop_flat_map(|(dim, n, m)| {
            let rows = move |count: usize| {
                prop::collection::vec(
                    prop::collection::vec(-0.4f64..0.4, dim..=dim),
                    count..=count,
                )
            };
            let picks = || prop::collection::vec(0usize..n, 1..4);
            (rows(n), rows(m), picks(), picks())
        })
        .prop_map(|(data, queries, twins, asked)| {
            let mut data: Vec<DenseVector> = data.into_iter().map(DenseVector::new).collect();
            let twins: Vec<DenseVector> = twins.iter().map(|&i| data[i].clone()).collect();
            data.extend(twins.iter().cloned());
            let mut queries: Vec<DenseVector> = queries.into_iter().map(DenseVector::new).collect();
            queries.extend(asked.iter().map(|&i| data[i].clone()).chain(twins));
            (data, queries)
        })
}

/// The engine schedules every LSH join is compared at.
const SCHEDULES: [(usize, usize); 4] = [(1, 1), (1, 7), (3, 1), (3, 7)];

fn engine((threads, chunk_size): (usize, usize)) -> EngineConfig {
    EngineConfig {
        threads,
        chunk_size,
    }
}

/// Pairs with their inner products as bit patterns.
fn bits(pairs: &[MatchPair]) -> Vec<(usize, usize, u64)> {
    pairs
        .iter()
        .map(|p| (p.data_index, p.query_index, p.inner_product.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // One or two rows a copy and at most three copies split every range longer than
    // `2·copies·rows` (a tree as deep as `log₂(n / (2·copies·rows))`); `rows = n` is a
    // tree of depth 0, whose root scans. The join walks the tree a node at a time, the whole-tree
    // join builds it and queries it through the engine: the same pairs, bit for bit,
    // and the same RNG state after.
    #[test]
    fn the_sketch_join_is_the_whole_tree_join(
        (data, queries) in twinned_workload(),
        seed in any::<u64>(),
        s in 0.02f64..0.2,
        c in 0.3f64..0.95,
        signed in any::<bool>(),
        (copies, rows) in (1usize..=3, 0usize..=2),
        depth_zero in any::<bool>(),
    ) {
        let variant = if signed { JoinVariant::Signed } else { JoinVariant::Unsigned };
        let spec = JoinSpec::new(s, c, variant).unwrap();
        // `rows = 0` stands for the recommended count, which splits far less.
        let rows = if depth_zero { data.len() } else { rows };
        let config = MaxIpConfig { kappa: 2.0, copies, rows: (rows > 0).then_some(rows) };
        for schedule in SCHEDULES {
            let mut rng = StdRng::seed_from_u64(seed);
            let tree = SketchMipsAdapter::build(&mut rng, &data[..], spec, config)
                .unwrap();
            let expected = bits(
                &JoinEngine::with_config(tree, engine(schedule)).run(&queries).unwrap(),
            );
            let after_tree = rng.next_u64();
            let mut rng = StdRng::seed_from_u64(seed);
            let report = Join::data(&data)
                .queries(&queries)
                .spec(spec)
                .strategy(JoinStrategy::Sketch)
                .sketch_config(config)
                .engine(engine(schedule))
                .run_with_rng(&mut rng)
                .unwrap();
            prop_assert_eq!(&bits(&report.matches), &expected, "schedule {:?}", schedule);
            prop_assert_eq!(rng.next_u64(), after_tree, "schedule {:?}", schedule);
        }
    }
}

//! Property-based integration tests: every join implementation, whatever its recall,
//! must produce *valid* output under Definition 1 (no reported pair below `cs`), and
//! the exact algorithms must agree with each other on arbitrary inputs.

use ips_core::algebraic::algebraic_exact_join;
use ips_core::asymmetric::{AlshParams, SphereTransform};
use ips_core::brute::{brute_force_join, brute_force_join_parallel};
use ips_core::engine::{EngineConfig, JoinEngine};
use ips_core::facade::{Join, Strategy as JoinStrategy};
use ips_core::lsh_mips::{LshMips, BUILD_BLOCK};
use ips_core::mips::{BruteForceMipsIndex, MipsIndex, SearchResult};
use ips_core::problem::{evaluate_join, JoinSpec, JoinVariant};
use ips_linalg::par::Schedule;
use ips_linalg::DenseVector;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

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
        let parallel = brute_force_join_parallel(&data, &queries, &spec, 3).unwrap();
        prop_assert_eq!(&parallel, &reference);
        let algebraic = algebraic_exact_join(&data, &queries, &spec, 4).unwrap();
        prop_assert_eq!(&algebraic, &reference);
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

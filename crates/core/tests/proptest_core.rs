//! Property-based tests for the core problem definitions and baselines, and for the
//! validity of the algebraic join.

use ips_core::algebraic::{amplified_sign_join, AmplifiedJoinConfig};
use ips_core::brute::{brute_force_join, brute_force_mips};
use ips_core::problem::{evaluate_join, negate_queries, JoinSpec, JoinVariant};
use ips_linalg::random::random_sign_vector;
use ips_linalg::DenseVector;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn vectors(count: usize, dim: usize) -> impl Strategy<Value = Vec<DenseVector>> {
    prop::collection::vec(
        prop::collection::vec(-1.0f64..1.0, dim).prop_map(DenseVector::new),
        count,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn join_spec_thresholds_are_consistent(s in 0.01f64..5.0, c in 0.01f64..1.0) {
        let spec = JoinSpec::new(s, c, JoinVariant::Unsigned).unwrap();
        prop_assert!(spec.relaxed_threshold() <= spec.threshold + 1e-12);
        // Anything satisfying the promise is also acceptable.
        for ip in [-2.0 * s, -s, -c * s, 0.0, c * s, s, 2.0 * s] {
            if spec.satisfies_promise(ip) {
                prop_assert!(spec.acceptable(ip));
            }
        }
    }

    #[test]
    fn brute_force_join_output_is_always_valid(
        data in vectors(12, 6),
        queries in vectors(8, 6),
        s in 0.05f64..1.5,
    ) {
        let spec = JoinSpec::exact(s, JoinVariant::Unsigned).unwrap();
        let pairs = brute_force_join(&data, &queries, &spec).unwrap();
        // The exact join achieves recall 1 and validity by definition.
        let (recall, valid) = evaluate_join(&data, &queries, &spec, &pairs).unwrap();
        prop_assert_eq!(recall, 1.0);
        prop_assert!(valid);
        // At most one pair per query.
        let mut seen = std::collections::HashSet::new();
        for p in &pairs {
            prop_assert!(seen.insert(p.query_index));
        }
    }

    #[test]
    fn signed_mips_on_negated_query_flips_sign(
        data in vectors(10, 5),
        query in prop::collection::vec(-1.0f64..1.0, 5).prop_map(DenseVector::new),
    ) {
        // max_p pᵀ(−q) = −min_p pᵀq: check through the unsigned spec that the best
        // absolute inner product is invariant under query negation.
        let spec = JoinSpec::exact(1e-9, JoinVariant::Unsigned).unwrap();
        let best = brute_force_mips(&data, &query, &spec).unwrap();
        let best_neg = brute_force_mips(&data, &query.negated(), &spec).unwrap();
        match (best, best_neg) {
            (Some(a), Some(b)) => {
                prop_assert!((a.inner_product.abs() - b.inner_product.abs()).abs() < 1e-9);
            }
            (None, None) => {}
            _ => prop_assert!(false, "negating the query changed answer existence"),
        }
    }

    #[test]
    fn negate_queries_is_an_involution(queries in vectors(6, 4)) {
        let double = negate_queries(&negate_queries(&queries));
        for (a, b) in queries.iter().zip(double.iter()) {
            for i in 0..a.dim() {
                prop_assert!((a[i] - b[i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn amplified_join_never_reports_below_cs(seed in any::<u64>(), c in 0.3f64..0.9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = 32;
        let data: Vec<_> = (0..30).map(|_| random_sign_vector(&mut rng, dim)).collect();
        let queries: Vec<_> = (0..8).map(|_| random_sign_vector(&mut rng, dim)).collect();
        let s = 20.0;
        let report = amplified_sign_join(
            &mut rng,
            &data,
            &queries,
            &JoinSpec::new(s, c, JoinVariant::Unsigned).unwrap(),
            AmplifiedJoinConfig {
                degree: 2,
                projection_dim: 256,
                detection_fraction: 0.25,
            },
        )
        .unwrap();
        for pair in &report.pairs {
            let exact = data[pair.data_index].dot(&queries[pair.query_index]).unwrap() as f64;
            prop_assert!((exact - pair.inner_product).abs() < 1e-9);
            prop_assert!(exact.abs() >= c * s - 1e-9);
        }
        prop_assert!(report.candidates <= data.len() * queries.len());
    }
}

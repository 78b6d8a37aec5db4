//! Property tests of the scoring-kernel options (`dtype` / `quantized`) at the
//! facade level.
//!
//! The contract under test is the one `ips_core::kernel` documents:
//!
//! * `quantized = true` scores candidates in `i8` fixed point but **exactly
//!   rescores** every surviving candidate in `f64` with the same strict
//!   comparison the plain scan uses, so the final match set is *identical* —
//!   not merely "close" — to the pure-`f64` run for every family. These tests
//!   assert bit-identity ([`ips_core::problem::MatchPair`] compares its `f64`
//!   inner product with `==`).
//! * `dtype = f32` may pick a different near-tied winner, but the winner it
//!   reports is rescored exactly in `f64` and filtered against the promise
//!   threshold `cs`, so every reported pair still passes the Definition 1
//!   validity check of [`evaluate_join`].
//! * An explicitly spelled-out default (`Dtype::F64`, `quantized = false`)
//!   takes the legacy fast path and is bit-identical to not configuring
//!   scoring at all.

use ips_core::asymmetric::AlshParams;
use ips_core::facade::{Join, Strategy};
use ips_core::problem::{evaluate_join, JoinSpec, JoinVariant, MatchPair};
use ips_core::symmetric::SymmetricParams;
use ips_core::{Dtype, ScoringOptions};
use ips_linalg::DenseVector;
use ips_sketch::linf_mips::MaxIpConfig;
use proptest::prelude::*;
// The facade's `Strategy` enum shadows proptest's `Strategy` trait above; bring
// the trait's methods back into scope anonymously.
use proptest::strategy::Strategy as _;

/// A small workload inside the unit ball: `n` data vectors and `m` queries of a
/// shared dimension, coordinates bounded so every norm stays well below 1
/// (keeping the ALSH and symmetric constructors happy).
fn workload(
    n: std::ops::Range<usize>,
    m: std::ops::Range<usize>,
) -> impl proptest::strategy::Strategy<Value = (Vec<DenseVector>, Vec<DenseVector>)> {
    (n, m, 2usize..5).prop_flat_map(|(n, m, dim)| {
        let bound = 0.9 / (dim as f64).sqrt();
        let vec = move |count: usize| {
            prop::collection::vec(
                prop::collection::vec(-bound..bound, dim..=dim),
                count..=count,
            )
            .prop_map(|rows| rows.into_iter().map(DenseVector::new).collect::<Vec<_>>())
        };
        (vec(n), vec(m))
    })
}

fn spec(s: f64, c: f64, signed: bool) -> JoinSpec {
    let variant = if signed {
        JoinVariant::Signed
    } else {
        JoinVariant::Unsigned
    };
    JoinSpec::new(s, c, variant).unwrap()
}

/// Runs one facade join under the given scoring options, with fixed small
/// parameters so the randomized families stay fast.
fn run(
    data: &[DenseVector],
    queries: &[DenseVector],
    spec: JoinSpec,
    strategy: Strategy,
    seed: u64,
    scoring: ScoringOptions,
) -> Vec<MatchPair> {
    Join::data(data)
        .queries(queries)
        .spec(spec)
        .strategy(strategy)
        .alsh_params(AlshParams {
            bits_per_table: 4,
            tables: 6,
            ..AlshParams::default()
        })
        .symmetric_params(SymmetricParams {
            bits_per_table: 4,
            tables: 4,
            ..SymmetricParams::default()
        })
        .sketch_config(MaxIpConfig {
            kappa: 2.0,
            copies: 3,
            rows: Some(1),
        })
        .sketch_leaf_size(4)
        .seed(seed)
        .scoring(scoring)
        .run()
        .unwrap()
        .matches
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Quantized scoring returns the *same bits* as the default path for the
    /// brute, ALSH and sketch families and the auto planner (the conservative
    /// `i8` prune never drops a candidate the exact rescore would have kept).
    #[test]
    fn quantized_match_set_is_bit_identical(
        (data, queries) in workload(1..20, 1..8),
        s in 0.01f64..0.4,
        c in 0.2f64..1.0,
        signed in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let spec = spec(s, c, signed);
        for strategy in [Strategy::Brute, Strategy::Alsh, Strategy::Sketch, Strategy::Auto] {
            let plain = run(&data, &queries, spec, strategy, seed, ScoringOptions::default());
            let quantized = run(
                &data,
                &queries,
                spec,
                strategy,
                seed,
                ScoringOptions { dtype: Dtype::F64, quantized: true },
            );
            prop_assert_eq!(&plain, &quantized, "strategy {:?}", strategy);
        }
    }

    /// Spelling out the default (`f64`, unquantized) must hit the same legacy
    /// fast path as leaving scoring unset: zero drift when nothing is opted in.
    #[test]
    fn explicit_f64_default_is_the_fast_path(
        (data, queries) in workload(1..20, 1..8),
        s in 0.01f64..0.4,
        c in 0.2f64..1.0,
        signed in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let spec = spec(s, c, signed);
        let implicit = run(&data, &queries, spec, Strategy::Brute, seed, ScoringOptions::default());
        let explicit = Join::data(&data)
            .queries(&queries)
            .spec(spec)
            .strategy(Strategy::Brute)
            .seed(seed)
            .dtype(Dtype::F64)
            .quantized(false)
            .run()
            .unwrap()
            .matches;
        prop_assert_eq!(implicit, explicit);
    }

    /// `dtype = f32` may resolve near-ties differently, but every pair it
    /// reports is exactly rescored and promise-filtered, so the Definition 1
    /// validity check always passes.
    #[test]
    fn f32_scoring_is_always_valid(
        (data, queries) in workload(1..24, 1..10),
        s in 0.01f64..0.4,
        c in 0.2f64..1.0,
        signed in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let spec = spec(s, c, signed);
        for quantized in [false, true] {
            let matches = run(
                &data,
                &queries,
                spec,
                Strategy::Brute,
                seed,
                ScoringOptions { dtype: Dtype::F32, quantized },
            );
            let (_, valid) = evaluate_join(&data, &queries, &spec, &matches).unwrap();
            prop_assert!(valid, "f32 (quantized: {}) reported an invalid pair", quantized);
        }
    }
}

proptest! {
    // The symmetric construction is by far the heaviest (tag-dimension map);
    // fewer, smaller cases keep the suite fast while still pinning identity.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Quantized scoring is bit-identical for the symmetric family too.
    #[test]
    fn quantized_symmetric_is_bit_identical(
        (data, queries) in workload(1..10, 1..4),
        s in 0.05f64..0.4,
        seed in any::<u64>(),
    ) {
        let spec = spec(s, 0.5, true);
        let plain = run(&data, &queries, spec, Strategy::Symmetric, seed, ScoringOptions::default());
        let quantized = run(
            &data,
            &queries,
            spec,
            Strategy::Symmetric,
            seed,
            ScoringOptions { dtype: Dtype::F64, quantized: true },
        );
        prop_assert_eq!(plain, quantized);
    }
}

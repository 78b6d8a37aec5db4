//! Property tests of the fluent facade: `JoinBuilder::run` must be
//! **bit-identical** to every legacy free-function entry point under the same
//! seed — for all four fixed strategies and for `Strategy::Auto` — so the
//! facade can replace the nine positional functions without changing a single
//! reported pair.
//!
//! "Bit-identical" is literal: [`ips_core::problem::MatchPair`] compares its
//! `f64` inner product with `==`, so any drift in RNG consumption order,
//! dispatch path or reassembly would fail these tests.

use ips_core::asymmetric::AlshParams;
use ips_core::brute::brute_force_join_parallel;
use ips_core::facade::{Join, Strategy};
use ips_core::join::{alsh_join, index_join, sketch_join, symmetric_join};
use ips_core::mips::BruteForceMipsIndex;
use ips_core::planner::auto_join_with_plan;
use ips_core::problem::{JoinSpec, JoinVariant};
use ips_core::symmetric::SymmetricParams;
use ips_linalg::DenseVector;
use ips_sketch::linf_mips::MaxIpConfig;
use proptest::prelude::*;
// The facade's `Strategy` enum shadows proptest's `Strategy` trait above; bring
// the trait's methods back into scope anonymously.
use proptest::strategy::Strategy as _;
use rand::rngs::StdRng;
use rand::SeedableRng;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `Strategy::Brute` ≡ the engine-parallel brute scan ≡ `index_join` over
    /// the owned brute index (no randomness involved; the builder must not
    /// introduce any).
    #[test]
    fn brute_builder_matches_legacy(
        (data, queries) in workload(1..24, 1..10),
        s in 0.01f64..0.4,
        c in 0.2f64..1.0,
        signed in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let spec = spec(s, c, signed);
        let report = Join::data(&data)
            .queries(&queries)
            .spec(spec)
            .strategy(Strategy::Brute)
            .seed(seed)
            .run()
            .unwrap();
        let legacy = brute_force_join_parallel(&data, &queries, &spec, 3).unwrap();
        prop_assert_eq!(&report.matches, &legacy);
        let via_index = index_join(&BruteForceMipsIndex::new(data.clone(), spec), &queries).unwrap();
        prop_assert_eq!(&report.matches, &via_index);
    }

    /// `Strategy::Alsh` ≡ `alsh_join` with a same-seeded RNG.
    #[test]
    fn alsh_builder_is_bit_identical_to_alsh_join(
        (data, queries) in workload(1..24, 1..8),
        s in 0.01f64..0.4,
        c in 0.2f64..1.0,
        signed in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let spec = spec(s, c, signed);
        let params = AlshParams { bits_per_table: 4, tables: 6, ..AlshParams::default() };
        let built = Join::data(&data)
            .queries(&queries)
            .spec(spec)
            .strategy(Strategy::Alsh)
            .alsh_params(params)
            .seed(seed)
            .run()
            .unwrap()
            .matches;
        let mut rng = StdRng::seed_from_u64(seed);
        let legacy = alsh_join(&mut rng, &data, &queries, spec, params).unwrap();
        prop_assert_eq!(built, legacy);
    }

    /// `Strategy::Sketch` ≡ `sketch_join` with a same-seeded RNG.
    #[test]
    fn sketch_builder_is_bit_identical_to_sketch_join(
        (data, queries) in workload(1..20, 1..8),
        s in 0.01f64..0.4,
        signed in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let spec = spec(s, 0.5, signed);
        let config = MaxIpConfig { kappa: 2.0, copies: 3, rows: Some(1) };
        let built = Join::data(&data)
            .queries(&queries)
            .spec(spec)
            .strategy(Strategy::Sketch)
            .sketch_config(config)
            .sketch_leaf_size(4)
            .seed(seed)
            .run()
            .unwrap()
            .matches;
        let mut rng = StdRng::seed_from_u64(seed);
        let legacy = sketch_join(&mut rng, &data, &queries, spec, config, 4).unwrap();
        prop_assert_eq!(built, legacy);
    }

    /// `Strategy::Auto` ≡ `auto_join_with_plan` with a same-seeded RNG: same
    /// pairs AND the same plan (choice, estimates, resolved parameters).
    #[test]
    fn auto_builder_is_bit_identical_to_auto_join(
        (data, queries) in workload(1..20, 1..8),
        s in 0.01f64..0.4,
        c in 0.2f64..1.0,
        signed in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let spec = spec(s, c, signed);
        let report = Join::data(&data)
            .queries(&queries)
            .spec(spec)
            .strategy(Strategy::Auto)
            .seed(seed)
            .run()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let (legacy_pairs, legacy_plan) =
            auto_join_with_plan(&mut rng, &data, &queries, spec).unwrap();
        prop_assert_eq!(&report.matches, &legacy_pairs);
        prop_assert_eq!(report.plan.as_ref().unwrap(), &legacy_plan);
        prop_assert_eq!(report.strategy, legacy_plan.choice);
    }
}

proptest! {
    // The symmetric construction is by far the heaviest (tag-dimension map);
    // fewer, smaller cases keep the suite fast while still pinning identity.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `Strategy::Symmetric` ≡ `symmetric_join` with a same-seeded RNG.
    #[test]
    fn symmetric_builder_is_bit_identical_to_symmetric_join(
        (data, queries) in workload(1..10, 1..4),
        s in 0.05f64..0.4,
        seed in any::<u64>(),
    ) {
        let spec = spec(s, 0.5, true);
        let params = SymmetricParams { bits_per_table: 4, tables: 4, ..SymmetricParams::default() };
        let built = Join::data(&data)
            .queries(&queries)
            .spec(spec)
            .strategy(Strategy::Symmetric)
            .symmetric_params(params)
            .seed(seed)
            .run()
            .unwrap()
            .matches;
        let mut rng = StdRng::seed_from_u64(seed);
        let legacy = symmetric_join(&mut rng, &data, &queries, spec, params).unwrap();
        prop_assert_eq!(built, legacy);
    }
}

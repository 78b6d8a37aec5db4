//! Property tests of the scoring-kernel option (`dtype`) at the facade level.
//!
//! The contract under test is the one `ips_core::kernel` documents:
//!
//! * `dtype = f32` may pick a different near-tied winner, but the winner it
//!   reports is rescored exactly in `f64` and filtered against the promise
//!   threshold `cs`, so every reported pair still passes the Definition 1
//!   validity check of [`evaluate_join`].
//! * An explicitly spelled-out default (`Dtype::F64`) takes the legacy fast
//!   path and is bit-identical to not configuring scoring at all.

use ips_core::facade::{Join, Strategy};
use ips_core::problem::{evaluate_join, JoinSpec, JoinVariant, MatchPair};
use ips_core::Dtype;
use ips_linalg::DenseVector;
use proptest::prelude::*;
// The facade's `Strategy` enum shadows proptest's `Strategy` trait above; bring
// the trait's methods back into scope anonymously.
use proptest::strategy::Strategy as _;

/// A small workload inside the unit ball: `n` data vectors and `m` queries of a
/// shared dimension, coordinates bounded so every norm stays well below 1.
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

/// Runs one brute-force facade join (the one strategy that reads `dtype`),
/// under `dtype` when one is given and with scoring left unset otherwise.
fn run(
    data: &[DenseVector],
    queries: &[DenseVector],
    spec: JoinSpec,
    seed: u64,
    dtype: Option<Dtype>,
) -> Vec<MatchPair> {
    let join = Join::data(data)
        .queries(queries)
        .spec(spec)
        .strategy(Strategy::Brute)
        .seed(seed);
    let join = match dtype {
        Some(dtype) => join.dtype(dtype),
        None => join,
    };
    join.run().unwrap().matches
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Spelling out the default (`f64`) must hit the same legacy fast path as
    /// leaving scoring unset: zero drift when nothing is opted in.
    #[test]
    fn explicit_f64_default_is_the_fast_path(
        (data, queries) in workload(1..20, 1..8),
        s in 0.01f64..0.4,
        c in 0.2f64..1.0,
        signed in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let spec = spec(s, c, signed);
        let implicit = run(&data, &queries, spec, seed, None);
        let explicit = run(&data, &queries, spec, seed, Some(Dtype::F64));
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
        let matches = run(&data, &queries, spec, seed, Some(Dtype::F32));
        let (_, valid) = evaluate_join(&data, &queries, &spec, &matches).unwrap();
        prop_assert!(valid, "f32 reported an invalid pair");
    }
}

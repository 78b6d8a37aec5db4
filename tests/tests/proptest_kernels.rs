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
//!
//! Under both sits `ips_linalg::score_block`, the exact scan on the register tile:
//! every score has `DenseVector::dot`'s bits, each query sees its rows in the order
//! given, and the first mismatched pair in data-major order fails with `dot`'s error.

use ips_core::facade::{Join, Strategy};
use ips_core::problem::{evaluate_join, JoinSpec, JoinVariant, MatchPair};
use ips_core::Dtype;
use ips_linalg::{score_block, DenseVector, LinalgError};
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

/// Coordinates that make a sum's bits depend on its order and its start: zeros of
/// both signs, the cancellation values `1e16, -1e16, -1.0`, and ordinary numbers.
fn coordinate() -> impl proptest::strategy::Strategy<Value = f64> {
    const SPECIAL: [f64; 6] = [0.0, -0.0, 1e16, -1e16, -1.0, 1.0];
    (0..SPECIAL.len() + 3, -2.0f64..2.0)
        .prop_map(|(pick, x)| SPECIAL.get(pick).copied().unwrap_or(x))
}

/// Up to nine rows and nine queries of one dimension (so every remainder shape of the
/// tile runs), and one key per row that orders them.
#[allow(clippy::type_complexity)]
fn block(
) -> impl proptest::strategy::Strategy<Value = (Vec<DenseVector>, Vec<DenseVector>, Vec<u64>)> {
    (0usize..=9, 0usize..=9, 0usize..=5).prop_flat_map(|(n, m, dim)| {
        let vectors = move |count: usize| {
            prop::collection::vec(
                prop::collection::vec(coordinate(), dim..=dim),
                count..=count,
            )
            .prop_map(|rows| rows.into_iter().map(DenseVector::new).collect::<Vec<_>>())
        };
        (
            vectors(n),
            vectors(m),
            prop::collection::vec(any::<u64>(), n..=n),
        )
    })
}

/// The rows in the order `keys` sorts them, each under its own position as its index.
fn ordered<'a>(rows: &'a [DenseVector], keys: &[u64]) -> Vec<(usize, &'a DenseVector)> {
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by_key(|&i| keys[i]);
    order.into_iter().map(|i| (i, &rows[i])).collect()
}

/// What `score_block` emits for `rows` (in the order given) against `queries`, and
/// what it returns.
#[allow(clippy::type_complexity)]
fn scored(
    rows: &[(usize, &DenseVector)],
    queries: &[DenseVector],
) -> (Vec<(usize, usize, u64)>, Result<(), LinalgError>) {
    let mut emitted = Vec::new();
    let result = score_block(rows.iter().copied(), queries, |i, j, s| {
        emitted.push((i, j, s.to_bits()))
    });
    (emitted, result)
}

/// Per query, the `(index, bits)` it was emitted with, in emission order.
fn per_query(emitted: &[(usize, usize, u64)], queries: usize) -> Vec<Vec<(usize, u64)>> {
    (0..queries)
        .map(|j| {
            emitted
                .iter()
                .filter(|e| e.1 == j)
                .map(|&(i, _, s)| (i, s))
                .collect()
        })
        .collect()
}

/// Per query, what a query-at-a-time scan with `dot` gives over `rows`.
fn dot_scan(rows: &[(usize, &DenseVector)], queries: &[DenseVector]) -> Vec<Vec<(usize, u64)>> {
    queries
        .iter()
        .map(|q| {
            rows.iter()
                .map(|&(i, p)| (i, p.dot(q).unwrap().to_bits()))
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every pair once, with `dot`'s bits, each query seeing the rows in the order
    /// given. A row of non-negative coordinates against a query of `-0.0`s makes a pair
    /// whose products are all `-0.0`, so the sum's start value shows in its bits.
    #[test]
    fn score_block_has_dot_bits_in_each_querys_row_order(
        (mut rows, mut queries, keys) in block(),
        zero_pair in any::<bool>(),
    ) {
        if zero_pair && !rows.is_empty() && !queries.is_empty() {
            rows[0] = DenseVector::new(rows[0].iter().map(|x| x.abs()).collect());
            queries[0] = DenseVector::new(vec![-0.0; queries[0].dim()]);
            let zero = rows[0].dot(&queries[0]).unwrap();
            prop_assert_eq!(zero.to_bits(), (-0.0f64).to_bits());
        }
        let rows = ordered(&rows, &keys);
        let (emitted, result) = scored(&rows, &queries);
        prop_assert_eq!(result, Ok(()));
        prop_assert!(emitted.iter().all(|e| e.1 < queries.len()));
        prop_assert_eq!(per_query(&emitted, queries.len()), dot_scan(&rows, &queries));
    }

    /// A row or a query of another dimension fails the block with `dot`'s error for
    /// the first mismatched pair in data-major order, after every pair of the rows
    /// before that pair's row.
    #[test]
    fn score_block_fails_at_the_first_mismatched_pair_like_dot(
        (mut rows, mut queries, keys) in block(),
        ragged_row in 0usize..12,
        ragged_query in 0usize..12,
    ) {
        let longer = |v: &DenseVector| v.concat(&DenseVector::new(vec![1.0]));
        if let Some(row) = rows.get_mut(ragged_row) {
            *row = longer(row);
        }
        if let Some(query) = queries.get_mut(ragged_query) {
            *query = longer(query);
        }
        let rows = ordered(&rows, &keys);
        let first = rows.iter().enumerate().find_map(|(k, &(_, p))| {
            queries.iter().find(|q| q.dim() != p.dim()).map(|q| (k, p.dot(q).unwrap_err()))
        });
        let (emitted, result) = scored(&rows, &queries);
        match first {
            None => {
                prop_assert_eq!(result, Ok(()));
                prop_assert_eq!(per_query(&emitted, queries.len()), dot_scan(&rows, &queries));
            }
            Some((k, error)) => {
                prop_assert_eq!(result, Err(error));
                let before = dot_scan(&rows[..k], &queries);
                prop_assert_eq!(per_query(&emitted, queries.len()), before);
            }
        }
    }
}

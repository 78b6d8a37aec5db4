//! Exact brute-force joins and MIPS — the quadratic baselines.
//!
//! Every upper bound in the paper is an attempt to beat these `O(|P|·|Q|·d)` loops, and
//! every conditional lower bound says that in certain regimes one essentially cannot.
//! [`brute_force_join`] is the sequential reference the tests check every join
//! against. The multi-threaded exact join is the facade's
//! `Join::data(d).queries(q).spec(s).strategy(Strategy::Brute).threads(n).run()`
//! (see [`crate::facade`]): the [`crate::engine::JoinEngine`] over a
//! [`BorrowedBruteIndex`], the honest baseline on multi-core machines.

use crate::error::{CoreError, Result};
use crate::mips::{data_major_batch, BruteForceMipsIndex};
use crate::problem::{JoinSpec, MatchPair};
use ips_linalg::DenseVector;

/// For each query, finds the best pair according to the spec's variant and reports it if
/// it clears the *promise* threshold `s` (the exact join of Definition 1 with `c = 1`
/// semantics applied to the best partner).
pub fn brute_force_join(
    data: &[DenseVector],
    queries: &[DenseVector],
    spec: &JoinSpec,
) -> Result<Vec<MatchPair>> {
    if data.is_empty() || queries.is_empty() {
        return Err(CoreError::EmptyDataSet);
    }
    let mut out = Vec::new();
    for (j, q) in queries.iter().enumerate() {
        if let Some(pair) = brute_force_mips(data, q, spec)? {
            out.push(MatchPair {
                query_index: j,
                ..pair
            });
        }
    }
    Ok(out)
}

/// The exact quadratic-scan index over *borrowed* data, for callers that already
/// own the vectors (the join facade, the engine baselines) and should not
/// pay a second copy just to join through the engine: the one
/// [`BruteForceMipsIndex`] built from a slice.
pub type BorrowedBruteIndex<'a> = BruteForceMipsIndex<'a>;

/// Exact maximum inner product search: the data index maximising the variant's value,
/// together with the (signed) inner product.
pub fn brute_force_mips(
    data: &[DenseVector],
    query: &DenseVector,
    spec: &JoinSpec,
) -> Result<Option<MatchPair>> {
    // A one-query batch through the shared scan, so the tie rule, the promise filter
    // and the empty-data error have one definition crate-wide.
    let hit = data_major_batch(data, std::slice::from_ref(query), spec)?;
    Ok(hit[0].map(|h| MatchPair {
        data_index: h.data_index,
        query_index: 0,
        inner_product: h.inner_product,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facade::{Join, Strategy};
    use crate::problem::JoinVariant;
    use ips_linalg::random::random_unit_vector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dv(xs: &[f64]) -> DenseVector {
        DenseVector::from(xs)
    }

    #[test]
    fn empty_inputs_rejected() {
        let spec = JoinSpec::exact(0.5, JoinVariant::Signed).unwrap();
        assert!(brute_force_join(&[], &[dv(&[1.0])], &spec).is_err());
        assert!(brute_force_join(&[dv(&[1.0])], &[], &spec).is_err());
        assert!(brute_force_mips(&[], &dv(&[1.0]), &spec).is_err());
    }

    #[test]
    fn signed_join_finds_best_partner_per_query() {
        let data = vec![dv(&[1.0, 0.0]), dv(&[0.5, 0.5]), dv(&[0.0, 1.0])];
        let queries = vec![dv(&[1.0, 0.0]), dv(&[0.0, -1.0])];
        let spec = JoinSpec::exact(0.8, JoinVariant::Signed).unwrap();
        let pairs = brute_force_join(&data, &queries, &spec).unwrap();
        // Query 0 matches data 0 (ip 1.0 >= 0.8); query 1 has no positive partner.
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].data_index, 0);
        assert_eq!(pairs[0].query_index, 0);
    }

    #[test]
    fn unsigned_join_catches_negative_correlations() {
        let data = vec![dv(&[1.0, 0.0])];
        let queries = vec![dv(&[-0.95, 0.0])];
        let signed = JoinSpec::exact(0.8, JoinVariant::Signed).unwrap();
        assert!(brute_force_join(&data, &queries, &signed)
            .unwrap()
            .is_empty());
        let unsigned = JoinSpec::exact(0.8, JoinVariant::Unsigned).unwrap();
        let pairs = brute_force_join(&data, &queries, &unsigned).unwrap();
        assert_eq!(pairs.len(), 1);
        assert!(pairs[0].inner_product < 0.0);
    }

    #[test]
    fn mips_returns_argmax() {
        let data = vec![dv(&[0.2, 0.0]), dv(&[0.9, 0.1]), dv(&[0.5, 0.5])];
        let q = dv(&[1.0, 0.0]);
        let spec = JoinSpec::exact(0.1, JoinVariant::Signed).unwrap();
        let best = brute_force_mips(&data, &q, &spec).unwrap().unwrap();
        assert_eq!(best.data_index, 1);
        // Below the promise threshold nothing is returned.
        let strict = JoinSpec::exact(5.0, JoinVariant::Signed).unwrap();
        assert!(brute_force_mips(&data, &q, &strict).unwrap().is_none());
    }

    #[test]
    fn parallel_join_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(0xACE);
        let dim = 12;
        let data: Vec<DenseVector> = (0..60)
            .map(|_| random_unit_vector(&mut rng, dim).unwrap())
            .collect();
        let queries: Vec<DenseVector> = (0..23)
            .map(|_| random_unit_vector(&mut rng, dim).unwrap())
            .collect();
        let spec = JoinSpec::exact(0.3, JoinVariant::Unsigned).unwrap();
        let sequential = brute_force_join(&data, &queries, &spec).unwrap();
        for threads in [1, 2, 4, 7, 64] {
            let parallel = Join::data(&data)
                .queries(&queries)
                .spec(spec)
                .strategy(Strategy::Brute)
                .threads(threads)
                .chunk_size(queries.len().div_ceil(threads))
                .run()
                .unwrap()
                .matches;
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }
}

//! Exact brute-force joins and MIPS — the quadratic baselines.
//!
//! Every upper bound in the paper is an attempt to beat these `O(|P|·|Q|·d)` loops, and
//! every conditional lower bound says that in certain regimes one essentially cannot.
//! Both a sequential and a multi-threaded variant are provided; the parallel variant
//! (the [`crate::engine::JoinEngine`] over a borrowed exact index) is the honest
//! baseline for the wall-clock benchmarks on multi-core machines.

use crate::engine::{EngineConfig, JoinEngine};
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
        if let Some(pair) = best_for_query(data, q, j, spec)? {
            out.push(pair);
        }
    }
    Ok(out)
}

/// The exact quadratic-scan index over *borrowed* data, for callers that already
/// own the vectors (the parallel baseline below, the join facade) and should not
/// pay a second copy just to join through the engine: the one
/// [`BruteForceMipsIndex`] built from a slice.
pub type BorrowedBruteIndex<'a> = BruteForceMipsIndex<'a>;

/// Multi-threaded exact join: the [`JoinEngine`] over a borrowed exact index, with
/// the query set split across `threads` workers (one chunk each, mirroring the
/// pre-engine behaviour of this baseline). The builder spelling is
/// `Join::data(d).queries(q).spec(s).strategy(Strategy::Brute).threads(n).run()`
/// (see [`crate::facade`]; no randomness is involved either way).
pub fn brute_force_join_parallel(
    data: &[DenseVector],
    queries: &[DenseVector],
    spec: &JoinSpec,
    threads: usize,
) -> Result<Vec<MatchPair>> {
    if data.is_empty() || queries.is_empty() {
        return Err(CoreError::EmptyDataSet);
    }
    if threads == 0 {
        return Err(CoreError::InvalidParameter {
            name: "threads",
            reason: "at least one worker thread is required".into(),
        });
    }
    let threads = threads.min(queries.len());
    let index = BorrowedBruteIndex::new(data, *spec);
    let config = EngineConfig {
        threads,
        chunk_size: queries.len().div_ceil(threads),
    };
    JoinEngine::with_config(index, config).run(queries)
}

/// Exact maximum inner product search: the data index maximising the variant's value,
/// together with the (signed) inner product.
pub fn brute_force_mips(
    data: &[DenseVector],
    query: &DenseVector,
    spec: &JoinSpec,
) -> Result<Option<MatchPair>> {
    if data.is_empty() {
        return Err(CoreError::EmptyDataSet);
    }
    best_for_query(data, query, 0, spec)
}

fn best_for_query(
    data: &[DenseVector],
    q: &DenseVector,
    query_index: usize,
    spec: &JoinSpec,
) -> Result<Option<MatchPair>> {
    // One-query batch through the shared kernel, so the argmax tie-breaking and
    // promise filter have a single definition crate-wide.
    let hit = data_major_batch(data, std::slice::from_ref(q), spec)?
        .pop()
        .flatten();
    Ok(hit.map(|h| MatchPair {
        data_index: h.data_index,
        query_index,
        inner_product: h.inner_product,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert!(brute_force_join_parallel(&[dv(&[1.0])], &[dv(&[1.0])], &spec, 0).is_err());
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
            let parallel = brute_force_join_parallel(&data, &queries, &spec, threads).unwrap();
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }
}

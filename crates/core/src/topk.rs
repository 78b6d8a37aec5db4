//! Top-`k` search and joins.
//!
//! The paper's problem definition (footnote 1) notes that "from an upper bound side, it
//! is common to limit the number of occurrences of each tuple in a join result to a
//! given number k". This module provides that variant: instead of a single partner per
//! query, up to `k` partners are reported, every one of them clearing the relaxed
//! threshold `cs` of the spec. The exact scan is the reference implementation; the
//! LSH indexes of Sections 4.1–4.2 implement the same interface by re-scoring their
//! candidate sets, so recall-vs-`k` curves can be measured for the recommender-style
//! workloads that motivated MIPS in the first place.

use crate::error::Result;
use crate::lsh_mips::{LshMips, LshOps, SphereMap};
use crate::mips::{BruteForceMipsIndex, MipsIndex, SearchResult};
use crate::problem::{JoinSpec, MatchPair};
use ips_linalg::DenseVector;

/// A MIPS index that can report several partners per query.
///
/// Every returned result clears the spec's relaxed threshold `cs`, results are sorted by
/// decreasing similarity value (signed inner product or absolute value, depending on the
/// variant), and at most `k` results are returned. Approximate implementations may
/// return fewer than `k` even when `k` acceptable partners exist — that is the recall
/// the experiments measure.
pub trait TopKMipsIndex: MipsIndex {
    /// Returns up to `k` acceptable partners for the query, best first.
    fn search_top_k(&self, query: &DenseVector, k: usize) -> Result<Vec<SearchResult>>;
}

/// Shared references forward, so [`crate::engine::JoinEngine`] can run top-`k` joins
/// over a borrowed index just as it runs single-partner joins.
impl<I: TopKMipsIndex + ?Sized> TopKMipsIndex for &I {
    fn search_top_k(&self, query: &DenseVector, k: usize) -> Result<Vec<SearchResult>> {
        (**self).search_top_k(query, k)
    }
}

/// Sorts candidate results by the spec's similarity value (descending), keeps only
/// acceptable ones, and truncates to `k`.
fn finalize(mut hits: Vec<SearchResult>, spec: &JoinSpec, k: usize) -> Vec<SearchResult> {
    hits.retain(|h| spec.acceptable(h.inner_product));
    hits.sort_by(|a, b| {
        spec.variant
            .value(b.inner_product)
            .partial_cmp(&spec.variant.value(a.inner_product))
            .expect("inner products are finite")
            .then(a.data_index.cmp(&b.data_index))
    });
    hits.truncate(k);
    hits
}

/// Scores every index in `candidates` against the query and applies [`finalize`].
fn rescore_candidates(
    data: &[DenseVector],
    candidates: &[usize],
    query: &DenseVector,
    spec: &JoinSpec,
    k: usize,
) -> Result<Vec<SearchResult>> {
    let mut hits = Vec::with_capacity(candidates.len());
    for &i in candidates {
        let ip = data[i].dot(query)?;
        hits.push(SearchResult {
            data_index: i,
            inner_product: ip,
        });
    }
    Ok(finalize(hits, spec, k))
}

impl TopKMipsIndex for BruteForceMipsIndex<'_> {
    fn search_top_k(&self, query: &DenseVector, k: usize) -> Result<Vec<SearchResult>> {
        let all: Vec<usize> = (0..self.len()).collect();
        rescore_candidates(self.data(), &all, query, &self.spec(), k)
    }
}

impl<M: SphereMap> TopKMipsIndex for LshMips<'_, M> {
    fn search_top_k(&self, query: &DenseVector, k: usize) -> Result<Vec<SearchResult>> {
        let candidates = self.candidate_indices(query)?;
        rescore_candidates(self.data(), &candidates, query, &self.spec(), k)
    }
}

/// The sketch structure recovers a *single* candidate per query (the prefix-tree walk
/// of Section 4.3 has no ranked candidate set), so its top-`k` is the top-1 result —
/// an approximate implementation is allowed to return fewer than `k` partners, and
/// this one always returns at most one. The serving layer documents this when a
/// sketch-family index answers `topk`.
impl TopKMipsIndex for crate::mips::SketchMipsAdapter<'_> {
    fn search_top_k(&self, query: &DenseVector, k: usize) -> Result<Vec<SearchResult>> {
        if k == 0 {
            return Ok(Vec::new());
        }
        Ok(self.search(query)?.into_iter().collect())
    }
}

/// Runs a top-`k` join through any [`TopKMipsIndex`]: up to `k` pairs per query, each
/// clearing the relaxed threshold `cs`.
pub fn top_k_join<I: TopKMipsIndex>(
    index: &I,
    queries: &[DenseVector],
    k: usize,
) -> Result<Vec<MatchPair>> {
    let mut out = Vec::new();
    for (j, q) in queries.iter().enumerate() {
        for hit in index.search_top_k(q, k)? {
            out.push(MatchPair {
                data_index: hit.data_index,
                query_index: j,
                inner_product: hit.inner_product,
            });
        }
    }
    Ok(out)
}

/// Recall of an approximate top-`k` result against the exact one: the fraction of the
/// exact top-`k` data indices that the approximate result also reports. Returns 1 when
/// the exact result is empty.
pub fn top_k_recall(exact: &[SearchResult], approximate: &[SearchResult]) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    let approx: std::collections::HashSet<usize> =
        approximate.iter().map(|h| h.data_index).collect();
    let hit = exact
        .iter()
        .filter(|h| approx.contains(&h.data_index))
        .count();
    hit as f64 / exact.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asymmetric::{AlshParams, SphereTransform};
    use crate::problem::JoinVariant;
    use crate::symmetric::{SymmetricParams, SymmetricSphereMap};
    use ips_linalg::par::Schedule;
    use ips_linalg::random::{random_ball_vector, random_unit_vector};
    use ips_lsh::table::BUILD_BLOCK;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x70_4B)
    }

    fn spec(s: f64, c: f64) -> JoinSpec {
        JoinSpec::new(s, c, JoinVariant::Signed).unwrap()
    }

    #[test]
    fn brute_force_top_k_is_the_exact_ranking() {
        let data = vec![
            DenseVector::from(&[0.9, 0.0][..]),
            DenseVector::from(&[0.5, 0.0][..]),
            DenseVector::from(&[0.7, 0.0][..]),
            DenseVector::from(&[0.1, 0.0][..]),
        ];
        let index = BruteForceMipsIndex::new(data, spec(0.6, 0.5));
        let query = DenseVector::from(&[1.0, 0.0][..]);
        let top = index.search_top_k(&query, 3).unwrap();
        // Acceptable pairs clear cs = 0.3: that's 0.9, 0.7 and 0.5, in that order.
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].data_index, 0);
        assert_eq!(top[1].data_index, 2);
        assert_eq!(top[2].data_index, 1);
        // k larger than the number of acceptable pairs just returns them all.
        assert_eq!(index.search_top_k(&query, 10).unwrap().len(), 3);
        // k = 0 returns nothing.
        assert!(index.search_top_k(&query, 0).unwrap().is_empty());
    }

    #[test]
    fn unsigned_top_k_ranks_by_absolute_value() {
        let data = vec![
            DenseVector::from(&[-0.9, 0.0][..]),
            DenseVector::from(&[0.5, 0.0][..]),
        ];
        let spec = JoinSpec::new(0.4, 0.9, JoinVariant::Unsigned).unwrap();
        let index = BruteForceMipsIndex::new(data, spec);
        let query = DenseVector::from(&[1.0, 0.0][..]);
        let top = index.search_top_k(&query, 2).unwrap();
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].data_index, 0);
        assert!(top[0].inner_product < 0.0);
    }

    #[test]
    fn alsh_top_k_is_a_subset_of_acceptable_pairs_and_recall_is_high() {
        let mut r = rng();
        let dim = 16;
        let query = random_unit_vector(&mut r, dim).unwrap();
        let mut data: Vec<DenseVector> = (0..200)
            .map(|_| random_ball_vector(&mut r, dim, 1.0).unwrap().scaled(0.2))
            .collect();
        // Plant five vectors with high inner products with the query.
        for (slot, scale) in [
            (3usize, 0.95),
            (50, 0.9),
            (90, 0.85),
            (140, 0.8),
            (190, 0.75),
        ] {
            data[slot] = query.scaled(scale);
        }
        let spec = spec(0.7, 0.7);
        let exact = BruteForceMipsIndex::new(data.clone(), spec);
        let alsh = LshMips::<SphereTransform>::build(
            Schedule::new(BUILD_BLOCK),
            &mut r,
            data.clone(),
            spec,
            AlshParams {
                bits_per_table: 6,
                tables: 48,
                ..Default::default()
            },
        )
        .unwrap();
        let exact_top = exact.search_top_k(&query, 5).unwrap();
        let alsh_top = alsh.search_top_k(&query, 5).unwrap();
        assert_eq!(exact_top.len(), 5);
        for hit in &alsh_top {
            assert!(spec.acceptable(hit.inner_product));
            let true_ip = data[hit.data_index].dot(&query).unwrap();
            assert!((true_ip - hit.inner_product).abs() < 1e-9);
        }
        assert!(
            top_k_recall(&exact_top, &alsh_top) >= 0.6,
            "ALSH top-k recall too low: {alsh_top:?}"
        );
    }

    #[test]
    fn symmetric_top_k_respects_the_relaxed_threshold() {
        let mut r = rng();
        let dim = 10;
        let query = random_unit_vector(&mut r, dim).unwrap().scaled(0.9);
        let mut data: Vec<DenseVector> = (0..80)
            .map(|_| random_ball_vector(&mut r, dim, 1.0).unwrap().scaled(0.1))
            .collect();
        data[7] = query.scaled(0.9);
        data[21] = query.scaled(0.95);
        let spec = spec(0.6, 0.5);
        let index = LshMips::<SymmetricSphereMap>::build(
            Schedule::new(BUILD_BLOCK),
            &mut r,
            data,
            spec,
            SymmetricParams::default(),
        )
        .unwrap();
        let top = index.search_top_k(&query, 4).unwrap();
        for hit in &top {
            assert!(spec.acceptable(hit.inner_product));
        }
        // Results come back best-first.
        for pair in top.windows(2) {
            assert!(pair[0].inner_product >= pair[1].inner_product);
        }
    }

    #[test]
    fn top_k_join_reports_at_most_k_pairs_per_query() {
        let mut r = rng();
        let dim = 8;
        let data: Vec<DenseVector> = (0..60)
            .map(|_| random_ball_vector(&mut r, dim, 1.0).unwrap())
            .collect();
        let queries: Vec<DenseVector> = (0..15)
            .map(|_| random_unit_vector(&mut r, dim).unwrap())
            .collect();
        let spec = spec(0.3, 0.5);
        let index = BruteForceMipsIndex::new(data.clone(), spec);
        for k in [1usize, 3, 7] {
            let pairs = top_k_join(&index, &queries, k).unwrap();
            let mut per_query = std::collections::HashMap::new();
            for p in &pairs {
                *per_query.entry(p.query_index).or_insert(0usize) += 1;
                assert!(spec.acceptable(p.inner_product));
            }
            assert!(per_query.values().all(|&count| count <= k), "k = {k}");
        }
    }

    #[test]
    fn recall_helper_edge_cases() {
        assert_eq!(top_k_recall(&[], &[]), 1.0);
        let a = SearchResult {
            data_index: 1,
            inner_product: 0.5,
        };
        let b = SearchResult {
            data_index: 2,
            inner_product: 0.4,
        };
        assert_eq!(top_k_recall(&[a, b], &[a]), 0.5);
        assert_eq!(top_k_recall(&[a, b], &[]), 0.0);
        assert_eq!(top_k_recall(&[a], &[a, b]), 1.0);
    }
}

//! Top-`k` search and joins.
//!
//! The paper's problem definition (footnote 1) notes that "from an upper bound side, it
//! is common to limit the number of occurrences of each tuple in a join result to a
//! given number k". Every index answers that variant through
//! [`MipsIndex::search_top_k`](crate::mips::MipsIndex::search_top_k): up to `k`
//! partners per query, every one of them clearing the relaxed threshold `cs` of the
//! spec. The exact scan is the reference implementation; the LSH indexes of Sections
//! 4.1–4.2 re-score their candidate sets, so recall-vs-`k` curves can be measured for
//! the recommender-style workloads that motivated MIPS in the first place. This module
//! holds what those answers share: the bounded selection, the re-scoring and the
//! recall measure.

use crate::error::Result;
use crate::mips::SearchResult;
use crate::problem::JoinSpec;
use crate::shard::beats;
use ips_linalg::{score_block, DenseVector};
use std::cmp::Ordering;

/// The best `k` results offered so far, best first under [`beats`] — the one
/// bounded selection behind every top-`k` answer: the index searches, the
/// sharded merge ([`crate::shard::merge_top_k`]) and the serving layer's merge of
/// its primary structure with pending inserts.
///
/// It holds at most `k` results whatever is offered, and [`BestK::into_vec`] returns
/// exactly what sorting every offered result by [`beats`] (stably) and keeping the
/// first `k` would: best first, ties toward the lower data index. Until `k` results
/// have arrived they are kept as they came and sorted once — so asking for more
/// results than there are candidates costs one sort, as ranking them all always
/// did; from then on the list stays sorted, and a result gets in only by beating the
/// last one kept.
///
/// `offer` does not filter: callers offer the results their contract admits (the
/// searches only [`JoinSpec::acceptable`] ones).
pub struct BestK<'s> {
    spec: &'s JoinSpec,
    k: usize,
    hits: Vec<SearchResult>,
}

impl<'s> BestK<'s> {
    /// An empty selection of the best `k` under `spec`'s ordering.
    pub fn new(spec: &'s JoinSpec, k: usize) -> Self {
        Self {
            spec,
            k,
            hits: Vec::new(),
        }
    }

    /// Offers one result.
    pub fn offer(&mut self, hit: SearchResult) {
        let spec = self.spec;
        if self.hits.len() < self.k {
            self.hits.push(hit);
            if self.hits.len() == self.k {
                self.sort();
            }
            return;
        }
        // Full (or `k = 0`): only a result that beats the last one kept gets in,
        // after the results it does not beat — where a stable sort would put it.
        match self.hits.last() {
            Some(last) if beats(spec, &hit, last) => {
                self.hits.pop();
            }
            _ => return,
        }
        let at = self.hits.partition_point(|kept| !beats(spec, &hit, kept));
        self.hits.insert(at, hit);
    }

    /// The selected results, best first.
    pub fn into_vec(mut self) -> Vec<SearchResult> {
        if self.hits.len() < self.k {
            self.sort();
        }
        self.hits
    }

    fn sort(&mut self) {
        let spec = self.spec;
        self.hits.sort_by(|a, b| {
            if beats(spec, a, b) {
                Ordering::Less
            } else if beats(spec, b, a) {
                Ordering::Greater
            } else {
                Ordering::Equal
            }
        });
    }
}

/// Scores every index in `candidates` against the query and keeps the best `k`
/// acceptable results. Every candidate is scored, whatever `k`: a dimension mismatch
/// fails even a `k = 0` search.
pub(crate) fn rescore_candidates(
    data: &[DenseVector],
    candidates: impl IntoIterator<Item = usize>,
    query: &DenseVector,
    spec: &JoinSpec,
    k: usize,
) -> Result<Vec<SearchResult>> {
    let mut best = BestK::new(spec, k);
    let rows = candidates.into_iter().map(|i| (i, &data[i]));
    score_block(rows, [query], |data_index, _, inner_product| {
        if spec.acceptable(inner_product) {
            best.offer(SearchResult {
                data_index,
                inner_product,
            });
        }
    })?;
    Ok(best.into_vec())
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
    use crate::engine::JoinEngine;
    use crate::lsh_mips::LshMips;
    use crate::mips::{BruteForceMipsIndex, MipsIndex};
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
        let engine = JoinEngine::new(BruteForceMipsIndex::new(data.clone(), spec));
        for k in [1usize, 3, 7] {
            let pairs = engine.run_top_k(&queries, k).unwrap();
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

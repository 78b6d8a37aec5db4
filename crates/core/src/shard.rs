//! The exact merge layer behind sharded serving: combining per-shard search
//! results into the answer one unsharded index would give.
//!
//! A sharded serving index (see `ips-store`) partitions its data across shards
//! by a deterministic hash of the external id and queries every shard through
//! the same per-family search the unsharded index runs. This module is the
//! other half of that design: the *merge* that reassembles per-shard answers
//! — per-shard bests for the single-partner `(cs, s)` search, per-shard heaps
//! for top-`k` — into one result, **exactly**.
//!
//! The merge can be exact (no re-approximation, no re-ordering noise) because
//! every comparison mirrors the one the per-family searches already make: the
//! spec's similarity value, descending, with ties broken toward the lowest
//! data index — the order a strict-`>` scan over ascending candidate slots
//! produces. When the shards were built with the *same* structure seed (so the
//! sampled hash functions agree across shards and the candidate sets decompose
//! over the partition), merging per-shard results through these functions is
//! bit-identical to searching one index over the union:
//!
//! * **brute force** — the exact maximum trivially decomposes;
//! * **ALSH (Section 4.1)** — a data point collides with the query in a
//!   shard's table iff it collides in the unsharded table (same functions,
//!   bucket membership is per-point), so the candidate union is preserved and
//!   [`merge_best`] over per-shard filtered bests is the unsharded answer;
//! * **symmetric LSH (Section 4.2)** — the two-step search (diagonal probe,
//!   then candidate re-scoring) needs the two steps merged *separately*, which
//!   is what [`merge_two_step`] does over per-shard [`ShardParts`];
//! * **sketch (Section 4.3)** — the recovery tree is a global structure (its
//!   descent compares subtree estimates across the whole data set), so
//!   per-shard trees answer a *different* — typically better-recall — walk;
//!   the merge is still exact and deterministic, but only a single-shard
//!   sketch index reproduces the unsharded walk bit for bit.
//!
//! The functions here are deliberately small and allocation-light; the
//! concurrency (read locks, scoped threads, chunking through
//! [`crate::engine::JoinEngine`]) lives with the shards in `ips-store`.

use crate::mips::SearchResult;
use crate::problem::JoinSpec;
use crate::topk::BestK;

/// One shard's contribution to a two-step (symmetric-LSH) sharded search:
/// both halves of [`crate::lsh_mips::LshOps::search_parts`], unfiltered,
/// with indices already translated to the global (external) id space.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ShardParts {
    /// The shard's diagonal probe: its last slot sharing the query's encoding,
    /// scored exactly (`None` under a map without a diagonal).
    pub exact: Option<SearchResult>,
    /// The shard's best LSH candidate, unfiltered.
    pub best: Option<SearchResult>,
}

/// Whether `a` beats `b` under the spec's ordering: higher similarity value
/// first, ties toward the lower data index — exactly the order a strict-`>`
/// scan over ascending candidate indices settles on.
///
/// This is the one ranking order of `ips-core` and `ips-store`. Every single-partner
/// choice ranks with it through [`keep_best`]: the brute scan, LSH re-scoring in the
/// index and in the LSH join (and the join's fold of its table groups), the serving
/// layer's merge of pending inserts, [`merge_best`] and [`merge_two_step`]. Every
/// top-`k` ranks with it through [`crate::topk::BestK`]: the index searches,
/// [`merge_top_k`] and the serving layer's top-`k` merge. The sketch structure, below
/// this crate, keeps its own unsigned first-strict-`>` rule.
///
/// It is a strict total order on results with distinct data indices because the
/// values that reach a ranking are finite or infinite but never NaN:
/// [`JoinSpec::acceptable`] is false for a NaN inner product, and the serving
/// layers refuse a vector with a non-finite coordinate on a fresh build, on insert
/// and on loading a snapshot.
#[inline]
pub fn beats(spec: &JoinSpec, a: &SearchResult, b: &SearchResult) -> bool {
    let (va, vb) = (
        spec.variant.value(a.inner_product),
        spec.variant.value(b.inner_product),
    );
    va > vb || (va == vb && a.data_index < b.data_index)
}

/// Puts `hit` in `best` when `best` is empty or `hit` [`beats`] it: the one step of
/// every single-partner choice, and what [`merge_best`] folds.
#[inline]
pub fn keep_best(spec: &JoinSpec, best: &mut Option<SearchResult>, hit: SearchResult) {
    if best.as_ref().is_none_or(|b| beats(spec, &hit, b)) {
        *best = Some(hit);
    }
}

/// Merges per-shard single-partner answers into the global best.
///
/// Per-shard answers must already carry global data indices. Because each
/// family's per-shard filter (promise for brute, relaxed threshold for the
/// LSH and sketch families) is monotone in the spec's similarity value, a
/// global maximum that clears it is reported by its shard and survives this
/// merge, and a global maximum that does not leaves every shard silent — so
/// no re-filtering is needed here.
pub fn merge_best(
    spec: &JoinSpec,
    hits: impl IntoIterator<Item = SearchResult>,
) -> Option<SearchResult> {
    let mut best = None;
    for hit in hits {
        keep_best(spec, &mut best, hit);
    }
    best
}

/// Merges per-shard two-step (symmetric-LSH) parts into the answer the
/// unsharded two-step search would give:
///
/// 1. the global diagonal probe is the probe with the **highest** data index
///    across shards (the unsharded exact-lookup answers with the last slot
///    sharing the encoding, and external ids ascend in insertion order); if it
///    satisfies the promise threshold, it is the answer — even when a better
///    candidate exists, exactly like the unsharded early exit;
/// 2. otherwise the per-shard candidate bests are merged with [`merge_best`]
///    and the relaxed threshold is applied to the winner.
pub fn merge_two_step(spec: &JoinSpec, parts: &[ShardParts]) -> Option<SearchResult> {
    let probe = parts
        .iter()
        .filter_map(|p| p.exact)
        .max_by_key(|h| h.data_index);
    if let Some(hit) = probe {
        if spec.satisfies_promise(hit.inner_product) {
            return Some(hit);
        }
    }
    merge_best(spec, parts.iter().filter_map(|p| p.best))
        .filter(|b| spec.acceptable(b.inner_product))
}

/// Merges per-shard top-`k` lists into the global top-`k`.
///
/// Every global top-`k` entry is necessarily inside its own shard's top-`k`
/// (a shard holds a subset of the data, so an entry outranked by fewer than
/// `k` results globally is outranked by at most that many within its shard),
/// so merging the per-shard lists and keeping the best `k` under the same
/// comparator is exact. Input lists are expected best-first (the
/// [`crate::mips::MipsIndex::search_top_k`] contract); the output is best-first with
/// ties toward the lower data index.
pub fn merge_top_k(
    spec: &JoinSpec,
    lists: impl IntoIterator<Item = Vec<SearchResult>>,
    k: usize,
) -> Vec<SearchResult> {
    let mut best = BestK::new(spec, k);
    for hit in lists.into_iter().flatten() {
        best.offer(hit);
    }
    best.into_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::JoinVariant;

    fn hit(data_index: usize, inner_product: f64) -> SearchResult {
        SearchResult {
            data_index,
            inner_product,
        }
    }

    fn spec() -> JoinSpec {
        JoinSpec::new(0.5, 0.8, JoinVariant::Signed).unwrap()
    }

    #[test]
    fn merge_best_takes_the_maximum_with_low_index_ties() {
        let s = spec();
        assert_eq!(merge_best(&s, []), None);
        assert_eq!(
            merge_best(&s, [hit(3, 0.6), hit(1, 0.9), hit(7, 0.7)]),
            Some(hit(1, 0.9))
        );
        // Bit-equal values tie toward the lower index, whatever the input order.
        assert_eq!(
            merge_best(&s, [hit(9, 0.8), hit(2, 0.8), hit(5, 0.8)]),
            Some(hit(2, 0.8))
        );
        assert!(beats(&s, &hit(2, 0.8), &hit(9, 0.8)));
        assert!(!beats(&s, &hit(9, 0.8), &hit(2, 0.8)));
    }

    #[test]
    fn unsigned_merge_ranks_by_absolute_value() {
        let s = JoinSpec::new(0.5, 0.8, JoinVariant::Unsigned).unwrap();
        assert_eq!(
            merge_best(&s, [hit(0, 0.7), hit(1, -0.9)]),
            Some(hit(1, -0.9))
        );
    }

    #[test]
    fn two_step_merge_mirrors_the_unsharded_early_exit() {
        let s = spec(); // promise 0.5, relaxed 0.4
                        // A promise-clearing diagonal probe wins even over a better candidate,
                        // and among probes the highest data index answers (the "last slot"
                        // a fresh unsharded build would store).
        let parts = [
            ShardParts {
                exact: Some(hit(4, 0.55)),
                best: Some(hit(9, 0.95)),
            },
            ShardParts {
                exact: Some(hit(6, 0.52)),
                best: None,
            },
        ];
        assert_eq!(merge_two_step(&s, &parts), Some(hit(6, 0.52)));
        // A probe below the promise falls through to the candidate merge...
        let parts = [ShardParts {
            exact: Some(hit(4, 0.45)),
            best: Some(hit(9, 0.95)),
        }];
        assert_eq!(merge_two_step(&s, &parts), Some(hit(9, 0.95)));
        // ...and the merged candidate best is filtered by the relaxed threshold.
        let parts = [ShardParts {
            exact: None,
            best: Some(hit(9, 0.3)),
        }];
        assert_eq!(merge_two_step(&s, &parts), None);
        assert_eq!(merge_two_step(&s, &[]), None);
    }

    #[test]
    fn top_k_merge_is_the_global_ranking() {
        let s = spec();
        let merged = merge_top_k(
            &s,
            [
                vec![hit(0, 0.9), hit(2, 0.7)],
                vec![hit(1, 0.8), hit(3, 0.7)],
            ],
            3,
        );
        assert_eq!(merged, vec![hit(0, 0.9), hit(1, 0.8), hit(2, 0.7)]);
        assert!(merge_top_k(&s, Vec::<Vec<SearchResult>>::new(), 5).is_empty());
    }
}

//! Work counts for the Section 4.3 sketch structures, and the rule that shapes the
//! recovery tree.
//!
//! Like `ips_lsh::cost`, this module predicts what the sketch index *would* do
//! without building it, for the adaptive join planner in `ips-core`. The work is
//! dense linear algebra of exactly known shapes, so the counts are arithmetic
//! identities over the same recursion the builder runs — they just never touch a
//! vector. They come in `f64` multiply-adds and sketch columns drawn (a walk's keep-best
//! comparisons, one a row probed or leaf point scanned, are [`tree_query`] at `d = 1`):
//!
//! * building one [`crate::MaxIpEstimator`] over `n` rows draws `copies`
//!   sketches of `n` columns each and applies them to an `n × d` matrix; a
//!   max-stability sketch has exactly one non-zero per column, so each column
//!   drawn costs `d` multiply-adds whatever its number of buckets `m`;
//! * querying it is `copies` sketched mat-vecs (`m·d` multiply-adds each);
//! * the recovery tree of [`crate::SketchMipsIndex`] builds *two* estimators
//!   per internal node (over the node's halves) and a query walks one
//!   root-to-leaf path, probing both children at every level, then re-scores
//!   the leaf exactly.
//!
//! # The split rule
//!
//! [`splits`] is the one place that decides the tree's shape; the builder and
//! the counts here all ask it. A range of `len` vectors is
//! split only when that is cheaper for a query than scanning it: probing the
//! two child estimators costs `2 · copies · rows(len/2) · d` multiply-adds, the scan
//! `len · d`, so the range splits when `2 · copies · rows(len/2) < len`. Below
//! that point a "summary" is larger than what it summarises: at the defaults
//! (`κ = 2`, nine copies, `rows(n) = ⌈4 ln(n+2)⌉ + 8`) the rule stops near 560
//! vectors, where a fixed floor of 16 kept 171 sketch rows for every 12 vectors.
//! The `Õ(d·n^{1−2/κ})` query bound is untouched: a leaf scan costs at most what
//! one more level of estimators would have.
//!
//! The rule needs no floor beside it. A probe touches at least one row of one
//! copy in each child, so a range of at most 2 vectors never splits, and with
//! the recommended rows none of at most 26 does (`rows(n) ≥ 13`).
//!
//! The planner's `CostModel` prices the multiply-adds, the columns and the comparisons;
//! its constants are fitted by the `calibrate_planner` binary in `ips-bench`.

use crate::linf_mips::MaxIpConfig;
use crate::maxstable::MaxStableSketch;

/// The number of buckets one sketch copy uses over `n` rows: the explicit
/// `rows` override when set, [`MaxStableSketch::recommended_rows`] otherwise —
/// the resolution rule [`crate::MaxIpEstimator::build`] applies.
pub fn resolved_rows(n: usize, config: &MaxIpConfig) -> usize {
    config
        .rows
        .unwrap_or_else(|| MaxStableSketch::recommended_rows(n, config.kappa))
}

/// Whether the recovery tree splits a range of `len` vectors (see the module
/// docs): only when probing the two child estimators is cheaper than scanning
/// the range. Copies and rows count as at least one each — what every build
/// checks — so the cost recursions end on any configuration.
pub fn splits(len: usize, config: &MaxIpConfig) -> bool {
    let probe = 2usize
        .saturating_mul(config.copies.max(1))
        .saturating_mul(resolved_rows(len / 2, config).max(1));
    probe < len
}

/// The sketch columns the recovery tree over `n` vectors draws when it is built: per
/// copy, one for each vector under every internal node, whose two estimators cover
/// its halves. Applying a column costs `d` multiply-adds.
pub fn tree_columns(n: usize, config: &MaxIpConfig) -> f64 {
    if !splits(n, config) {
        return 0.0;
    }
    let mid = n / 2;
    (config.copies * n) as f64 + tree_columns(mid, config) + tree_columns(n - mid, config)
}

/// The multiply-adds of one query's walk down the recovery tree: both children's
/// estimators are probed at every internal node of the walk (which always descends
/// into the larger half first in this count — the walk's *worst-case* path), plus
/// the exact re-scoring of one leaf.
pub fn tree_query(n: usize, d: usize, config: &MaxIpConfig) -> f64 {
    if !splits(n, config) {
        return (n * d) as f64;
    }
    // One m·d mat-vec per copy of each child's estimator.
    let probe = |len| (config.copies * resolved_rows(len, config) * d) as f64;
    probe(n / 2) + probe(n - n / 2) + tree_query(n - n / 2, d, config)
}

/// The internal nodes on the walk [`tree_query`] counts: 0 where the whole tree is
/// one leaf, which a query scans.
pub fn depth(n: usize, config: &MaxIpConfig) -> usize {
    if splits(n, config) {
        1 + depth(n - n / 2, config)
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(rows: Option<usize>) -> MaxIpConfig {
        MaxIpConfig {
            kappa: 2.0,
            copies: 3,
            rows,
        }
    }

    #[test]
    fn resolved_rows_honours_override_and_default() {
        assert_eq!(resolved_rows(100, &config(Some(7))), 7);
        assert_eq!(
            resolved_rows(100, &config(None)),
            MaxStableSketch::recommended_rows(100, 2.0)
        );
    }

    #[test]
    fn estimator_flops_match_shapes() {
        let c = config(Some(16));
        // One non-zero per sketch column: a build draws one column a row per copy,
        // however many buckets there are. A root over 100 rows splits once (2·3·16 <
        // 100, not < 50): both halves are sketched, and a query probes both children's
        // estimators, one m·d mat-vec per copy, before it scans a 50-row leaf.
        assert_eq!(tree_columns(100, &c), (3 * 100) as f64);
        assert_eq!(tree_query(100, 8, &c), (2 * 3 * 16 * 8 + 50 * 8) as f64);
    }

    #[test]
    fn tree_costs_degenerate_at_the_leaf() {
        let c = config(Some(1));
        // Cheaper to scan than to probe (2·3·1 ≥ 6): no estimators are built, queries
        // are one exact scan of a tree of depth 0.
        assert_eq!(tree_columns(6, &c), 0.0);
        assert_eq!(tree_query(6, 10, &c), 60.0);
        assert_eq!(depth(6, &c), 0);
        // The same with more rows (2·3·4 ≥ 20).
        let c = config(Some(4));
        assert_eq!(tree_columns(20, &c), 0.0);
        assert_eq!(tree_query(20, 10, &c), 200.0);
        assert_eq!(depth(20, &c), 0);
    }

    #[test]
    fn a_range_splits_only_where_probing_beats_scanning() {
        let c = config(Some(4));
        // 2 · 3 copies · 4 rows = 24 multiply-adds per coordinate to probe both children.
        assert!(!splits(24, &c));
        assert!(splits(25, &c));
        // Copies and rows count as at least one each, so no range of ≤ 2 splits.
        for (copies, rows) in [(1, Some(0)), (0, Some(1)), (0, Some(0))] {
            let c = MaxIpConfig {
                copies,
                ..config(rows)
            };
            assert!(!splits(1, &c) && !splits(2, &c) && splits(3, &c));
        }
        // At the defaults the rule stops just under 560 vectors, so 12 000 vectors
        // end in 32 leaves of 375 behind 62 estimators: five levels of nine copies.
        let defaults = MaxIpConfig::default();
        assert!(splits(560, &defaults) && !splits(558, &defaults));
        assert_eq!(tree_columns(12_000, &defaults), (5 * 9 * 12_000) as f64);
        assert_eq!(depth(12_000, &defaults), 5);
    }

    #[test]
    fn a_floor_of_16_could_never_act_at_the_recommended_rows() {
        // The trees were once also cut at a leaf-size floor, 16 by default. At the
        // recommended rows no range of up to 26 vectors splits, whatever the copies
        // and κ, so that floor never changed a tree.
        for copies in 1..=9 {
            for kappa in [2.0, 3.0, 4.0] {
                let c = MaxIpConfig {
                    kappa,
                    copies,
                    rows: None,
                };
                assert!(
                    (0..=26).all(|len| !splits(len, &c)),
                    "copies {copies}, κ {kappa}"
                );
            }
        }
    }

    #[test]
    fn tree_costs_grow_with_n_and_shrink_with_rows() {
        let c = config(None);
        assert!(tree_columns(512, &c) > tree_columns(128, &c));
        assert!(tree_query(512, 16, &c) > tree_query(128, 16, &c));
        // More rows make a probe dearer, so the tree stops higher up.
        assert!(tree_columns(512, &config(Some(8))) < tree_columns(512, &config(Some(1))));
        assert!(depth(512, &config(Some(8))) < depth(512, &config(Some(1))));
    }

    #[test]
    fn tree_build_counts_both_children_per_node() {
        // One internal node over n=8 (2·3·1 < 8, but not < 4): two estimators over 4
        // rows each, three copies apiece.
        let c = config(Some(1));
        assert_eq!(tree_columns(8, &c), (2 * 3 * 4) as f64);
        // And a query probes both children (3 copies · 1 row · 3) then scans one 4-row
        // leaf.
        assert_eq!(tree_query(8, 3, &c), (2 * 3 * 3 + 12) as f64);
        assert_eq!(depth(8, &c), 1);
    }
}

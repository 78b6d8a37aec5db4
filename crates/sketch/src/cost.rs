//! Cost estimators for the Section 4.3 sketch structures, and the rule that shapes
//! the recovery tree.
//!
//! Like `ips_lsh::cost`, this module predicts what the sketch index *would*
//! cost without building it, for the adaptive join planner in `ips-core`. The
//! dominant work is dense linear algebra with exactly known shapes, so the
//! estimates are arithmetic identities over the same recursion the builder
//! runs — they just never touch a vector:
//!
//! * building one [`crate::MaxIpEstimator`] over `n` rows draws `copies`
//!   sketches of `n` columns each ([`COLUMN_SAMPLING_FLOPS`] apiece) and
//!   applies them to an `n × d` matrix; a max-stability sketch has exactly one
//!   non-zero per column, so each application is `n·d` flops whatever its
//!   number of buckets `m`;
//! * querying it is `copies` sketched mat-vecs (`m·d` flops each);
//! * the recovery tree of [`crate::SketchMipsIndex`] builds *two* estimators
//!   per internal node (over the node's halves) and a query walks one
//!   root-to-leaf path, probing both children at every level, then re-scores
//!   the leaf exactly.
//!
//! # The split rule
//!
//! [`splits`] is the one place that decides the tree's shape; the builder and
//! the two `tree_*_flops` recursions all ask it. A range of `len` vectors is
//! split only when that is cheaper for a query than scanning it: probing the
//! two child estimators costs `2 · copies · rows(len/2) · d` flops, the scan
//! `len · d`, so the range splits when `2 · copies · rows(len/2) < len` — and
//! never at or below the caller's `leaf_size` floor. Below that point a
//! "summary" is larger than what it summarises: at the defaults (`κ = 2`, nine
//! copies, `rows(n) = ⌈4 ln(n+2)⌉ + 8`) the rule stops near 560 vectors, where
//! the old fixed floor of 16 kept 171 sketch rows for every 12 vectors. The
//! `Õ(d·n^{1−2/κ})` query bound is untouched: a leaf scan costs at most what
//! one more level of estimators would have.
//!
//! Flops are fused multiply-add units; the per-machine nanoseconds-per-unit
//! constant is fitted by the `calibrate_planner` binary in `ips-bench`.

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
/// docs): only above the `leaf_size` floor, and only when probing the two
/// child estimators is cheaper than scanning the range.
pub fn splits(len: usize, config: &MaxIpConfig, leaf_size: usize) -> bool {
    let probe = 2usize
        .saturating_mul(config.copies)
        .saturating_mul(resolved_rows(len / 2, config));
    len > leaf_size.max(1) && probe < len
}

/// What drawing one sketch column costs, in flop units: a bucket, a sign and an
/// exponential raised to `−1/κ` take about 45 ns on the reference container,
/// where a flop of this crate's kernels takes about 0.55 ns. At `d = 48` this
/// is most of a build, so leaving it out would make a build-dominated join (few
/// queries over many vectors) look three times cheaper than it is.
pub const COLUMN_SAMPLING_FLOPS: usize = 80;

/// Flops to build one value estimator over `n` rows of dimension `d`: per copy,
/// `n` columns drawn and `n·d` multiply-adds to apply them.
pub fn estimator_build_flops(n: usize, d: usize, config: &MaxIpConfig) -> f64 {
    (config.copies * n * (d + COLUMN_SAMPLING_FLOPS)) as f64
}

/// Flops to answer one query against a value estimator over `n` rows.
pub fn estimator_query_flops(n: usize, d: usize, config: &MaxIpConfig) -> f64 {
    (config.copies * resolved_rows(n, config) * d) as f64
}

/// Flops to build the full recovery tree of [`crate::SketchMipsIndex`] over
/// `n` vectors of dimension `d` with the given leaf-size floor.
pub fn tree_build_flops(n: usize, d: usize, config: &MaxIpConfig, leaf_size: usize) -> f64 {
    if !splits(n, config, leaf_size) {
        return 0.0;
    }
    let mid = n / 2;
    estimator_build_flops(mid, d, config)
        + estimator_build_flops(n - mid, d, config)
        + tree_build_flops(mid, d, config, leaf_size)
        + tree_build_flops(n - mid, d, config, leaf_size)
}

/// Flops to answer one query against the recovery tree: both children's
/// estimators are probed at every internal node of the walk (which always
/// descends into the larger half first in this cost recursion — the walk's
/// *worst-case* path), plus the exact re-scoring of one leaf.
pub fn tree_query_flops(n: usize, d: usize, config: &MaxIpConfig, leaf_size: usize) -> f64 {
    if !splits(n, config, leaf_size) {
        return (n * d) as f64;
    }
    let mid = n / 2;
    estimator_query_flops(mid, d, config)
        + estimator_query_flops(n - mid, d, config)
        + tree_query_flops(n - mid, d, config, leaf_size)
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
        // One non-zero per sketch column: a build touches every data coordinate once
        // per copy, however many buckets there are.
        assert_eq!(
            estimator_build_flops(50, 8, &c),
            (3 * 50 * (8 + COLUMN_SAMPLING_FLOPS)) as f64
        );
        assert_eq!(estimator_query_flops(50, 8, &c), (3 * 16 * 8) as f64);
    }

    #[test]
    fn tree_costs_degenerate_at_the_leaf() {
        let c = config(Some(1));
        // n <= leaf_size: no estimators are built, queries are one exact scan.
        assert_eq!(tree_build_flops(6, 10, &c, 8), 0.0);
        assert_eq!(tree_query_flops(6, 10, &c, 8), 60.0);
        // Above the floor but cheaper to scan than to probe (2·3·4 ≥ 20): the same.
        let c = config(Some(4));
        assert_eq!(tree_build_flops(20, 10, &c, 8), 0.0);
        assert_eq!(tree_query_flops(20, 10, &c, 8), 200.0);
    }

    #[test]
    fn a_range_splits_only_where_probing_beats_scanning() {
        let c = config(Some(4));
        // 2 · 3 copies · 4 rows = 24 flops per coordinate to probe both children.
        assert!(!splits(24, &c, 1));
        assert!(splits(25, &c, 1));
        // The floor wins over the cost rule, and a floor of 0 reads as 1.
        assert!(!splits(25, &c, 25));
        assert!(splits(25, &c, 24));
        assert!(!splits(1, &config(Some(0)), 0));
        // At the defaults the rule stops just under 560 vectors, so 12 000 vectors
        // end in 32 leaves of 375 behind 62 estimators.
        let defaults = MaxIpConfig::default();
        assert!(splits(560, &defaults, 16) && !splits(558, &defaults, 16));
        let per_level: f64 = (9 * 12_000 * (48 + COLUMN_SAMPLING_FLOPS)) as f64;
        assert_eq!(tree_build_flops(12_000, 48, &defaults, 16), 5.0 * per_level);
    }

    #[test]
    fn tree_costs_grow_with_n_and_shrink_with_leaf_size() {
        let c = config(None);
        assert!(tree_build_flops(512, 16, &c, 8) > tree_build_flops(128, 16, &c, 8));
        assert!(tree_query_flops(512, 16, &c, 8) > tree_query_flops(128, 16, &c, 8));
        // Where the cost rule would keep splitting, the floor decides.
        let c = config(Some(1));
        assert!(tree_build_flops(512, 16, &c, 64) < tree_build_flops(512, 16, &c, 8));
    }

    #[test]
    fn tree_build_counts_both_children_per_node() {
        // One internal node over n=8, leaf=4: two estimators over 4 rows each.
        let c = config(Some(1));
        let expected = 2.0 * estimator_build_flops(4, 3, &c);
        assert_eq!(tree_build_flops(8, 3, &c, 4), expected);
        // And a query probes both children then scans one 4-row leaf.
        let q = 2.0 * estimator_query_flops(4, 3, &c) + 12.0;
        assert_eq!(tree_query_flops(8, 3, &c, 4), q);
    }
}

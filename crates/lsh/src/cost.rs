//! Closed-form work counts for LSH joins: the candidates a query gathers and the
//! multiply-adds that hashing takes.
//!
//! The adaptive join planner in `ips-core` has to predict what an index *would*
//! do before paying to build it. For multi-table hyperplane indexes (the
//! substrate of both Section 4.1 reductions) everything it needs has a closed
//! form: the per-bit collision probability of SimHash is `1 − θ/π`
//! (Goemans–Williamson), AND/OR amplification turns that into a per-table and
//! per-index hit probability, and the expected candidate-set size is the sum of
//! hit probabilities over the data set — estimated here from a *sample* of
//! inner products rather than the full `n·m` product matrix.
//!
//! These are counts of work, not of time: candidates, the steps of gathering them, and
//! hashing's multiply-adds, which `ips-core`'s scan rule weighs against a scan's. The
//! planner's `CostModel` prices a step and a candidate as a comparison each (a candidate
//! also `d` multiply-adds), and a hashed point-plane as one plane and its `h`
//! multiply-adds at the scoring price, fitted by `calibrate_planner`.

use crate::hyperplane::HyperplaneFamily;

/// Probability that a data point lands in one of the `1 + probes` buckets a
/// query-directed probe sequence visits in **one** `k`-bit table (see
/// `ips_lsh::probe`): the home bucket plus the `probes` highest-probability
/// perturbed buckets.
///
/// Relative to the query's home bucket, a data point hashes to the bucket that
/// differs in exactly the bits that disagree — disjoint events with
/// probabilities `p^k` (home), `p^(k−1)(1−p)` (each 1-bit flip, `k` of them)
/// and `p^(k−2)(1−p)²` (each 2-bit flip, `k(k−1)/2` of them). The probe
/// sequence visits flips in decreasing probability, so the hit probability is
/// the greedy sum of the `probes` largest flip terms after the home term.
/// `probes = 0` is exactly the AND probability `p^k` of one table.
///
/// ```
/// use ips_lsh::cost::probe_hit_prob;
///
/// let p = 0.8_f64;
/// // No probes: the classical per-table AND probability.
/// assert_eq!(probe_hit_prob(p, 4, 0), p.powi(4));
/// // Each extra probe adds a disjoint bucket's probability.
/// assert!(probe_hit_prob(p, 4, 2) > probe_hit_prob(p, 4, 1));
/// // Probing every bucket of a 1-bit table is a certain hit.
/// assert!((probe_hit_prob(0.3, 1, 1) - 1.0).abs() < 1e-12);
/// ```
pub fn probe_hit_prob(p_bit: f64, k: usize, probes: usize) -> f64 {
    let p = p_bit.clamp(0.0, 1.0);
    let home = p.powi(k as i32);
    if probes == 0 {
        return home;
    }
    let single = p.powi(k.saturating_sub(1) as i32) * (1.0 - p);
    let pair = if k >= 2 {
        p.powi((k - 2) as i32) * (1.0 - p) * (1.0 - p)
    } else {
        0.0
    };
    let n_single = k;
    let n_pair = k * k.saturating_sub(1) / 2;
    // The probe sequence takes flips in decreasing probability: singles before
    // pairs when p ≥ 1/2, pairs first otherwise.
    let (first, n_first, second, n_second) = if single >= pair {
        (single, n_single, pair, n_pair)
    } else {
        (pair, n_pair, single, n_single)
    };
    let mut remaining = probes.min(n_first + n_second);
    let mut total = home;
    let take = remaining.min(n_first);
    total += take as f64 * first;
    remaining -= take;
    total += remaining.min(n_second) as f64 * second;
    total.min(1.0)
}

/// Probability that a pair colliding per bit with probability `p_bit` becomes a
/// candidate in at least one of `l` tables of `k` concatenated bits, when each
/// table is visited with `probes` extra query-directed buckets:
/// `1 − (1 − probe_hit_prob)^l`. `probes = 0` is the OR over tables of the AND
/// over bits, `1 − (1 − p_bit^k)^l`.
///
/// ```
/// use ips_lsh::cost::probed_table_hit_prob;
///
/// assert_eq!(probed_table_hit_prob(0.7, 8, 16, 0), 1.0 - (1.0 - 0.7f64.powi(8)).powi(16));
/// // 2× fewer tables with a few probes can match the no-probe hit rate —
/// // the probes-vs-tables trade the planner costs.
/// assert!(probed_table_hit_prob(0.7, 8, 8, 4) > probed_table_hit_prob(0.7, 8, 8, 0));
/// ```
pub fn probed_table_hit_prob(p_bit: f64, k: usize, l: usize, probes: usize) -> f64 {
    let p_table = probe_hit_prob(p_bit, k, probes);
    1.0 - (1.0 - p_table).powi(l as i32)
}

/// Expected number of candidates a `k`-bit, `l`-table hyperplane index queried
/// with `probes` extra buckets per table returns per query, extrapolated from a
/// sample of pair cosines.
///
/// `sampled_cosines` holds the mapped cosine similarity of uniformly sampled
/// (data, query) pairs; the expectation of [`probed_table_hit_prob`] over the
/// sample, scaled by the data-set size `n`, estimates `E[|candidates|]` per query.
/// An empty sample returns `0.0` (nothing is known, and the planner treats the
/// candidate re-scoring term as free).
///
/// This is the term that lets the planner trade probes against tables: halving
/// `l` shrinks build cost and memory linearly, while a few probes recover the
/// lost hit probability at the price of a larger candidate set.
///
/// ```
/// use ips_lsh::cost::expected_candidates_probed;
///
/// let cosines = [0.9, 0.4, -0.2];
/// // Probing 16 tables can stand in for 32: fewer tables, more candidates.
/// let probed_half = expected_candidates_probed(1000, &cosines, 12, 16, 3);
/// assert!(probed_half > expected_candidates_probed(1000, &cosines, 12, 16, 0));
/// ```
pub fn expected_candidates_probed(
    n: usize,
    sampled_cosines: &[f64],
    k: usize,
    l: usize,
    probes: usize,
) -> f64 {
    n as f64 * sample_mean(sampled_cosines, |p| probed_table_hit_prob(p, k, l, probes))
}

/// Expected comparisons of gathering one query's candidates from the `l` tables of
/// [`expected_candidates_probed`]. A candidate is read once for every table whose
/// probed buckets it sits in, `E = n·l·E[probe_hit_prob]` entries over the sample, and
/// the entries are sorted and deduplicated before any is scored, so each counts once
/// per comparison of the sort: `E·log₂E`, and at least `E`. An empty sample returns
/// `0.0`.
pub fn expected_gathering_probed(
    n: usize,
    sampled_cosines: &[f64],
    k: usize,
    l: usize,
    probes: usize,
) -> f64 {
    let entries =
        n as f64 * l as f64 * sample_mean(sampled_cosines, |p| probe_hit_prob(p, k, probes));
    entries * entries.log2().max(1.0)
}

/// The mean of `f` of each sampled cosine's per-bit collision probability; 0 on an
/// empty sample.
fn sample_mean(cosines: &[f64], f: impl Fn(f64) -> f64) -> f64 {
    let sum: f64 = cosines
        .iter()
        .map(|&c| f(HyperplaneFamily::collision_probability(c)))
        .sum();
    sum / cosines.len().max(1) as f64
}

/// The multiply-adds of hashing `points` vectors into `l` tables of `k` planes each, at
/// `h` multiply-adds a vector and plane (the coordinates the kernel walks: the embedded
/// vector's non-zeros, see [`crate::bank`]): `points·k·l·h`, saturating at `u128::MAX`.
/// At `h = 1` it counts the point-plane evaluations, which the planner prices apiece.
pub fn hash_multiply_adds(points: u128, [k, l, h]: [usize; 3]) -> u128 {
    [k, l, h].into_iter().fold(points, |product, factor| {
        product.saturating_mul(factor as u128)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collision_prob_matches_known_angles() {
        assert!((HyperplaneFamily::collision_probability(1.0) - 1.0).abs() < 1e-12);
        assert!((HyperplaneFamily::collision_probability(-1.0) - 0.0).abs() < 1e-12);
        assert!((HyperplaneFamily::collision_probability(0.0) - 0.5).abs() < 1e-12);
        // Out-of-range inputs are clamped, not NaN.
        assert_eq!(HyperplaneFamily::collision_probability(1.5), 1.0);
        assert_eq!(HyperplaneFamily::collision_probability(-7.0), 0.0);
    }

    #[test]
    fn table_hit_prob_amplifies_correctly() {
        // AND over k bits shrinks the probability, OR over l tables grows it back.
        let p = 0.9;
        assert!(probed_table_hit_prob(p, 8, 1, 0) < p);
        assert!(probed_table_hit_prob(p, 8, 32, 0) > probed_table_hit_prob(p, 8, 1, 0));
        // Certain collision stays certain; impossible stays impossible.
        assert!((probed_table_hit_prob(1.0, 12, 4, 0) - 1.0).abs() < 1e-12);
        assert_eq!(probed_table_hit_prob(0.0, 12, 4, 0), 0.0);
    }

    #[test]
    fn expected_candidates_scales_with_n_and_similarity() {
        let close = [0.95, 0.9, 0.92];
        let far = [0.05, 0.0, -0.1];
        let many_close = expected_candidates_probed(1000, &close, 12, 32, 0);
        let many_far = expected_candidates_probed(1000, &far, 12, 32, 0);
        assert!(many_close > many_far);
        assert!(
            (expected_candidates_probed(2000, &close, 12, 32, 0) - 2.0 * many_close).abs()
                < 1e-9 * many_close
        );
        assert_eq!(expected_candidates_probed(1000, &[], 12, 32, 0), 0.0);
    }

    #[test]
    fn gathering_counts_every_entry_once_per_comparison() {
        // One table of one bit over cosine-1 pairs: every point is one entry a query.
        assert_eq!(
            expected_gathering_probed(1024, &[1.0], 1, 1, 0),
            1024.0 * 10.0
        );
        assert_eq!(expected_gathering_probed(1, &[1.0], 1, 1, 0), 1.0);
        assert_eq!(expected_gathering_probed(1000, &[], 8, 16, 0), 0.0);
        // Close pairs collide in many tables: several entries a distinct candidate.
        let cosines = [0.95, 0.9];
        let gathered = expected_gathering_probed(1000, &cosines, 8, 16, 0);
        assert!(gathered > 4.0 * expected_candidates_probed(1000, &cosines, 8, 16, 0));
    }

    #[test]
    fn hashing_counts_every_point_against_every_plane() {
        assert_eq!(hash_multiply_adds(5, [12, 32, 64]), 5 * 12 * 32 * 64);
        assert_eq!(hash_multiply_adds(u128::MAX / 2, [3, 1, 1]), u128::MAX);
    }

    #[test]
    fn probe_hit_prob_reduces_to_the_and_probability_without_probes() {
        for &p in &[0.0, 0.3, 0.5, 0.8, 1.0] {
            for k in [1usize, 2, 8, 16] {
                assert_eq!(probe_hit_prob(p, k, 0), p.powi(k as i32));
            }
        }
    }

    #[test]
    fn probe_hit_prob_is_monotone_and_capped() {
        let mut prev = 0.0;
        for probes in 0..200 {
            let hit = probe_hit_prob(0.7, 6, probes);
            assert!(hit >= prev, "probes = {probes}");
            assert!(hit <= 1.0);
            prev = hit;
        }
        // Beyond the 1- and 2-flip space (k + k(k−1)/2 buckets) nothing is added.
        let full = 6 + 6 * 5 / 2;
        assert_eq!(
            probe_hit_prob(0.7, 6, full),
            probe_hit_prob(0.7, 6, full + 50)
        );
        // Exhausting a 1-bit table's two buckets is a certain hit.
        assert!((probe_hit_prob(0.2, 1, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn probe_hit_prob_prefers_the_likelier_flips() {
        // p < 1/2: a 2-bit flip is more likely than a 1-bit flip, and the greedy
        // sum must take it first — one probe adds the pair term.
        let p: f64 = 0.3;
        let k = 4;
        let pair = p.powi(2) * (1.0 - p) * (1.0 - p);
        let expected = p.powi(4) + pair;
        assert!((probe_hit_prob(p, k, 1) - expected).abs() < 1e-12);
        // p > 1/2: singles dominate.
        let p: f64 = 0.8;
        let single = p.powi(3) * (1.0 - p);
        assert!((probe_hit_prob(p, 4, 1) - (p.powi(4) + single)).abs() < 1e-12);
    }

    #[test]
    fn probed_estimates_match_classical_at_zero_probes() {
        // `1 − (1 − p^k)^l`, OR over tables of AND over bits, to the bit.
        for p in [0.0f64, 0.3, 0.7, 1.0] {
            assert_eq!(
                probed_table_hit_prob(p, 8, 16, 0),
                1.0 - (1.0 - p.powi(8)).powi(16)
            );
        }
        let cosines = [0.95, 0.5, 0.1, -0.4];
        let mean_hit = cosines
            .iter()
            .map(|&c| 1.0 - (1.0 - HyperplaneFamily::collision_probability(c).powi(10)).powi(24))
            .sum::<f64>()
            / cosines.len() as f64;
        assert_eq!(
            expected_candidates_probed(5000, &cosines, 10, 24, 0),
            5000.0 * mean_hit
        );
        assert_eq!(expected_candidates_probed(5000, &[], 10, 24, 3), 0.0);
    }

    #[test]
    fn probes_can_substitute_for_tables() {
        // The acceptance-shaped identity: half the tables plus a few probes
        // reaches at least the full-table hit probability.
        let p = 0.75;
        let full = probed_table_hit_prob(p, 10, 32, 0);
        let halved = probed_table_hit_prob(p, 10, 16, 6);
        assert!(
            halved >= full,
            "16 tables + 6 probes ({halved}) should cover 32 tables ({full})"
        );
    }
}

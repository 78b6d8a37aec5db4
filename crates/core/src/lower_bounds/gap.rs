//! Closed-form gap bounds (Theorem 3), compiled for the tests only.
//!
//! Each case of Theorem 3 combines a hard-sequence construction of a certain length `n`
//! with Lemma 4's `P1 − P2 ≤ 1/(8·log n)`. The functions here evaluate the resulting
//! bounds directly from the parameters `(d, s, c, U)`, mirroring the statement of the
//! theorem:
//!
//! 1. `P1 − P2 = O(1 / log(d·log_{1/c}(U/s)))` for signed and unsigned IPS, valid when
//!    `s ≤ min(cU, U/(4√d))`;
//! 2. `P1 − P2 = O(1 / log(d·√(U/(s(1−c)))))` for signed IPS, valid when `d ≥ 2` and
//!    `s ≤ U/(2d)`;
//! 3. `P1 − P2 = O(√(s/U))` for signed and unsigned IPS, valid when
//!    `d = Ω(U⁵/(c²s⁵))` and `s ≤ U/8`.
//!
//! All three tend to zero as `U/s → ∞`, which is the paper's headline consequence: *no*
//! asymmetric LSH for inner products exists over an unbounded query domain.

use super::grid::gap_upper_bound;

/// Theorem 3, case 1: bound on `P1 − P2` from the geometric sequences, or `None` when
/// the case's preconditions (`d ≥ 1`, `0 < c < 1`, `s ≤ min(cU, U/(4√d))`) fail.
fn gap_bound_case1(d: usize, s: f64, c: f64, u: f64) -> Option<f64> {
    if d == 0 || !(s > 0.0) || !(c > 0.0 && c < 1.0) || !(u > 0.0) {
        return None;
    }
    if s > c * u || s > u / (4.0 * (d as f64).sqrt()) {
        return None;
    }
    // Sequence length n = Θ(d · log_{1/c}(U/s)); the d-dimensional construction stacks
    // d/2 translated copies of the 1-dimensional staircase.
    let m = ((u / s).ln() / (1.0 / c).ln()).floor().max(1.0);
    let n = ((d as f64 / 2.0).max(1.0) * m).floor() as usize;
    Some(gap_upper_bound(n.max(2)))
}

/// Theorem 3, case 2: bound on `P1 − P2` from the arithmetic sequences (signed IPS
/// only), or `None` when the preconditions (`d ≥ 2`, `s ≤ U/(2d)`) fail.
fn gap_bound_case2(d: usize, s: f64, c: f64, u: f64) -> Option<f64> {
    if d < 2 || !(s > 0.0) || !(c > 0.0 && c < 1.0) || !(u > 0.0) {
        return None;
    }
    if s > u / (2.0 * d as f64) {
        return None;
    }
    let m = (u / (s * (1.0 - c))).sqrt().floor().max(1.0);
    let n = ((d as f64 / 2.0) * m).floor() as usize;
    Some(gap_upper_bound(n.max(2)))
}

/// Theorem 3, case 3: bound `O(√(s/U))` from the binary-tree sequences, or `None` when
/// the preconditions (`s ≤ U/8`, `d ≥ U⁵/(c²s⁵)`) fail.
fn gap_bound_case3(d: usize, s: f64, c: f64, u: f64) -> Option<f64> {
    if d == 0 || !(s > 0.0) || !(c > 0.0 && c < 1.0) || !(u > 0.0) {
        return None;
    }
    if s > u / 8.0 {
        return None;
    }
    if (d as f64) < u.powi(5) / (c * c * s.powi(5)) {
        return None;
    }
    // Sequence length n = 2^{√(U/(8s))}, so 1/(8 log n) = 1/(8 √(U/(8s))) = √(s/(8U))·(1/√8)…
    // — evaluate it through the generic Lemma 4 bound for consistency.
    let log_n = (u / (8.0 * s)).sqrt();
    Some(1.0 / (8.0 * log_n.max(1.0)))
}

/// The best (smallest) applicable Theorem 3 bound for the given parameters, if any case
/// applies.
fn best_gap_bound(d: usize, s: f64, c: f64, u: f64) -> Option<f64> {
    [
        gap_bound_case1(d, s, c, u),
        gap_bound_case2(d, s, c, u),
        gap_bound_case3(d, s, c, u),
    ]
    .into_iter()
    .flatten()
    .min_by(|a, b| a.partial_cmp(b).expect("bounds are finite"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case1_preconditions() {
        assert!(gap_bound_case1(0, 0.1, 0.5, 1.0).is_none());
        assert!(gap_bound_case1(4, 0.0, 0.5, 1.0).is_none());
        assert!(gap_bound_case1(4, 0.1, 1.5, 1.0).is_none());
        // s too large relative to U/(4√d).
        assert!(gap_bound_case1(100, 0.2, 0.9, 1.0).is_none());
        assert!(gap_bound_case1(4, 0.01, 0.5, 1.0).is_some());
    }

    #[test]
    fn case2_preconditions() {
        assert!(gap_bound_case2(1, 0.01, 0.5, 1.0).is_none());
        assert!(gap_bound_case2(4, 0.2, 0.5, 1.0).is_none()); // s > U/(2d)
        assert!(gap_bound_case2(4, 0.1, 0.5, 1.0).is_some());
    }

    #[test]
    fn case3_preconditions() {
        assert!(gap_bound_case3(10, 0.2, 0.5, 1.0).is_none()); // s > U/8
        assert!(gap_bound_case3(10, 0.1, 0.5, 1.0).is_none()); // d too small
        let d = (1.0_f64 / (0.25 * 0.01_f64.powi(5))).ceil() as usize;
        assert!(gap_bound_case3(d, 0.01, 0.5, 1.0).is_some());
    }

    #[test]
    fn bounds_shrink_as_query_domain_grows() {
        // The paper's headline: as U/s grows, the permissible gap vanishes, so no
        // asymmetric LSH exists for unbounded queries.
        let b_small = gap_bound_case1(4, 0.1, 0.5, 1.0).unwrap();
        let b_large = gap_bound_case1(4, 0.1, 0.5, 1000.0).unwrap();
        assert!(b_large < b_small);
        let b2_small = gap_bound_case2(4, 0.01, 0.9, 1.0).unwrap();
        let b2_large = gap_bound_case2(4, 0.01, 0.9, 1000.0).unwrap();
        assert!(b2_large < b2_small);
        // For case 3 the ratio U/s is grown by shrinking s (the dimension requirement
        // d = Ω(U⁵/(c²s⁵)) grows too fast to raise U directly within usize).
        let d_mid = (1.0_f64 / (0.25 * 0.01_f64.powi(5))).ceil() as usize;
        let d_small = (1.0_f64 / (0.25 * 0.001_f64.powi(5))).ceil() as usize;
        let b3_mid = gap_bound_case3(d_mid, 0.01, 0.5, 1.0).unwrap();
        let b3_small = gap_bound_case3(d_small, 0.001, 0.5, 1.0).unwrap();
        assert!(b3_small < b3_mid);
    }

    #[test]
    fn case2_beats_case1_for_small_thresholds() {
        // Case 2's sequence length √(U/s) dominates case 1's log(U/s) once U/s is large,
        // so its gap bound is smaller there.
        let d = 4;
        let s = 1e-6;
        let c = 0.5;
        let u = 1.0;
        let b1 = gap_bound_case1(d, s, c, u).unwrap();
        let b2 = gap_bound_case2(d, s, c, u).unwrap();
        assert!(b2 < b1, "case 2 ({b2}) should beat case 1 ({b1})");
    }

    #[test]
    fn best_bound_picks_the_minimum() {
        let d = 4;
        let s = 0.001;
        let c = 0.9;
        let u = 1.0;
        let best = best_gap_bound(d, s, c, u).unwrap();
        for bound in [
            gap_bound_case1(d, s, c, u),
            gap_bound_case2(d, s, c, u),
            gap_bound_case3(d, s, c, u),
        ]
        .into_iter()
        .flatten()
        {
            assert!(best <= bound);
        }
        assert!(best_gap_bound(1, 10.0, 0.5, 1.0).is_none());
    }
}

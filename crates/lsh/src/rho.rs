//! Closed-form ρ exponents — the curves of Figure 2.
//!
//! For an `(s, cs, P1, P2)`-sensitive family the query exponent is
//! `ρ = log P1 / log P2`; an LSH index then answers queries in roughly `O(n^ρ)` time.
//! Figure 2 of the paper compares three ρ curves for signed inner product search with
//! data/query vectors in the unit ball (`U = 1`):
//!
//! * **DATA-DEP** — the paper's Section 4.1 bound obtained by plugging the optimal
//!   data-dependent sphere LSH \[9\] into the Neyshabur–Srebro reduction:
//!   `ρ = (1 − s)/(1 + (1 − 2c)s)` (equation 3);
//! * **SIMP** — SIMPLE-ALSH \[39\]: the same reduction followed by hyperplane hashing,
//!   giving `ρ = log(1 − arccos(s)/π) / log(1 − arccos(cs)/π)`;
//! * **MH-ALSH** — asymmetric minwise hashing \[46\] for binary data; with sets normalised
//!   so that `|x| = |q| = M` and inner product `a = s·M`, the transformed Jaccard is
//!   `s/(2 − s)`, giving `ρ = log(s/(2 − s)) / log(cs/(2 − cs))`.
//!
//! The L2-ALSH(SL) exponent is also provided for completeness, with what it is made
//! of: the construction's [`L2AlshParams`], the worst-case norm term and the E2LSH
//! collision probability ([`e2lsh_collision_probability`]).

use crate::error::{LshError, Result};

/// Generic ρ from collision probabilities: `ln P1 / ln P2`.
///
/// Requires `0 < P2 < P1 < 1`; values outside that range have no meaningful exponent.
pub fn rho_from_probabilities(p1: f64, p2: f64) -> Result<f64> {
    if !(p2 > 0.0 && p1 > p2 && p1 < 1.0) {
        return Err(LshError::InvalidParameter {
            name: "p1/p2",
            reason: format!("need 0 < P2 < P1 < 1, got P1={p1}, P2={p2}"),
        });
    }
    Ok(p1.ln() / p2.ln())
}

/// Validates that `(s, c)` describe a meaningful approximate threshold: `0 < s ≤ U` and
/// `0 < c < 1`.
fn validate_threshold(s: f64, c: f64, u: f64) -> Result<()> {
    if !(s > 0.0 && s <= u) {
        return Err(LshError::InvalidParameter {
            name: "s",
            reason: format!("threshold must satisfy 0 < s <= U (= {u}), got {s}"),
        });
    }
    if !(c > 0.0 && c < 1.0) {
        return Err(LshError::InvalidParameter {
            name: "c",
            reason: format!("approximation factor must lie in (0,1), got {c}"),
        });
    }
    Ok(())
}

/// The paper's DATA-DEP exponent (equation 3) for signed `(cs, s)` search with data in
/// the unit ball and queries in the ball of radius `u`:
/// `ρ = (1 − s/U) / (1 + (1 − 2c)·s/U)`.
pub fn rho_data_dependent(s: f64, c: f64, u: f64) -> Result<f64> {
    validate_threshold(s, c, u)?;
    let t = s / u;
    Ok((1.0 - t) / (1.0 + (1.0 - 2.0 * c) * t))
}

/// The SIMPLE-ALSH exponent \[39\]: hyperplane hashing after the ball-to-sphere reduction.
/// `ρ = log(1 − arccos(s/U)/π) / log(1 − arccos(cs/U)/π)`.
pub fn rho_simple_alsh(s: f64, c: f64, u: f64) -> Result<f64> {
    validate_threshold(s, c, u)?;
    let p1 = 1.0 - (s / u).clamp(-1.0, 1.0).acos() / std::f64::consts::PI;
    let p2 = 1.0 - (c * s / u).clamp(-1.0, 1.0).acos() / std::f64::consts::PI;
    rho_from_probabilities(p1, p2)
}

/// The MH-ALSH exponent \[46\] for binary data, normalised so both sets have the maximum
/// size `M` and the inner product is `s·M` (`s ∈ (0, 1)`):
/// `ρ = log(s/(2 − s)) / log(cs/(2 − cs))`.
pub fn rho_mh_alsh(s: f64, c: f64) -> Result<f64> {
    validate_threshold(s, c, 1.0)?;
    let p1 = s / (2.0 - s);
    let p2 = (c * s) / (2.0 - c * s);
    rho_from_probabilities(p1, p2)
}

/// Parameters of the L2-ALSH(SL) construction \[45\]: data vectors are shrunk to norm
/// at most `U` and augmented with `m` successive squared norms, and the result is
/// hashed by E2LSH with bucket width `r`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct L2AlshParams {
    /// Number of norm-augmentation coordinates `m`.
    pub m: usize,
    /// Shrinkage factor `U ∈ (0, 1)` applied to data vectors.
    pub u: f64,
    /// Bucket width `r` of the underlying E2LSH family.
    pub r: f64,
}

impl Default for L2AlshParams {
    /// The parameter setting recommended in \[45\]: `m = 3`, `U = 0.83`, `r = 2.5`.
    fn default() -> Self {
        Self {
            m: 3,
            u: 0.83,
            r: 2.5,
        }
    }
}

impl L2AlshParams {
    /// Checks `m ≥ 1`, `0 < U < 1` and `r > 0`.
    pub fn validate(&self) -> Result<()> {
        let invalid = |name, reason: String| Err(LshError::InvalidParameter { name, reason });
        if self.m == 0 {
            return invalid("m", "norm augmentation count m must be positive".into());
        }
        if !(self.u > 0.0 && self.u < 1.0) {
            return invalid(
                "u",
                format!("shrinkage factor must lie in (0,1), got {}", self.u),
            );
        }
        if !(self.r > 0.0) {
            return invalid(
                "r",
                format!("bucket width must be positive, got {}", self.r),
            );
        }
        Ok(())
    }

    /// The norm term `x^{2^{m+1}}` of the transformed distance, for a shrunk data norm
    /// `x`: `x` squared `m + 1` times, and no further once it has underflowed to zero
    /// — so for `x < 1` any `m` costs at most a few dozen multiplications.
    pub fn norm_tail(&self, x: f64) -> f64 {
        let mut tail = x;
        for _ in 0..=self.m {
            if tail == 0.0 {
                break;
            }
            tail *= tail;
        }
        tail
    }
}

/// Error function approximation (Abramowitz–Stegun 7.1.26, max error ~1.5e-7).
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Standard normal CDF through [`erf`] (accurate to ~1e-7, ample for collision curves).
fn phi(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Collision probability of one p-stable (Gaussian) E2LSH hash of bucket width `w`
/// for two points at Euclidean distance `r`:
/// `1 − 2Φ(−w/r) − (2r/(√(2π) w))·(1 − exp(−w²/(2r²)))`, and `1` at `r ≤ 0`.
pub fn e2lsh_collision_probability(r: f64, w: f64) -> f64 {
    if r <= 0.0 {
        return 1.0;
    }
    let ratio = w / r;
    let term1 = 1.0 - 2.0 * phi(-ratio);
    let term2 = (2.0 / ((2.0 * std::f64::consts::PI).sqrt() * ratio))
        * (1.0 - (-(ratio * ratio) / 2.0).exp());
    (term1 - term2).clamp(0.0, 1.0)
}

/// The L2-ALSH(SL) exponent \[45\] for normalised queries and data norms at most 1,
/// computed from the E2LSH collision probability at the worst-case transformed
/// distances. Fails on a threshold out of range or on parameters
/// [`L2AlshParams::validate`] refuses.
pub fn rho_l2_alsh(s: f64, c: f64, params: L2AlshParams) -> Result<f64> {
    validate_threshold(s, c, 1.0)?;
    params.validate()?;
    let m = params.m as f64;
    let u = params.u;
    let tail = params.norm_tail(u);
    // Near pairs: inner product >= s, worst-case distance uses the full norm tail.
    let d_near = (1.0 + m / 4.0 - 2.0 * u * s + tail).max(0.0).sqrt();
    // Far pairs: inner product < cs; the most favourable (smallest-distance) far pair
    // has no norm tail, which is the conservative choice for P2.
    let d_far = (1.0 + m / 4.0 - 2.0 * u * c * s).max(0.0).sqrt();
    let p1 = e2lsh_collision_probability(d_near, params.r);
    let p2 = e2lsh_collision_probability(d_far, params.r);
    rho_from_probabilities(p1, p2)
}

/// A single row of the Figure 2 data: the three ρ curves evaluated at one `(s, c)`
/// point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RhoComparison {
    /// Similarity threshold `s` (normalised to the unit ball).
    pub s: f64,
    /// Approximation factor `c`.
    pub c: f64,
    /// DATA-DEP (equation 3) exponent.
    pub data_dependent: f64,
    /// SIMPLE-ALSH exponent.
    pub simple: f64,
    /// MH-ALSH exponent.
    pub mh_alsh: f64,
}

/// Evaluates the three Figure 2 curves on a grid of `s` values for a fixed `c`.
pub fn figure2_series(c: f64, s_values: &[f64]) -> Result<Vec<RhoComparison>> {
    s_values
        .iter()
        .map(|&s| {
            Ok(RhoComparison {
                s,
                c,
                data_dependent: rho_data_dependent(s, c, 1.0)?,
                simple: rho_simple_alsh(s, c, 1.0)?,
                mh_alsh: rho_mh_alsh(s, c)?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn generic_rho_validation() {
        assert!(rho_from_probabilities(0.9, 0.5).is_ok());
        assert!(rho_from_probabilities(0.5, 0.9).is_err());
        assert!(rho_from_probabilities(1.0, 0.5).is_err());
        assert!(rho_from_probabilities(0.5, 0.0).is_err());
        let rho = rho_from_probabilities(0.25, 0.5).err();
        assert!(rho.is_some());
    }

    #[test]
    fn data_dependent_matches_equation_3() {
        // Spot values of (1-s)/(1+(1-2c)s) with U = 1.
        let r = rho_data_dependent(0.5, 0.5, 1.0).unwrap();
        assert!((r - 0.5).abs() < 1e-12);
        let r = rho_data_dependent(0.8, 0.9, 1.0).unwrap();
        assert!((r - (0.2 / (1.0 - 0.8 * 0.8))).abs() < 1e-12);
        assert!(rho_data_dependent(0.0, 0.5, 1.0).is_err());
        assert!(rho_data_dependent(0.5, 1.0, 1.0).is_err());
        assert!(rho_data_dependent(2.0, 0.5, 1.0).is_err());
    }

    #[test]
    fn rho_values_are_valid_exponents() {
        for &c in &[0.3, 0.5, 0.7, 0.9] {
            for &s in &[0.1, 0.3, 0.5, 0.7, 0.9] {
                let dd = rho_data_dependent(s, c, 1.0).unwrap();
                let simp = rho_simple_alsh(s, c, 1.0).unwrap();
                let mh = rho_mh_alsh(s, c).unwrap();
                for rho in [dd, simp, mh] {
                    assert!(
                        rho > 0.0 && rho < 1.0,
                        "rho {rho} out of range (s={s}, c={c})"
                    );
                }
            }
        }
    }

    #[test]
    fn data_dependent_dominates_simple() {
        // The paper points out the Section 4.1 bound is always at least as good as
        // SIMPLE-ALSH; check strict improvement away from degenerate corners.
        for &c in &[0.3, 0.5, 0.8] {
            for &s in &[0.2, 0.5, 0.8] {
                let dd = rho_data_dependent(s, c, 1.0).unwrap();
                let simp = rho_simple_alsh(s, c, 1.0).unwrap();
                assert!(
                    dd <= simp + 1e-9,
                    "DATA-DEP ({dd}) should not exceed SIMP ({simp}) at s={s}, c={c}"
                );
            }
        }
    }

    #[test]
    fn data_dependent_sometimes_beats_mh_alsh() {
        // Section 5 of the paper: the new bound improves on MH-ALSH e.g. when s >= 1/3
        // and c >= 0.83 (in the paper's d-normalised units). Verify it happens for some
        // parameters and not for others, i.e. neither curve dominates globally.
        let mut dd_wins = 0;
        let mut mh_wins = 0;
        for &c in &[0.5, 0.7, 0.83, 0.9, 0.95] {
            for &s in &[0.1, 0.3, 0.5, 0.7, 0.9] {
                let dd = rho_data_dependent(s, c, 1.0).unwrap();
                let mh = rho_mh_alsh(s, c).unwrap();
                if dd < mh {
                    dd_wins += 1;
                } else {
                    mh_wins += 1;
                }
            }
        }
        assert!(dd_wins > 0, "DATA-DEP never beats MH-ALSH on the grid");
        assert!(mh_wins > 0, "MH-ALSH never beats DATA-DEP on the grid");
    }

    #[test]
    fn rho_decreases_as_approximation_loosens() {
        // Smaller c (cruder approximation) should make search easier: rho decreases.
        for &s in &[0.3, 0.6] {
            let tight = rho_data_dependent(s, 0.9, 1.0).unwrap();
            let loose = rho_data_dependent(s, 0.3, 1.0).unwrap();
            assert!(loose < tight);
            let tight = rho_simple_alsh(s, 0.9, 1.0).unwrap();
            let loose = rho_simple_alsh(s, 0.3, 1.0).unwrap();
            assert!(loose < tight);
            let tight = rho_mh_alsh(s, 0.9).unwrap();
            let loose = rho_mh_alsh(s, 0.3).unwrap();
            assert!(loose < tight);
        }
    }

    #[test]
    fn l2_alsh_rho_is_an_exponent_and_usually_worse() {
        let params = L2AlshParams::default();
        for &s in &[0.3, 0.5, 0.8] {
            let rho = rho_l2_alsh(s, 0.7, params).unwrap();
            assert!(rho > 0.0 && rho < 1.0);
            let dd = rho_data_dependent(s, 0.7, 1.0).unwrap();
            assert!(
                dd <= rho + 0.05,
                "DATA-DEP should be competitive with L2-ALSH"
            );
        }
    }

    #[test]
    fn l2_alsh_rho_takes_any_m_and_refuses_invalid_params() {
        // The exponent with the norm term given: what `rho_l2_alsh` computes.
        let closed_form = |s: f64, c: f64, params: L2AlshParams, tail: f64| {
            let (m, u) = (params.m as f64, params.u);
            let d_near = (1.0 + m / 4.0 - 2.0 * u * s + tail).max(0.0).sqrt();
            let d_far = (1.0 + m / 4.0 - 2.0 * u * c * s).max(0.0).sqrt();
            let p1 = e2lsh_collision_probability(d_near, params.r);
            let p2 = e2lsh_collision_probability(d_far, params.r);
            p1.ln() / p2.ln()
        };
        let default = L2AlshParams::default();
        for s in [0.3, 0.5, 0.8] {
            // The default `m = 3` takes `U^16`, bit for bit what `powi` gives at run
            // time (a constant-folded `powi` rounds once, not four times).
            let sixteenth = black_box(default.u).powi(black_box(16));
            let rho = rho_l2_alsh(s, 0.7, default).unwrap();
            let expected = closed_form(s, 0.7, default, sixteenth);
            assert_eq!(rho.to_bits(), expected.to_bits());
            // A shift by `m + 1` overflowed here; the tail has long underflowed.
            for m in [31, 64] {
                let params = L2AlshParams { m, ..default };
                let rho = rho_l2_alsh(s, 0.7, params).unwrap();
                assert_eq!(rho, closed_form(s, 0.7, params, 0.0), "m = {m}");
            }
        }
        for params in [
            L2AlshParams { u: 0.0, ..default },
            L2AlshParams { u: 1.0, ..default },
            L2AlshParams { r: 0.0, ..default },
            L2AlshParams { m: 0, ..default },
        ] {
            assert!(params.validate().is_err(), "{params:?}");
            assert!(rho_l2_alsh(0.5, 0.7, params).is_err(), "{params:?}");
        }
        assert_eq!(
            default.norm_tail(default.u),
            black_box(default.u).powi(black_box(16))
        );
        assert_eq!(L2AlshParams { m: 64, ..default }.norm_tail(0.0), 0.0);
    }

    #[test]
    fn erf_sanity() {
        assert!(erf(0.0).abs() < 1e-6);
        assert!((erf(1.0) - 0.8427007).abs() < 1e-5);
        assert!((erf(-1.0) + 0.8427007).abs() < 1e-5);
        assert!((erf(3.0) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn figure2_series_has_one_entry_per_s() {
        let s_grid: Vec<f64> = (1..10).map(|i| i as f64 / 10.0).collect();
        let series = figure2_series(0.8, &s_grid).unwrap();
        assert_eq!(series.len(), s_grid.len());
        for row in &series {
            assert_eq!(row.c, 0.8);
            assert!(row.data_dependent <= row.simple + 1e-9);
        }
    }
}

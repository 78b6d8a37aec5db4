//! Chebyshev polynomials of the first kind.
//!
//! The deterministic Chebyshev gap embedding (Lemma 3, embedding 2) builds `{-1,1}`
//! vectors whose inner products equal `(2d)^q · T_q(xᵀy / 2d)`. The two analytic
//! properties the reduction uses are
//!
//! * `|T_q(x)| ≤ 1` for `|x| ≤ 1`, and
//! * `T_q(1 + ε) ≥ e^{q√ε}` for `0 < ε < 1/2`,
//!
//! i.e. the polynomial stays small inside `[-1, 1]` and explodes immediately outside —
//! exactly the gap-amplification behaviour needed to separate orthogonal pairs
//! (`xᵀy = 0` → argument `1 + 1/d` after translation) from non-orthogonal ones.

/// Evaluates the Chebyshev polynomial of the first kind `T_q(x)` via the three-term
/// recurrence `T_q(x) = 2x·T_{q-1}(x) − T_{q-2}(x)`.
///
/// The recurrence is numerically stable for the arguments used in this workspace
/// (|x| ≲ 1 + O(1/d)) and keeps the evaluation exact for integer-valued use cases.
pub fn chebyshev_t(q: u32, x: f64) -> f64 {
    match q {
        0 => 1.0,
        1 => x,
        _ => {
            let mut t_prev = 1.0; // T_0
            let mut t_curr = x; // T_1
            for _ in 2..=q {
                let t_next = 2.0 * x * t_curr - t_prev;
                t_prev = t_curr;
                t_curr = t_next;
            }
            t_curr
        }
    }
}

/// Evaluates the *scaled* Chebyshev polynomial `b^q · T_q(u / b)` using only
/// integer-friendly arithmetic on the recurrence
/// `S_q(u) = 2u·S_{q-1}(u) − b²·S_{q-2}(u)`, `S_0 = 1`, `S_1 = u`.
///
/// This is the polynomial the gap embedding realises exactly over `{-1,1}` vectors
/// (`b = 2d`, `u = xᵀy`): the paper notes that `b^q T_q(u/b)` is an integer whenever `u`
/// and `b` are, even though `T_q(u/b)` itself is not.
pub fn scaled_chebyshev(q: u32, u: f64, b: f64) -> f64 {
    match q {
        0 => 1.0,
        1 => u,
        _ => {
            let mut s_prev = 1.0; // S_0 = b^0 T_0
            let mut s_curr = u; // S_1 = b^1 T_1(u/b) = u
            for _ in 2..=q {
                let s_next = 2.0 * u * s_curr - b * b * s_prev;
                s_prev = s_curr;
                s_curr = s_next;
            }
            s_curr
        }
    }
}

/// Exact value of `T_q(1 + ε)` for `ε ≥ 0`, computed through the hyperbolic identity
/// `T_q(x) = cosh(q · arccosh(x))` which avoids the cancellation of the recurrence for
/// very large `q`.
pub fn chebyshev_t_outside(q: u32, eps: f64) -> f64 {
    let x = 1.0 + eps.max(0.0);
    (f64::from(q) * x.acosh()).cosh()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lower bound `e^{q√ε}` on `T_q(1 + ε)` for `0 < ε < 1/2` (the asymptotic property
    /// quoted from Valiant \[51\] and used in the proof of Lemma 3).
    ///
    /// The exact identity is `T_q(1 + ε) = cosh(q · arccosh(1 + ε)) ≥ e^{q√(2ε)}/2`, so
    /// the stated bound holds once `q√ε ≥ ln 2 / (√2 − 1) ≈ 1.68`; for smaller `q` the
    /// precise [`chebyshev_t`] value should be used instead.
    fn growth_lower_bound(q: u32, eps: f64) -> f64 {
        (f64::from(q) * eps.sqrt()).exp()
    }

    /// The paper's bound `(9d)^q` on the output dimension of the `q`-th Chebyshev
    /// embedding (valid for `d ≥ 8`), as an `f64` to avoid overflow for large parameters.
    fn embedding_dimension_bound(q: u32, d: usize) -> f64 {
        (9.0 * d as f64).powi(q as i32)
    }

    #[test]
    fn low_order_polynomials() {
        // T_0 = 1, T_1 = x, T_2 = 2x² − 1, T_3 = 4x³ − 3x.
        for &x in &[-1.5, -1.0, -0.3, 0.0, 0.7, 1.0, 1.2] {
            assert!((chebyshev_t(0, x) - 1.0).abs() < 1e-12);
            assert!((chebyshev_t(1, x) - x).abs() < 1e-12);
            assert!((chebyshev_t(2, x) - (2.0 * x * x - 1.0)).abs() < 1e-12);
            assert!((chebyshev_t(3, x) - (4.0 * x * x * x - 3.0 * x)).abs() < 1e-9);
        }
    }

    #[test]
    fn bounded_on_unit_interval() {
        for q in 0..20u32 {
            for i in 0..=100 {
                let x = -1.0 + 2.0 * (i as f64) / 100.0;
                assert!(
                    chebyshev_t(q, x).abs() <= 1.0 + 1e-9,
                    "T_{q}({x}) escaped the unit interval"
                );
            }
        }
    }

    #[test]
    fn grows_outside_unit_interval() {
        // The e^{q√ε} bound kicks in once q√ε is large enough (see doc comment); check it
        // in that regime, and check the exact hyperbolic identity everywhere.
        for q in 1..25u32 {
            for &eps in &[0.01, 0.1, 0.3, 0.49] {
                let val = chebyshev_t(q, 1.0 + eps);
                let exact = chebyshev_t_outside(q, eps);
                assert!(
                    (val - exact).abs() < 1e-6 * exact.max(1.0),
                    "q={q} eps={eps}"
                );
                if f64::from(q) * eps.sqrt() >= 2.0 {
                    assert!(
                        val >= growth_lower_bound(q, eps) - 1e-9,
                        "T_{q}(1+{eps}) = {val} below claimed lower bound"
                    );
                }
            }
        }
    }

    #[test]
    fn cosine_identity() {
        // T_q(cos θ) = cos(qθ).
        for q in 0..12u32 {
            for i in 0..10 {
                let theta = (i as f64) * 0.3;
                let lhs = chebyshev_t(q, theta.cos());
                let rhs = (f64::from(q) * theta).cos();
                assert!((lhs - rhs).abs() < 1e-8, "q={q} theta={theta}");
            }
        }
    }

    #[test]
    fn scaled_matches_unscaled() {
        let b = 16.0;
        for q in 0..10u32 {
            for &u in &[-20.0, -16.0, -3.0, 0.0, 5.0, 16.0, 18.0] {
                let scaled = scaled_chebyshev(q, u, b);
                let unscaled = b.powi(q as i32) * chebyshev_t(q, u / b);
                let tol = 1e-6 * unscaled.abs().max(1.0);
                assert!(
                    (scaled - unscaled).abs() < tol,
                    "q={q} u={u}: {scaled} vs {unscaled}"
                );
            }
        }
    }

    #[test]
    fn scaled_is_integer_for_integer_inputs() {
        // b^q T_q(u/b) should be an integer when u, b are integers.
        for q in 0..8u32 {
            for u in -6i64..=6 {
                let val = scaled_chebyshev(q, u as f64, 4.0);
                assert!((val - val.round()).abs() < 1e-6, "q={q} u={u} -> {val}");
            }
        }
    }

    #[test]
    fn dimension_bound_monotone() {
        assert!(embedding_dimension_bound(2, 8) < embedding_dimension_bound(3, 8));
        assert_eq!(embedding_dimension_bound(0, 8), 1.0);
        assert_eq!(embedding_dimension_bound(1, 8), 72.0);
    }
}

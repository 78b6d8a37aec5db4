//! The hardness landscape of Table 1.
//!
//! Table 1 of the paper summarises, for each problem variant (signed/unsigned join over
//! `{−1,1}^d` or `{0,1}^d`), the ranges of the approximation factor `c` — equivalently
//! of the ratio `log(s/d)/log(cs/d)` — for which a truly subquadratic join algorithm
//! would refute the OVP conjecture ("hard"), and the ranges for which subquadratic
//! algorithms are actually known ("permissible"). This module turns those asymptotic
//! statements into concrete, testable predicates for a given instance size `n`, using
//! the natural reading of the `o(·)` terms:
//!
//! * `c ≥ e^{−o(√(log n / log log n))}` becomes `c ≥ e^{−√(ln n / ln ln n)}`,
//! * `c = 1 − o(1)` becomes `c ≥ 1 − 1/log₂ n`,
//! * "permissible when `c < n^{−ε}`" is evaluated at a caller-supplied `ε`.
//!
//! The classification drives the `table1` benchmark binary (experiment E1), which also
//! cross-checks the "hard" rows against the gap guarantees of the concrete embeddings
//! in `ips-ovp`.

use crate::error::{CoreError, Result};

/// The vector domain of a Table 1 row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VectorDomain {
    /// Vectors over `{−1, +1}`.
    PlusMinusOne,
    /// Vectors over `{0, 1}`.
    ZeroOne,
}

/// The problem variant of a Table 1 row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProblemVariant {
    /// Signed `(cs, s)` join.
    Signed,
    /// Unsigned `(cs, s)` join.
    Unsigned,
}

/// The verdict for a parameter regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hardness {
    /// A truly subquadratic algorithm in this regime would refute the OVP conjecture
    /// (Theorems 1 and 2).
    Hard,
    /// A truly subquadratic algorithm is known in this regime (Section 4.3 /
    /// Karppa et al. \[29\]).
    Permissible,
    /// Neither a hardness reduction nor a subquadratic algorithm is known.
    Open,
}

/// Classifies an approximation factor `c` for a given problem, domain, and instance
/// size `n`, following the second and third columns of Table 1. `permissible_epsilon`
/// is the `ε` in the "`c < n^{−ε}` is permissible" entries.
pub fn classify_approximation(
    domain: VectorDomain,
    variant: ProblemVariant,
    c: f64,
    n: usize,
    permissible_epsilon: f64,
) -> Result<Hardness> {
    if !(c > 0.0 && c < 1.0) {
        return Err(CoreError::InvalidParameter {
            name: "c",
            reason: format!("approximation factor must lie in (0,1), got {c}"),
        });
    }
    if n < 4 {
        return Err(CoreError::InvalidParameter {
            name: "n",
            reason: "instance size must be at least 4".into(),
        });
    }
    if !(permissible_epsilon > 0.0) {
        return Err(CoreError::InvalidParameter {
            name: "permissible_epsilon",
            reason: "epsilon must be positive".into(),
        });
    }
    let n_f = n as f64;
    let permissible_cutoff = n_f.powf(-permissible_epsilon);
    let verdict = match (domain, variant) {
        // Signed {−1,1}: hard for every c > 0 (Theorem 1, case 1); nothing permissible.
        (VectorDomain::PlusMinusOne, ProblemVariant::Signed) => Hardness::Hard,
        // Unsigned {−1,1}: hard when c ≥ e^{−√(log n / log log n)}; permissible when
        // c < n^{−ε} (the Section 4.3 sketch, or Karppa et al. with FMM).
        (VectorDomain::PlusMinusOne, ProblemVariant::Unsigned) => {
            let hard_cutoff = (-(n_f.ln() / n_f.ln().ln().max(1.0)).sqrt()).exp();
            if c >= hard_cutoff {
                Hardness::Hard
            } else if c < permissible_cutoff {
                Hardness::Permissible
            } else {
                Hardness::Open
            }
        }
        // {0,1}: the signed and unsigned versions coincide for nonnegative data; hard
        // only when c = 1 − o(1), permissible when c < n^{−ε}.
        (VectorDomain::ZeroOne, _) => {
            let hard_cutoff = 1.0 - 1.0 / n_f.log2();
            if c >= hard_cutoff {
                Hardness::Hard
            } else if c < permissible_cutoff {
                Hardness::Permissible
            } else {
                Hardness::Open
            }
        }
    };
    Ok(verdict)
}

/// One row of the reproduced Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Human-readable problem name (first column of the table).
    pub problem: String,
    /// Hard approximation range, parametrised by `c`.
    pub hard_c: String,
    /// Permissible approximation range, parametrised by `c`.
    pub permissible_c: String,
    /// Hard range of the ratio `log(s/d)/log(cs/d)`.
    pub hard_ratio: String,
    /// Permissible range of the ratio.
    pub permissible_ratio: String,
}

/// The three rows of Table 1, as printable strings (the `table1` bench binary augments
/// them with numerically verified embedding gaps).
pub fn table1_rows() -> Vec<Table1Row> {
    vec![
        Table1Row {
            problem: "Signed (cs,s) over {-1,1}^d".to_string(),
            hard_c: "c > 0".to_string(),
            permissible_c: "-".to_string(),
            hard_ratio: "log(s/d)/log(cs/d) > 0".to_string(),
            permissible_ratio: "-".to_string(),
        },
        Table1Row {
            problem: "Unsigned (cs,s) over {-1,1}^d".to_string(),
            hard_c: "c >= exp(-o(sqrt(log n / log log n)))".to_string(),
            permissible_c: "c < n^-eps  [29] / Sec. 4.3".to_string(),
            hard_ratio: ">= 1 - o(1/sqrt(log n))".to_string(),
            permissible_ratio: "= 1 - eps [29];  = 1/2 - eps".to_string(),
        },
        Table1Row {
            problem: "Unsigned (cs,s) over {0,1}^d".to_string(),
            hard_c: "c >= 1 - o(1)".to_string(),
            permissible_c: "c < n^-eps".to_string(),
            hard_ratio: ">= 1 - o(1/log n)".to_string(),
            permissible_ratio: "= 1 - eps".to_string(),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Classifies a ratio `log(s/d)/log(cs/d)` for the unsigned problems, following the
    /// fourth and fifth columns of Table 1: hard when the ratio is `1 − o(1/√(log n))`
    /// (`{−1,1}`) or `1 − o(1/log n)` (`{0,1}`); permissible when the ratio is bounded away
    /// from 1 by a constant `margin`.
    fn classify_ratio(domain: VectorDomain, ratio: f64, n: usize, margin: f64) -> Result<Hardness> {
        if !(ratio > 0.0 && ratio <= 1.0) {
            return Err(CoreError::InvalidParameter {
                name: "ratio",
                reason: format!("log(s/d)/log(cs/d) must lie in (0,1], got {ratio}"),
            });
        }
        if n < 4 {
            return Err(CoreError::InvalidParameter {
                name: "n",
                reason: "instance size must be at least 4".into(),
            });
        }
        if !(margin > 0.0 && margin < 1.0) {
            return Err(CoreError::InvalidParameter {
                name: "margin",
                reason: format!("margin must lie in (0,1), got {margin}"),
            });
        }
        let n_f = n as f64;
        let hard_cutoff = match domain {
            VectorDomain::PlusMinusOne => 1.0 - 1.0 / n_f.log2().sqrt(),
            VectorDomain::ZeroOne => 1.0 - 1.0 / n_f.log2(),
        };
        Ok(if ratio >= hard_cutoff {
            Hardness::Hard
        } else if ratio <= 1.0 - margin {
            Hardness::Permissible
        } else {
            Hardness::Open
        })
    }

    const N: usize = 1 << 20;

    #[test]
    fn signed_pm1_is_always_hard() {
        for &c in &[1e-6, 0.01, 0.5, 0.999] {
            assert_eq!(
                classify_approximation(
                    VectorDomain::PlusMinusOne,
                    ProblemVariant::Signed,
                    c,
                    N,
                    0.1
                )
                .unwrap(),
                Hardness::Hard
            );
        }
    }

    #[test]
    fn unsigned_pm1_transitions_from_permissible_to_hard() {
        // Tiny c (polynomially small) is permissible; constant c is hard.
        assert_eq!(
            classify_approximation(
                VectorDomain::PlusMinusOne,
                ProblemVariant::Unsigned,
                1e-4,
                N,
                0.25
            )
            .unwrap(),
            Hardness::Permissible
        );
        assert_eq!(
            classify_approximation(
                VectorDomain::PlusMinusOne,
                ProblemVariant::Unsigned,
                0.5,
                N,
                0.25
            )
            .unwrap(),
            Hardness::Hard
        );
    }

    #[test]
    fn zero_one_constant_c_is_open() {
        // The headline open problem: constant approximation over {0,1} is neither hard
        // nor known to be easy.
        assert_eq!(
            classify_approximation(
                VectorDomain::ZeroOne,
                ProblemVariant::Unsigned,
                0.5,
                N,
                0.25
            )
            .unwrap(),
            Hardness::Open
        );
        // c extremely close to 1 is hard.
        assert_eq!(
            classify_approximation(
                VectorDomain::ZeroOne,
                ProblemVariant::Unsigned,
                1.0 - 1e-9,
                N,
                0.25
            )
            .unwrap(),
            Hardness::Hard
        );
        // Polynomially small c is permissible.
        assert_eq!(
            classify_approximation(
                VectorDomain::ZeroOne,
                ProblemVariant::Unsigned,
                1e-4,
                N,
                0.25
            )
            .unwrap(),
            Hardness::Permissible
        );
    }

    #[test]
    fn ratio_classification_matches_table() {
        assert_eq!(
            classify_ratio(VectorDomain::PlusMinusOne, 0.9999, N, 0.25).unwrap(),
            Hardness::Hard
        );
        assert_eq!(
            classify_ratio(VectorDomain::PlusMinusOne, 0.5, N, 0.25).unwrap(),
            Hardness::Permissible
        );
        // {0,1} has a weaker hardness cutoff than {-1,1}: there is a ratio that is hard
        // for {-1,1} but not for {0,1}.
        let borderline = 1.0 - 1.0 / (N as f64).log2().sqrt();
        assert_eq!(
            classify_ratio(VectorDomain::PlusMinusOne, borderline, N, 0.25).unwrap(),
            Hardness::Hard
        );
        assert_ne!(
            classify_ratio(VectorDomain::ZeroOne, borderline, N, 0.25).unwrap(),
            Hardness::Hard
        );
    }

    #[test]
    fn validation_errors() {
        assert!(classify_approximation(
            VectorDomain::ZeroOne,
            ProblemVariant::Unsigned,
            1.5,
            N,
            0.25
        )
        .is_err());
        assert!(classify_approximation(
            VectorDomain::ZeroOne,
            ProblemVariant::Unsigned,
            0.5,
            2,
            0.25
        )
        .is_err());
        assert!(classify_approximation(
            VectorDomain::ZeroOne,
            ProblemVariant::Unsigned,
            0.5,
            N,
            0.0
        )
        .is_err());
        assert!(classify_ratio(VectorDomain::ZeroOne, 1.5, N, 0.25).is_err());
        assert!(classify_ratio(VectorDomain::ZeroOne, 0.5, 2, 0.25).is_err());
        assert!(classify_ratio(VectorDomain::ZeroOne, 0.5, N, 1.5).is_err());
    }

    #[test]
    fn table_has_three_rows_matching_the_paper() {
        let rows = table1_rows();
        assert_eq!(rows.len(), 3);
        assert!(rows[0].problem.contains("Signed"));
        assert!(rows[1].problem.contains("{-1,1}"));
        assert!(rows[2].problem.contains("{0,1}"));
        assert_eq!(rows[0].permissible_c, "-");
        assert!(rows[2].hard_c.contains("1 - o(1)"));
    }
}

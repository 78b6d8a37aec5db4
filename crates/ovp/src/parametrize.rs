//! Parameter selection for the hardness theorems (the "Finally we parametrize and prove
//! Theorem 1/Theorem 2" step of the paper), compiled for the tests only: they check the
//! theorems' statements on concrete parameters.
//!
//! Lemma 2 needs a *family* of embeddings, one per OVP dimension `d = ω(log n)`, with
//! output dimension `2^{o(d)}`; Theorems 1 and 2 then choose the free parameters (the
//! Chebyshev degree `q`, the chunk count `k`) as functions of `d` to maximise the range
//! of hard approximation factors, or to push the ratio `log(s/d₂)/log(cs/d₂)` as close
//! to 1 as possible. This module performs those choices concretely for a given instance
//! size `n`:
//!
//! * [`theorem1_chebyshev`] — `d = γ·log₂ n`, `q = ⌈√d⌉`: the approximation factor of
//!   the resulting embedding is `c = 1/T_q(1 + 1/d) ≈ e^{−q/√d}`, the
//!   `e^{−o(√(log n / log log n))}` regime of Theorem 1, case 2;
//! * [`theorem1_zero_one`] — `d = γ·log₂ n`, `k = k(d) = ω(1)`: `c = (k−1)/k = 1 − o(1)`,
//!   Theorem 1, case 3;
//! * [`theorem2_ratio`] — the ratio `log(s/d₂)/log(cs/d₂)` of a gap embedding, the
//!   quantity Table 1's last two columns are parametrised by, together with the
//!   closed-form approximations derived in the proof of Theorem 2
//!   (`1 − Θ(1/√d)` for the Chebyshev embedding with `q = √d`, `1 − Θ(1/d)` for the
//!   `{0,1}` embedding with `k = d`).

use crate::embedding::{ChebyshevEmbedding, GapEmbedding, ZeroOneEmbedding};
use crate::error::{OvpError, Result};

/// The concrete parameters chosen for one hard instance family member.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HardInstanceParameters {
    /// Instance size `n` the parameters were derived for.
    pub n: usize,
    /// OVP dimension `d = γ·log₂ n`.
    pub ovp_dim: usize,
    /// The embedding's free parameter (`q` for the Chebyshev embedding, `k` for the
    /// chopped-product embedding).
    pub free_parameter: usize,
    /// Output dimension `d₂` of the embedding.
    pub output_dim: usize,
    /// Threshold `s` of the embedding.
    pub s: f64,
    /// Relaxed threshold `cs`.
    pub cs: f64,
    /// The implied approximation factor `c = cs/s`.
    pub c: f64,
    /// The ratio `log(s/d₂)/log(cs/d₂)` (Theorem 2's parametrisation), when defined.
    pub ratio: Option<f64>,
}

fn validate(n: usize, gamma: f64) -> Result<usize> {
    if n < 4 {
        return Err(OvpError::InvalidParameter {
            name: "n",
            reason: format!("instance size must be at least 4, got {n}"),
        });
    }
    if !(gamma > 0.0) {
        return Err(OvpError::InvalidParameter {
            name: "gamma",
            reason: format!("gamma must be positive, got {gamma}"),
        });
    }
    let d = ((n as f64).log2() * gamma).ceil() as usize;
    Ok(d.max(2))
}

/// The ratio `log(s/d₂) / log(cs/d₂)` for an embedding, or `None` when it is undefined
/// (e.g. `cs = 0`, where the ratio degenerates to 0 in the limit — the signed case).
fn embedding_ratio<E: GapEmbedding>(embedding: &E) -> Option<f64> {
    let d2 = embedding.output_dim() as f64;
    let s = embedding.threshold() / d2;
    let cs = embedding.approx_threshold() / d2;
    if !(s > 0.0 && cs > 0.0 && s < 1.0 && cs < 1.0) {
        return None;
    }
    Some(s.ln() / cs.ln())
}

/// Theorem 1, case 2 / Theorem 2, case 1: the Chebyshev embedding with `d = γ·log₂ n`
/// and `q = ⌈√d⌉`, which drives the approximation factor down to
/// `c = 1/T_q(1+1/d) = e^{−Θ(q/√d)}` while keeping the output dimension
/// `(9d)^q = 2^{O(√d·log d)} = n^{o(1)}`.
///
/// The returned embedding is fully constructed (so its gap can be verified on real
/// vectors); for large `n` the output dimension grows quickly, so callers exploring the
/// asymptotics should use modest `n`/`gamma`.
fn theorem1_chebyshev(
    n: usize,
    gamma: f64,
) -> Result<(ChebyshevEmbedding, HardInstanceParameters)> {
    let d = validate(n, gamma)?;
    let q = (d as f64).sqrt().ceil() as u32;
    let embedding = ChebyshevEmbedding::new(d, q.max(1))?;
    let params = HardInstanceParameters {
        n,
        ovp_dim: d,
        free_parameter: q as usize,
        output_dim: embedding.output_dim(),
        s: embedding.threshold(),
        cs: embedding.approx_threshold(),
        c: embedding.approximation_factor(),
        ratio: embedding_ratio(&embedding),
    };
    Ok((embedding, params))
}

/// Theorem 1, case 3 / Theorem 2, case 2: the chopped-product `{0,1}` embedding with
/// `d = γ·log₂ n` and `k = k(d)`; any `k = ω(1)` growing with `d` gives
/// `c = 1 − 1/k = 1 − o(1)`. The default choice here is `k = d` (the paper's choice in
/// the proof of Theorem 2), which keeps the output dimension at `2d`.
fn theorem1_zero_one(
    n: usize,
    gamma: f64,
    k: Option<usize>,
) -> Result<(ZeroOneEmbedding, HardInstanceParameters)> {
    let d = validate(n, gamma)?;
    let k = k.unwrap_or(d).clamp(1, d);
    let embedding = ZeroOneEmbedding::new(d, k)?;
    let params = HardInstanceParameters {
        n,
        ovp_dim: d,
        free_parameter: k,
        output_dim: embedding.output_dim(),
        s: embedding.threshold(),
        cs: embedding.approx_threshold(),
        c: embedding.approximation_factor(),
        ratio: embedding_ratio(&embedding),
    };
    Ok((embedding, params))
}

/// The closed-form approximations of the Theorem 2 proof for the ratio
/// `log(s/d₂)/log(cs/d₂)`:
///
/// * Chebyshev embedding with `q = √d`: `1 − 1/(log(9/2)·√d) + log 2/(q·log(9/2))`,
///   i.e. `1 − Θ(1/√d)`;
/// * `{0,1}` embedding with `k = d`: `1 − 1/d + O(1/(k·d))`, i.e. `1 − Θ(1/d)`.
fn theorem2_ratio(domain_zero_one: bool, d: usize) -> f64 {
    let d = d.max(2) as f64;
    if domain_zero_one {
        1.0 - 1.0 / d
    } else {
        let q = d.sqrt();
        1.0 - 1.0 / ((9.0f64 / 2.0).ln() * d.sqrt()) + (2.0f64).ln() / (q * (9.0f64 / 2.0).ln())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::SignedEmbedding;

    #[test]
    fn validation() {
        assert!(theorem1_chebyshev(2, 1.0).is_err());
        assert!(theorem1_chebyshev(64, 0.0).is_err());
        assert!(theorem1_zero_one(2, 1.0, None).is_err());
    }

    #[test]
    fn chebyshev_family_shrinks_c_as_n_grows() {
        // Small gamma keeps the output dimension manageable while still exhibiting the
        // e^{-Θ(q/√d)} decay of the approximation factor.
        let (_, p_small) = theorem1_chebyshev(16, 0.8).unwrap();
        let (_, p_large) = theorem1_chebyshev(4096, 0.8).unwrap();
        assert!(p_large.ovp_dim > p_small.ovp_dim);
        assert!(p_large.c < p_small.c, "{} !< {}", p_large.c, p_small.c);
        assert!(p_large.c > 0.0);
        // Output dimension stays 2^{o(d)}: with q = √d the exponent of the (9d)^q bound
        // is q·log₂(9d) = √d·log₂(9d), so its ratio to d must shrink as d grows. Check
        // the formula at dimensions far beyond what can be materialised.
        let exponent_ratio = |d: f64| d.sqrt() * (9.0 * d).log2() / d;
        assert!(exponent_ratio(1024.0) < exponent_ratio(64.0));
        assert!(exponent_ratio(1_048_576.0) < exponent_ratio(1024.0));
    }

    #[test]
    fn zero_one_family_has_c_approaching_one() {
        let (_, p_small) = theorem1_zero_one(64, 1.0, None).unwrap();
        let (_, p_large) = theorem1_zero_one(1 << 16, 1.0, None).unwrap();
        assert!(p_small.c < p_large.c);
        assert!(p_large.c < 1.0);
        // With k = d the output dimension is exactly 2d.
        assert_eq!(p_large.output_dim, 2 * p_large.ovp_dim);
        assert_eq!(p_large.free_parameter, p_large.ovp_dim);
        // Explicit k is honoured.
        let (_, p_k) = theorem1_zero_one(256, 1.0, Some(4)).unwrap();
        assert_eq!(p_k.free_parameter, 4);
        assert!((p_k.c - 0.75).abs() < 1e-12);
    }

    #[test]
    fn ratios_approach_one_from_below() {
        let (_, cheb) = theorem1_chebyshev(1024, 0.6).unwrap();
        let (_, zo) = theorem1_zero_one(1 << 14, 1.0, None).unwrap();
        for p in [&cheb, &zo] {
            let ratio = p.ratio.expect("ratio defined for unsigned embeddings");
            assert!(ratio > 0.0 && ratio < 1.0, "ratio {ratio} out of range");
        }
        // The {0,1} family has its ratio closer to 1 than the Chebyshev family at
        // comparable d — matching the Theorem 2 cutoffs (1 − o(1/log n) vs
        // 1 − o(1/√log n)).
        let (_, cheb_same_d) = theorem1_chebyshev(1 << 14, 0.6).unwrap();
        let zo_ratio = zo.ratio.unwrap();
        let cheb_ratio = cheb_same_d.ratio.unwrap();
        assert!(zo_ratio > cheb_ratio, "{zo_ratio} !> {cheb_ratio}");
    }

    #[test]
    fn signed_embedding_ratio_is_undefined() {
        let e = SignedEmbedding::new(8).unwrap();
        assert_eq!(embedding_ratio(&e), None);
    }

    #[test]
    fn closed_form_ratio_matches_measured_ratio_in_order_of_magnitude() {
        // The Theorem 2 closed forms are asymptotic; check they agree with the measured
        // embedding ratio to within a factor of ~2 of the distance to 1.
        let (_, zo) = theorem1_zero_one(1 << 12, 1.0, None).unwrap();
        let predicted = theorem2_ratio(true, zo.ovp_dim);
        let measured = zo.ratio.unwrap();
        let predicted_gap = 1.0 - predicted;
        let measured_gap = 1.0 - measured;
        assert!(
            measured_gap < 4.0 * predicted_gap && predicted_gap < 4.0 * measured_gap,
            "predicted 1-ratio {predicted_gap} vs measured {measured_gap}"
        );
        // Chebyshev closed form stays strictly below 1 for moderate d and grows towards 1.
        assert!(theorem2_ratio(false, 64) < 1.0);
        assert!(theorem2_ratio(false, 256) > theorem2_ratio(false, 64));
    }
}

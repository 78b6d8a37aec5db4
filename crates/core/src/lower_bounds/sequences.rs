//! The hard data/query sequences of Theorem 3.
//!
//! All three constructions produce sequences `Q = (q₀, …, q_{n−1})` (queries, in the
//! ball of radius `U`) and `P = (p₀, …, p_{n−1})` (data, in the unit ball) with the
//! *staircase property*
//!
//! ```text
//! qᵢᵀpⱼ ≥ s    when j ≥ i,          qᵢᵀpⱼ ≤ cs    when j < i,
//! ```
//!
//! which is exactly the hypothesis of Lemma 4; the longer the sequence, the smaller the
//! gap `P1 − P2 ≤ 1/(8·log n)` any asymmetric LSH can achieve. The three cases trade
//! generality for length:
//!
//! 1. geometric, works for signed *and* unsigned IPS, length `Θ(log_{1/c}(U/s))`
//!    (implemented in dimension 1, the paper's warm-up, which is the construction the
//!    staircase argument actually needs);
//! 2. arithmetic, signed IPS only, dimension 2, length `Θ(√(U/(s(1−c))))`;
//! 3. binary-tree over a nearly-orthogonal vector family, signed and unsigned, length
//!    `2^{√(U/(8s))}`, requiring dimension `Ω(log⁵ n / c²)`.

use crate::error::{CoreError, Result};
use ips_linalg::incoherent::ReedSolomonCollection;
use ips_linalg::DenseVector;

/// A hard sequence pair together with the parameters it was built for.
#[derive(Debug, Clone)]
pub struct HardSequence {
    /// Query vectors `q₀, …, q_{n−1}`, inside the ball of radius `U`.
    pub queries: Vec<DenseVector>,
    /// Data vectors `p₀, …, p_{n−1}`, inside the unit ball.
    pub data: Vec<DenseVector>,
    /// Threshold `s`.
    pub s: f64,
    /// Approximation factor `c`.
    pub c: f64,
    /// Query-domain radius `U`.
    pub u: f64,
}

impl HardSequence {
    /// Sequence length `n`.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Returns `true` when the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Verifies the staircase property, optionally for unsigned IPS (absolute values).
    /// Returns the first violating `(i, j)` pair if any.
    pub fn verify_staircase(&self, unsigned: bool) -> Result<Option<(usize, usize)>> {
        for (i, q) in self.queries.iter().enumerate() {
            for (j, p) in self.data.iter().enumerate() {
                let mut ip = q.dot(p)?;
                if unsigned {
                    ip = ip.abs();
                }
                let ok = if j >= i {
                    ip >= self.s - 1e-9
                } else {
                    ip <= self.c * self.s + 1e-9
                };
                if !ok {
                    return Ok(Some((i, j)));
                }
            }
        }
        Ok(None)
    }

    /// The Lemma 4 upper bound on `P1 − P2` implied by this sequence's length.
    pub fn implied_gap_bound(&self) -> f64 {
        super::grid::gap_upper_bound(self.len())
    }
}

fn validate_common(s: f64, c: f64, u: f64) -> Result<()> {
    if !(s > 0.0) {
        return Err(CoreError::InvalidParameter {
            name: "s",
            reason: format!("threshold must be positive, got {s}"),
        });
    }
    if !(c > 0.0 && c < 1.0) {
        return Err(CoreError::InvalidParameter {
            name: "c",
            reason: format!("approximation must lie in (0,1), got {c}"),
        });
    }
    if !(u >= 1.0) {
        return Err(CoreError::InvalidParameter {
            name: "u",
            reason: format!("query radius must be at least 1, got {u}"),
        });
    }
    Ok(())
}

/// Theorem 3, case 1 (warm-up dimension 1): the geometric sequences
/// `qᵢ = U·cⁱ`, `pⱼ = s/(U·cʲ)`, of length `⌊log_{1/c}(U/s)⌋ + 1`.
///
/// `qᵢᵀpⱼ = s·c^{i−j}`, which is `≥ s` iff `j ≥ i` and `≤ cs` otherwise. Works for
/// signed and unsigned IPS (all inner products are positive). Requires `s ≤ c·U` so the
/// sequence has length at least 2.
pub fn hard_sequence_case1(s: f64, c: f64, u: f64) -> Result<HardSequence> {
    validate_common(s, c, u)?;
    if s > c * u {
        return Err(CoreError::InvalidParameter {
            name: "s",
            reason: format!("case 1 requires s <= c·U (got s={s}, cU={})", c * u),
        });
    }
    // p_j = s/(U c^j) must stay <= 1, i.e. j <= log_{1/c}(U/s).
    let m = ((u / s).ln() / (1.0 / c).ln()).floor() as usize + 1;
    let queries = (0..m)
        .map(|i| DenseVector::new(vec![u * c.powi(i as i32)]))
        .collect();
    let data = (0..m)
        .map(|j| DenseVector::new(vec![s / (u * c.powi(j as i32))]))
        .collect();
    Ok(HardSequence {
        queries,
        data,
        s,
        c,
        u,
    })
}

/// Theorem 3, case 2 (dimension 2): the arithmetic sequences
/// `qᵢ = (√(sU)(1 − (1−c)i), √(sU(1−c)))`, `pⱼ = (√(s/U), j√(s(1−c)/U))`, for signed
/// IPS, of length `Θ(√(U/(s(1−c))))`.
///
/// `qᵢᵀpⱼ = s + s(1−c)(j − i)`. Requires `s ≤ U/2`.
pub fn hard_sequence_case2(s: f64, c: f64, u: f64) -> Result<HardSequence> {
    validate_common(s, c, u)?;
    if s > u / 2.0 {
        return Err(CoreError::InvalidParameter {
            name: "s",
            reason: format!("case 2 requires s <= U/2 (got s={s}, U={u})"),
        });
    }
    // Data norm: s/U + j²·s(1−c)/U <= 1  =>  j <= sqrt((U − s)/(s(1−c))).
    let j_max = ((u - s) / (s * (1.0 - c))).sqrt().floor() as usize;
    // Query norm: sU(1−(1−c)i)² + sU(1−c) <= U²  =>  |1−(1−c)i| <= sqrt(U/s − (1−c)).
    let i_max = ((1.0 + (u / s - (1.0 - c)).max(0.0).sqrt()) / (1.0 - c)).floor() as usize;
    let m = (j_max.min(i_max) + 1).max(1);
    let queries = (0..m)
        .map(|i| {
            DenseVector::new(vec![
                (s * u).sqrt() * (1.0 - (1.0 - c) * i as f64),
                (s * u * (1.0 - c)).sqrt(),
            ])
        })
        .collect();
    let data = (0..m)
        .map(|j| DenseVector::new(vec![(s / u).sqrt(), j as f64 * (s * (1.0 - c) / u).sqrt()]))
        .collect();
    Ok(HardSequence {
        queries,
        data,
        s,
        c,
        u,
    })
}

/// Theorem 3, case 3: sequences of length `n = 2^⌈√(U/(8s))⌉` built from a family of
/// nearly-orthogonal vectors arranged as a complete binary tree over the index bits,
/// with pairwise coherence `ε = c/(2·log²n)`.
///
/// `qᵢ` sums the *sibling* nodes along its root-to-leaf path at the positions where its
/// bit is 0 (scaled by `√(2sU)`); `pⱼ` sums the *path* nodes at the positions where its
/// bit is 1 (scaled by `√(2s/U)`). The aligned node of the first "0 in `i`, 1 in `j`"
/// bit contributes the full product of the scales, while every other node pair
/// contributes at most `ε` of it — which gives `qᵢᵀpⱼ ≥ s` for `j ≥ i` and `≤ cs` for
/// `j < i` once the coherence is small enough (the paper requires dimension
/// `Ω(ε⁻² log n)` via the JL lemma).
///
/// The paper obtains the nearly-orthogonal family from the Johnson–Lindenstrauss lemma;
/// here the deterministic Reed–Solomon collection is used instead, which guarantees the
/// coherence bound (rather than achieving it with high probability) and makes the
/// construction — and the tests that verify the staircase — fully deterministic.
/// `levels` controls `log₂ n`.
pub fn hard_sequence_case3(s: f64, c: f64, u: f64, levels: u32) -> Result<HardSequence> {
    validate_common(s, c, u)?;
    if levels == 0 || levels > 14 {
        return Err(CoreError::InvalidParameter {
            name: "levels",
            reason: format!("levels must be in 1..=14, got {levels}"),
        });
    }
    if 2.0 * s > u {
        return Err(CoreError::InvalidParameter {
            name: "s",
            reason: format!("case 3 requires 2s <= U (got s={s}, U={u})"),
        });
    }
    let n = 1usize << levels;
    // The query index i is encoded as the value i, the data index j as the value j + 1,
    // both over `levels + 1` bits: then j >= i iff (j+1) > i, and for any a < b the
    // first differing bit of (a, b) has a 0 in a and a 1 in b — exactly the condition
    // the paper's argument needs, now valid on the diagonal as well.
    let width = levels + 1; // bits per encoded value
    let word_count = width as f64;
    // ε·(#cross pairs) must stay below c times the aligned contribution.
    let epsilon = (c / (2.0 * word_count * word_count)).min(0.45);
    // One nearly-orthogonal vector per binary-tree node (prefixes of length 1..=width).
    let node_count = (1usize << (width + 1)) - 2;
    let family = ReedSolomonCollection::with_capacity(node_count as u128, epsilon)?;
    let dim = family.dim();
    let node = |level: u32, prefix: usize| -> usize { (1usize << level) - 2 + prefix };

    // Each side is a sum of at most `width` unit vectors; dividing the paper's scales by
    // `width` keeps queries inside the U-ball and data inside the unit ball.
    let q_norm = (2.0 * s * u).sqrt() / word_count;
    let p_norm = (2.0 * s / u).sqrt() / word_count;

    let build = |value: usize, query_side: bool| -> Result<DenseVector> {
        let mut v = DenseVector::zeros(dim);
        for level in 1..=width {
            let shift = width - level;
            let bit = (value >> shift) & 1;
            let prefix_own = value >> shift; // prefix of length `level`, ending in `bit`
            if query_side && bit == 0 {
                // Query side: the sibling node (same prefix, last bit flipped to 1).
                v.axpy(q_norm, &family.vector(node(level, prefix_own ^ 1) as u128)?)?;
            } else if !query_side && bit == 1 {
                // Data side: its own path node (prefix ending in 1).
                v.axpy(p_norm, &family.vector(node(level, prefix_own) as u128)?)?;
            }
        }
        Ok(v)
    };

    let mut queries = Vec::with_capacity(n);
    let mut data = Vec::with_capacity(n);
    for idx in 0..n {
        queries.push(build(idx, true)?);
        data.push(build(idx + 1, false)?);
    }
    // For j >= i the aligned node contributes q_norm·p_norm exactly; every other node
    // pair contributes at most ε·q_norm·p_norm in absolute value, and there are fewer
    // than width² such pairs. The effective threshold reported here is therefore the
    // worst-case aligned value, and the choice of ε guarantees the j < i side stays
    // below c times it.
    let effective_s = q_norm * p_norm * (1.0 - epsilon * word_count * word_count);
    Ok(HardSequence {
        queries,
        data,
        s: effective_s,
        c,
        u,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The domain constraints: data in the unit ball, queries in the `U`-ball.
    fn verify_domains(seq: &HardSequence) -> bool {
        seq.data.iter().all(|p| p.norm() <= 1.0 + 1e-9)
            && seq.queries.iter().all(|q| q.norm() <= seq.u + 1e-9)
    }

    #[test]
    fn case1_staircase_and_domains() {
        for &(s, c, u) in &[(0.01, 0.5, 1.0), (0.1, 0.8, 4.0), (0.001, 0.3, 2.0)] {
            let seq = hard_sequence_case1(s, c, u).unwrap();
            assert!(seq.len() >= 2, "sequence too short for s={s}, c={c}, U={u}");
            assert!(!seq.is_empty());
            assert!(
                verify_domains(&seq),
                "domain violated for s={s}, c={c}, U={u}"
            );
            assert_eq!(seq.verify_staircase(false).unwrap(), None);
            assert_eq!(seq.verify_staircase(true).unwrap(), None);
            assert!(seq.implied_gap_bound() > 0.0);
        }
    }

    #[test]
    fn case1_length_grows_as_ratio_grows() {
        let short = hard_sequence_case1(0.1, 0.5, 1.0).unwrap();
        let long = hard_sequence_case1(0.0001, 0.5, 1.0).unwrap();
        assert!(long.len() > short.len());
        // Longer sequences imply smaller permissible gaps.
        assert!(long.implied_gap_bound() < short.implied_gap_bound());
    }

    #[test]
    fn case1_parameter_validation() {
        assert!(hard_sequence_case1(0.0, 0.5, 1.0).is_err());
        assert!(hard_sequence_case1(0.5, 1.5, 1.0).is_err());
        assert!(hard_sequence_case1(0.5, 0.5, 0.5).is_err());
        assert!(hard_sequence_case1(0.9, 0.5, 1.0).is_err()); // s > cU
    }

    #[test]
    fn case2_staircase_and_domains() {
        for &(s, c, u) in &[(0.05, 0.5, 1.0), (0.01, 0.9, 2.0), (0.2, 0.7, 8.0)] {
            let seq = hard_sequence_case2(s, c, u).unwrap();
            assert!(seq.len() >= 2, "sequence too short for s={s}, c={c}, U={u}");
            assert!(
                verify_domains(&seq),
                "domain violated for s={s}, c={c}, U={u}"
            );
            // Case 2 only guarantees the signed staircase.
            assert_eq!(seq.verify_staircase(false).unwrap(), None);
        }
        assert!(hard_sequence_case2(0.9, 0.5, 1.0).is_err()); // s > U/2
    }

    #[test]
    fn case2_is_longer_than_case1_for_small_thresholds() {
        // Case 2's length grows like √(U/s) while case 1's only grows like log(U/s), so
        // for small thresholds the arithmetic sequence is much longer — that is exactly
        // why the paper includes it ("longer query and data sequences").
        let s = 1e-5;
        let c = 0.5;
        let u = 1.0;
        let case1 = hard_sequence_case1(s, c, u).unwrap();
        let case2 = hard_sequence_case2(s, c, u).unwrap();
        assert!(
            case2.len() > case1.len(),
            "case 2 ({}) should beat case 1 ({}) for small s/U",
            case2.len(),
            case1.len()
        );
    }

    #[test]
    fn case3_staircase_holds() {
        for &(s, c, levels) in &[(0.05, 0.6, 3u32), (0.02, 0.4, 4), (0.1, 0.8, 2)] {
            let seq = hard_sequence_case3(s, c, 1.0, levels).unwrap();
            assert_eq!(seq.len(), 1usize << levels);
            assert!(verify_domains(&seq), "domains violated for s={s}, c={c}");
            assert_eq!(
                seq.verify_staircase(false).unwrap(),
                None,
                "signed staircase violated for s={s}, c={c}"
            );
            assert_eq!(
                seq.verify_staircase(true).unwrap(),
                None,
                "unsigned staircase violated for s={s}, c={c}"
            );
            assert!(seq.s > 0.0);
        }
    }

    #[test]
    fn case3_parameter_validation() {
        assert!(hard_sequence_case3(0.05, 0.6, 1.0, 0).is_err());
        assert!(hard_sequence_case3(0.05, 0.6, 1.0, 20).is_err());
        assert!(hard_sequence_case3(-1.0, 0.6, 1.0, 3).is_err());
        assert!(hard_sequence_case3(0.9, 0.6, 1.0, 3).is_err()); // 2s > U
    }
}

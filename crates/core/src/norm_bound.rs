//! The norm bound: a join drops the vectors Cauchy–Schwarz rules out before anything is
//! planned or dispatched.
//!
//! Definition 1 reports a pair only if its inner product reaches `cs`, and
//! `|⟨p, q⟩| ≤ ‖p‖·‖q‖`. So with `M_Q` the largest query norm, a data point with
//! `‖p‖·M_Q < cs` is in no reported pair; with `M_P` the largest data norm, neither is a
//! query with `‖q‖·M_P < cs`. This is the length bound of LEMP's *Above-θ* retrieval
//! (Teflioudi, Gemulla and Mykytiuk, SIGMOD 2015), whose problem is this paper's join.
//! [`prune`] finds those vectors. [`crate::planner::run_strategy`] joins what is left and
//! maps each pair's indices back to the caller's; the map is ascending, so the lowest-id
//! tie rule is unchanged. [`crate::planner::JoinPlanner::plan`] measures its statistics
//! on the same kept sets, so the planner costs what runs.
//!
//! # Copies
//!
//! A side is copied — its kept vectors, beside their indices — only when the bound drops
//! at least half of it. Otherwise the side runs whole, on the caller's slice, dropped
//! vectors included. A join therefore never holds a copy of more than half a side.
//!
//! # The rounding margin
//!
//! The bound compares *computed* norms, and the join compares *computed* scores with `cs`.
//! A vector `x` is dropped only when `ν(x) ⊗ M ⊗ (1 ⊕ γ) < cs`, where `⊗` and `⊕` are
//! `f64` operations, `M` is the other side's largest `ν`, and `ν(x)` is the computed
//! norm with its square floored at `4dλ`: `√max(σ̂, 4dλ)` with `σ̂ = dot_slices(x, x)`.
//! The margin is
//!
//! ```text
//! γ = (4d + 16)·u,    u = 2⁻⁵³, λ = 2⁻¹⁰²² (smallest normal), η = 2⁻¹⁰⁷⁴ (smallest subnormal)
//! ```
//!
//! and no score the join computes for a dropped vector reaches `cs`. Every such score is
//! [`ips_linalg::tile::dot_slices`] or the register tile, bit-identical to it: `d`
//! products added in ascending order, without fused multiply-adds. In the standard model
//! (Higham, *Accuracy and Stability of Numerical Algorithms*, §2.2 and §3.1) each
//! operation gives `(x∘y)(1 + δ) + ε` with `|δ| ≤ u`, `|ε| ≤ η/2`, and `ε = 0` for a sum.
//! With `γ_k = k·u / (1 − k·u)` and `σ = ‖x‖²`:
//!
//! 1. **The tile's sum.** A computed score has `|ŝ| ≤ (1 + γ_d)(Σ|p_j q_j| + dη)
//!    ≤ (1 + γ_d)(‖p‖‖q‖ + dη)`.
//! 2. **The norm's rounding.** `σ̂ ≥ (1 − γ_d)σ − (1 + γ_d)dη/2` (all terms are
//!    non-negative). The floor makes `σ̃ = max(σ̂, 4dλ) ≥ 4dλ`, so `dη/2 = u·dλ ≤ u·σ̃/4`
//!    and `σ ≤ σ̃(1 + u)/(1 − γ_d)`. `σ̃` is normal, so `ν ≥ √σ̃·(1 − u)`, and
//!    `‖p‖‖q‖ ≤ ν(p)·M·(1 + u) / ((1 − γ_d)(1 − u)²)`.
//! 3. **The test.** `ν(p)·M ≥ 4dλ(1 − u)² ≥ λ` is normal, and `fl(1 + γ) ≥ (1 + γ)(1 − u)`,
//!    so the tested value is at least `ν(p)·M·(1 + γ)(1 − u)³` — or `+∞`, which is never
//!    below `cs`. A drop therefore means `ν(p)·M < cs / ((1 + γ)(1 − u)³)`, and also
//!    `cs > 4dλ(1 − u)²`, so `dη = 2u·dλ ≤ u·cs`.
//! 4. **Together.** `|ŝ| < (1 + γ_d)·cs·[(1 + u) / ((1 − γ_d)(1 − u)⁵(1 + γ)) + u]`,
//!    which is at most `cs` when `1 + γ ≥ (1 + γ_d)(1 + u) / ((1 − γ_d)(1 − u)⁵(1 −
//!    (1 + γ_d)u))`. Here `(1 + γ_d)/(1 − γ_d) = 1 + γ_{2d}`, `1 + u ≤ 1 + γ_1`,
//!    `(1 − u)⁻⁵ ≤ 1 + γ_5` and `(1 − (1 + γ_d)u)⁻¹ ≤ 1 + γ_2`; since
//!    `(1 + γ_j)(1 + γ_k) ≤ 1 + γ_{j+k}`, the right side is at most `1 + γ_{2d+8}`,
//!    and `γ_{2d+8} ≤ 2(2d + 8)u` while `(2d + 8)u ≤ 1/2`.
//!
//! The same holds with the sides swapped. At `d = 48` the margin is `γ ≈ 2.3·10⁻¹⁴`:
//! the bound gives up nothing a benchmark could see. Without the floor, a vector whose
//! squares underflow would get the norm 0 and be dropped even against a query large
//! enough to report it.
//!
//! # Edge rules
//!
//! - **Where the bound does not apply, the join runs as before.** An empty data set, an
//!   empty query set, dimension 0, or any vector whose dimension differs from the first
//!   data point's: [`prune`] returns `None` and the strategy meets the inputs whole — so
//!   an empty data set still fails, and a mismatch still fails at its first pair.
//! - **A NaN norm keeps its vector**, because the comparison is false. It counts for
//!   nothing in the other side's `M`: a NaN norm means a NaN coordinate, so every score
//!   of that vector is NaN, and a NaN reaches no threshold.
//! - **A side the bound empties empties the join**: the result is empty, and nothing is
//!   dispatched or drawn from the RNG.
//! - **The unsigned variant** prunes by the same bound, which bounds `|⟨p, q⟩|`.
//!
//! # What stays bit-identical
//!
//! Brute force, ALSH and symmetric LSH report the pairs they report on the whole inputs.
//! A dropped point reaches no threshold, so it is no answer and can only lose a "best
//! so far" comparison to an answer; the LSH plane draws do not depend on `n`; and the
//! largest norm of a side is kept whenever anything of it is, so the ALSH query radius
//! and every unit-ball check see the same maximum. One contrived exception is left:
//! the symmetric index's exact-match probe answers with the last data point whose
//! *encoding* matches the query, and two points of one encoding whose norms straddle
//! the bound can swap that answer. The sketch tree and the planner's sampled mini-join
//! are drawn over the kept points, so their pairs change and stay valid. The `f32` brute
//! kernel picks each query's winner among the kept points only, so it may report a
//! valid pair that today's winner, a dropped point, hid.

use crate::problem::{JoinSpec, MatchPair};
use ips_linalg::DenseVector;

/// One side of a join as the bound leaves it.
#[derive(Debug)]
pub(crate) enum KeptSide<'a> {
    /// The caller's slice, whole: the bound dropped less than half of it.
    Whole(&'a [DenseVector]),
    /// The kept vectors, copied, beside their ascending indices in the caller's slice.
    Copied {
        vectors: Vec<DenseVector>,
        indices: Vec<usize>,
    },
}

impl KeptSide<'_> {
    /// The vectors the join runs on.
    pub(crate) fn vectors(&self) -> &[DenseVector] {
        match self {
            KeptSide::Whole(vectors) => vectors,
            KeptSide::Copied { vectors, .. } => vectors,
        }
    }

    /// The caller's index of the `i`-th vector the join runs on.
    fn caller_index(&self, i: usize) -> usize {
        match self {
            KeptSide::Whole(_) => i,
            KeptSide::Copied { indices, .. } => indices[i],
        }
    }
}

/// Both sides of a join as the bound leaves them.
#[derive(Debug)]
pub(crate) struct Kept<'a> {
    /// The data points the join runs on.
    pub(crate) data: KeptSide<'a>,
    /// The queries the join runs on.
    pub(crate) queries: KeptSide<'a>,
}

impl Kept<'_> {
    /// Whether the bound emptied a side, so that the join reports nothing.
    pub(crate) fn is_empty(&self) -> bool {
        self.data.vectors().is_empty() || self.queries.vectors().is_empty()
    }

    /// `pairs` of the kept sets, with the caller's indices: ascending, as the kept ones.
    pub(crate) fn caller_pairs(&self, mut pairs: Vec<MatchPair>) -> Vec<MatchPair> {
        for pair in &mut pairs {
            pair.data_index = self.data.caller_index(pair.data_index);
            pair.query_index = self.queries.caller_index(pair.query_index);
        }
        pairs
    }
}

/// What the bound keeps of `data` and `queries` under `spec` (see the module docs), or
/// `None` where it does not apply: an empty side, dimension 0, or mixed dimensions.
pub(crate) fn prune<'a>(
    data: &'a [DenseVector],
    queries: &'a [DenseVector],
    spec: JoinSpec,
) -> Option<Kept<'a>> {
    let dim = data.first()?.dim();
    if dim == 0 || queries.is_empty() || data.iter().chain(queries).any(|v| v.dim() != dim) {
        return None;
    }
    let d = dim as f64;
    let floor = 4.0 * d * f64::MIN_POSITIVE;
    // `if`, not `f64::max`: a NaN square must stay NaN.
    let norm = |v: &DenseVector| {
        let square = v.norm_sq();
        if square < floor { floor } else { square }.sqrt()
    };
    let data_norms: Vec<f64> = data.iter().map(norm).collect();
    let query_norms: Vec<f64> = queries.iter().map(norm).collect();
    // `f64::max` passes over a NaN norm.
    let largest = |norms: &[f64]| norms.iter().copied().fold(0.0, f64::max);
    let bound = Bound {
        margin: 1.0 + (4.0 * d + 16.0) * (f64::EPSILON / 2.0),
        cs: spec.relaxed_threshold(),
    };
    Some(Kept {
        data: bound.side(data, &data_norms, largest(&query_norms)),
        queries: bound.side(queries, &query_norms, largest(&data_norms)),
    })
}

/// The drop test: the margin `1 + γ` and the threshold `cs`.
struct Bound {
    margin: f64,
    cs: f64,
}

impl Bound {
    /// Whether a vector of computed norm `norm` can reach `cs` against a side whose
    /// largest computed norm is `other`.
    fn keeps(&self, norm: f64, other: f64) -> bool {
        !(norm * other * self.margin < self.cs)
    }

    /// What the join runs on of `vectors`, whose computed norms are `norms`.
    fn side<'a>(&self, vectors: &'a [DenseVector], norms: &[f64], other: f64) -> KeptSide<'a> {
        let kept = norms.iter().filter(|&&n| self.keeps(n, other)).count();
        if 2 * kept > vectors.len() {
            return KeptSide::Whole(vectors);
        }
        let indices: Vec<usize> = (0..vectors.len())
            .filter(|&i| self.keeps(norms[i], other))
            .collect();
        KeptSide::Copied {
            vectors: indices.iter().map(|&i| vectors[i].clone()).collect(),
            indices,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::JoinVariant;

    fn dv(xs: &[f64]) -> DenseVector {
        DenseVector::from(xs)
    }

    fn spec(s: f64, c: f64, variant: JoinVariant) -> JoinSpec {
        JoinSpec::new(s, c, variant).unwrap()
    }

    /// The caller's indices the join runs on, per side.
    fn kept_indices(kept: &Kept<'_>) -> (Vec<usize>, Vec<usize>) {
        let indices = |side: &KeptSide<'_>| {
            (0..side.vectors().len())
                .map(|i| side.caller_index(i))
                .collect()
        };
        (indices(&kept.data), indices(&kept.queries))
    }

    #[test]
    fn a_side_is_copied_only_when_at_least_half_of_it_goes() {
        let sp = spec(0.5, 1.0, JoinVariant::Signed);
        let big = dv(&[1.0, 0.0]);
        let small = dv(&[0.1, 0.0]);
        // Two of four data points go: copied, the kept two in ascending order.
        let data = [small.clone(), big.clone(), small.clone(), big.clone()];
        let queries = [big.clone(), big.clone(), big.clone()];
        let kept = prune(&data, &queries, sp).unwrap();
        assert!(matches!(kept.data, KeptSide::Copied { .. }));
        assert!(matches!(kept.queries, KeptSide::Whole(_)));
        assert_eq!(kept_indices(&kept), (vec![1, 3], vec![0, 1, 2]));
        assert_eq!(kept.data.vectors(), &[big.clone(), big.clone()]);
        // One of three goes: the side runs whole, the dropped point included.
        let data = [big.clone(), small.clone(), big.clone()];
        let kept = prune(&data, &queries, sp).unwrap();
        assert!(matches!(kept.data, KeptSide::Whole(_)));
        assert_eq!(kept_indices(&kept).0, vec![0, 1, 2]);
        // Indices map back through both sides.
        let both = [small, big];
        let kept = prune(&both, &both, sp).unwrap();
        let pair = MatchPair {
            data_index: 0,
            query_index: 0,
            inner_product: 1.0,
        };
        let back = kept.caller_pairs(vec![pair]);
        assert_eq!((back[0].data_index, back[0].query_index), (1, 1));
    }

    #[test]
    fn the_bound_does_not_apply_to_empty_zero_dimensional_or_mixed_inputs() {
        let sp = spec(0.5, 1.0, JoinVariant::Signed);
        let v = [dv(&[0.1, 0.0])];
        assert!(prune(&[], &v, sp).is_none());
        assert!(prune(&v, &[], sp).is_none());
        assert!(prune(&[dv(&[])], &[dv(&[])], sp).is_none());
        assert!(prune(&v, &[dv(&[0.1, 0.0]), dv(&[0.1])], sp).is_none());
        assert!(prune(&[dv(&[0.1]), v[0].clone()], &v, sp).is_none());
    }

    #[test]
    fn a_nan_norm_keeps_its_vector_and_counts_for_nothing_in_the_other_sides_largest() {
        let sp = spec(0.5, 1.0, JoinVariant::Signed);
        let nan = dv(&[f64::NAN, 0.0]);
        let small = dv(&[0.1, 0.0]);
        // The NaN point stays; the small queries still go against the data's finite
        // largest norm (a NaN maximum would keep them all).
        let data = [nan.clone(), small.clone(), small.clone()];
        let queries = [small.clone(), small.clone()];
        let kept = prune(&data, &queries, sp).unwrap();
        assert_eq!(kept_indices(&kept), (vec![0], vec![]));
        assert!(kept.is_empty());
        // A NaN query stays too.
        let (data, queries) = ([small.clone()], [nan, small]);
        let kept = prune(&data, &queries, sp).unwrap();
        assert_eq!(kept_indices(&kept).1, vec![0]);
    }

    #[test]
    fn the_unsigned_variant_prunes_by_the_same_bound() {
        let data = [dv(&[-1.0, 0.0]), dv(&[0.2, 0.0]), dv(&[0.0, -0.3])];
        let queries = [dv(&[0.0, -1.0]), dv(&[-0.1, 0.0])];
        for variant in [JoinVariant::Signed, JoinVariant::Unsigned] {
            let kept = prune(&data, &queries, spec(0.5, 1.0, variant)).unwrap();
            assert_eq!(kept_indices(&kept), (vec![0], vec![0]), "{variant:?}");
        }
    }

    #[test]
    fn squares_that_underflow_do_not_drop_a_vector_a_large_partner_reports() {
        // ‖p‖ = 1e-170: its square underflows to 0, yet ⟨p, q⟩ = 1e-20 reaches cs = 1e-21
        // against a q whose square is finite.
        let p = dv(&[1e-170, 0.0]);
        let q = dv(&[1e150, 0.0]);
        assert_eq!(p.norm_sq(), 0.0);
        assert!(q.norm_sq().is_finite());
        assert_eq!(p.dot(&q).unwrap(), 1e-20);
        let (data, queries) = ([p], [q]);
        let kept = prune(&data, &queries, spec(1e-21, 1.0, JoinVariant::Signed)).unwrap();
        assert_eq!(kept_indices(&kept), (vec![0], vec![0]));
    }
}

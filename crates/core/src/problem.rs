//! Problem definitions: signed and unsigned, exact and `(cs, s)`-approximate joins.
//!
//! Definition 1 of the paper: given `P, Q ⊆ R^d`, `0 < c < 1` and `s > 0`, the signed
//! `(cs, s)` join returns, for each `q ∈ Q`, at least one pair `(p, q)` with `pᵀq ≥ cs`
//! *provided* some `p' ∈ P` has `p'ᵀq ≥ s`; no guarantee is given for queries without
//! such a partner. The unsigned variant replaces inner products by absolute values.
//! The indexing (search) versions are the same statements for a single query at a time.
//!
//! The unsigned join reduces to two signed joins — against `Q` and against `−Q` —
//! followed by filtering on the absolute value; [`negate_queries`] and
//! [`JoinVariant::admits`] provide the pieces of that reduction.

use crate::error::{CoreError, Result};
use ips_linalg::DenseVector;
use serde::{Deserialize, Serialize};

/// Whether a join/search thresholds the inner product itself or its absolute value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JoinVariant {
    /// Threshold `pᵀq ≥ s` — "similar or preferred items with a positive correlation".
    Signed,
    /// Threshold `|pᵀq| ≥ s` — "even a large negative correlation is of interest".
    Unsigned,
}

impl JoinVariant {
    /// The effective similarity value of an inner product under this variant.
    pub fn value(self, inner_product: f64) -> f64 {
        match self {
            JoinVariant::Signed => inner_product,
            JoinVariant::Unsigned => inner_product.abs(),
        }
    }

    /// Returns `true` when an inner product passes the given threshold under this
    /// variant.
    pub fn admits(self, inner_product: f64, threshold: f64) -> bool {
        self.value(inner_product) >= threshold
    }
}

/// The parameters of a `(cs, s)` approximate join or search.
///
/// # Validity contract
///
/// Definition 1 splits a join's guarantee into two halves, and every index and
/// join entry point in this workspace honours the first *by construction*:
///
/// * **Validity** — a reported pair `(p, q)` always clears the *relaxed*
///   threshold: `variant.value(pᵀq) ≥ cs` (see [`JoinSpec::acceptable`]).
///   Indexes re-score their candidates against the exact inner product before
///   reporting, so no approximation error can leak a below-`cs` pair into the
///   output. This holds for *every* strategy, including the natively unsigned
///   Section 4.3 sketch under a [`JoinVariant::Signed`] spec (the adapter
///   finds candidates by absolute value but only reports them when the signed
///   product clears `cs`).
/// * **Recall** — an answer is only *promised* for queries that have a partner
///   clearing the full threshold `s` (see [`JoinSpec::satisfies_promise`]).
///   The exact strategies answer every promised query; the approximate ones
///   may miss (that is precisely what the experiments measure), but a miss is
///   the only permitted failure mode.
///
/// [`evaluate_join`] scores both halves against ground truth.
///
/// # Empty inputs
///
/// Since the joins were unified behind [`crate::engine::JoinEngine`], an empty
/// *query* set joins to an empty result across every entry point — including
/// the sketch path, which used to reject it. An empty *data* set still fails
/// (at index construction or on the first search): there is nothing to build
/// an index over, and `(cs, s)` search over an empty set is undefined.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JoinSpec {
    /// The promise threshold `s > 0`.
    pub threshold: f64,
    /// The approximation factor `c ∈ (0, 1]`; `c = 1` makes the join exact.
    pub approximation: f64,
    /// Signed or unsigned semantics.
    pub variant: JoinVariant,
}

impl JoinSpec {
    /// Creates a spec, validating `s > 0` and `0 < c ≤ 1`.
    pub fn new(threshold: f64, approximation: f64, variant: JoinVariant) -> Result<Self> {
        if !(threshold > 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "threshold",
                reason: format!("threshold s must be positive, got {threshold}"),
            });
        }
        if !(approximation > 0.0 && approximation <= 1.0) {
            return Err(CoreError::InvalidParameter {
                name: "approximation",
                reason: format!("approximation c must lie in (0,1], got {approximation}"),
            });
        }
        Ok(Self {
            threshold,
            approximation,
            variant,
        })
    }

    /// Convenience constructor for an exact (`c = 1`) join.
    pub fn exact(threshold: f64, variant: JoinVariant) -> Result<Self> {
        Self::new(threshold, 1.0, variant)
    }

    /// The relaxed threshold `cs` that reported pairs must clear.
    pub fn relaxed_threshold(&self) -> f64 {
        self.approximation * self.threshold
    }

    /// Returns `true` when an inner product satisfies the *promise* threshold `s`.
    pub fn satisfies_promise(&self, inner_product: f64) -> bool {
        self.variant.admits(inner_product, self.threshold)
    }

    /// Returns `true` when an inner product is acceptable to report (clears `cs`).
    pub fn acceptable(&self, inner_product: f64) -> bool {
        self.variant.admits(inner_product, self.relaxed_threshold())
    }
}

/// One pair reported by a join: indices into the data and query sets plus the exact
/// inner product.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MatchPair {
    /// Index into the data set `P`.
    pub data_index: usize,
    /// Index into the query set `Q`.
    pub query_index: usize,
    /// The exact inner product `pᵀq`.
    pub inner_product: f64,
}

/// Negates every query vector — the first half of the unsigned-to-signed reduction
/// described in the paper's problem-definition section.
pub fn negate_queries(queries: &[DenseVector]) -> Vec<DenseVector> {
    queries.iter().map(DenseVector::negated).collect()
}

/// Evaluates how well a reported pair set satisfies Definition 1 against ground truth:
/// returns `(recall, valid)` where `recall` is the fraction of queries *with* a partner
/// above `s` for which some pair clearing `cs` was reported, and `valid` is `true` when
/// every reported pair indeed clears `cs`.
pub fn evaluate_join(
    data: &[DenseVector],
    queries: &[DenseVector],
    spec: &JoinSpec,
    reported: &[MatchPair],
) -> Result<(f64, bool)> {
    let mut valid = true;
    // Which queries some reported pair answers acceptably: the reported set is
    // walked once, not once per query.
    let mut answered_acceptably = vec![false; queries.len()];
    for pair in reported {
        let p = data
            .get(pair.data_index)
            .ok_or(CoreError::InvalidParameter {
                name: "reported",
                reason: format!("data index {} out of range", pair.data_index),
            })?;
        let q = queries
            .get(pair.query_index)
            .ok_or(CoreError::InvalidParameter {
                name: "reported",
                reason: format!("query index {} out of range", pair.query_index),
            })?;
        if spec.acceptable(p.dot(q)?) {
            answered_acceptably[pair.query_index] = true;
        } else {
            valid = false;
        }
    }
    let mut promised = 0usize;
    let mut answered = 0usize;
    for (q, &got) in queries.iter().zip(&answered_acceptably) {
        // The scan below stops at the first partner, so a vector of another
        // dimension behind it would go unseen: look for one first.
        if let Some(p) = data.iter().find(|p| p.dim() != q.dim()) {
            p.dot(q)?;
        }
        let has_partner = data
            .iter()
            .any(|p| spec.satisfies_promise(p.dot_unchecked_len(q)));
        if has_partner {
            promised += 1;
            answered += usize::from(got);
        }
    }
    let recall = if promised == 0 {
        1.0
    } else {
        answered as f64 / promised as f64
    };
    Ok((recall, valid))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dv(xs: &[f64]) -> DenseVector {
        DenseVector::from(xs)
    }

    #[test]
    fn spec_validation() {
        assert!(JoinSpec::new(0.0, 0.5, JoinVariant::Signed).is_err());
        assert!(JoinSpec::new(1.0, 0.0, JoinVariant::Signed).is_err());
        assert!(JoinSpec::new(1.0, 1.5, JoinVariant::Signed).is_err());
        let spec = JoinSpec::new(2.0, 0.5, JoinVariant::Unsigned).unwrap();
        assert_eq!(spec.relaxed_threshold(), 1.0);
        let exact = JoinSpec::exact(1.0, JoinVariant::Signed).unwrap();
        assert_eq!(exact.approximation, 1.0);
    }

    #[test]
    fn variant_semantics() {
        assert!(JoinVariant::Signed.admits(1.5, 1.0));
        assert!(!JoinVariant::Signed.admits(-1.5, 1.0));
        assert!(JoinVariant::Unsigned.admits(-1.5, 1.0));
        assert_eq!(JoinVariant::Signed.value(-2.0), -2.0);
        assert_eq!(JoinVariant::Unsigned.value(-2.0), 2.0);
    }

    #[test]
    fn promise_and_acceptance() {
        let spec = JoinSpec::new(1.0, 0.5, JoinVariant::Signed).unwrap();
        assert!(spec.satisfies_promise(1.2));
        assert!(!spec.satisfies_promise(0.7));
        assert!(spec.acceptable(0.7));
        assert!(!spec.acceptable(0.4));
        let unsigned = JoinSpec::new(1.0, 0.5, JoinVariant::Unsigned).unwrap();
        assert!(unsigned.satisfies_promise(-1.2));
        assert!(unsigned.acceptable(-0.6));
    }

    #[test]
    fn negate_queries_flips_signs() {
        let qs = vec![dv(&[1.0, -2.0]), dv(&[0.5, 0.0])];
        let negated = negate_queries(&qs);
        assert_eq!(negated[0].as_slice(), &[-1.0, 2.0]);
        assert_eq!(negated[1].as_slice(), &[-0.5, 0.0]);
    }

    #[test]
    fn unsigned_join_via_two_signed_joins() {
        // The reduction: a pair with large |ip| shows up in the signed join against Q or
        // against −Q.
        let p = dv(&[1.0, 0.0]);
        let q_pos = dv(&[0.9, 0.1]);
        let q_neg = dv(&[-0.9, 0.1]);
        let spec = JoinSpec::new(0.5, 1.0, JoinVariant::Signed).unwrap();
        assert!(spec.satisfies_promise(p.dot(&q_pos).unwrap()));
        assert!(!spec.satisfies_promise(p.dot(&q_neg).unwrap()));
        assert!(spec.satisfies_promise(p.dot(&q_neg.negated()).unwrap()));
    }

    #[test]
    fn evaluate_join_scores_recall_and_validity() {
        let data = vec![dv(&[1.0, 0.0]), dv(&[0.0, 1.0])];
        let queries = vec![dv(&[1.0, 0.0]), dv(&[0.0, 0.2])];
        let spec = JoinSpec::new(0.9, 0.5, JoinVariant::Signed).unwrap();
        // Query 0 has a partner above s=0.9 (data 0); query 1 does not.
        let perfect = vec![MatchPair {
            data_index: 0,
            query_index: 0,
            inner_product: 1.0,
        }];
        let (recall, valid) = evaluate_join(&data, &queries, &spec, &perfect).unwrap();
        assert_eq!(recall, 1.0);
        assert!(valid);
        let (recall, _) = evaluate_join(&data, &queries, &spec, &[]).unwrap();
        assert_eq!(recall, 0.0);
        // A reported pair that does not clear cs invalidates the answer.
        let bogus = vec![MatchPair {
            data_index: 1,
            query_index: 0,
            inner_product: 0.0,
        }];
        let (_, valid) = evaluate_join(&data, &queries, &spec, &bogus).unwrap();
        assert!(!valid);
        // Out-of-range indices are rejected.
        let broken = vec![MatchPair {
            data_index: 9,
            query_index: 0,
            inner_product: 0.0,
        }];
        assert!(evaluate_join(&data, &queries, &spec, &broken).is_err());
        // A vector of another dimension is an error wherever it stands, also behind
        // the partner at which the scan of a query stops.
        let mut ragged = data.clone();
        ragged.push(dv(&[1.0]));
        assert_eq!(
            evaluate_join(&ragged, &queries, &spec, &perfect).unwrap_err(),
            CoreError::from(ragged[2].dot(&queries[0]).unwrap_err())
        );
        // Several pairs on one query: one acceptable pair answers it, one
        // unacceptable pair invalidates the whole set.
        let mixed = [bogus[0], perfect[0]];
        assert_eq!(
            evaluate_join(&data, &queries, &spec, &mixed).unwrap(),
            (1.0, false)
        );
    }
}

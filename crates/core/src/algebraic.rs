//! The algebraic (matrix-multiplication) join, wrapped behind the core API.
//!
//! Section 1.2 of the paper ("Algebraic techniques") credits Valiant \[51\] and
//! Karppa et al. \[29\] with the only truly subquadratic algorithms for unsigned join in
//! the *permissible* ranges of Table 1 — they amplify the gap between inner products
//! and reduce the join to (fast) matrix multiplication rather than to hashing. The
//! amplify-and-multiply join lives in the `ips-matmul` substrate crate; this module
//! adapts it to the workspace-wide [`JoinSpec`] / [`MatchPair`] vocabulary so the
//! benchmark harness can compare it head-to-head with the brute-force, LSH and sketch
//! joins. The exact join is the brute-force scan of [`crate::brute`].

use crate::error::{CoreError, Result};
use crate::problem::{JoinSpec, JoinVariant, MatchPair};
use ips_linalg::SignVector;
use ips_matmul::{amplified_unsigned_join, AlgebraicPair, AmplifiedJoinConfig};
use rand::Rng;

fn convert(pairs: Vec<AlgebraicPair>) -> Vec<MatchPair> {
    pairs
        .into_iter()
        .map(|p| MatchPair {
            data_index: p.data_index,
            query_index: p.query_index,
            inner_product: p.inner_product,
        })
        .collect()
}

/// The amplify-and-multiply `(cs, s)` join for `{−1,1}` data (Valiant/Karppa style).
///
/// Only the unsigned variant is supported — the algebraic amplification squares away
/// signs — so a [`JoinVariant::Signed`] spec is rejected. Reported pairs always satisfy
/// `|pᵀq| ≥ cs`; recall is probabilistic, exactly as for the LSH joins.
pub fn amplified_sign_join<R: Rng + ?Sized>(
    rng: &mut R,
    data: &[SignVector],
    queries: &[SignVector],
    spec: &JoinSpec,
    config: AmplifiedJoinConfig,
) -> Result<Vec<MatchPair>> {
    if spec.variant != JoinVariant::Unsigned {
        return Err(CoreError::InvalidParameter {
            name: "spec.variant",
            reason: "the amplified algebraic join only answers the unsigned variant".into(),
        });
    }
    if spec.approximation >= 1.0 {
        return Err(CoreError::InvalidParameter {
            name: "spec.approximation",
            reason: "the amplified join needs a strict approximation factor c < 1".into(),
        });
    }
    let report = amplified_unsigned_join(
        rng,
        data,
        queries,
        spec.threshold,
        spec.approximation,
        config,
    )?;
    Ok(convert(report.pairs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_linalg::random::random_sign_vector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xA1_6E)
    }

    #[test]
    fn amplified_join_rejects_signed_and_exact_specs() {
        let mut r = rng();
        let data = vec![random_sign_vector(&mut r, 16)];
        let queries = vec![random_sign_vector(&mut r, 16)];
        let signed = JoinSpec::new(8.0, 0.5, JoinVariant::Signed).unwrap();
        assert!(amplified_sign_join(
            &mut r,
            &data,
            &queries,
            &signed,
            AmplifiedJoinConfig::default()
        )
        .is_err());
        let exact = JoinSpec::exact(8.0, JoinVariant::Unsigned).unwrap();
        assert!(amplified_sign_join(
            &mut r,
            &data,
            &queries,
            &exact,
            AmplifiedJoinConfig::default()
        )
        .is_err());
    }

    #[test]
    fn amplified_join_finds_a_planted_sign_pair() {
        let mut r = rng();
        let dim = 64;
        let query = random_sign_vector(&mut r, dim);
        let mut data: Vec<SignVector> = (0..80).map(|_| random_sign_vector(&mut r, dim)).collect();
        // Planted partner agrees with the query on 60 of 64 coordinates: ip = 56.
        let mut partner = query.clone();
        for i in 60..dim {
            partner.set(i, -query.get(i));
        }
        data[17] = partner;
        let spec = JoinSpec::new(56.0, 0.5, JoinVariant::Unsigned).unwrap();
        let pairs = amplified_sign_join(
            &mut r,
            &data,
            &[query],
            &spec,
            AmplifiedJoinConfig {
                degree: 2,
                projection_dim: 4096,
                detection_fraction: 0.5,
            },
        )
        .unwrap();
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].data_index, 17);
        assert!(spec.acceptable(pairs[0].inner_product));
    }
}

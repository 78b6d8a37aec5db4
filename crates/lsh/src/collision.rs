//! Empirical collision-probability estimation.
//!
//! The quantities the paper's Section 3 reasons about — `P1`, `P2` and the gap
//! `P1 − P2` of an `(s, cs, P1, P2)`-asymmetric LSH — are probabilities over the draw of
//! the hash function. This module estimates them by Monte-Carlo sampling: repeatedly
//! draw a function from the family and check whether a given data/query pair collides.
//! The estimates drive experiment E4 (validation of the theoretical collision curves)
//! and experiment E7 (measuring the gap on the Theorem 3 hard sequences).

use crate::error::{LshError, Result};
use crate::traits::{AsymmetricHashFunction, AsymmetricLshFamily};
use ips_linalg::DenseVector;
use rand::Rng;

/// A single point on an empirical collision curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollisionEstimate {
    /// The similarity (inner product or cosine) the pair was generated at.
    pub similarity: f64,
    /// The fraction of sampled hash functions under which the pair collided.
    pub probability: f64,
    /// Number of Monte-Carlo trials used.
    pub trials: usize,
}

/// Estimates the collision probability of a single data/query pair under `family` using
/// `trials` independently sampled hash functions.
pub fn estimate_pair_collision<F, R>(
    family: &F,
    data: &DenseVector,
    query: &DenseVector,
    trials: usize,
    rng: &mut R,
) -> Result<f64>
where
    F: AsymmetricLshFamily,
    R: Rng + ?Sized,
{
    if trials == 0 {
        return Err(LshError::InvalidParameter {
            name: "trials",
            reason: "at least one trial is required".into(),
        });
    }
    let mut collisions = 0usize;
    for _ in 0..trials {
        let f = family.sample(rng)?;
        if f.hash_data(data)? == f.hash_query(query)? {
            collisions += 1;
        }
    }
    Ok(collisions as f64 / trials as f64)
}

/// Estimates the whole collision curve for a family: for every `(similarity, data,
/// query)` triple provided by `pairs`, the pair's collision probability is estimated
/// with `trials` function draws.
pub fn estimate_collision_curve<F, R>(
    family: &F,
    pairs: &[(f64, DenseVector, DenseVector)],
    trials: usize,
    rng: &mut R,
) -> Result<Vec<CollisionEstimate>>
where
    F: AsymmetricLshFamily,
    R: Rng + ?Sized,
{
    pairs
        .iter()
        .map(|(similarity, data, query)| {
            Ok(CollisionEstimate {
                similarity: *similarity,
                probability: estimate_pair_collision(family, data, query, trials, rng)?,
                trials,
            })
        })
        .collect()
}

/// Estimates `P1` and `P2` for a family with respect to explicit lists of "near" pairs
/// (inner product at least `s`) and "far" pairs (inner product below `cs`): `P1` is the
/// *minimum* estimated collision probability over near pairs and `P2` the *maximum* over
/// far pairs, matching Definition 2's worst-case quantification.
pub fn estimate_p1_p2<F, R>(
    family: &F,
    near_pairs: &[(DenseVector, DenseVector)],
    far_pairs: &[(DenseVector, DenseVector)],
    trials: usize,
    rng: &mut R,
) -> Result<(f64, f64)>
where
    F: AsymmetricLshFamily,
    R: Rng + ?Sized,
{
    if near_pairs.is_empty() || far_pairs.is_empty() {
        return Err(LshError::InvalidParameter {
            name: "pairs",
            reason: "both near and far pair lists must be non-empty".into(),
        });
    }
    let mut p1 = f64::INFINITY;
    for (p, q) in near_pairs {
        p1 = p1.min(estimate_pair_collision(family, p, q, trials, rng)?);
    }
    let mut p2 = f64::NEG_INFINITY;
    for (p, q) in far_pairs {
        p2 = p2.max(estimate_pair_collision(family, p, q, trials, rng)?);
    }
    Ok((p1, p2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hyperplane::HyperplaneFamily;
    use crate::traits::SymmetricAsAsymmetric;
    use ips_linalg::random::correlated_unit_pair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A conservative 95% confidence half-width of an estimate (normal approximation).
    fn confidence_half_width(est: &CollisionEstimate) -> f64 {
        if est.trials == 0 {
            return 1.0;
        }
        let p = est.probability;
        1.96 * (p * (1.0 - p) / est.trials as f64).sqrt()
    }

    #[test]
    fn zero_trials_rejected() {
        let mut rng = StdRng::seed_from_u64(101);
        let fam = SymmetricAsAsymmetric(HyperplaneFamily::single_bit(4).unwrap());
        let v = DenseVector::from(&[1.0, 0.0, 0.0, 0.0][..]);
        assert!(estimate_pair_collision(&fam, &v, &v, 0, &mut rng).is_err());
    }

    #[test]
    fn identical_pair_collides_always() {
        let mut rng = StdRng::seed_from_u64(102);
        let fam = SymmetricAsAsymmetric(HyperplaneFamily::new(8, 4).unwrap());
        let v = ips_linalg::random::random_unit_vector(&mut rng, 8).unwrap();
        let p = estimate_pair_collision(&fam, &v, &v, 200, &mut rng).unwrap();
        assert_eq!(p, 1.0);
    }

    #[test]
    fn curve_matches_theory_for_simhash() {
        let mut rng = StdRng::seed_from_u64(103);
        let dim = 20;
        let fam = SymmetricAsAsymmetric(HyperplaneFamily::single_bit(dim).unwrap());
        let pairs: Vec<(f64, DenseVector, DenseVector)> = [0.1, 0.5, 0.9]
            .iter()
            .map(|&cos| {
                let (a, b) = correlated_unit_pair(&mut rng, dim, cos).unwrap();
                (cos, a, b)
            })
            .collect();
        let curve = estimate_collision_curve(&fam, &pairs, 3000, &mut rng).unwrap();
        for est in &curve {
            let theory = HyperplaneFamily::collision_probability(est.similarity);
            assert!(
                (est.probability - theory).abs() < 0.05,
                "sim {}: {} vs {}",
                est.similarity,
                est.probability,
                theory
            );
            assert!(confidence_half_width(est) < 0.05);
            assert_eq!(est.trials, 3000);
        }
        // Monotone in similarity.
        assert!(curve[0].probability < curve[2].probability);
    }

    #[test]
    fn p1_p2_gap_positive_for_separated_similarities() {
        let mut rng = StdRng::seed_from_u64(104);
        let dim = 16;
        let fam = SymmetricAsAsymmetric(HyperplaneFamily::single_bit(dim).unwrap());
        let near: Vec<_> = (0..3)
            .map(|_| correlated_unit_pair(&mut rng, dim, 0.9).unwrap())
            .collect();
        let far: Vec<_> = (0..3)
            .map(|_| correlated_unit_pair(&mut rng, dim, 0.1).unwrap())
            .collect();
        let (p1, p2) = estimate_p1_p2(&fam, &near, &far, 1500, &mut rng).unwrap();
        assert!(p1 > p2, "expected a positive gap, got P1={p1}, P2={p2}");
        assert!(estimate_p1_p2(&fam, &[], &far, 10, &mut rng).is_err());
    }

    #[test]
    fn confidence_width_shrinks_with_trials() {
        let small = CollisionEstimate {
            similarity: 0.5,
            probability: 0.5,
            trials: 100,
        };
        let large = CollisionEstimate {
            similarity: 0.5,
            probability: 0.5,
            trials: 10_000,
        };
        assert!(confidence_half_width(&large) < confidence_half_width(&small));
        let degenerate = CollisionEstimate {
            similarity: 0.0,
            probability: 0.0,
            trials: 0,
        };
        assert_eq!(confidence_half_width(&degenerate), 1.0);
    }
}

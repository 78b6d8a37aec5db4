//! Unit-sphere workloads: batches of random unit vectors and pairs with prescribed
//! similarity.
//!
//! These are the inputs of the collision-probability validation experiment (E4) and of
//! the symmetric-LSH construction of Section 4.2, which operates on vectors of the unit
//! ball / sphere.

use crate::error::Result;
use ips_linalg::random::{correlated_unit_pair, random_unit_vectors};
use ips_linalg::DenseVector;
use rand::Rng;

/// Draws `count` uniform unit vectors in dimension `dim`.
pub fn unit_vectors<R: Rng + ?Sized>(
    rng: &mut R,
    count: usize,
    dim: usize,
) -> Result<Vec<DenseVector>> {
    Ok(random_unit_vectors(rng, count, dim)?)
}

/// For every similarity in `similarities`, draws a unit-vector pair with exactly that
/// inner product and returns `(similarity, data, query)` triples ready for
/// `ips_lsh::collision::estimate_collision_curve` (this crate does not depend
/// on `ips-lsh`, so the path is not a doc link).
pub fn similarity_ladder<R: Rng + ?Sized>(
    rng: &mut R,
    dim: usize,
    similarities: &[f64],
) -> Result<Vec<(f64, DenseVector, DenseVector)>> {
    similarities
        .iter()
        .map(|&s| {
            let (a, b) = correlated_unit_pair(rng, dim, s)?;
            Ok((s, a, b))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5F11E)
    }

    #[test]
    fn unit_vectors_have_unit_norm() {
        let mut r = rng();
        let vs = unit_vectors(&mut r, 25, 12).unwrap();
        assert_eq!(vs.len(), 25);
        for v in &vs {
            assert!((v.norm() - 1.0).abs() < 1e-9);
        }
        assert!(unit_vectors(&mut r, 3, 0).is_err());
    }

    #[test]
    fn similarity_ladder_hits_targets() {
        let mut r = rng();
        let sims = [-0.5, 0.0, 0.3, 0.9];
        let ladder = similarity_ladder(&mut r, 24, &sims).unwrap();
        assert_eq!(ladder.len(), sims.len());
        for (s, a, b) in &ladder {
            assert!((a.dot(b).unwrap() - s).abs() < 1e-9);
        }
        assert!(similarity_ladder(&mut r, 24, &[1.5]).is_err());
    }
}

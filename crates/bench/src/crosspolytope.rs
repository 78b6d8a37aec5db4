//! Cross-polytope LSH for the unit sphere.
//!
//! The cross-polytope family of Andoni, Indyk, Kapralov, Laarhoven, Razenshteyn and
//! Schmidt ("Practical and optimal LSH for angular distance", NIPS 2015 — reference \[7\]
//! of the paper) hashes a point on the sphere by applying a (pseudo-)random rotation and
//! returning the closest signed standard basis vector `±e_i`. It achieves the optimal
//! ρ for angular distance asymptotically and is the practical choice the paper suggests
//! for the Section 4.1 asymmetric MIPS index.
//!
//! Here the random rotation is realised by a dense Gaussian matrix (`projection_dim ×
//! dim`). With `projection_dim = dim` this is the classical construction; smaller
//! projection dimensions trade accuracy for speed exactly as in the feature-hashing
//! variant of the original paper.
//!
//! No experiment, example or index samples this family: only its unit tests reach it
//! (and through it [`ips_linalg::projection`], which has no other user). Both stay
//! until ROADMAP item 6 decides whether cross-polytope becomes a second plane bank
//! or leaves the tree.

use ips_linalg::projection::GaussianProjection;
use ips_linalg::DenseVector;
use ips_lsh::traits::{HashFunction, LshFamily};
use ips_lsh::{LshError, Result};
use rand::Rng;

/// Family of cross-polytope hash functions on `R^dim`.
#[derive(Debug, Clone)]
pub struct CrossPolytopeFamily {
    dim: usize,
    projection_dim: usize,
}

impl CrossPolytopeFamily {
    /// Creates a family with `projection_dim = dim` (a full random rotation).
    pub fn new(dim: usize) -> Result<Self> {
        Self::with_projection(dim, dim)
    }

    /// Creates a family whose rotations project into `projection_dim` dimensions.
    pub fn with_projection(dim: usize, projection_dim: usize) -> Result<Self> {
        if dim == 0 || projection_dim == 0 {
            return Err(LshError::InvalidParameter {
                name: "dim",
                reason: "dimensions must be positive".into(),
            });
        }
        Ok(Self {
            dim,
            projection_dim,
        })
    }

    /// Number of distinct hash buckets (`2 · projection_dim`).
    pub fn bucket_count(&self) -> usize {
        2 * self.projection_dim
    }
}

/// A sampled cross-polytope hash function.
#[derive(Debug, Clone)]
pub struct CrossPolytopeFunction {
    rotation: GaussianProjection,
}

impl HashFunction for CrossPolytopeFunction {
    fn hash(&self, v: &DenseVector) -> Result<u64> {
        if v.dim() != self.rotation.input_dim() {
            return Err(LshError::DimensionMismatch {
                expected: self.rotation.input_dim(),
                actual: v.dim(),
            });
        }
        let rotated = self.rotation.project(v)?;
        // Closest signed basis vector = coordinate of largest magnitude, with its sign.
        let mut best_idx = 0usize;
        let mut best_abs = f64::NEG_INFINITY;
        for (i, &x) in rotated.iter().enumerate() {
            if x.abs() > best_abs {
                best_abs = x.abs();
                best_idx = i;
            }
        }
        let sign_bit = u64::from(rotated[best_idx] >= 0.0);
        Ok((best_idx as u64) << 1 | sign_bit)
    }
}

impl LshFamily for CrossPolytopeFamily {
    type Function = CrossPolytopeFunction;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Self::Function> {
        Ok(CrossPolytopeFunction {
            rotation: GaussianProjection::sample(rng, self.dim, self.projection_dim)?,
        })
    }

    fn dim(&self) -> Option<usize> {
        Some(self.dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_linalg::random::{correlated_unit_pair, random_unit_vector};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn parameter_validation() {
        assert!(CrossPolytopeFamily::new(0).is_err());
        assert!(CrossPolytopeFamily::with_projection(4, 0).is_err());
        let f = CrossPolytopeFamily::with_projection(8, 4).unwrap();
        assert_eq!(f.bucket_count(), 8);
        assert_eq!(f.dim(), Some(8));
    }

    #[test]
    fn hash_range_is_bounded() {
        let mut rng = StdRng::seed_from_u64(21);
        let family = CrossPolytopeFamily::with_projection(16, 8).unwrap();
        let f = family.sample(&mut rng).unwrap();
        for _ in 0..100 {
            let v = random_unit_vector(&mut rng, 16).unwrap();
            let h = f.hash(&v).unwrap();
            assert!(h < family.bucket_count() as u64);
        }
        assert!(f.hash(&DenseVector::zeros(5)).is_err());
    }

    #[test]
    fn identical_vectors_collide() {
        let mut rng = StdRng::seed_from_u64(22);
        let family = CrossPolytopeFamily::new(12).unwrap();
        let f = family.sample(&mut rng).unwrap();
        let v = random_unit_vector(&mut rng, 12).unwrap();
        assert_eq!(f.hash(&v).unwrap(), f.hash(&v).unwrap());
    }

    #[test]
    fn antipodal_vectors_never_collide() {
        let mut rng = StdRng::seed_from_u64(23);
        let family = CrossPolytopeFamily::new(12).unwrap();
        for _ in 0..30 {
            let f = family.sample(&mut rng).unwrap();
            let v = random_unit_vector(&mut rng, 12).unwrap();
            assert_ne!(f.hash(&v).unwrap(), f.hash(&v.negated()).unwrap());
        }
    }

    #[test]
    fn closer_pairs_collide_more_often() {
        let mut rng = StdRng::seed_from_u64(24);
        let dim = 16;
        let family = CrossPolytopeFamily::new(dim).unwrap();
        let trials = 1200;
        let mut rates = Vec::new();
        for &cos in &[0.1, 0.6, 0.95] {
            let (a, b) = correlated_unit_pair(&mut rng, dim, cos).unwrap();
            let mut collisions = 0;
            for _ in 0..trials {
                let f = family.sample(&mut rng).unwrap();
                if f.hash(&a).unwrap() == f.hash(&b).unwrap() {
                    collisions += 1;
                }
            }
            rates.push(collisions as f64 / trials as f64);
        }
        assert!(
            rates[0] < rates[1] && rates[1] < rates[2],
            "collision rates not monotone in similarity: {rates:?}"
        );
    }
}

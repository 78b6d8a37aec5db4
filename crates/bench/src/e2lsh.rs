//! p-stable LSH for Euclidean distance (E2LSH, Datar–Immorlica–Indyk–Mirrokni).
//!
//! A hash function draws a Gaussian vector `a` and an offset `b ∈ [0, w)` and maps
//! `v ↦ ⌊(aᵀv + b)/w⌋`. For two points at Euclidean distance `r` the collision
//! probability has the closed form
//!
//! ```text
//! p(r) = 1 − 2Φ(−w/r) − (2r/(√(2π) w)) (1 − exp(−w²/(2r²)))
//! ```
//!
//! which is what L2-ALSH(SL) \[45\] plugs its asymmetric transformations into. The
//! closed form is [`ips_lsh::rho::e2lsh_collision_probability`], beside the ρ exponent
//! it feeds. The family is symmetric; the ALSH constructions wrap it with different
//! data/query preprocessing.

use ips_linalg::random::{gaussian_vector, standard_gaussian};
use ips_linalg::DenseVector;
use ips_lsh::traits::{HashFunction, LshFamily};
use ips_lsh::{LshError, Result};
use rand::Rng;

/// Family of 1-dimensional p-stable (Gaussian) bucket hashes on `R^dim` with bucket
/// width `w`.
#[derive(Debug, Clone)]
pub struct E2LshFamily {
    dim: usize,
    width: f64,
}

impl E2LshFamily {
    /// Creates a family with the given bucket width.
    pub fn new(dim: usize, width: f64) -> Result<Self> {
        if dim == 0 {
            return Err(LshError::InvalidParameter {
                name: "dim",
                reason: "dimension must be positive".into(),
            });
        }
        if !(width > 0.0) {
            return Err(LshError::InvalidParameter {
                name: "width",
                reason: format!("bucket width must be positive, got {width}"),
            });
        }
        Ok(Self { dim, width })
    }

    /// Bucket width `w`.
    pub fn width(&self) -> f64 {
        self.width
    }
}

/// A sampled E2LSH hash function.
#[derive(Debug, Clone)]
pub struct E2LshFunction {
    direction: DenseVector,
    offset: f64,
    width: f64,
}

impl HashFunction for E2LshFunction {
    fn hash(&self, v: &DenseVector) -> Result<u64> {
        if v.dim() != self.direction.dim() {
            return Err(LshError::DimensionMismatch {
                expected: self.direction.dim(),
                actual: v.dim(),
            });
        }
        let projected = (self.direction.dot(v)? + self.offset) / self.width;
        // Map the (possibly negative) bucket index into u64 injectively.
        let bucket = projected.floor() as i64;
        Ok(bucket as u64)
    }
}

impl LshFamily for E2LshFamily {
    type Function = E2LshFunction;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Self::Function> {
        // Direction entries are standard Gaussian (2-stable).
        let mut direction = gaussian_vector(rng, self.dim);
        // Guard against the (measure-zero) all-zero draw.
        if direction.norm() == 0.0 {
            direction = DenseVector::new((0..self.dim).map(|_| standard_gaussian(rng)).collect());
        }
        let offset = rng.gen_range(0.0..self.width);
        Ok(E2LshFunction {
            direction,
            offset,
            width: self.width,
        })
    }

    fn dim(&self) -> Option<usize> {
        Some(self.dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_linalg::random::random_unit_vector;
    use ips_lsh::rho::e2lsh_collision_probability;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn parameter_validation() {
        assert!(E2LshFamily::new(0, 1.0).is_err());
        assert!(E2LshFamily::new(4, 0.0).is_err());
        assert!(E2LshFamily::new(4, -1.0).is_err());
        let f = E2LshFamily::new(4, 2.0).unwrap();
        assert_eq!(f.width(), 2.0);
        assert_eq!(f.dim(), Some(4));
    }

    #[test]
    fn collision_probability_monotone_in_distance() {
        let w = 4.0;
        let p_close = e2lsh_collision_probability(0.5, w);
        let p_mid = e2lsh_collision_probability(2.0, w);
        let p_far = e2lsh_collision_probability(8.0, w);
        assert!(p_close > p_mid && p_mid > p_far);
        assert_eq!(e2lsh_collision_probability(0.0, w), 1.0);
        assert!(p_far > 0.0 && p_close < 1.0);
    }

    #[test]
    fn deterministic_hashing() {
        let mut rng = StdRng::seed_from_u64(31);
        let family = E2LshFamily::new(8, 2.0).unwrap();
        let f = family.sample(&mut rng).unwrap();
        let v = random_unit_vector(&mut rng, 8).unwrap();
        assert_eq!(f.hash(&v).unwrap(), f.hash(&v).unwrap());
        assert!(f.hash(&DenseVector::zeros(3)).is_err());
    }

    #[test]
    fn empirical_collision_matches_formula() {
        let mut rng = StdRng::seed_from_u64(32);
        let dim = 16;
        let w = 3.0;
        let family = E2LshFamily::new(dim, w).unwrap();
        for &dist in &[0.5, 2.0, 5.0] {
            // Build two points at the prescribed distance.
            let a = random_unit_vector(&mut rng, dim).unwrap();
            let dir = random_unit_vector(&mut rng, dim).unwrap();
            let b = a.add(&dir.scaled(dist)).unwrap();
            let trials = 6000;
            let mut collisions = 0;
            for _ in 0..trials {
                let f = family.sample(&mut rng).unwrap();
                if f.hash(&a).unwrap() == f.hash(&b).unwrap() {
                    collisions += 1;
                }
            }
            let empirical = collisions as f64 / trials as f64;
            let theory = e2lsh_collision_probability(dist, w);
            assert!(
                (empirical - theory).abs() < 0.04,
                "dist={dist}: empirical {empirical} vs theory {theory}"
            );
        }
    }
}

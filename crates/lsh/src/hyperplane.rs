//! Hyperplane (SimHash) LSH — Charikar's rounding-based family.
//!
//! A single hash function draws a Gaussian vector `g` and maps `v ↦ sign(gᵀv)`. For unit
//! vectors `x, y` the collision probability is `1 − θ(x, y)/π` where `θ` is the angle, a
//! monotone function of the inner product — which is why the paper (and [39, 51]) use it
//! as the sphere substrate after the asymmetric embedding. The multi-bit variant
//! concatenates `bits` independent signs into one bucket, i.e. performs the
//! AND-construction internally.
//!
//! [`HyperplaneFunction::hash`] is one dot product per plane. An index over this
//! family (lifted by [`crate::SymmetricAsAsymmetric`]) evaluates all its functions at
//! once through a [`crate::bank::PlaneBank`] instead, with bit-identical buckets;
//! [`LshFamily::hyperplanes`] / [`LshFamily::from_hyperplanes`] are how the family
//! opts in.

use crate::error::{LshError, Result};
use crate::traits::{HashFunction, LshFamily};
use ips_linalg::random::gaussian_vector;
use ips_linalg::DenseVector;
use rand::Rng;

/// Family of `bits`-bit SimHash functions on `R^dim`.
#[derive(Debug, Clone)]
pub struct HyperplaneFamily {
    dim: usize,
    bits: usize,
}

impl HyperplaneFamily {
    /// Creates a family of single-bit hyperplane hashes.
    pub fn single_bit(dim: usize) -> Result<Self> {
        Self::new(dim, 1)
    }

    /// Creates a family whose functions concatenate `bits` independent hyperplane signs.
    ///
    /// Returns an error when `dim == 0`, `bits == 0` or `bits > 64`.
    pub fn new(dim: usize, bits: usize) -> Result<Self> {
        if dim == 0 {
            return Err(LshError::InvalidParameter {
                name: "dim",
                reason: "dimension must be positive".into(),
            });
        }
        if bits == 0 || bits > 64 {
            return Err(LshError::InvalidParameter {
                name: "bits",
                reason: format!("bits must be in 1..=64, got {bits}"),
            });
        }
        Ok(Self { dim, bits })
    }

    /// Number of sign bits per hash value.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Theoretical collision probability of a *single-bit* hyperplane hash for two
    /// vectors with the given cosine similarity: `1 − arccos(cos)/π`.
    pub fn collision_probability(cosine: f64) -> f64 {
        let c = cosine.clamp(-1.0, 1.0);
        1.0 - c.acos() / std::f64::consts::PI
    }

    /// Theoretical collision probability of the `bits`-bit hash (independent signs).
    pub fn collision_probability_bits(cosine: f64, bits: usize) -> f64 {
        Self::collision_probability(cosine).powi(bits as i32)
    }
}

/// A sampled multi-bit hyperplane hash function.
#[derive(Debug, Clone)]
pub struct HyperplaneFunction {
    planes: Vec<DenseVector>,
}

impl HyperplaneFunction {
    /// The individual hyperplane normals.
    pub fn planes(&self) -> &[DenseVector] {
        &self.planes
    }

    /// Reassembles a function from its hyperplane normals — the inverse of
    /// [`HyperplaneFunction::planes`], used by snapshot persistence to restore a
    /// sampled function without re-drawing it.
    ///
    /// Returns an error when the list is empty, longer than 64 (the bucket is a
    /// `u64` bit pattern), or the planes disagree on dimension.
    pub fn from_planes(planes: Vec<DenseVector>) -> Result<Self> {
        if planes.is_empty() || planes.len() > 64 {
            return Err(LshError::InvalidParameter {
                name: "planes",
                reason: format!("need 1..=64 hyperplanes, got {}", planes.len()),
            });
        }
        let dim = planes[0].dim();
        for p in &planes {
            if p.dim() != dim {
                return Err(LshError::DimensionMismatch {
                    expected: dim,
                    actual: p.dim(),
                });
            }
        }
        Ok(Self { planes })
    }
}

impl HashFunction for HyperplaneFunction {
    fn hash(&self, v: &DenseVector) -> Result<u64> {
        let mut bucket = 0u64;
        for (i, plane) in self.planes.iter().enumerate() {
            if plane.dim() != v.dim() {
                return Err(LshError::DimensionMismatch {
                    expected: plane.dim(),
                    actual: v.dim(),
                });
            }
            let sign = plane.dot(v)? >= 0.0;
            if sign {
                bucket |= 1u64 << i;
            }
        }
        Ok(bucket)
    }
}

impl LshFamily for HyperplaneFamily {
    type Function = HyperplaneFunction;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Self::Function> {
        let planes = (0..self.bits)
            .map(|_| gaussian_vector(rng, self.dim))
            .collect();
        Ok(HyperplaneFunction { planes })
    }

    fn dim(&self) -> Option<usize> {
        Some(self.dim)
    }

    fn hyperplanes(function: &Self::Function) -> Option<&HyperplaneFunction> {
        Some(function)
    }

    fn from_hyperplanes(planes: HyperplaneFunction) -> Option<Self::Function> {
        Some(planes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_linalg::random::correlated_unit_pair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn parameter_validation() {
        assert!(HyperplaneFamily::new(0, 1).is_err());
        assert!(HyperplaneFamily::new(8, 0).is_err());
        assert!(HyperplaneFamily::new(8, 65).is_err());
        let f = HyperplaneFamily::new(8, 16).unwrap();
        assert_eq!(f.bits(), 16);
        assert_eq!(f.dim(), Some(8));
    }

    #[test]
    fn hash_is_deterministic_and_bounded() {
        let mut rng = StdRng::seed_from_u64(11);
        let family = HyperplaneFamily::new(10, 12).unwrap();
        let f = family.sample(&mut rng).unwrap();
        let v = ips_linalg::random::random_unit_vector(&mut rng, 10).unwrap();
        let h1 = f.hash(&v).unwrap();
        let h2 = f.hash(&v).unwrap();
        assert_eq!(h1, h2);
        assert!(h1 < (1u64 << 12));
        assert_eq!(f.planes().len(), 12);
        assert!(f.hash(&DenseVector::zeros(3)).is_err());
    }

    #[test]
    fn identical_vectors_always_collide() {
        let mut rng = StdRng::seed_from_u64(12);
        let family = HyperplaneFamily::new(6, 8).unwrap();
        for _ in 0..20 {
            let f = family.sample(&mut rng).unwrap();
            let v = ips_linalg::random::random_unit_vector(&mut rng, 6).unwrap();
            assert_eq!(f.hash(&v).unwrap(), f.hash(&v).unwrap());
        }
    }

    #[test]
    fn opposite_vectors_never_collide_single_bit() {
        let mut rng = StdRng::seed_from_u64(13);
        let family = HyperplaneFamily::single_bit(6).unwrap();
        for _ in 0..50 {
            let f = family.sample(&mut rng).unwrap();
            let v = ips_linalg::random::random_unit_vector(&mut rng, 6).unwrap();
            let w = v.negated();
            // sign(g·v) and sign(g·(−v)) differ unless g·v == 0 (probability zero).
            assert_ne!(f.hash(&v).unwrap(), f.hash(&w).unwrap());
        }
    }

    #[test]
    fn collision_probability_formula_extremes() {
        assert!((HyperplaneFamily::collision_probability(1.0) - 1.0).abs() < 1e-12);
        assert!(HyperplaneFamily::collision_probability(-1.0).abs() < 1e-12);
        assert!((HyperplaneFamily::collision_probability(0.0) - 0.5).abs() < 1e-12);
        let p = HyperplaneFamily::collision_probability_bits(0.0, 3);
        assert!((p - 0.125).abs() < 1e-12);
    }

    #[test]
    fn empirical_collision_matches_theory() {
        let mut rng = StdRng::seed_from_u64(14);
        let dim = 24;
        let family = HyperplaneFamily::single_bit(dim).unwrap();
        for &target in &[0.2, 0.6, 0.9] {
            let (a, b) = correlated_unit_pair(&mut rng, dim, target).unwrap();
            let trials = 4000;
            let mut collisions = 0usize;
            for _ in 0..trials {
                let f = family.sample(&mut rng).unwrap();
                if f.hash(&a).unwrap() == f.hash(&b).unwrap() {
                    collisions += 1;
                }
            }
            let empirical = collisions as f64 / trials as f64;
            let theory = HyperplaneFamily::collision_probability(target);
            assert!(
                (empirical - theory).abs() < 0.04,
                "cos={target}: empirical {empirical} vs theory {theory}"
            );
        }
    }
}

//! MinHash — locality-sensitive hashing for Jaccard similarity of sets.
//!
//! Binary vectors (`{0,1}^d`) are interpreted as sets: coordinates with value `> 0.5`
//! are members. A hash function applies an implicit random permutation of the universe
//! (realised by a seeded 64-bit mixer) and returns the minimum permuted rank over the
//! member elements; two sets collide with probability exactly their Jaccard similarity.
//!
//! MinHash is the substrate of asymmetric minwise hashing (MH-ALSH, [`crate::mhalsh`]),
//! the binary-data ALSH the paper compares against in Figure 2.

use ips_linalg::{BinaryVector, DenseVector};
use ips_lsh::traits::{HashFunction, LshFamily};
use ips_lsh::{LshError, Result};
use rand::Rng;

/// SplitMix64 finaliser; a cheap, well-distributed 64-bit mixer used to realise the
/// per-function random permutations.
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Family of MinHash functions over a universe of `dim` elements.
#[derive(Debug, Clone)]
pub struct MinHashFamily {
    dim: usize,
}

impl MinHashFamily {
    /// Creates a MinHash family for sets drawn from a universe of size `dim`.
    pub fn new(dim: usize) -> Result<Self> {
        if dim == 0 {
            return Err(LshError::InvalidParameter {
                name: "dim",
                reason: "universe size must be positive".into(),
            });
        }
        Ok(Self { dim })
    }

    /// Theoretical collision probability of two sets: their Jaccard similarity.
    pub fn collision_probability(jaccard: f64) -> f64 {
        jaccard.clamp(0.0, 1.0)
    }
}

/// A sampled MinHash function (one random permutation of the universe).
#[derive(Debug, Clone)]
pub struct MinHashFunction {
    seed: u64,
    dim: usize,
}

impl MinHashFunction {
    /// Hashes a bit-packed binary vector directly (avoids the dense conversion).
    pub fn hash_binary(&self, v: &BinaryVector) -> Result<u64> {
        if v.dim() != self.dim {
            return Err(LshError::DimensionMismatch {
                expected: self.dim,
                actual: v.dim(),
            });
        }
        Ok(self.min_over(v.support().into_iter()))
    }

    fn min_over<I: Iterator<Item = usize>>(&self, support: I) -> u64 {
        let mut best = u64::MAX;
        for i in support {
            let rank = mix64(self.seed ^ (i as u64).wrapping_mul(0xA24BAED4963EE407));
            if rank < best {
                best = rank;
            }
        }
        best
    }
}

impl HashFunction for MinHashFunction {
    fn hash(&self, v: &DenseVector) -> Result<u64> {
        if v.dim() != self.dim {
            return Err(LshError::DimensionMismatch {
                expected: self.dim,
                actual: v.dim(),
            });
        }
        Ok(self.min_over(
            v.iter()
                .enumerate()
                .filter(|(_, &x)| x > 0.5)
                .map(|(i, _)| i),
        ))
    }
}

impl LshFamily for MinHashFamily {
    type Function = MinHashFunction;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Self::Function> {
        Ok(MinHashFunction {
            seed: rng.gen(),
            dim: self.dim,
        })
    }

    fn dim(&self) -> Option<usize> {
        Some(self.dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn parameter_validation() {
        assert!(MinHashFamily::new(0).is_err());
        let f = MinHashFamily::new(100).unwrap();
        assert_eq!(f.dim(), Some(100));
        assert_eq!(MinHashFamily::collision_probability(0.4), 0.4);
        assert_eq!(MinHashFamily::collision_probability(1.7), 1.0);
    }

    #[test]
    fn dense_and_binary_hash_agree() {
        let mut rng = StdRng::seed_from_u64(41);
        let family = MinHashFamily::new(64).unwrap();
        let f = family.sample(&mut rng).unwrap();
        let b = ips_linalg::random::random_binary_vector(&mut rng, 64, 0.3).unwrap();
        let d = b.to_dense();
        assert_eq!(f.hash(&d).unwrap(), f.hash_binary(&b).unwrap());
        assert!(f.hash(&DenseVector::zeros(5)).is_err());
        assert!(f.hash_binary(&BinaryVector::zeros(5)).is_err());
    }

    #[test]
    fn empty_sets_hash_to_sentinel() {
        let mut rng = StdRng::seed_from_u64(42);
        let family = MinHashFamily::new(32).unwrap();
        let f = family.sample(&mut rng).unwrap();
        assert_eq!(f.hash_binary(&BinaryVector::zeros(32)).unwrap(), u64::MAX);
    }

    #[test]
    fn identical_sets_always_collide() {
        let mut rng = StdRng::seed_from_u64(43);
        let family = MinHashFamily::new(128).unwrap();
        let s = ips_linalg::random::random_binary_vector(&mut rng, 128, 0.2).unwrap();
        for _ in 0..20 {
            let f = family.sample(&mut rng).unwrap();
            assert_eq!(f.hash_binary(&s).unwrap(), f.hash_binary(&s).unwrap());
        }
    }

    #[test]
    fn collision_rate_estimates_jaccard() {
        let mut rng = StdRng::seed_from_u64(44);
        let dim = 200;
        // Two sets with a known overlap: |A|=|B|=60, |A∩B|=30 -> Jaccard = 30/90 = 1/3.
        let a = BinaryVector::from_support(dim, &(0..60).collect::<Vec<_>>()).unwrap();
        let b = BinaryVector::from_support(dim, &(30..90).collect::<Vec<_>>()).unwrap();
        let jaccard = a.jaccard(&b).unwrap();
        let family = MinHashFamily::new(dim).unwrap();
        let trials = 6000;
        let mut collisions = 0;
        for _ in 0..trials {
            let f = family.sample(&mut rng).unwrap();
            if f.hash_binary(&a).unwrap() == f.hash_binary(&b).unwrap() {
                collisions += 1;
            }
        }
        let empirical = collisions as f64 / trials as f64;
        assert!(
            (empirical - jaccard).abs() < 0.03,
            "empirical {empirical} vs jaccard {jaccard}"
        );
    }

    #[test]
    fn mixer_is_injective_on_small_range() {
        let outputs: std::collections::HashSet<u64> = (0..10_000u64).map(mix64).collect();
        assert_eq!(outputs.len(), 10_000);
    }
}

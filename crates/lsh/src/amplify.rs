//! AND/OR amplification of LSH families.
//!
//! A single `(s, cs, P1, P2)`-sensitive family rarely has a useful gap on its own; the
//! classical remedy is
//!
//! * the **AND-construction**: concatenate `k` independent functions — collision
//!   probabilities become `P1^k` and `P2^k`;
//! * the **OR-construction**: repeat over `L` independent tables — a pair is a candidate
//!   when it collides in at least one table, giving probability `1 − (1 − p^k)^L`.
//!
//! The AND-construction lives here as a family combinator ([`AndConstruction`]); the
//! OR-construction is performed by the multi-table index in [`crate::table`]. Their
//! probability is [`crate::cost::probed_table_hit_prob`] at `probes = 0` (`L = 1` for
//! the AND-construction alone). The ρ value `log P1 / log P2` is invariant under the
//! AND-construction, which is why the paper states its upper and lower bounds directly
//! in terms of ρ.

use crate::error::{LshError, Result};
use crate::traits::{AsymmetricHashFunction, AsymmetricLshFamily};
use ips_linalg::DenseVector;
use rand::Rng;

/// Mixes a new 64-bit hash value into an accumulated bucket key (boost-style
/// `hash_combine` with 64-bit constants).
#[inline]
pub fn combine_hashes(acc: u64, next: u64) -> u64 {
    acc ^ (next
        .wrapping_add(0x9E3779B97F4A7C15)
        .wrapping_add(acc << 6)
        .wrapping_add(acc >> 2))
}

/// The AND-construction: a composite family whose functions are `k`-tuples of functions
/// from the base family, hashed together into one bucket key.
#[derive(Debug, Clone)]
pub struct AndConstruction<F> {
    base: F,
    k: usize,
}

impl<F> AndConstruction<F> {
    /// Wraps `base`, concatenating `k ≥ 1` functions per sampled composite function.
    pub fn new(base: F, k: usize) -> Result<Self> {
        if k == 0 {
            return Err(LshError::InvalidParameter {
                name: "k",
                reason: "AND-construction needs at least one function".into(),
            });
        }
        Ok(Self { base, k })
    }

    /// Number of concatenated functions.
    pub fn k(&self) -> usize {
        self.k
    }
}

/// A sampled composite (ANDed) function.
#[derive(Debug, Clone)]
pub struct AndFunction<H> {
    functions: Vec<H>,
}

impl<H> AndFunction<H> {
    /// The concatenated component functions, in hash order.
    pub fn functions(&self) -> &[H] {
        &self.functions
    }
}

impl<H: AsymmetricHashFunction> AsymmetricHashFunction for AndFunction<H> {
    fn hash_data(&self, p: &DenseVector) -> Result<u64> {
        let mut acc = 0u64;
        for f in &self.functions {
            acc = combine_hashes(acc, f.hash_data(p)?);
        }
        Ok(acc)
    }

    fn hash_query(&self, q: &DenseVector) -> Result<u64> {
        let mut acc = 0u64;
        for f in &self.functions {
            acc = combine_hashes(acc, f.hash_query(q)?);
        }
        Ok(acc)
    }
}

impl<F: AsymmetricLshFamily> AsymmetricLshFamily for AndConstruction<F> {
    type Function = AndFunction<F::Function>;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Self::Function> {
        let functions = (0..self.k)
            .map(|_| self.base.sample(rng))
            .collect::<Result<Vec<_>>>()?;
        Ok(AndFunction { functions })
    }

    fn dim(&self) -> Option<usize> {
        self.base.dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{probe_hit_prob, probed_table_hit_prob};
    use crate::hyperplane::HyperplaneFamily;
    use crate::traits::SymmetricAsAsymmetric;
    use ips_linalg::random::correlated_unit_pair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn k_must_be_positive() {
        let base = SymmetricAsAsymmetric(HyperplaneFamily::single_bit(4).unwrap());
        assert!(AndConstruction::new(base, 0).is_err());
    }

    #[test]
    fn probability_formulas() {
        // The AND and OR-of-AND probabilities live in `crate::cost`.
        assert!((probe_hit_prob(0.5, 3, 0) - 0.125).abs() < 1e-12);
        assert_eq!(probe_hit_prob(1.2, 2, 0), 1.0);
        assert!((probed_table_hit_prob(0.5, 1, 2, 0) - 0.75).abs() < 1e-12);
        assert_eq!(probed_table_hit_prob(0.0, 3, 10, 0), 0.0);
    }

    #[test]
    fn combine_is_order_sensitive() {
        let a = combine_hashes(combine_hashes(0, 1), 2);
        let b = combine_hashes(combine_hashes(0, 2), 1);
        assert_ne!(a, b);
    }

    #[test]
    fn and_construction_reduces_collisions() {
        let mut rng = StdRng::seed_from_u64(81);
        let dim = 16;
        let base = SymmetricAsAsymmetric(HyperplaneFamily::single_bit(dim).unwrap());
        let anded = AndConstruction::new(base, 4).unwrap();
        assert_eq!(anded.k(), 4);
        assert_eq!(anded.dim(), Some(dim));
        let (a, b) = correlated_unit_pair(&mut rng, dim, 0.5).unwrap();
        let trials = 3000;
        let mut collisions = 0;
        for _ in 0..trials {
            let f = anded.sample(&mut rng).unwrap();
            if f.hash_data(&a).unwrap() == f.hash_query(&b).unwrap() {
                collisions += 1;
            }
        }
        let empirical = collisions as f64 / trials as f64;
        let single = HyperplaneFamily::collision_probability(0.5);
        let expected = probe_hit_prob(single, 4, 0);
        assert!(
            (empirical - expected).abs() < 0.04,
            "empirical {empirical} vs expected {expected}"
        );
    }

    #[test]
    fn identical_vectors_always_collide_under_and() {
        let mut rng = StdRng::seed_from_u64(82);
        let dim = 8;
        let base = SymmetricAsAsymmetric(HyperplaneFamily::single_bit(dim).unwrap());
        let anded = AndConstruction::new(base, 6).unwrap();
        let v = ips_linalg::random::random_unit_vector(&mut rng, dim).unwrap();
        for _ in 0..20 {
            let f = anded.sample(&mut rng).unwrap();
            assert!(f.collides(&v, &v).unwrap());
        }
    }
}

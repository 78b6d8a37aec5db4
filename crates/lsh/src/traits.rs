//! The LSH family abstractions.
//!
//! The paper's Definition 2 is deliberately *asymmetric*: a family `H` consists of
//! pairs `(h_p, h_q)` of functions — one applied to data vectors, one applied to query
//! vectors — and collision means `h_p(p) = h_q(q)`. Symmetric (classical) LSH is the
//! special case `h_p = h_q`. The traits below mirror that structure:
//!
//! * [`LshFamily`] / [`HashFunction`] — symmetric families;
//! * [`AsymmetricLshFamily`] / [`AsymmetricHashFunction`] — asymmetric families;
//! * [`SymmetricAsAsymmetric`] — an adapter lifting any symmetric family to the
//!   asymmetric interface, so that indexes and joins can be written once against the
//!   asymmetric API;
//! * [`BankedFamily`] — the hyperplane families an index hashes through a
//!   [`PlaneBank`].
//!
//! A family is a *distribution* over functions; [`LshFamily::sample`] draws one
//! function. Hash values are `u64` buckets; amplification concatenates several values
//! (see the [`crate::amplify`] module).

use crate::bank::Embedding;
#[cfg(doc)]
use crate::bank::PlaneBank;
use crate::error::Result;
use crate::hyperplane::HyperplaneFunction;
use ips_linalg::DenseVector;
use rand::Rng;

/// A single hash function drawn from a symmetric LSH family.
pub trait HashFunction: Send + Sync {
    /// Hashes a vector to a bucket identifier.
    fn hash(&self, v: &DenseVector) -> Result<u64>;
}

/// A symmetric LSH family: a distribution over [`HashFunction`]s.
pub trait LshFamily {
    /// The concrete function type produced by sampling.
    type Function: HashFunction;

    /// Samples one hash function from the family.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Self::Function>;

    /// The ambient dimension the family expects, if it is dimension-specific.
    fn dim(&self) -> Option<usize>;
}

/// A single *asymmetric* hash function: a pair `(h_p, h_q)` in the sense of
/// Definition 2.
pub trait AsymmetricHashFunction: Send + Sync {
    /// Hashes a data vector with `h_p`.
    fn hash_data(&self, p: &DenseVector) -> Result<u64>;

    /// Hashes a query vector with `h_q`.
    fn hash_query(&self, q: &DenseVector) -> Result<u64>;

    /// Returns `true` when the pair collides, i.e. `h_p(p) = h_q(q)`.
    fn collides(&self, p: &DenseVector, q: &DenseVector) -> Result<bool> {
        Ok(self.hash_data(p)? == self.hash_query(q)?)
    }
}

/// An asymmetric LSH family: a distribution over [`AsymmetricHashFunction`]s.
pub trait AsymmetricLshFamily {
    /// The concrete function type produced by sampling.
    type Function: AsymmetricHashFunction;

    /// Samples one hash-function pair from the family.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Self::Function>;

    /// The ambient dimension the family expects, if it is dimension-specific.
    fn dim(&self) -> Option<usize>;
}

/// An asymmetric family whose functions are hyperplane signs of an embedded vector —
/// the families a [`crate::table::LshIndex`] is built over. The index holds its `L`
/// composites as one [`PlaneBank`]: one embedding and one pass over the coefficients
/// per vector. The per-function `hash_*` walk defines the family; the index never
/// calls it.
pub trait BankedFamily: AsymmetricLshFamily + Clone {
    /// A function's embedding and hyperplanes: what [`PlaneBank::from_functions`]
    /// gathers.
    fn bank_parts(function: &Self::Function) -> (Embedding, &HyperplaneFunction);

    /// The inverse of [`BankedFamily::bank_parts`], for [`PlaneBank::to_functions`]:
    /// the function of an embedding and hyperplanes that a bank of this family holds.
    fn from_bank_parts(embedding: &Embedding, planes: HyperplaneFunction) -> Self::Function;
}

/// Adapter that exposes a symmetric family through the asymmetric interface by using
/// the same function on both sides (the `h_p = h_q` special case of Definition 2).
#[derive(Debug, Clone)]
pub struct SymmetricAsAsymmetric<F>(pub F);

/// The function type produced by [`SymmetricAsAsymmetric`].
#[derive(Debug, Clone)]
pub struct SymmetricFunctionPair<H>(pub H);

impl<H: HashFunction> AsymmetricHashFunction for SymmetricFunctionPair<H> {
    fn hash_data(&self, p: &DenseVector) -> Result<u64> {
        self.0.hash(p)
    }

    fn hash_query(&self, q: &DenseVector) -> Result<u64> {
        self.0.hash(q)
    }
}

impl<F: LshFamily> AsymmetricLshFamily for SymmetricAsAsymmetric<F> {
    type Function = SymmetricFunctionPair<F::Function>;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Self::Function> {
        Ok(SymmetricFunctionPair(self.0.sample(rng)?))
    }

    fn dim(&self) -> Option<usize> {
        self.0.dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A toy family hashing by the sign of a fixed coordinate, for testing the adapter.
    struct CoordinateSignFamily {
        dim: usize,
    }

    struct CoordinateSignFunction {
        coord: usize,
    }

    impl HashFunction for CoordinateSignFunction {
        fn hash(&self, v: &DenseVector) -> Result<u64> {
            Ok(u64::from(v[self.coord] >= 0.0))
        }
    }

    impl LshFamily for CoordinateSignFamily {
        type Function = CoordinateSignFunction;

        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Self::Function> {
            Ok(CoordinateSignFunction {
                coord: rng.gen_range(0..self.dim),
            })
        }

        fn dim(&self) -> Option<usize> {
            Some(self.dim)
        }
    }

    #[test]
    fn symmetric_adapter_uses_same_function_both_sides() {
        let family = SymmetricAsAsymmetric(CoordinateSignFamily { dim: 4 });
        assert_eq!(family.dim(), Some(4));
        let mut rng = StdRng::seed_from_u64(3);
        let f = family.sample(&mut rng).unwrap();
        let v = DenseVector::from(&[1.0, -1.0, 1.0, -1.0][..]);
        assert_eq!(f.hash_data(&v).unwrap(), f.hash_query(&v).unwrap());
        assert!(f.collides(&v, &v).unwrap());
    }

    #[test]
    fn default_collides_matches_hashes() {
        let family = SymmetricAsAsymmetric(CoordinateSignFamily { dim: 2 });
        let mut rng = StdRng::seed_from_u64(5);
        let f = family.sample(&mut rng).unwrap();
        let a = DenseVector::from(&[1.0, 1.0][..]);
        let b = DenseVector::from(&[-1.0, -1.0][..]);
        let collide = f.collides(&a, &b).unwrap();
        assert_eq!(
            collide,
            f.hash_data(&a).unwrap() == f.hash_query(&b).unwrap()
        );
    }
}

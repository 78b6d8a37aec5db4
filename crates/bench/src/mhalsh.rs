//! Asymmetric minwise hashing (MH-ALSH) for binary inner products.
//!
//! Shrivastava and Li (WWW 2015, reference \[46\] of the paper) observed that for binary
//! data the inner product `a = xᵀq` (the intersection size) can be made
//! LSH-able by an *asymmetric* padding: fix `M ≥ max_x |x|`, append `M − |x|` "dummy"
//! ones to every **data** vector inside a fresh extension region of the universe, and
//! append nothing to queries. The Jaccard similarity of the transformed pair is then
//!
//! ```text
//! J(P(x), Q(q)) = a / (M + |q| − a),
//! ```
//!
//! a monotone function of `a` for fixed `|q|`, so plain MinHash on the transformed
//! vectors is an `(s, cs, P1, P2)`-asymmetric LSH for *unsigned* binary inner product.
//! This is the "MH-ALSH" curve of Figure 2, and (per the paper's Section 4.1 discussion)
//! the state of the art for the `{0,1}` domain that the DATA-DEP construction sometimes
//! beats.

use crate::minhash::{MinHashFamily, MinHashFunction};
use ips_linalg::{BinaryVector, DenseVector};
use ips_lsh::traits::{AsymmetricHashFunction, AsymmetricLshFamily, LshFamily};
use ips_lsh::{LshError, Result};
use rand::Rng;

/// The MH-ALSH family: asymmetric padding followed by MinHash.
#[derive(Debug, Clone)]
pub struct MhAlshFamily {
    dim: usize,
    capacity: usize,
    inner: MinHashFamily,
}

impl MhAlshFamily {
    /// Creates a family for binary vectors of dimension `dim` whose data vectors have at
    /// most `capacity` ones (the constant `M` of the construction).
    pub fn new(dim: usize, capacity: usize) -> Result<Self> {
        if dim == 0 {
            return Err(LshError::InvalidParameter {
                name: "dim",
                reason: "dimension must be positive".into(),
            });
        }
        if capacity == 0 {
            return Err(LshError::InvalidParameter {
                name: "capacity",
                reason: "capacity M must be positive".into(),
            });
        }
        Ok(Self {
            dim,
            capacity,
            // The transformed universe has `dim` original elements plus `capacity`
            // padding slots.
            inner: MinHashFamily::new(dim + capacity)?,
        })
    }

    /// The padding capacity `M`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Applies the data-side transform `P(x)`: the original set plus `M − |x|` dummy
    /// elements in the extension region.
    ///
    /// Returns an error when `|x| > M`.
    pub fn transform_data(&self, x: &BinaryVector) -> Result<BinaryVector> {
        if x.dim() != self.dim {
            return Err(LshError::DimensionMismatch {
                expected: self.dim,
                actual: x.dim(),
            });
        }
        let ones = x.count_ones();
        if ones > self.capacity {
            return Err(LshError::DomainViolation {
                reason: format!(
                    "data vector has {ones} ones, exceeding the declared capacity M = {}",
                    self.capacity
                ),
            });
        }
        let mut out = BinaryVector::zeros(self.dim + self.capacity);
        for i in x.support() {
            out.set(i, true);
        }
        for j in 0..(self.capacity - ones) {
            out.set(self.dim + j, true);
        }
        Ok(out)
    }

    /// Applies the query-side transform `Q(q)`: the original set with empty padding.
    pub fn transform_query(&self, q: &BinaryVector) -> Result<BinaryVector> {
        if q.dim() != self.dim {
            return Err(LshError::DimensionMismatch {
                expected: self.dim,
                actual: q.dim(),
            });
        }
        let mut out = BinaryVector::zeros(self.dim + self.capacity);
        for i in q.support() {
            out.set(i, true);
        }
        Ok(out)
    }

    /// Theoretical collision probability for a pair with inner product `a`, query size
    /// `fq` and capacity `m`: `a / (m + fq − a)`.
    pub fn collision_probability(a: usize, fq: usize, m: usize) -> f64 {
        if m + fq == a {
            return 1.0;
        }
        a as f64 / (m as f64 + fq as f64 - a as f64)
    }
}

/// A sampled MH-ALSH function pair.
#[derive(Debug, Clone)]
pub struct MhAlshFunction {
    family: MhAlshFamily,
    inner: MinHashFunction,
}

impl MhAlshFunction {
    fn densify(v: &DenseVector) -> BinaryVector {
        let mut b = BinaryVector::zeros(v.dim());
        for (i, &x) in v.iter().enumerate() {
            if x > 0.5 {
                b.set(i, true);
            }
        }
        b
    }

    /// Hashes a bit-packed data vector.
    pub fn hash_data_binary(&self, p: &BinaryVector) -> Result<u64> {
        let transformed = self.family.transform_data(p)?;
        self.inner.hash_binary(&transformed)
    }

    /// Hashes a bit-packed query vector.
    pub fn hash_query_binary(&self, q: &BinaryVector) -> Result<u64> {
        let transformed = self.family.transform_query(q)?;
        self.inner.hash_binary(&transformed)
    }
}

impl AsymmetricHashFunction for MhAlshFunction {
    fn hash_data(&self, p: &DenseVector) -> Result<u64> {
        self.hash_data_binary(&Self::densify(p))
    }

    fn hash_query(&self, q: &DenseVector) -> Result<u64> {
        self.hash_query_binary(&Self::densify(q))
    }
}

impl AsymmetricLshFamily for MhAlshFamily {
    type Function = MhAlshFunction;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Self::Function> {
        Ok(MhAlshFunction {
            family: self.clone(),
            inner: self.inner.sample(rng)?,
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
        assert!(MhAlshFamily::new(0, 5).is_err());
        assert!(MhAlshFamily::new(10, 0).is_err());
        let f = MhAlshFamily::new(10, 5).unwrap();
        assert_eq!(f.capacity(), 5);
        assert_eq!(AsymmetricLshFamily::dim(&f), Some(10));
    }

    #[test]
    fn data_transform_pads_to_capacity() {
        let family = MhAlshFamily::new(10, 6).unwrap();
        let x = BinaryVector::from_support(10, &[0, 3, 7]).unwrap();
        let px = family.transform_data(&x).unwrap();
        assert_eq!(px.dim(), 16);
        assert_eq!(px.count_ones(), 6);
        let heavy = BinaryVector::from_support(10, &[0, 1, 2, 3, 4, 5, 6]).unwrap();
        assert!(family.transform_data(&heavy).is_err());
        assert!(family.transform_data(&BinaryVector::zeros(3)).is_err());
    }

    #[test]
    fn query_transform_is_plain_embedding() {
        let family = MhAlshFamily::new(10, 6).unwrap();
        let q = BinaryVector::from_support(10, &[2, 9]).unwrap();
        let qq = family.transform_query(&q).unwrap();
        assert_eq!(qq.dim(), 16);
        assert_eq!(qq.count_ones(), 2);
        assert_eq!(qq.support(), vec![2, 9]);
        assert!(family.transform_query(&BinaryVector::zeros(3)).is_err());
    }

    #[test]
    fn transformed_jaccard_matches_formula() {
        let family = MhAlshFamily::new(50, 20).unwrap();
        let x = BinaryVector::from_support(50, &(0..15).collect::<Vec<_>>()).unwrap();
        let q = BinaryVector::from_support(50, &(10..22).collect::<Vec<_>>()).unwrap();
        let a = x.dot(&q).unwrap();
        let px = family.transform_data(&x).unwrap();
        let qq = family.transform_query(&q).unwrap();
        let jaccard = px.jaccard(&qq).unwrap();
        let formula = MhAlshFamily::collision_probability(a, q.count_ones(), 20);
        assert!((jaccard - formula).abs() < 1e-12, "{jaccard} vs {formula}");
    }

    #[test]
    fn empirical_collisions_match_formula() {
        let mut rng = StdRng::seed_from_u64(51);
        let family = MhAlshFamily::new(60, 25).unwrap();
        let x = BinaryVector::from_support(60, &(0..20).collect::<Vec<_>>()).unwrap();
        let q = BinaryVector::from_support(60, &(12..30).collect::<Vec<_>>()).unwrap();
        let a = x.dot(&q).unwrap();
        let expected = MhAlshFamily::collision_probability(a, q.count_ones(), 25);
        let trials = 6000;
        let mut collisions = 0;
        for _ in 0..trials {
            let f = family.sample(&mut rng).unwrap();
            if f.hash_data_binary(&x).unwrap() == f.hash_query_binary(&q).unwrap() {
                collisions += 1;
            }
        }
        let empirical = collisions as f64 / trials as f64;
        assert!(
            (empirical - expected).abs() < 0.03,
            "empirical {empirical} vs expected {expected}"
        );
    }

    #[test]
    fn dense_interface_thresholds_membership() {
        let mut rng = StdRng::seed_from_u64(52);
        let family = MhAlshFamily::new(20, 10).unwrap();
        let f = family.sample(&mut rng).unwrap();
        let x = BinaryVector::from_support(20, &[1, 5]).unwrap();
        let dense = x.to_dense();
        assert_eq!(
            f.hash_data(&dense).unwrap(),
            f.hash_data_binary(&x).unwrap()
        );
        assert_eq!(
            f.hash_query(&dense).unwrap(),
            f.hash_query_binary(&x).unwrap()
        );
    }

    #[test]
    fn collision_probability_is_monotone_in_overlap() {
        let m = 30;
        let fq = 10;
        let mut prev = -1.0;
        for a in 0..=10 {
            let p = MhAlshFamily::collision_probability(a, fq, m);
            assert!(p > prev);
            prev = p;
        }
        assert_eq!(MhAlshFamily::collision_probability(0, fq, m), 0.0);
    }
}

//! Bit-packed `{0,1}^d` vectors.
//!
//! The `{0,1}` domain is the "set" domain of the paper: vectors represent sets, the
//! inner product is the size of the intersection, and the Orthogonal Vectors Problem
//! (OVP, Definition 3) as well as the third gap embedding of Lemma 3 live here.
//! Bit-packing into `u64` words gives a 64× speed-up for inner products (a popcount per
//! word), which matters because the exact OVP solvers and brute-force joins are the
//! quadratic baselines against which every subquadratic algorithm is compared.

use crate::error::{LinalgError, Result};
use crate::vector::DenseVector;

const WORD_BITS: usize = 64;

/// A `{0,1}^d` vector stored as packed 64-bit words.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BinaryVector {
    dim: usize,
    words: Vec<u64>,
}

impl BinaryVector {
    /// Creates the all-zeros vector of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        Self {
            dim,
            words: vec![0u64; dim.div_ceil(WORD_BITS)],
        }
    }

    /// Creates the all-ones vector of dimension `dim`.
    pub fn ones(dim: usize) -> Self {
        let mut v = Self::zeros(dim);
        for i in 0..dim {
            v.set(i, true);
        }
        v
    }

    /// Builds a vector from a slice of booleans.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut v = Self::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            v.set(i, b);
        }
        v
    }

    /// Builds a vector from 0/1 integer values.
    ///
    /// Any nonzero value is treated as 1.
    pub fn from_ints(values: &[u8]) -> Self {
        let mut v = Self::zeros(values.len());
        for (i, &x) in values.iter().enumerate() {
            v.set(i, x != 0);
        }
        v
    }

    /// Builds a vector of dimension `dim` whose support is the given set of indices.
    ///
    /// Returns an error if any index is out of range.
    pub fn from_support(dim: usize, support: &[usize]) -> Result<Self> {
        let mut v = Self::zeros(dim);
        for &i in support {
            if i >= dim {
                return Err(LinalgError::InvalidParameter {
                    name: "support",
                    reason: format!("index {i} out of range for dimension {dim}"),
                });
            }
            v.set(i, true);
        }
        Ok(v)
    }

    /// Dimension of the vector.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Returns bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= dim()`.
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.dim,
            "bit index {i} out of range for dim {}",
            self.dim
        );
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    /// Panics if `i >= dim()`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(
            i < self.dim,
            "bit index {i} out of range for dim {}",
            self.dim
        );
        let word = i / WORD_BITS;
        let bit = i % WORD_BITS;
        if value {
            self.words[word] |= 1u64 << bit;
        } else {
            self.words[word] &= !(1u64 << bit);
        }
    }

    /// Number of ones (the set cardinality).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Inner product with another binary vector: the size of the set intersection.
    ///
    /// `pᵀq = 0` is exactly the orthogonality condition of the OVP.
    pub fn dot(&self, other: &Self) -> Result<usize> {
        if self.dim != other.dim {
            return Err(LinalgError::DimensionMismatch {
                left: self.dim,
                right: other.dim,
                op: "binary dot",
            });
        }
        Ok(self
            .words
            .iter()
            .zip(other.words.iter())
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum())
    }

    /// Returns `true` when `selfᵀother = 0`, i.e. the supports are disjoint.
    ///
    /// Short-circuits on the first overlapping word, which makes the exact OVP solvers
    /// noticeably faster on dense instances.
    pub fn is_orthogonal_to(&self, other: &Self) -> Result<bool> {
        if self.dim != other.dim {
            return Err(LinalgError::DimensionMismatch {
                left: self.dim,
                right: other.dim,
                op: "binary orthogonality",
            });
        }
        Ok(self
            .words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & b == 0))
    }

    /// Hamming distance to another binary vector.
    pub fn hamming(&self, other: &Self) -> Result<usize> {
        if self.dim != other.dim {
            return Err(LinalgError::DimensionMismatch {
                left: self.dim,
                right: other.dim,
                op: "hamming",
            });
        }
        Ok(self
            .words
            .iter()
            .zip(other.words.iter())
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum())
    }

    /// Jaccard similarity `|A ∩ B| / |A ∪ B|`.
    ///
    /// Defined as 1 when both sets are empty. This is the similarity that minwise
    /// hashing (and hence MH-ALSH) is locality-sensitive for.
    pub fn jaccard(&self, other: &Self) -> Result<f64> {
        let inter = self.dot(other)? as f64;
        let union = (self.count_ones() + other.count_ones()) as f64 - inter;
        if union == 0.0 {
            return Ok(1.0);
        }
        Ok(inter / union)
    }

    /// Indices of the one-bits, in increasing order.
    pub fn support(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.count_ones());
        for (w, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let tz = bits.trailing_zeros() as usize;
                out.push(w * WORD_BITS + tz);
                bits &= bits - 1;
            }
        }
        out
    }

    /// Converts to a dense `f64` vector with entries in `{0.0, 1.0}`.
    pub fn to_dense(&self) -> DenseVector {
        DenseVector::new(
            (0..self.dim)
                .map(|i| if self.get(i) { 1.0 } else { 0.0 })
                .collect(),
        )
    }

    /// Concatenates two binary vectors.
    pub fn concat(&self, other: &Self) -> Self {
        let mut out = Self::zeros(self.dim + other.dim);
        for i in 0..self.dim {
            if self.get(i) {
                out.set(i, true);
            }
        }
        for j in 0..other.dim {
            if other.get(j) {
                out.set(self.dim + j, true);
            }
        }
        out
    }

    /// Iterator over the bits as booleans.
    pub fn iter_bits(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.dim).map(move |i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut v = BinaryVector::zeros(130);
        assert_eq!(v.dim(), 130);
        v.set(0, true);
        v.set(64, true);
        v.set(129, true);
        assert!(v.get(0) && v.get(64) && v.get(129));
        assert!(!v.get(1) && !v.get(63) && !v.get(128));
        assert_eq!(v.count_ones(), 3);
        v.set(64, false);
        assert_eq!(v.count_ones(), 2);
    }

    #[test]
    fn dot_is_intersection_size() {
        let a = BinaryVector::from_support(100, &[1, 5, 70, 99]).unwrap();
        let b = BinaryVector::from_support(100, &[5, 70, 80]).unwrap();
        assert_eq!(a.dot(&b).unwrap(), 2);
        assert!(!a.is_orthogonal_to(&b).unwrap());
        let c = BinaryVector::from_support(100, &[0, 2]).unwrap();
        assert!(a.is_orthogonal_to(&c).unwrap());
    }

    #[test]
    fn dimension_mismatch_errors() {
        let a = BinaryVector::zeros(10);
        let b = BinaryVector::zeros(11);
        assert!(a.dot(&b).is_err());
        assert!(a.is_orthogonal_to(&b).is_err());
        assert!(a.hamming(&b).is_err());
    }

    #[test]
    fn hamming_and_jaccard() {
        let a = BinaryVector::from_ints(&[1, 1, 0, 0]);
        let b = BinaryVector::from_ints(&[1, 0, 1, 0]);
        assert_eq!(a.hamming(&b).unwrap(), 2);
        assert!((a.jaccard(&b).unwrap() - 1.0 / 3.0).abs() < 1e-12);
        let empty1 = BinaryVector::zeros(4);
        let empty2 = BinaryVector::zeros(4);
        assert_eq!(empty1.jaccard(&empty2).unwrap(), 1.0);
    }

    #[test]
    fn support_and_dense_roundtrip() {
        let a = BinaryVector::from_support(70, &[3, 65]).unwrap();
        assert_eq!(a.support(), vec![3, 65]);
        let d = a.to_dense();
        assert_eq!(d.dim(), 70);
        assert_eq!(d[3], 1.0);
        assert_eq!(d[65], 1.0);
        assert_eq!(d[0], 0.0);
        assert!(BinaryVector::from_support(10, &[10]).is_err());
    }

    #[test]
    fn concat_appends_supports() {
        let a = BinaryVector::from_ints(&[1, 0]);
        let b = BinaryVector::from_ints(&[0, 1, 1]);
        let c = a.concat(&b);
        assert_eq!(c.dim(), 5);
        assert_eq!(c.support(), vec![0, 3, 4]);
    }

    #[test]
    fn from_bools_and_ones() {
        let v = BinaryVector::from_bools(&[true, false, true]);
        assert_eq!(v.support(), vec![0, 2]);
        let ones = BinaryVector::ones(67);
        assert_eq!(ones.count_ones(), 67);
        let bits: Vec<bool> = ones.iter_bits().collect();
        assert!(bits.iter().all(|&b| b));
    }

    #[test]
    fn binary_dot_matches_dense_dot() {
        let a = BinaryVector::from_ints(&[1, 0, 1, 1, 0, 1]);
        let b = BinaryVector::from_ints(&[0, 1, 1, 1, 0, 0]);
        let dense = a.to_dense().dot(&b.to_dense()).unwrap();
        assert_eq!(dense as usize, a.dot(&b).unwrap());
    }

    #[test]
    #[should_panic]
    fn get_out_of_range_panics() {
        let v = BinaryVector::zeros(5);
        let _ = v.get(5);
    }
}

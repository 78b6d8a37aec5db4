//! Bit-packed `{-1,+1}^d` vectors.
//!
//! The sign domain is where the paper's strongest hardness results live (Theorem 1,
//! cases 1 and 2; the Chebyshev embedding of Lemma 3). For two sign vectors the inner
//! product is determined by the Hamming distance of their bit representations:
//! `xᵀy = d − 2·hamming(x, y)`, so bit-packed popcounts again give fast exact baselines.

use crate::error::{LinalgError, Result};
use crate::vector::DenseVector;

const WORD_BITS: usize = 64;

/// A `{-1,+1}^d` vector. Bit value 1 encodes `+1`, bit value 0 encodes `−1`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SignVector {
    dim: usize,
    words: Vec<u64>,
}

impl SignVector {
    /// Creates the all `−1` vector of dimension `dim`.
    pub fn all_minus(dim: usize) -> Self {
        Self {
            dim,
            words: vec![0u64; dim.div_ceil(WORD_BITS)],
        }
    }

    /// Creates the all `+1` vector of dimension `dim`.
    pub fn all_plus(dim: usize) -> Self {
        let mut v = Self::all_minus(dim);
        for i in 0..dim {
            v.set(i, 1);
        }
        v
    }

    /// Builds a sign vector from `i8` values; positive values map to `+1`, everything
    /// else to `−1`.
    pub fn from_signs(values: &[i8]) -> Self {
        let mut v = Self::all_minus(values.len());
        for (i, &x) in values.iter().enumerate() {
            v.set(i, if x > 0 { 1 } else { -1 });
        }
        v
    }

    /// Builds a sign vector from an `f64` slice by taking signs; zero maps to `+1`.
    pub fn from_dense_signs(values: &DenseVector) -> Self {
        let mut v = Self::all_minus(values.dim());
        for i in 0..values.dim() {
            v.set(i, if values[i] < 0.0 { -1 } else { 1 });
        }
        v
    }

    /// Dimension of the vector.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Returns component `i` as `+1` or `−1`.
    ///
    /// # Panics
    /// Panics if `i >= dim()`.
    pub fn get(&self, i: usize) -> i8 {
        assert!(i < self.dim, "index {i} out of range for dim {}", self.dim);
        if (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1 {
            1
        } else {
            -1
        }
    }

    /// Sets component `i`; positive values store `+1`, everything else `−1`.
    ///
    /// # Panics
    /// Panics if `i >= dim()`.
    pub fn set(&mut self, i: usize, value: i8) {
        assert!(i < self.dim, "index {i} out of range for dim {}", self.dim);
        let word = i / WORD_BITS;
        let bit = i % WORD_BITS;
        if value > 0 {
            self.words[word] |= 1u64 << bit;
        } else {
            self.words[word] &= !(1u64 << bit);
        }
    }

    /// Number of `+1` entries.
    pub fn count_plus(&self) -> usize {
        // Mask out the padding bits in the last word before counting.
        let mut total = 0usize;
        for (w, &word) in self.words.iter().enumerate() {
            let masked = if (w + 1) * WORD_BITS <= self.dim {
                word
            } else {
                let valid = self.dim - w * WORD_BITS;
                if valid == 0 {
                    0
                } else {
                    word & (u64::MAX >> (WORD_BITS - valid))
                }
            };
            total += masked.count_ones() as usize;
        }
        total
    }

    /// Hamming distance: the number of positions where the signs differ.
    pub fn hamming(&self, other: &Self) -> Result<usize> {
        if self.dim != other.dim {
            return Err(LinalgError::DimensionMismatch {
                left: self.dim,
                right: other.dim,
                op: "sign hamming",
            });
        }
        let mut total = 0usize;
        for (w, (&a, &b)) in self.words.iter().zip(other.words.iter()).enumerate() {
            let x = a ^ b;
            let masked = if (w + 1) * WORD_BITS <= self.dim {
                x
            } else {
                let valid = self.dim - w * WORD_BITS;
                if valid == 0 {
                    0
                } else {
                    x & (u64::MAX >> (WORD_BITS - valid))
                }
            };
            total += masked.count_ones() as usize;
        }
        Ok(total)
    }

    /// Inner product `xᵀy = d − 2·hamming(x, y)` as a signed integer.
    pub fn dot(&self, other: &Self) -> Result<i64> {
        let h = self.hamming(other)? as i64;
        Ok(self.dim as i64 - 2 * h)
    }

    /// Converts to a dense `f64` vector with entries in `{−1.0, +1.0}`.
    pub fn to_dense(&self) -> DenseVector {
        DenseVector::new((0..self.dim).map(|i| f64::from(self.get(i))).collect())
    }

    /// Component-wise negation.
    pub fn negated(&self) -> Self {
        let mut out = Self::all_minus(self.dim);
        for i in 0..self.dim {
            out.set(i, -self.get(i));
        }
        out
    }

    /// Concatenates two sign vectors.
    pub fn concat(&self, other: &Self) -> Self {
        let mut out = Self::all_minus(self.dim + other.dim);
        for i in 0..self.dim {
            out.set(i, self.get(i));
        }
        for j in 0..other.dim {
            out.set(self.dim + j, other.get(j));
        }
        out
    }

    /// Repeats the vector `times` times (self-concatenation), scaling the inner product
    /// by `times` — the `xⁿ` operator of the paper's embedding calculus.
    pub fn repeat(&self, times: usize) -> Self {
        let mut out = Self::all_minus(self.dim * times);
        for t in 0..times {
            for i in 0..self.dim {
                out.set(t * self.dim + i, self.get(i));
            }
        }
        out
    }

    /// Tensor (outer) product flattened row-major: `(x ⊗ y)[i·m + j] = x[i]·y[j]`.
    ///
    /// Satisfies `(x₁⊗x₂)ᵀ(y₁⊗y₂) = (x₁ᵀy₁)(x₂ᵀy₂)`, the multiplicative counterpart of
    /// concatenation used by the Chebyshev gap embedding.
    pub fn tensor(&self, other: &Self) -> Self {
        let mut out = Self::all_minus(self.dim * other.dim);
        for i in 0..self.dim {
            for j in 0..other.dim {
                out.set(i * other.dim + j, self.get(i) * other.get(j));
            }
        }
        out
    }

    /// Iterator over the components as `i8` signs.
    pub fn iter_signs(&self) -> impl Iterator<Item = i8> + '_ {
        (0..self.dim).map(move |i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut v = SignVector::all_minus(70);
        assert_eq!(v.get(0), -1);
        v.set(0, 1);
        v.set(69, 1);
        assert_eq!(v.get(0), 1);
        assert_eq!(v.get(69), 1);
        assert_eq!(v.count_plus(), 2);
        v.set(0, -1);
        assert_eq!(v.count_plus(), 1);
    }

    #[test]
    fn dot_matches_dense() {
        let a = SignVector::from_signs(&[1, -1, 1, 1, -1]);
        let b = SignVector::from_signs(&[1, 1, -1, 1, -1]);
        let expected = a.to_dense().dot(&b.to_dense()).unwrap();
        assert_eq!(a.dot(&b).unwrap() as f64, expected);
    }

    #[test]
    fn dot_of_identical_is_dim() {
        let a = SignVector::all_plus(100);
        assert_eq!(a.dot(&a).unwrap(), 100);
        let b = a.negated();
        assert_eq!(a.dot(&b).unwrap(), -100);
    }

    #[test]
    fn hamming_counts_disagreements() {
        let a = SignVector::from_signs(&[1, 1, -1]);
        let b = SignVector::from_signs(&[1, -1, 1]);
        assert_eq!(a.hamming(&b).unwrap(), 2);
        assert!(a.hamming(&SignVector::all_plus(4)).is_err());
    }

    #[test]
    fn padding_bits_do_not_leak() {
        // dim not a multiple of 64: padding bits must not contribute to counts.
        let a = SignVector::all_plus(65);
        let b = SignVector::all_minus(65);
        assert_eq!(a.count_plus(), 65);
        assert_eq!(b.count_plus(), 0);
        assert_eq!(a.hamming(&b).unwrap(), 65);
        assert_eq!(a.dot(&b).unwrap(), -65);
    }

    #[test]
    fn concat_adds_dots() {
        let x1 = SignVector::from_signs(&[1, -1]);
        let x2 = SignVector::from_signs(&[1, 1, 1]);
        let y1 = SignVector::from_signs(&[-1, -1]);
        let y2 = SignVector::from_signs(&[1, -1, 1]);
        let lhs = x1.concat(&x2).dot(&y1.concat(&y2)).unwrap();
        let rhs = x1.dot(&y1).unwrap() + x2.dot(&y2).unwrap();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn tensor_multiplies_dots() {
        let x1 = SignVector::from_signs(&[1, -1, 1]);
        let x2 = SignVector::from_signs(&[1, 1]);
        let y1 = SignVector::from_signs(&[-1, -1, 1]);
        let y2 = SignVector::from_signs(&[1, -1]);
        let lhs = x1.tensor(&x2).dot(&y1.tensor(&y2)).unwrap();
        let rhs = x1.dot(&y1).unwrap() * x2.dot(&y2).unwrap();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn repeat_scales_dot() {
        let x = SignVector::from_signs(&[1, -1, 1]);
        let y = SignVector::from_signs(&[1, 1, 1]);
        assert_eq!(
            x.repeat(4).dot(&y.repeat(4)).unwrap(),
            4 * x.dot(&y).unwrap()
        );
    }

    #[test]
    fn from_dense_signs_thresholds_at_zero() {
        let d = DenseVector::from(&[-0.5, 0.0, 2.0][..]);
        let s = SignVector::from_dense_signs(&d);
        assert_eq!(s.get(0), -1);
        assert_eq!(s.get(1), 1);
        assert_eq!(s.get(2), 1);
        let signs: Vec<i8> = s.iter_signs().collect();
        assert_eq!(signs, vec![-1, 1, 1]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_panics() {
        let v = SignVector::all_plus(3);
        let _ = v.get(3);
    }
}

//! Dense real-valued vectors.
//!
//! [`DenseVector`] is the workhorse container for the real-valued domains of the paper
//! (the unit ball of radius 1 for data vectors and radius `U` for query vectors).
//! It deliberately exposes a small, allocation-conscious API: inner products, norms,
//! scaling, and the handful of constructors the embeddings need.

use crate::error::{LinalgError, Result};
use std::ops::{Index, IndexMut};

/// A dense vector of `f64` components.
///
/// Inner products between `DenseVector`s are the `pᵀq` quantities that the signed and
/// unsigned IPS join definitions (Definition 1 of the paper) are stated in terms of.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseVector {
    components: Vec<f64>,
}

impl DenseVector {
    /// Creates a vector from raw components.
    pub fn new(components: Vec<f64>) -> Self {
        Self { components }
    }

    /// Creates the all-zeros vector of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        Self {
            components: vec![0.0; dim],
        }
    }

    /// Creates the all-ones vector of dimension `dim`.
    pub fn ones(dim: usize) -> Self {
        Self {
            components: vec![1.0; dim],
        }
    }

    /// Creates a standard basis vector `e_i` of dimension `dim`.
    ///
    /// Returns an error if `i >= dim`.
    pub fn basis(dim: usize, i: usize) -> Result<Self> {
        if i >= dim {
            return Err(LinalgError::InvalidParameter {
                name: "i",
                reason: format!("basis index {i} out of range for dimension {dim}"),
            });
        }
        let mut v = Self::zeros(dim);
        v.components[i] = 1.0;
        Ok(v)
    }

    /// Dimension (number of components) of the vector.
    pub fn dim(&self) -> usize {
        self.components.len()
    }

    /// Returns `true` if the vector has no components.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Read-only view of the components.
    pub fn as_slice(&self) -> &[f64] {
        &self.components
    }

    /// Mutable view of the components.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.components
    }

    /// Consumes the vector, returning its components.
    pub fn into_vec(self) -> Vec<f64> {
        self.components
    }

    /// Inner product `selfᵀ other`.
    ///
    /// This is the similarity measure the whole paper is about; every join and search
    /// definition reduces to thresholding this value or its absolute value.
    pub fn dot(&self, other: &Self) -> Result<f64> {
        if self.dim() != other.dim() {
            return Err(LinalgError::DimensionMismatch {
                left: self.dim(),
                right: other.dim(),
                op: "dot",
            });
        }
        Ok(crate::tile::dot_slices(&self.components, &other.components))
    }

    /// Squared Euclidean norm `‖self‖²`.
    pub fn norm_sq(&self) -> f64 {
        crate::tile::dot_slices(&self.components, &self.components)
    }

    /// Euclidean norm `‖self‖`.
    pub fn norm(&self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// `ℓ_p` norm for `p ≥ 1`; `p = f64::INFINITY` gives the max norm.
    pub fn lp_norm(&self, p: f64) -> Result<f64> {
        if p < 1.0 {
            return Err(LinalgError::InvalidParameter {
                name: "p",
                reason: format!("lp_norm requires p >= 1, got {p}"),
            });
        }
        if p.is_infinite() {
            return Ok(self
                .components
                .iter()
                .fold(0.0_f64, |acc, x| acc.max(x.abs())));
        }
        Ok(self
            .components
            .iter()
            .map(|x| x.abs().powf(p))
            .sum::<f64>()
            .powf(1.0 / p))
    }

    /// Squared Euclidean distance `‖self − other‖²`.
    pub fn distance_sq(&self, other: &Self) -> Result<f64> {
        if self.dim() != other.dim() {
            return Err(LinalgError::DimensionMismatch {
                left: self.dim(),
                right: other.dim(),
                op: "distance_sq",
            });
        }
        Ok(self
            .components
            .iter()
            .zip(other.components.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum())
    }

    /// Euclidean distance `‖self − other‖`.
    pub fn distance(&self, other: &Self) -> Result<f64> {
        Ok(self.distance_sq(other)?.sqrt())
    }

    /// Cosine similarity `selfᵀother / (‖self‖·‖other‖)`.
    ///
    /// Returns an error when either vector has zero norm.
    pub fn cosine(&self, other: &Self) -> Result<f64> {
        let denom = self.norm() * other.norm();
        if denom == 0.0 {
            return Err(LinalgError::InvalidParameter {
                name: "self/other",
                reason: "cosine similarity undefined for zero-norm vectors".to_string(),
            });
        }
        Ok(self.dot(other)? / denom)
    }

    /// Returns `self` scaled by `factor`.
    pub fn scaled(&self, factor: f64) -> Self {
        Self {
            components: self.components.iter().map(|x| x * factor).collect(),
        }
    }

    /// Scales the vector in place.
    pub fn scale_in_place(&mut self, factor: f64) {
        for x in &mut self.components {
            *x *= factor;
        }
    }

    /// Returns the component-wise sum `self + other`.
    pub fn add(&self, other: &Self) -> Result<Self> {
        if self.dim() != other.dim() {
            return Err(LinalgError::DimensionMismatch {
                left: self.dim(),
                right: other.dim(),
                op: "add",
            });
        }
        Ok(Self {
            components: self
                .components
                .iter()
                .zip(other.components.iter())
                .map(|(a, b)| a + b)
                .collect(),
        })
    }

    /// Returns the component-wise difference `self − other`.
    pub fn sub(&self, other: &Self) -> Result<Self> {
        if self.dim() != other.dim() {
            return Err(LinalgError::DimensionMismatch {
                left: self.dim(),
                right: other.dim(),
                op: "sub",
            });
        }
        Ok(Self {
            components: self
                .components
                .iter()
                .zip(other.components.iter())
                .map(|(a, b)| a - b)
                .collect(),
        })
    }

    /// Adds `factor * other` into `self` in place (axpy).
    pub fn axpy(&mut self, factor: f64, other: &Self) -> Result<()> {
        if self.dim() != other.dim() {
            return Err(LinalgError::DimensionMismatch {
                left: self.dim(),
                right: other.dim(),
                op: "axpy",
            });
        }
        crate::tile::axpy_slices(&mut self.components, factor, &other.components);
        Ok(())
    }

    /// Returns the vector negated component-wise.
    ///
    /// Negating the query set `Q` is exactly how the paper reduces the *unsigned* join
    /// to two *signed* joins (Section 1, "Problem definitions").
    pub fn negated(&self) -> Self {
        self.scaled(-1.0)
    }

    /// Returns a unit-norm copy, or an error when the vector is all zeros.
    pub fn normalized(&self) -> Result<Self> {
        let n = self.norm();
        if n == 0.0 {
            return Err(LinalgError::InvalidParameter {
                name: "self",
                reason: "cannot normalize the zero vector".to_string(),
            });
        }
        Ok(self.scaled(1.0 / n))
    }

    /// Concatenates `self` with `other`, producing a `dim() + other.dim()` vector.
    ///
    /// Concatenation adds inner products: `(x₁⊕x₂)ᵀ(y₁⊕y₂) = x₁ᵀy₁ + x₂ᵀy₂`, which is
    /// the property the paper's gap embeddings (Lemma 3) rely on.
    pub fn concat(&self, other: &Self) -> Self {
        let mut components = Vec::with_capacity(self.dim() + other.dim());
        components.extend_from_slice(&self.components);
        components.extend_from_slice(&other.components);
        Self { components }
    }

    /// Appends `value` to the end of the vector, increasing the dimension by one.
    pub fn push(&mut self, value: f64) {
        self.components.push(value);
    }

    /// Iterator over components.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.components.iter()
    }

    /// Maximum absolute component.
    pub fn max_abs(&self) -> f64 {
        self.components
            .iter()
            .fold(0.0_f64, |acc, x| acc.max(x.abs()))
    }

    /// Returns `true` if every component is finite.
    pub fn is_finite(&self) -> bool {
        self.components.iter().all(|x| x.is_finite())
    }
}

impl Index<usize> for DenseVector {
    type Output = f64;

    fn index(&self, index: usize) -> &f64 {
        &self.components[index]
    }
}

impl IndexMut<usize> for DenseVector {
    fn index_mut(&mut self, index: usize) -> &mut f64 {
        &mut self.components[index]
    }
}

impl From<Vec<f64>> for DenseVector {
    fn from(components: Vec<f64>) -> Self {
        Self::new(components)
    }
}

impl From<&[f64]> for DenseVector {
    fn from(components: &[f64]) -> Self {
        Self::new(components.to_vec())
    }
}

impl FromIterator<f64> for DenseVector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a DenseVector {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.components.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(xs: &[f64]) -> DenseVector {
        DenseVector::from(xs)
    }

    #[test]
    fn dot_product_basic() {
        let a = v(&[1.0, 2.0, 3.0]);
        let b = v(&[4.0, 5.0, 6.0]);
        assert_eq!(a.dot(&b).unwrap(), 32.0);
    }

    #[test]
    fn dot_dimension_mismatch() {
        let a = v(&[1.0, 2.0]);
        let b = v(&[1.0, 2.0, 3.0]);
        assert!(matches!(
            a.dot(&b),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn norms() {
        let a = v(&[3.0, 4.0]);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.norm_sq(), 25.0);
        assert_eq!(a.lp_norm(1.0).unwrap(), 7.0);
        assert_eq!(a.lp_norm(f64::INFINITY).unwrap(), 4.0);
        assert!(a.lp_norm(0.5).is_err());
    }

    #[test]
    fn distance_and_cosine() {
        let a = v(&[1.0, 0.0]);
        let b = v(&[0.0, 1.0]);
        assert!((a.distance(&b).unwrap() - 2.0_f64.sqrt()).abs() < 1e-12);
        assert!(a.cosine(&b).unwrap().abs() < 1e-12);
        let zero = DenseVector::zeros(2);
        assert!(a.cosine(&zero).is_err());
    }

    #[test]
    fn scaling_and_negation() {
        let a = v(&[1.0, -2.0]);
        assert_eq!(a.scaled(2.0).as_slice(), &[2.0, -4.0]);
        assert_eq!(a.negated().as_slice(), &[-1.0, 2.0]);
        let mut b = a.clone();
        b.scale_in_place(0.5);
        assert_eq!(b.as_slice(), &[0.5, -1.0]);
    }

    #[test]
    fn add_sub_axpy() {
        let a = v(&[1.0, 2.0]);
        let b = v(&[3.0, 5.0]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[2.0, 3.0]);
        let mut c = a.clone();
        c.axpy(2.0, &b).unwrap();
        assert_eq!(c.as_slice(), &[7.0, 12.0]);
        assert!(a.add(&v(&[1.0])).is_err());
        assert!(a.sub(&v(&[1.0])).is_err());
        let mut d = a.clone();
        assert!(d.axpy(1.0, &v(&[1.0])).is_err());
    }

    #[test]
    fn normalization() {
        let a = v(&[3.0, 4.0]);
        let n = a.normalized().unwrap();
        assert!((n.norm() - 1.0).abs() < 1e-12);
        assert!(DenseVector::zeros(3).normalized().is_err());
    }

    #[test]
    fn concat_adds_inner_products() {
        let x1 = v(&[1.0, 2.0]);
        let x2 = v(&[3.0]);
        let y1 = v(&[4.0, 5.0]);
        let y2 = v(&[6.0]);
        let lhs = x1.concat(&x2).dot(&y1.concat(&y2)).unwrap();
        let rhs = x1.dot(&y1).unwrap() + x2.dot(&y2).unwrap();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn basis_vectors() {
        let e1 = DenseVector::basis(3, 1).unwrap();
        assert_eq!(e1.as_slice(), &[0.0, 1.0, 0.0]);
        assert!(DenseVector::basis(3, 3).is_err());
    }

    #[test]
    fn indexing_and_iteration() {
        let mut a = v(&[1.0, 2.0, 3.0]);
        assert_eq!(a[2], 3.0);
        a[0] = 9.0;
        assert_eq!(a.as_slice(), &[9.0, 2.0, 3.0]);
        let total: f64 = a.iter().sum();
        assert_eq!(total, 14.0);
        let collected: DenseVector = a.iter().copied().collect();
        assert_eq!(collected, a);
    }

    #[test]
    fn max_abs_and_finite() {
        let a = v(&[-5.0, 2.0, 3.0]);
        assert_eq!(a.max_abs(), 5.0);
        assert!(a.is_finite());
        let b = v(&[f64::NAN]);
        assert!(!b.is_finite());
    }

    #[test]
    fn push_grows_dimension() {
        let mut a = DenseVector::zeros(2);
        a.push(7.0);
        assert_eq!(a.dim(), 3);
        assert_eq!(a[2], 7.0);
    }

    #[test]
    fn conversions_from_vec_and_slice() {
        let from_vec = DenseVector::from(vec![1.5, -2.5]);
        let from_slice = DenseVector::from(&[1.5, -2.5][..]);
        assert_eq!(from_vec, from_slice);
        assert_eq!(from_vec.clone().into_vec(), vec![1.5, -2.5]);
        assert!(!from_vec.is_empty());
        assert!(DenseVector::zeros(0).is_empty());
    }
}

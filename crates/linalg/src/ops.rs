//! Embedding calculus: concatenation, repetition, translation and tensoring.
//!
//! The paper composes its gap embeddings out of two primitives whose effect on inner
//! products is dual to `+` and `×`:
//!
//! * **concatenation** `x ⊕ y`: `(x₁⊕x₂)ᵀ(y₁⊕y₂) = x₁ᵀy₁ + x₂ᵀy₂`;
//! * **tensoring** `x ⊗ y` (the flattened outer product): `(x₁⊗x₂)ᵀ(y₁⊗y₂) =
//!   (x₁ᵀy₁)·(x₂ᵀy₂)`.
//!
//! This module provides these operators on [`DenseVector`]. Concatenating matched
//! constant blocks translates inner products by a constant, which is how Lemma 3's
//! constructions shift the orthogonal / non-orthogonal gap to a convenient location.

use crate::error::{LinalgError, Result};
use crate::vector::DenseVector;

/// Concatenation of two dense vectors (`⊕`).
pub fn concat(a: &DenseVector, b: &DenseVector) -> DenseVector {
    a.concat(b)
}

/// Concatenates a slice of dense vectors in order.
pub fn concat_all(vs: &[DenseVector]) -> Result<DenseVector> {
    if vs.is_empty() {
        return Err(LinalgError::Empty { op: "concat_all" });
    }
    let total: usize = vs.iter().map(DenseVector::dim).sum();
    let mut out = Vec::with_capacity(total);
    for v in vs {
        out.extend_from_slice(v.as_slice());
    }
    Ok(DenseVector::new(out))
}

/// Repeats a vector `times` times; the repeated vectors' inner product is `times` times
/// the original (the `xⁿ` notation of the paper).
pub fn repeat(v: &DenseVector, times: usize) -> DenseVector {
    let mut out = Vec::with_capacity(v.dim() * times);
    for _ in 0..times {
        out.extend_from_slice(v.as_slice());
    }
    DenseVector::new(out)
}

/// Flattened outer product `x ⊗ y` (row-major), satisfying the multiplicativity
/// identity on inner products.
pub fn tensor(a: &DenseVector, b: &DenseVector) -> DenseVector {
    let mut out = Vec::with_capacity(a.dim() * b.dim());
    for &x in a.iter() {
        for &y in b.iter() {
            out.push(x * y);
        }
    }
    DenseVector::new(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dv(xs: &[f64]) -> DenseVector {
        DenseVector::from(xs)
    }

    #[test]
    fn concat_adds_inner_products() {
        let x1 = dv(&[1.0, 2.0]);
        let x2 = dv(&[-1.0]);
        let y1 = dv(&[0.5, 0.5]);
        let y2 = dv(&[3.0]);
        let lhs = concat(&x1, &x2).dot(&concat(&y1, &y2)).unwrap();
        assert!((lhs - (x1.dot(&y1).unwrap() + x2.dot(&y2).unwrap())).abs() < 1e-12);
    }

    #[test]
    fn concat_all_matches_pairwise() {
        let parts = vec![dv(&[1.0]), dv(&[2.0, 3.0]), dv(&[4.0])];
        let all = concat_all(&parts).unwrap();
        assert_eq!(all.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        assert!(concat_all(&[]).is_err());
    }

    #[test]
    fn repeat_scales_inner_product() {
        let x = dv(&[1.0, -2.0]);
        let y = dv(&[3.0, 1.0]);
        let k = 5;
        let lhs = repeat(&x, k).dot(&repeat(&y, k)).unwrap();
        assert!((lhs - k as f64 * x.dot(&y).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn tensor_multiplies_inner_products() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            let x1 = crate::random::gaussian_vector(&mut rng, 4);
            let x2 = crate::random::gaussian_vector(&mut rng, 3);
            let y1 = crate::random::gaussian_vector(&mut rng, 4);
            let y2 = crate::random::gaussian_vector(&mut rng, 3);
            let lhs = tensor(&x1, &x2).dot(&tensor(&y1, &y2)).unwrap();
            let rhs = x1.dot(&y1).unwrap() * x2.dot(&y2).unwrap();
            assert!((lhs - rhs).abs() < 1e-9);
        }
    }

    #[test]
    fn tensor_power_raises_inner_product() {
        let x = dv(&[0.5, 0.5]);
        let y = dv(&[1.0, -1.0]);
        let k = 3;
        let power = |v: &DenseVector| (1..k).fold(v.clone(), |acc, _| tensor(&acc, v));
        let lhs = power(&x).dot(&power(&y)).unwrap();
        let rhs = x.dot(&y).unwrap().powi(k);
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn translation_pad_realises_shift() {
        // `1^b` appended to the data side and `(shift/b)^b` to the query side shift the
        // inner product by `shift`.
        let x = dv(&[1.0, 2.0]);
        let y = dv(&[0.5, -1.0]);
        let shifted = concat(&x, &dv(&[1.0; 5])).dot(&concat(&y, &dv(&[-1.5; 5])));
        assert!((shifted.unwrap() - (x.dot(&y).unwrap() - 7.5)).abs() < 1e-12);
    }

    #[test]
    fn sign_translation_pad_is_pm_one() {
        // Over `{-1,1}` (Lemma 3, embedding 1) the pads are `1^b` and `(±1)^b`: the pair
        // stays in the alphabet and its inner product moves by `±b`.
        let x = dv(&[1.0, -1.0]);
        let y = dv(&[-1.0, -1.0]);
        for (sign, block) in [(-1.0, 4), (1.0, 3)] {
            let shifted =
                concat(&x, &dv(&vec![1.0; block])).dot(&concat(&y, &dv(&vec![sign; block])));
            assert_eq!(shifted.unwrap(), x.dot(&y).unwrap() + sign * block as f64);
        }
    }
}

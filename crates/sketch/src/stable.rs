//! The median that boosts independent sketch estimates.
//!
//! The module's tests keep the classical p-stable linear sketches for `ℓ₁` and `ℓ₂`
//! norms as a check of the statement the max-stability sketch ([`crate::maxstable`])
//! generalises to `κ > 2`: a p-stable sketch multiplies the input by a random matrix
//! whose entries are i.i.d. p-stable random variables, each coordinate of the sketched
//! vector is then distributed as `‖x‖_p · S` for a standard p-stable `S`, and a robust
//! location estimator (the median of absolute values for `p = 1`, the root-mean-square
//! for `p = 2`) recovers the norm. These are the "linear sketches for ℓ_p" the paper
//! cites from [5, 57].

/// Median of a slice (used for boosting independent estimates).
pub fn median(values: &[f64]) -> f64 {
    median_in_place(&mut values.to_vec())
}

/// [`median`] of a buffer the caller lets it reorder: no allocation, so the Section 4.3
/// estimate kernel ([`crate::linf_mips`]) can boost its copies on a reused scratch.
pub fn median_in_place(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaNs in estimates"));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        0.5 * (values[mid - 1] + values[mid])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{Result, SketchError};
    use ips_linalg::random::{random_unit_vector, standard_cauchy, standard_gaussian};
    use ips_linalg::{DenseVector, Matrix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Which stable law the entries follow: Cauchy estimates `‖x‖₁` (the median of the
    /// absolute coordinates), Gaussian `‖x‖₂` (their root-mean-square).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum StableKind {
        Cauchy,
        Gaussian,
    }

    /// A dense p-stable linear sketch `x ↦ Πx`.
    struct StableSketch {
        kind: StableKind,
        matrix: Matrix,
    }

    impl StableSketch {
        fn sample(rng: &mut StdRng, kind: StableKind, dim: usize, rows: usize) -> Result<Self> {
            if dim == 0 || rows == 0 {
                return Err(SketchError::InvalidParameter {
                    name: "dim/rows",
                    reason: format!("sketch dimensions must be positive, got {dim} x {rows}"),
                });
            }
            let mut matrix = Matrix::zeros(rows, dim);
            for r in 0..rows {
                for c in 0..dim {
                    let value = match kind {
                        StableKind::Cauchy => standard_cauchy(rng),
                        StableKind::Gaussian => standard_gaussian(rng),
                    };
                    matrix.set(r, c, value);
                }
            }
            Ok(Self { kind, matrix })
        }

        fn apply(&self, x: &DenseVector) -> Result<DenseVector> {
            Ok(self.matrix.matvec(x)?)
        }

        fn estimate_norm(&self, x: &DenseVector) -> Result<f64> {
            let y = self.apply(x)?;
            Ok(match self.kind {
                StableKind::Cauchy => median(&y.iter().map(|v| v.abs()).collect::<Vec<_>>()),
                // E[(gᵀx)²] = ‖x‖₂², so the RMS of the coordinates estimates ‖x‖₂.
                StableKind::Gaussian => (y.norm_sq() / y.dim() as f64).sqrt(),
            })
        }
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x57AB1E)
    }

    #[test]
    fn parameter_validation() {
        let mut r = rng();
        assert!(StableSketch::sample(&mut r, StableKind::Cauchy, 0, 5).is_err());
        assert!(StableSketch::sample(&mut r, StableKind::Gaussian, 5, 0).is_err());
        let s = StableSketch::sample(&mut r, StableKind::Cauchy, 8, 16).unwrap();
        assert_eq!(s.kind, StableKind::Cauchy);
        assert_eq!((s.matrix.rows(), s.matrix.cols()), (16, 8));
        assert!(s.apply(&DenseVector::zeros(3)).is_err());
    }

    #[test]
    fn median_helpers() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn gaussian_sketch_estimates_l2_norm() {
        let mut r = rng();
        let dim = 32;
        let sketch = StableSketch::sample(&mut r, StableKind::Gaussian, dim, 600).unwrap();
        for _ in 0..5 {
            let x = random_unit_vector(&mut r, dim).unwrap().scaled(3.0);
            let est = sketch.estimate_norm(&x).unwrap();
            assert!(
                (est - 3.0).abs() / 3.0 < 0.15,
                "estimate {est} too far from 3.0"
            );
        }
    }

    #[test]
    fn cauchy_sketch_estimates_l1_norm() {
        let mut r = rng();
        let dim = 32;
        let sketch = StableSketch::sample(&mut r, StableKind::Cauchy, dim, 800).unwrap();
        for _ in 0..5 {
            let x = random_unit_vector(&mut r, dim).unwrap();
            let l1 = x.lp_norm(1.0).unwrap();
            let est = sketch.estimate_norm(&x).unwrap();
            assert!(
                (est - l1).abs() / l1 < 0.2,
                "estimate {est} too far from {l1}"
            );
        }
    }

    #[test]
    fn sketch_is_linear() {
        let mut r = rng();
        let dim = 10;
        let sketch = StableSketch::sample(&mut r, StableKind::Gaussian, dim, 20).unwrap();
        let x = random_unit_vector(&mut r, dim).unwrap();
        let y = random_unit_vector(&mut r, dim).unwrap();
        let combined = x.scaled(2.0).add(&y.scaled(-0.5)).unwrap();
        let lhs = sketch.apply(&combined).unwrap();
        let rhs = sketch
            .apply(&x)
            .unwrap()
            .scaled(2.0)
            .add(&sketch.apply(&y).unwrap().scaled(-0.5))
            .unwrap();
        for i in 0..lhs.dim() {
            assert!((lhs[i] - rhs[i]).abs() < 1e-9);
        }
    }
}

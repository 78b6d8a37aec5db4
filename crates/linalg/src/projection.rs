//! Random projections (Johnson–Lindenstrauss style).
//!
//! A random linear map that roughly preserves inner products. Its one user is the
//! pseudo-random rotation of cross-polytope hashing (`ips_bench::crosspolytope`), which
//! only that family's unit tests reach; both stay until ROADMAP item 6 decides whether
//! cross-polytope becomes a second plane bank or leaves the tree.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::random::standard_gaussian;
use crate::vector::DenseVector;
use rand::Rng;

/// A dense Gaussian random projection from `input_dim` to `output_dim` dimensions,
/// scaled by `1/√output_dim` so that inner products are preserved in expectation.
#[derive(Debug, Clone)]
pub struct GaussianProjection {
    matrix: Matrix,
}

impl GaussianProjection {
    /// Samples a projection with i.i.d. `N(0, 1/output_dim)` entries.
    pub fn sample<R: Rng + ?Sized>(
        rng: &mut R,
        input_dim: usize,
        output_dim: usize,
    ) -> Result<Self> {
        if input_dim == 0 || output_dim == 0 {
            return Err(LinalgError::InvalidParameter {
                name: "dims",
                reason: format!(
                    "projection dimensions must be positive, got {input_dim} -> {output_dim}"
                ),
            });
        }
        let scale = 1.0 / (output_dim as f64).sqrt();
        let mut m = Matrix::zeros(output_dim, input_dim);
        for r in 0..output_dim {
            for c in 0..input_dim {
                m.set(r, c, scale * standard_gaussian(rng));
            }
        }
        Ok(Self { matrix: m })
    }

    /// Input dimension of the projection.
    pub fn input_dim(&self) -> usize {
        self.matrix.cols()
    }

    /// Output dimension of the projection.
    pub fn output_dim(&self) -> usize {
        self.matrix.rows()
    }

    /// Applies the projection to a vector.
    pub fn project(&self, v: &DenseVector) -> Result<DenseVector> {
        self.matrix.matvec(v)
    }

    /// Applies the projection to every vector in a slice.
    pub fn project_all(&self, vs: &[DenseVector]) -> Result<Vec<DenseVector>> {
        vs.iter().map(|v| self.project(v)).collect()
    }

    /// Target dimension sufficient for distortion `epsilon` over `count` points
    /// (`⌈8 ln(count)/ε²⌉`, the standard JL bound with a conservative constant).
    pub fn jl_dimension(count: usize, epsilon: f64) -> usize {
        let count = count.max(2) as f64;
        ((8.0 * count.ln()) / (epsilon * epsilon)).ceil() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::random_unit_vector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_degenerate_dimensions() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(GaussianProjection::sample(&mut rng, 0, 5).is_err());
        assert!(GaussianProjection::sample(&mut rng, 5, 0).is_err());
    }

    #[test]
    fn shape_is_respected() {
        let mut rng = StdRng::seed_from_u64(2);
        let p = GaussianProjection::sample(&mut rng, 30, 10).unwrap();
        assert_eq!(p.input_dim(), 30);
        assert_eq!(p.output_dim(), 10);
        let v = random_unit_vector(&mut rng, 30).unwrap();
        assert_eq!(p.project(&v).unwrap().dim(), 10);
        assert!(p.project(&DenseVector::zeros(7)).is_err());
    }

    #[test]
    fn norms_are_roughly_preserved() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = GaussianProjection::sample(&mut rng, 100, 400).unwrap();
        let mut total = 0.0;
        let trials = 30;
        for _ in 0..trials {
            let v = random_unit_vector(&mut rng, 100).unwrap();
            total += p.project(&v).unwrap().norm_sq();
        }
        let mean = total / trials as f64;
        assert!((mean - 1.0).abs() < 0.15, "mean squared norm {mean}");
    }

    #[test]
    fn inner_products_preserved_in_expectation() {
        let mut rng = StdRng::seed_from_u64(4);
        let dim = 64;
        let (a, b) = crate::random::correlated_unit_pair(&mut rng, dim, 0.6).unwrap();
        let trials = 60;
        let mut total = 0.0;
        for _ in 0..trials {
            let p = GaussianProjection::sample(&mut rng, dim, 128).unwrap();
            total += p.project(&a).unwrap().dot(&p.project(&b).unwrap()).unwrap();
        }
        let mean = total / trials as f64;
        assert!((mean - 0.6).abs() < 0.1, "mean inner product {mean}");
    }

    #[test]
    fn project_all_maps_every_vector() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = GaussianProjection::sample(&mut rng, 16, 8).unwrap();
        let vs: Vec<DenseVector> = (0..5)
            .map(|_| random_unit_vector(&mut rng, 16).unwrap())
            .collect();
        let projected = p.project_all(&vs).unwrap();
        assert_eq!(projected.len(), 5);
        assert!(projected.iter().all(|v| v.dim() == 8));
    }

    #[test]
    fn jl_dimension_grows_with_count_and_precision() {
        assert!(
            GaussianProjection::jl_dimension(1000, 0.1) > GaussianProjection::jl_dimension(10, 0.1)
        );
        assert!(
            GaussianProjection::jl_dimension(100, 0.05)
                > GaussianProjection::jl_dimension(100, 0.2)
        );
    }
}

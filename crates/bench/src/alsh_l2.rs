//! L2-ALSH(SL) — the original asymmetric LSH for maximum inner product search.
//!
//! Shrivastava and Li (NIPS 2014, reference \[45\] of the paper) reduce MIPS to Euclidean
//! near-neighbour search by the asymmetric pair of maps
//!
//! ```text
//! P(x) = (Ux;  ‖Ux‖²,  ‖Ux‖⁴, …, ‖Ux‖^{2^m})
//! Q(q) = (q/‖q‖;  1/2,  1/2, …, 1/2)
//! ```
//!
//! after which `‖Q(q) − P(x)‖² = 1 + m/4 − 2U·qᵀx/‖q‖ + ‖Ux‖^{2^{m+1}}`; the last term
//! vanishes as `m` grows because `U < 1` shrinks norms, so small distances correspond to
//! large inner products and standard p-stable E2LSH applies. This is the construction
//! whose "very weak guarantees when inner products are small relative to the lengths of
//! vectors" motivated much of the paper. Its parameters, [`L2AlshParams`], live with
//! the ρ exponent they determine ([`ips_lsh::rho::rho_l2_alsh`]).

use crate::e2lsh::{E2LshFamily, E2LshFunction};
use ips_linalg::DenseVector;
use ips_lsh::rho::L2AlshParams;
use ips_lsh::traits::{AsymmetricHashFunction, AsymmetricLshFamily, HashFunction, LshFamily};
use ips_lsh::{LshError, Result};
use rand::Rng;

/// The L2-ALSH(SL) family.
#[derive(Debug, Clone)]
pub struct L2AlshFamily {
    dim: usize,
    params: L2AlshParams,
    max_data_norm: f64,
    inner: E2LshFamily,
}

impl L2AlshFamily {
    /// Creates a family for data vectors of dimension `dim` with norms bounded by
    /// `max_data_norm`, using the given parameters ([`L2AlshParams::validate`]).
    pub fn new(dim: usize, max_data_norm: f64, params: L2AlshParams) -> Result<Self> {
        if dim == 0 {
            return Err(LshError::InvalidParameter {
                name: "dim",
                reason: "dimension must be positive".into(),
            });
        }
        if !(max_data_norm > 0.0) {
            return Err(LshError::InvalidParameter {
                name: "max_data_norm",
                reason: "maximum data norm must be positive".into(),
            });
        }
        params.validate()?;
        let inner = E2LshFamily::new(dim + params.m, params.r)?;
        Ok(Self {
            dim,
            params,
            max_data_norm,
            inner,
        })
    }

    /// Creates a family with the default recommended parameters.
    pub fn with_defaults(dim: usize, max_data_norm: f64) -> Result<Self> {
        Self::new(dim, max_data_norm, L2AlshParams::default())
    }

    /// The construction parameters.
    pub fn params(&self) -> L2AlshParams {
        self.params
    }

    /// Data-side transform `P(x)`.
    ///
    /// The vector is first rescaled by `U / max_data_norm` so that all data vectors end
    /// up with norm at most `U < 1`, then augmented with its successive squared norms.
    pub fn transform_data(&self, x: &DenseVector) -> Result<DenseVector> {
        if x.dim() != self.dim {
            return Err(LshError::DimensionMismatch {
                expected: self.dim,
                actual: x.dim(),
            });
        }
        if x.norm() > self.max_data_norm * (1.0 + 1e-9) {
            return Err(LshError::DomainViolation {
                reason: format!(
                    "data vector norm {} exceeds declared maximum {}",
                    x.norm(),
                    self.max_data_norm
                ),
            });
        }
        let scaled = x.scaled(self.params.u / self.max_data_norm);
        let mut out = scaled.clone();
        let mut norm_pow = scaled.norm_sq();
        for _ in 0..self.params.m {
            out.push(norm_pow);
            norm_pow = norm_pow * norm_pow;
        }
        Ok(out)
    }

    /// Query-side transform `Q(q)`: the normalised query followed by `m` halves.
    pub fn transform_query(&self, q: &DenseVector) -> Result<DenseVector> {
        if q.dim() != self.dim {
            return Err(LshError::DimensionMismatch {
                expected: self.dim,
                actual: q.dim(),
            });
        }
        let normalised = q.normalized().map_err(LshError::Linalg)?;
        let mut out = normalised;
        for _ in 0..self.params.m {
            out.push(0.5);
        }
        Ok(out)
    }

    /// The squared Euclidean distance between `Q(q)` and `P(x)` expressed in terms of
    /// the *normalised* inner product `s = qᵀx / (‖q‖·max_data_norm) ∈ [−1, 1]` and the
    /// normalised data norm `t = ‖x‖/max_data_norm ∈ [0, 1]`:
    /// `1 + m/4 − 2U·s·t·? …` — concretely `1 + m/4 − 2·U·ŝ + (U·t)^{2^{m+1}}` where `ŝ`
    /// is the inner product after both rescalings.
    pub fn transformed_distance_sq(&self, s_hat: f64, data_norm_ratio: f64) -> f64 {
        let m = self.params.m as f64;
        let u = self.params.u;
        1.0 + m / 4.0 - 2.0 * u * s_hat + self.params.norm_tail(u * data_norm_ratio)
    }
}

/// A sampled L2-ALSH(SL) function pair.
#[derive(Debug, Clone)]
pub struct L2AlshFunction {
    family: L2AlshFamily,
    inner: E2LshFunction,
}

impl AsymmetricHashFunction for L2AlshFunction {
    fn hash_data(&self, p: &DenseVector) -> Result<u64> {
        let transformed = self.family.transform_data(p)?;
        self.inner.hash(&transformed)
    }

    fn hash_query(&self, q: &DenseVector) -> Result<u64> {
        let transformed = self.family.transform_query(q)?;
        self.inner.hash(&transformed)
    }
}

impl AsymmetricLshFamily for L2AlshFamily {
    type Function = L2AlshFunction;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Self::Function> {
        Ok(L2AlshFunction {
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
    use ips_linalg::random::{random_ball_vector, random_unit_vector};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn parameter_validation() {
        assert!(L2AlshFamily::with_defaults(0, 1.0).is_err());
        assert!(L2AlshFamily::with_defaults(4, 0.0).is_err());
        let bad_m = L2AlshParams {
            m: 0,
            ..Default::default()
        };
        assert!(L2AlshFamily::new(4, 1.0, bad_m).is_err());
        let bad_u = L2AlshParams {
            u: 1.5,
            ..Default::default()
        };
        assert!(L2AlshFamily::new(4, 1.0, bad_u).is_err());
        let bad_r = L2AlshParams {
            r: 0.0,
            ..Default::default()
        };
        assert!(L2AlshFamily::new(4, 1.0, bad_r).is_err());
        let fam = L2AlshFamily::with_defaults(4, 2.0).unwrap();
        assert_eq!(fam.params(), L2AlshParams::default());
        assert_eq!(AsymmetricLshFamily::dim(&fam), Some(4));
    }

    #[test]
    fn transform_dimensions() {
        let fam = L2AlshFamily::with_defaults(6, 1.0).unwrap();
        let x = DenseVector::from(&[0.1, 0.2, 0.0, 0.0, 0.0, 0.0][..]);
        let px = fam.transform_data(&x).unwrap();
        assert_eq!(px.dim(), 6 + 3);
        let q = DenseVector::from(&[1.0, 1.0, 0.0, 0.0, 0.0, 0.0][..]);
        let qq = fam.transform_query(&q).unwrap();
        assert_eq!(qq.dim(), 6 + 3);
        // Query part is normalised; augmented entries are 1/2.
        assert!((qq[6] - 0.5).abs() < 1e-12);
        assert!((qq.as_slice()[..6].iter().map(|x| x * x).sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn domain_violations_rejected() {
        let fam = L2AlshFamily::with_defaults(3, 1.0).unwrap();
        let too_long = DenseVector::from(&[2.0, 0.0, 0.0][..]);
        assert!(fam.transform_data(&too_long).is_err());
        let zero = DenseVector::zeros(3);
        assert!(fam.transform_query(&zero).is_err());
        assert!(fam.transform_data(&DenseVector::zeros(2)).is_err());
        assert!(fam.transform_query(&DenseVector::zeros(2)).is_err());
    }

    #[test]
    fn distance_identity_holds() {
        // ‖Q(q) − P(x)‖² must match the closed form used for the rho analysis.
        let mut rng = StdRng::seed_from_u64(71);
        let dim = 8;
        let max_norm = 2.0;
        let fam = L2AlshFamily::with_defaults(dim, max_norm).unwrap();
        for _ in 0..20 {
            let x = random_ball_vector(&mut rng, dim, max_norm).unwrap();
            let q = random_unit_vector(&mut rng, dim).unwrap().scaled(3.0);
            let px = fam.transform_data(&x).unwrap();
            let qq = fam.transform_query(&q).unwrap();
            let actual = qq.distance_sq(&px).unwrap();
            let s_hat = q.normalized().unwrap().dot(&x).unwrap() / max_norm;
            let expected = fam.transformed_distance_sq(s_hat, x.norm() / max_norm);
            assert!(
                (actual - expected).abs() < 1e-9,
                "actual {actual} vs expected {expected}"
            );
        }
    }

    #[test]
    fn larger_inner_product_means_smaller_distance() {
        let fam = L2AlshFamily::with_defaults(4, 1.0).unwrap();
        let d_high = fam.transformed_distance_sq(0.9, 1.0);
        let d_low = fam.transformed_distance_sq(0.1, 1.0);
        assert!(d_high < d_low);
    }

    #[test]
    fn hashing_collides_more_for_aligned_pairs() {
        let mut rng = StdRng::seed_from_u64(72);
        let dim = 12;
        let fam = L2AlshFamily::with_defaults(dim, 1.0).unwrap();
        let q = random_unit_vector(&mut rng, dim).unwrap();
        let aligned = q.scaled(0.95);
        let opposite = q.scaled(-0.95);
        let trials = 2000;
        let (mut c_aligned, mut c_opposite) = (0, 0);
        for _ in 0..trials {
            let f = fam.sample(&mut rng).unwrap();
            if f.hash_data(&aligned).unwrap() == f.hash_query(&q).unwrap() {
                c_aligned += 1;
            }
            if f.hash_data(&opposite).unwrap() == f.hash_query(&q).unwrap() {
                c_opposite += 1;
            }
        }
        assert!(
            c_aligned > c_opposite,
            "aligned pair should collide more often ({c_aligned} vs {c_opposite})"
        );
    }
}

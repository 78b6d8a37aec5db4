//! SIMPLE-ALSH — the Neyshabur–Srebro asymmetric reduction to the sphere.
//!
//! Reference \[39\] of the paper maps a data vector `p` (inside the unit ball) and a query
//! vector `q` (inside the ball of radius `U`) to the unit sphere in `d + 2` dimensions:
//!
//! ```text
//! P(p) = (p, √(1 − ‖p‖²), 0)
//! Q(q) = (q/U, 0, √(1 − ‖q‖²/U²))
//! ```
//!
//! The embedded inner product is `P(p)ᵀQ(q) = pᵀq / U`, so large inner products become
//! large cosines and any sphere LSH applies. Section 4.1 of the paper obtains its
//! improved ρ (eq. 3, the DATA-DEP curve of Figure 2) by plugging the optimal
//! data-dependent sphere LSH into exactly this reduction; here the runnable substrate is
//! hyperplane (SimHash) hashing, which yields the SIMP curve of Figure 2, or
//! cross-polytope hashing for better practical performance.
//!
//! A [`SimpleAlshFunction`] embeds and hashes one vector on its own — the definition
//! of the family, and the oracle the bit-identity tests compare against. An
//! [`crate::table::LshIndex`] does not call it: [`SimpleAlshFamily`] is a
//! [`BankedFamily`], so the index draws its planes straight into a
//! [`PlaneBank`](crate::bank::PlaneBank), which embeds each vector once through [`SphereTransform::transform_data_into`] /
//! [`SphereTransform::transform_query_into`] — the same code the allocating
//! `transform_*` wrap — and evaluates every hyperplane of every table in one pass.

use crate::bank::Embedding;
use crate::error::{LshError, Result};
use crate::hyperplane::{HyperplaneFamily, HyperplaneFunction};
use crate::traits::{
    AsymmetricHashFunction, AsymmetricLshFamily, BankedFamily, HashFunction, LshFamily,
};
use ips_linalg::DenseVector;
use rand::Rng;

/// The asymmetric ball-to-sphere transform shared by SIMPLE-ALSH and the Section 4.1
/// construction.
#[derive(Debug, Clone, PartialEq)]
pub struct SphereTransform {
    dim: usize,
    query_radius: f64,
}

impl SphereTransform {
    /// Creates a transform for data in the unit ball and queries in the ball of radius
    /// `query_radius`.
    pub fn new(dim: usize, query_radius: f64) -> Result<Self> {
        if dim == 0 {
            return Err(LshError::InvalidParameter {
                name: "dim",
                reason: "dimension must be positive".into(),
            });
        }
        if !(query_radius > 0.0) {
            return Err(LshError::InvalidParameter {
                name: "query_radius",
                reason: format!("query radius must be positive, got {query_radius}"),
            });
        }
        Ok(Self { dim, query_radius })
    }

    /// Input dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Output dimension (`dim + 2`).
    pub fn output_dim(&self) -> usize {
        self.dim + 2
    }

    /// Query-domain radius `U`.
    pub fn query_radius(&self) -> f64 {
        self.query_radius
    }

    /// Data-side map `P(p) = (p, √(1 − ‖p‖²), 0)`.
    ///
    /// Returns a [`LshError::DomainViolation`] when `‖p‖ > 1` (allowing a small
    /// floating-point slack).
    pub fn transform_data(&self, p: &DenseVector) -> Result<DenseVector> {
        let mut out = Vec::with_capacity(self.output_dim());
        self.transform_data_into(p, &mut out)?;
        Ok(DenseVector::new(out))
    }

    /// [`SphereTransform::transform_data`] into a caller-owned buffer (cleared first),
    /// so a hashing loop embeds every point into the same allocation.
    pub fn transform_data_into(&self, p: &DenseVector, out: &mut Vec<f64>) -> Result<()> {
        if p.dim() != self.dim {
            return Err(LshError::DimensionMismatch {
                expected: self.dim,
                actual: p.dim(),
            });
        }
        let norm_sq = p.norm_sq();
        // Negated so that a NaN norm is refused too.
        if !(norm_sq <= 1.0 + 1e-9) {
            return Err(LshError::DomainViolation {
                reason: format!("data vector norm {} exceeds 1", norm_sq.sqrt()),
            });
        }
        out.clear();
        out.extend_from_slice(p.as_slice());
        out.push((1.0 - norm_sq).max(0.0).sqrt());
        out.push(0.0);
        Ok(())
    }

    /// Query-side map `Q(q) = (q/U, 0, √(1 − ‖q‖²/U²))`.
    ///
    /// Returns a [`LshError::DomainViolation`] when `‖q‖ > U`.
    pub fn transform_query(&self, q: &DenseVector) -> Result<DenseVector> {
        let mut out = Vec::with_capacity(self.output_dim());
        self.transform_query_into(q, &mut out)?;
        Ok(DenseVector::new(out))
    }

    /// [`SphereTransform::transform_query`] into a caller-owned buffer (cleared first).
    pub fn transform_query_into(&self, q: &DenseVector, out: &mut Vec<f64>) -> Result<()> {
        if q.dim() != self.dim {
            return Err(LshError::DimensionMismatch {
                expected: self.dim,
                actual: q.dim(),
            });
        }
        let inverse_radius = 1.0 / self.query_radius;
        out.clear();
        out.extend(q.iter().map(|x| x * inverse_radius));
        let norm_sq = ips_linalg::tile::dot_slices(out, out);
        if !(norm_sq <= 1.0 + 1e-9) {
            return Err(LshError::DomainViolation {
                reason: format!(
                    "query vector norm {} exceeds the declared radius {}",
                    q.norm(),
                    self.query_radius
                ),
            });
        }
        out.push(0.0);
        out.push((1.0 - norm_sq).max(0.0).sqrt());
        Ok(())
    }
}

/// SIMPLE-ALSH: the sphere transform composed with multi-bit hyperplane hashing.
#[derive(Debug, Clone)]
pub struct SimpleAlshFamily {
    transform: SphereTransform,
    hasher: HyperplaneFamily,
}

impl SimpleAlshFamily {
    /// Creates a SIMPLE-ALSH family hashing with `bits` hyperplane signs per function.
    pub fn new(dim: usize, query_radius: f64, bits: usize) -> Result<Self> {
        let transform = SphereTransform::new(dim, query_radius)?;
        let hasher = HyperplaneFamily::new(transform.output_dim(), bits)?;
        Ok(Self { transform, hasher })
    }

    /// The underlying sphere transform.
    pub fn transform(&self) -> &SphereTransform {
        &self.transform
    }

    /// Theoretical single-bit collision probability for a pair with inner product `ip`
    /// (data in the unit ball, query of norm at most `U`): `1 − arccos(ip/U)/π`.
    pub fn collision_probability(ip: f64, query_radius: f64) -> f64 {
        HyperplaneFamily::collision_probability(ip / query_radius)
    }
}

/// A sampled SIMPLE-ALSH function pair.
#[derive(Debug, Clone)]
pub struct SimpleAlshFunction {
    transform: SphereTransform,
    inner: HyperplaneFunction,
}

impl SimpleAlshFunction {
    /// The ball-to-sphere transform applied before hashing.
    pub fn transform(&self) -> &SphereTransform {
        &self.transform
    }

    /// The hyperplane function applied to the embedded vectors.
    pub fn hyperplane(&self) -> &HyperplaneFunction {
        &self.inner
    }
}

impl AsymmetricHashFunction for SimpleAlshFunction {
    fn hash_data(&self, p: &DenseVector) -> Result<u64> {
        let embedded = self.transform.transform_data(p)?;
        self.inner.hash(&embedded)
    }

    fn hash_query(&self, q: &DenseVector) -> Result<u64> {
        let embedded = self.transform.transform_query(q)?;
        self.inner.hash(&embedded)
    }
}

impl AsymmetricLshFamily for SimpleAlshFamily {
    type Function = SimpleAlshFunction;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Self::Function> {
        Ok(SimpleAlshFunction {
            transform: self.transform.clone(),
            inner: self.hasher.sample(rng)?,
        })
    }

    fn dim(&self) -> Option<usize> {
        Some(self.transform.dim())
    }
}

/// SIMPLE-ALSH hashes the Section 4.1 sphere image of a vector.
impl BankedFamily for SimpleAlshFamily {
    fn planes(&self) -> (Embedding, &HyperplaneFamily) {
        (Embedding::Sphere(self.transform.clone()), &self.hasher)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_linalg::random::{correlated_unit_pair, random_ball_vector};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn parameter_validation() {
        assert!(SphereTransform::new(0, 1.0).is_err());
        assert!(SphereTransform::new(4, 0.0).is_err());
        assert!(SimpleAlshFamily::new(4, 1.0, 0).is_err());
        let fam = SimpleAlshFamily::new(4, 2.0, 8).unwrap();
        assert_eq!(AsymmetricLshFamily::dim(&fam), Some(4));
        assert_eq!(fam.transform().output_dim(), 6);
        assert_eq!(fam.transform().query_radius(), 2.0);
    }

    #[test]
    fn transforms_land_on_unit_sphere() {
        let mut rng = StdRng::seed_from_u64(61);
        let t = SphereTransform::new(8, 3.0).unwrap();
        for _ in 0..20 {
            let p = random_ball_vector(&mut rng, 8, 1.0).unwrap();
            let q = random_ball_vector(&mut rng, 8, 3.0).unwrap();
            assert!((t.transform_data(&p).unwrap().norm() - 1.0).abs() < 1e-9);
            assert!((t.transform_query(&q).unwrap().norm() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn transform_scales_inner_product_by_radius() {
        let mut rng = StdRng::seed_from_u64(62);
        let u = 4.0;
        let t = SphereTransform::new(6, u).unwrap();
        for _ in 0..20 {
            let p = random_ball_vector(&mut rng, 6, 1.0).unwrap();
            let q = random_ball_vector(&mut rng, 6, u).unwrap();
            let original = p.dot(&q).unwrap();
            let embedded = t
                .transform_data(&p)
                .unwrap()
                .dot(&t.transform_query(&q).unwrap())
                .unwrap();
            assert!((embedded - original / u).abs() < 1e-9);
        }
    }

    #[test]
    fn domain_violations_are_rejected() {
        let t = SphereTransform::new(3, 1.0).unwrap();
        let too_long = DenseVector::from(&[2.0, 0.0, 0.0][..]);
        assert!(t.transform_data(&too_long).is_err());
        assert!(t.transform_query(&too_long).is_err());
        let wrong_dim = DenseVector::zeros(2);
        assert!(t.transform_data(&wrong_dim).is_err());
        assert!(t.transform_query(&wrong_dim).is_err());
    }

    #[test]
    fn empirical_collision_matches_theory() {
        let mut rng = StdRng::seed_from_u64(63);
        let dim = 16;
        let family = SimpleAlshFamily::new(dim, 1.0, 1).unwrap();
        for &ip in &[0.2, 0.7] {
            // Unit vectors with the prescribed inner product stay inside the unit ball.
            let (a, b) = correlated_unit_pair(&mut rng, dim, ip).unwrap();
            let a = a.scaled(0.999);
            let b = b.scaled(0.999);
            let trials = 4000;
            let mut collisions = 0;
            for _ in 0..trials {
                let f = family.sample(&mut rng).unwrap();
                if f.hash_data(&a).unwrap() == f.hash_query(&b).unwrap() {
                    collisions += 1;
                }
            }
            let empirical = collisions as f64 / trials as f64;
            let theory = SimpleAlshFamily::collision_probability(a.dot(&b).unwrap(), 1.0);
            assert!(
                (empirical - theory).abs() < 0.04,
                "ip={ip}: {empirical} vs {theory}"
            );
        }
    }

    #[test]
    fn asymmetry_matters_for_identical_input() {
        // For p = q on the unit sphere the data and query embeddings differ (the extra
        // coordinates are placed differently), so self-collision probability is below 1 —
        // this is the price of asymmetry discussed throughout Section 3 of the paper.
        let mut rng = StdRng::seed_from_u64(64);
        let dim = 8;
        let family = SimpleAlshFamily::new(dim, 1.0, 4).unwrap();
        let v = random_ball_vector(&mut rng, dim, 0.6).unwrap();
        let trials = 2000;
        let mut collisions = 0;
        for _ in 0..trials {
            let f = family.sample(&mut rng).unwrap();
            if f.collides(&v, &v).unwrap() {
                collisions += 1;
            }
        }
        let rate = collisions as f64 / trials as f64;
        assert!(rate < 0.999, "self-collision rate unexpectedly 1: {rate}");
    }
}

//! The Section 4.1 asymmetric map for signed IPS: the [`LshMips`] index over
//! [`SphereTransform`].
//!
//! Construction (paper, Section 4.1): data vectors (unit ball) and query vectors (ball
//! of radius `U`) are mapped to the `(d+2)`-dimensional unit sphere with the asymmetric
//! map of \[39\] — `p ↦ (p, √(1−‖p‖²), 0)`, `q ↦ (q/U, 0, √(1−‖q‖²/U²))` — after which
//! signed inner product search *is* approximate near-neighbour search on the sphere
//! with distance threshold `r = √(2(1 − s/U))` and approximation
//! `c' = √((1 − cs/U)/(1 − s/U))`. Plugging in the optimal data-dependent sphere LSH \[9\]
//! gives the exponent of equation 3,
//!
//! ```text
//! ρ = (1 − s/U) / (1 + (1 − 2c)·s/U),
//! ```
//!
//! the DATA-DEP curve of Figure 2. The runnable index here uses hyperplane (SimHash)
//! hashing as the sphere substrate — the same reduction with the SIMP exponent — because
//! the data-dependent scheme of \[9\] is a theoretical construction; the ρ *formulas* for
//! both are exposed so the benchmarks can compare predicted exponents with measured
//! candidate-set sizes.

use crate::error::{CoreError, Result};
use crate::lsh_join::JoinMap;
use crate::lsh_mips::{check_bits_per_table, LshMips, SphereMap, Tuning};
use crate::problem::JoinSpec;
use ips_linalg::DenseVector;
use ips_lsh::bank::{Point, Side};
use ips_lsh::rho::{rho_data_dependent, rho_simple_alsh};
use ips_lsh::simple_alsh::SimpleAlshFamily;
pub use ips_lsh::simple_alsh::SphereTransform;
use ips_lsh::table::{BlockHasher, IndexParams};

/// Tuning parameters of the Section 4.1 index, [`LshMips`]`<`[`SphereTransform`]`>`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlshParams {
    /// Radius `U` of the query domain (data vectors must lie in the unit ball).
    pub query_radius: f64,
    /// Number of hyperplane bits per table (the AND-construction width `k`), `1..=64`:
    /// a table's key is their sign word.
    pub bits_per_table: usize,
    /// Number of hash tables (the OR-construction width `L`).
    pub tables: usize,
    /// Extra query-directed probe buckets visited per table (see `ips_lsh::probe`).
    /// `0` (the default) is the classical single-bucket lookup, bit-identical to the
    /// pre-probing behaviour; larger values trade lookups for fewer tables.
    pub probes: usize,
}

impl Default for AlshParams {
    fn default() -> Self {
        Self {
            query_radius: 1.0,
            bits_per_table: 12,
            tables: 32,
            probes: 0,
        }
    }
}

/// `v` as a data vector of the transform: of its dimension and inside the unit ball.
fn check_data(transform: &SphereTransform, v: &DenseVector) -> Result<()> {
    if v.dim() != transform.dim() {
        return Err(CoreError::DimensionMismatch {
            expected: transform.dim(),
            actual: v.dim(),
        });
    }
    // Negated so that a NaN norm is refused too.
    if !(v.norm() <= 1.0 + 1e-9) {
        return Err(CoreError::InvalidParameter {
            name: "v",
            reason: format!("data vector norm {} exceeds 1", v.norm()),
        });
    }
    Ok(())
}

/// The asymmetric map `p ↦ (p, √(1−‖p‖²), 0)`, `q ↦ (q/U, 0, √(1−‖q‖²/U²))`. The
/// hashing kernel embeds a vector itself (the plane bank's `Embedding::Sphere`), so
/// the map presents every vector as it is and has no diagonal: queries must lie in
/// the ball of radius `params.query_radius`, and the spec's threshold must satisfy
/// `0 < s ≤ U` for the reduction to make sense.
impl SphereMap for SphereTransform {
    type Params = AlshParams;
    type Family = SimpleAlshFamily;
    type Block = ();

    fn new(dim: usize, spec: &JoinSpec, params: &AlshParams) -> Result<Self> {
        check_bits_per_table(params.bits_per_table)?;
        if spec.threshold > params.query_radius {
            return Err(CoreError::InvalidParameter {
                name: "spec.threshold",
                reason: format!(
                    "threshold {} exceeds the query radius {}; no pair can satisfy the promise",
                    spec.threshold, params.query_radius
                ),
            });
        }
        Ok(SphereTransform::new(dim, params.query_radius)?)
    }

    fn family(&self) -> Result<SimpleAlshFamily> {
        Ok(SimpleAlshFamily::new(self.dim(), self.query_radius(), 1)?)
    }

    fn tuning(params: &AlshParams) -> Tuning {
        Tuning {
            tables: IndexParams {
                k: params.bits_per_table,
                l: params.tables,
            },
            probes: params.probes,
        }
    }

    fn set_probes(params: &mut AlshParams, probes: usize) {
        params.probes = probes;
    }

    fn with_point<T>(
        &self,
        side: Side,
        v: &DenseVector,
        f: impl FnOnce(Point<'_>, Option<u64>) -> Result<T>,
    ) -> Result<T> {
        // The query side is the kernel's to check, against the radius `U`.
        if side == Side::Data {
            check_data(self, v)?;
        }
        f(v.into(), None)
    }

    fn block(&self, _points: usize) {}

    fn block_keys(
        &self,
        vectors: &[DenseVector],
        (): &mut (),
        hasher: &mut BlockHasher<'_>,
        keys: &mut [u64],
    ) -> Result<()> {
        vectors.iter().try_for_each(|v| check_data(self, v))?;
        Ok(hasher.data_keys(vectors.iter().map(Point::from), keys)?)
    }
}

/// A join hands the kernel each vector as it is: nothing to keep between groups.
impl JoinMap for SphereTransform {
    fn plane_rows(&self) -> usize {
        self.output_dim()
    }

    /// A query is checked against the radius `U` here, as the kernel checks it when it
    /// embeds the query: a join that scans never hands a query to the kernel.
    fn check(&self, side: Side, v: &DenseVector) -> Result<Option<u64>> {
        match side {
            Side::Data => check_data(self, v)?,
            Side::Query => {
                self.transform_query_into(v, &mut Vec::with_capacity(self.output_dim()))?
            }
        }
        Ok(None)
    }
}

impl LshMips<'_, SphereTransform> {
    /// The ρ exponent the *ideal* (data-dependent, equation 3) instantiation of this
    /// reduction would achieve for this index's spec.
    pub fn rho_data_dependent(&self) -> Result<f64> {
        use crate::mips::MipsIndex;
        let spec = self.spec();
        Ok(rho_data_dependent(
            spec.threshold,
            spec.approximation,
            self.params().query_radius,
        )?)
    }

    /// The ρ exponent of the hyperplane-based instantiation actually built (the SIMP
    /// curve of Figure 2).
    pub fn rho_simple(&self) -> Result<f64> {
        use crate::mips::MipsIndex;
        let spec = self.spec();
        Ok(rho_simple_alsh(
            spec.threshold,
            spec.approximation,
            self.params().query_radius,
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsh_mips::suite;
    use crate::problem::JoinVariant;
    use ips_linalg::par::Schedule;
    use ips_lsh::table::BUILD_BLOCK;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    suite::lsh_mips_suite!(SphereTransform);

    fn build(spec: JoinSpec) -> Result<LshMips<'static, SphereTransform>> {
        let data = vec![DenseVector::from(&[0.3, 0.1][..])];
        LshMips::build(
            Schedule::new(BUILD_BLOCK),
            &mut StdRng::seed_from_u64(0xA15B),
            data,
            spec,
            AlshParams::default(),
        )
    }

    #[test]
    fn a_threshold_above_the_query_radius_is_rejected() {
        assert!(build(JoinSpec::new(2.0, 0.5, JoinVariant::Signed).unwrap()).is_err());
    }

    #[test]
    fn rho_accessors_match_figure2_formulas() {
        let index = build(JoinSpec::new(0.5, 0.7, JoinVariant::Signed).unwrap()).unwrap();
        let dd = index.rho_data_dependent().unwrap();
        let simp = index.rho_simple().unwrap();
        assert!((dd - rho_data_dependent(0.5, 0.7, 1.0).unwrap()).abs() < 1e-12);
        assert!((simp - rho_simple_alsh(0.5, 0.7, 1.0).unwrap()).abs() < 1e-12);
        assert!(dd <= simp);
    }
}

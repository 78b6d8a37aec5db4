//! Estimating the maximum absolute inner product `‖Aq‖_∞` (Section 4.3, value version).
//!
//! The estimator stores several independent pre-sketched matrices `Π_t·A` and answers a
//! query `q` with the median over `t` of `‖(Π_t A) q‖_∞` (after the Fréchet median
//! correction). Since `‖Aq‖_∞ ≤ ‖Aq‖_κ ≤ n^{1/κ}·‖Aq‖_∞`, the value returned is an
//! `n^{1/κ}`-approximation of the true maximum absolute inner product — the
//! `c ≥ 1/n^{1/κ}` guarantee of the paper — while each query costs only
//! `O(copies · d · m)` with `m = Õ(n^{1−2/κ})` instead of `O(n·d)`.
//!
//! # Layout and kernel
//!
//! The `copies` matrices (each `m × d`) live in **one coordinate-major block**: row `j`
//! of the block holds coordinate `j` of every sketch row, sketch row `r` of copy `t` at
//! column `t·m + r`. An estimate is then
//!
//! 1. `acc[t·m + r] += block[j][t·m + r] · q[j]` for `j = 0, 1, …` — `copies · m`
//!    independent accumulators the compiler vectorises, in a scratch the thread reuses;
//! 2. per copy, the largest `|acc|` times the Fréchet median correction;
//! 3. the median of those `copies` values, taken in the same scratch.
//!
//! Nothing is allocated once the thread's scratch has grown to the widest estimator it
//! has met. **Every estimate is bit-identical to the row-major evaluation**
//! (`Matrix::matvec` → `max_abs` → [`median`](crate::stable::median)): accumulator
//! `t·m + r` starts from the value an empty `f64` sum has and adds
//! `(Π_t A)[r][j]·q[j]` for `j` ascending, which is exactly the order of `matvec`'s
//! per-row sum; only which sums are *interleaved* changed. That is what lets an
//! estimator decoded from a snapshot answer as the build that wrote it did.
//!
//! The block is the only resident copy of the coefficients:
//! [`MaxIpEstimator::sketched`] scatters it back into per-copy matrices for persistence.

use crate::cost::resolved_rows;
use crate::error::{uniform_dim, Result, SketchError};
use crate::maxstable::MaxStableSketch;
use crate::stable::median_in_place;
use ips_linalg::{DenseVector, Matrix};
use rand::Rng;
use std::cell::RefCell;

/// Configuration of the `‖Aq‖_∞` estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaxIpConfig {
    /// Norm exponent `κ ≥ 2`; the approximation factor is `n^{1/κ}`.
    pub kappa: f64,
    /// Number of independent sketch copies over which the median is taken.
    pub copies: usize,
    /// Number of buckets per sketch; `None` selects
    /// [`MaxStableSketch::recommended_rows`].
    pub rows: Option<usize>,
}

impl Default for MaxIpConfig {
    fn default() -> Self {
        Self {
            kappa: 2.0,
            copies: 9,
            rows: None,
        }
    }
}

impl MaxIpConfig {
    /// Checks the ranges every estimator needs: at least one copy, `κ ≥ 2`, and a
    /// positive row count when one is given.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.copies == 0 {
            return Err(SketchError::InvalidParameter {
                name: "copies",
                reason: "at least one sketch copy is required".into(),
            });
        }
        if !(self.kappa >= 2.0) {
            return Err(SketchError::InvalidParameter {
                name: "kappa",
                reason: format!("kappa must be at least 2, got {}", self.kappa),
            });
        }
        if self.rows == Some(0) {
            return Err(SketchError::InvalidParameter {
                name: "rows",
                reason: "a sketch copy needs at least one row".into(),
            });
        }
        Ok(())
    }
}

thread_local! {
    /// The kernel's accumulators (see the module docs), one buffer per thread.
    static SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with this thread's kernel scratch. Estimates never call back into code
/// that could ask for it again, so the borrow cannot be contended.
pub(crate) fn with_scratch<T>(f: impl FnOnce(&mut Vec<f64>) -> T) -> T {
    SCRATCH.with_borrow_mut(f)
}

/// The Section 4.3 value estimator: a stack of pre-sketched data matrices, held as one
/// coordinate-major block (see the module docs).
#[derive(Debug, Clone)]
pub struct MaxIpEstimator {
    kappa: f64,
    n: usize,
    dim: usize,
    copies: usize,
    /// Buckets per copy, `m`.
    rows: usize,
    /// `dim × (copies · rows)` coefficients: `(Π_t A)[r][j]` at `j · width + t · rows + r`.
    block: Vec<f64>,
}

impl MaxIpEstimator {
    /// Builds the estimator over the data rows (each row is one data vector).
    pub fn build<R: Rng + ?Sized>(
        rng: &mut R,
        data: &[DenseVector],
        config: MaxIpConfig,
    ) -> Result<Self> {
        if data.is_empty() {
            return Err(SketchError::EmptyDataSet);
        }
        config.validate()?;
        Self::build_trusted(rng, data, uniform_dim(data)?, config)
    }

    /// [`MaxIpEstimator::build`] for a caller that has validated `config` and checked
    /// that `data` is non-empty and of dimension `dim` throughout — the recovery tree
    /// does both once for all of its estimators.
    pub(crate) fn build_trusted<R: Rng + ?Sized>(
        rng: &mut R,
        data: &[DenseVector],
        dim: usize,
        config: MaxIpConfig,
    ) -> Result<Self> {
        let n = data.len();
        let rows = resolved_rows(n, &config);
        let mut estimator = Self::zeroed(config.kappa, n, dim, config.copies, rows);
        let mut sketched = vec![0.0; rows * dim];
        for t in 0..config.copies {
            let sketch = MaxStableSketch::sample(rng, n, rows, config.kappa)?;
            sketched.fill(0.0);
            sketch.apply_to_rows_into(data, dim, &mut sketched);
            estimator.scatter_copy(t, (0..rows).map(|r| &sketched[r * dim..(r + 1) * dim]));
        }
        Ok(estimator)
    }

    fn zeroed(kappa: f64, n: usize, dim: usize, copies: usize, rows: usize) -> Self {
        Self {
            kappa,
            n,
            dim,
            copies,
            rows,
            block: vec![0.0; dim * copies * rows],
        }
    }

    fn width(&self) -> usize {
        self.copies * self.rows
    }

    /// Files copy `t`, given as its `rows` sketch rows of `dim` coefficients each,
    /// into the block.
    fn scatter_copy<'a>(&mut self, t: usize, sketch_rows: impl Iterator<Item = &'a [f64]>) {
        let width = self.width();
        for (r, sketch_row) in sketch_rows.enumerate() {
            let column = t * self.rows + r;
            for (j, &value) in sketch_row.iter().enumerate() {
                self.block[j * width + column] = value;
            }
        }
    }

    /// Number of data vectors `n`.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` when the estimator indexes no vectors (never true after `build`).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Data dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The guaranteed approximation factor `n^{1/κ}`: the true maximum lies within
    /// `[estimate / slack, estimate · slack]` up to the sketch's constant factors.
    pub fn approximation_factor(&self) -> f64 {
        (self.n as f64).powf(1.0 / self.kappa)
    }

    /// Number of independent sketch copies the median is taken over.
    pub fn copies(&self) -> usize {
        self.copies
    }

    /// Number of buckets per sketch copy (the `m` in the `Õ(d·m)` query cost).
    pub fn rows_per_copy(&self) -> usize {
        self.rows
    }

    /// The norm exponent `κ` the estimator was built with.
    pub fn kappa(&self) -> f64 {
        self.kappa
    }

    /// Number of `f64` coefficients the estimator holds: `copies · m · d`.
    pub fn stored_coefficients(&self) -> usize {
        self.block.len()
    }

    /// The pre-sketched `Π_t·A` matrices, one `m × d` matrix per independent copy,
    /// scattered out of the block (persistence accessor — together with `κ`, `n` and
    /// `d` this is the estimator's whole state).
    pub fn sketched(&self) -> Vec<Matrix> {
        let width = self.width();
        (0..self.copies)
            .map(|t| {
                let mut row_major = Vec::with_capacity(self.rows * self.dim);
                for r in 0..self.rows {
                    let column = t * self.rows + r;
                    row_major.extend((0..self.dim).map(|j| self.block[j * width + column]));
                }
                Matrix::from_row_major(self.rows, self.dim, row_major)
                    .expect("rows · dim coefficients were gathered")
            })
            .collect()
    }

    /// Reassembles an estimator from previously extracted state — the inverse of
    /// [`MaxIpEstimator::sketched`] and friends, used by snapshot persistence to
    /// restore an estimator without re-drawing its sketches.
    ///
    /// Returns an error for an invalid `κ`, an empty copy list, `n == 0`, sketched
    /// matrices that disagree on shape (every copy must be `m × d` with `m ≥ 1`), or
    /// a coefficient that is not finite.
    pub fn from_raw_parts(kappa: f64, n: usize, dim: usize, sketched: Vec<Matrix>) -> Result<Self> {
        if !(kappa >= 2.0) {
            return Err(SketchError::InvalidParameter {
                name: "kappa",
                reason: format!("kappa must be at least 2, got {kappa}"),
            });
        }
        if n == 0 {
            return Err(SketchError::EmptyDataSet);
        }
        let invalid = |reason: String| SketchError::InvalidParameter {
            name: "sketched",
            reason,
        };
        let rows = match sketched.first() {
            Some(m) if m.rows() > 0 => m.rows(),
            Some(_) => return Err(invalid("a sketch copy needs at least one row".into())),
            None => return Err(invalid("at least one sketch copy is required".into())),
        };
        for m in &sketched {
            if m.cols() != dim || m.rows() != rows {
                return Err(invalid(format!(
                    "every copy must be {rows}x{dim}, got {}x{}",
                    m.rows(),
                    m.cols()
                )));
            }
            if !m.iter_rows().flatten().all(|c| c.is_finite()) {
                return Err(invalid("a sketched coefficient is not finite".into()));
            }
        }
        let mut estimator = Self::zeroed(kappa, n, dim, sketched.len(), rows);
        for (t, m) in sketched.iter().enumerate() {
            estimator.scatter_copy(t, m.iter_rows());
        }
        Ok(estimator)
    }

    /// Estimates `‖Aq‖_κ` (which sandwiches `‖Aq‖_∞` within `n^{1/κ}`).
    pub fn estimate(&self, q: &DenseVector) -> Result<f64> {
        if q.dim() != self.dim {
            return Err(SketchError::DimensionMismatch {
                expected: self.dim,
                actual: q.dim(),
            });
        }
        Ok(with_scratch(|scratch| {
            self.estimate_with(q.as_slice(), scratch)
        }))
    }

    /// The estimate kernel (see the module docs) for a `q` of dimension `dim`, on a
    /// scratch whose contents it overwrites.
    pub(crate) fn estimate_with(&self, q: &[f64], scratch: &mut Vec<f64>) -> f64 {
        debug_assert_eq!(q.len(), self.dim);
        let width = self.width();
        // What `Iterator::sum` starts a row's sum from, so that even the sign of an
        // all-zero row's result is the row-major one.
        let empty_sum: f64 = std::iter::empty::<f64>().sum();
        scratch.clear();
        scratch.resize(width + self.copies, empty_sum);
        let (acc, per_copy) = scratch.split_at_mut(width);
        for (coefficients, &qj) in self.block.chunks_exact(width).zip(q) {
            for (a, &c) in acc.iter_mut().zip(coefficients) {
                *a += c * qj;
            }
        }
        let correction = MaxStableSketch::median_correction(self.kappa);
        for (estimate, sketched) in per_copy.iter_mut().zip(acc.chunks_exact(self.rows)) {
            let max_abs = sketched.iter().fold(0.0_f64, |m, x| m.max(x.abs()));
            *estimate = max_abs * correction;
        }
        median_in_place(per_copy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_linalg::random::{gaussian_vector, random_unit_vector};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x11F)
    }

    #[test]
    fn build_validation() {
        let mut r = rng();
        let data = vec![gaussian_vector(&mut r, 6); 10];
        assert!(MaxIpEstimator::build(&mut r, &[], MaxIpConfig::default()).is_err());
        let bad_copies = MaxIpConfig {
            copies: 0,
            ..Default::default()
        };
        assert!(MaxIpEstimator::build(&mut r, &data, bad_copies).is_err());
        let bad_kappa = MaxIpConfig {
            kappa: 1.0,
            ..Default::default()
        };
        assert!(MaxIpEstimator::build(&mut r, &data, bad_kappa).is_err());
        let mut mixed = data.clone();
        mixed.push(gaussian_vector(&mut r, 5));
        assert!(MaxIpEstimator::build(&mut r, &mixed, MaxIpConfig::default()).is_err());
        let est = MaxIpEstimator::build(&mut r, &data, MaxIpConfig::default()).unwrap();
        assert_eq!(est.len(), 10);
        assert!(!est.is_empty());
        assert_eq!(est.dim(), 6);
        assert!(est.rows_per_copy() > 0);
        assert!(est.estimate(&DenseVector::zeros(3)).is_err());
    }

    #[test]
    fn approximation_factor_formula() {
        let mut r = rng();
        let data = vec![gaussian_vector(&mut r, 4); 100];
        let config = MaxIpConfig {
            kappa: 2.0,
            copies: 3,
            rows: Some(16),
        };
        let est = MaxIpEstimator::build(&mut r, &data, config).unwrap();
        assert!((est.approximation_factor() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn planted_large_inner_product_is_detected() {
        // Background points nearly orthogonal to the query; one planted point aligned
        // with it. The estimate must be much closer to the planted value than to the
        // background noise level.
        let mut r = rng();
        let dim = 24;
        let n = 300;
        let query = random_unit_vector(&mut r, dim).unwrap();
        let mut data: Vec<DenseVector> = (0..n)
            .map(|_| random_unit_vector(&mut r, dim).unwrap().scaled(0.2))
            .collect();
        data[123] = query.scaled(5.0); // inner product 5 with the query
        let config = MaxIpConfig {
            kappa: 2.0,
            copies: 15,
            rows: None,
        };
        let est = MaxIpEstimator::build(&mut r, &data, config).unwrap();
        let value = est.estimate(&query).unwrap();
        // True max-|IP| is 5; the kappa-norm of Aq is at most sqrt(5² + n·0.2²) ≈ 6.1.
        assert!(
            value > 2.0 && value < 15.0,
            "estimate {value} not within a small constant factor of the planted 5.0"
        );
    }

    #[test]
    fn estimate_scales_linearly_with_query() {
        let mut r = rng();
        let dim = 12;
        let data: Vec<DenseVector> = (0..80).map(|_| gaussian_vector(&mut r, dim)).collect();
        let est = MaxIpEstimator::build(&mut r, &data, MaxIpConfig::default()).unwrap();
        let q = random_unit_vector(&mut r, dim).unwrap();
        let base = est.estimate(&q).unwrap();
        let doubled = est.estimate(&q.scaled(2.0)).unwrap();
        assert!((doubled - 2.0 * base).abs() < 1e-9 * doubled.max(1.0));
    }
}

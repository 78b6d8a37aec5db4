//! The max-stability sketch for `ℓ_κ`, `κ ≥ 2`.
//!
//! Andoni's construction (reference \[5\] of the paper, "High frequency moments via
//! max-stability") exploits the fact that for i.i.d. exponential variables `E_i`, the
//! random variable `max_i |x_i| / E_i^{1/κ}` is Fréchet-distributed with scale `‖x‖_κ`:
//!
//! ```text
//! Pr[ max_i |x_i|/E_i^{1/κ} ≤ t ] = exp( −‖x‖_κ^κ / t^κ ).
//! ```
//!
//! Scaling every coordinate by `1/E_i^{1/κ}`, attaching a random sign, and *hashing the
//! coordinates into `m = Õ(n^{1−2/κ})` buckets* therefore produces a **linear** map `Π`
//! with `‖Πx‖_∞ = Θ(‖x‖_κ)` with constant probability: the bucket containing the
//! maximum scaled coordinate is dominated by it, while the other coordinates in the
//! bucket contribute only an `ℓ₂`-bounded noise term (this is where `m ≳ n^{1−2/κ}` is
//! needed). Taking the median over independent copies boosts the success probability —
//! that boosting lives in [`crate::linf_mips`].

use crate::error::{Result, SketchError};
use ips_linalg::random::standard_exponential;
use ips_linalg::DenseVector;
use rand::Rng;

/// One max-stability sketch `Π : R^n → R^m` for the `ℓ_κ` norm.
///
/// The matrix has exactly one nonzero per column: column `i` contributes
/// `σ_i / E_i^{1/κ}` to row `h(i)`.
#[derive(Debug, Clone)]
pub struct MaxStableSketch {
    kappa: f64,
    input_dim: usize,
    rows: usize,
    /// Per input coordinate: (bucket, signed scale σ_i / E_i^{1/κ}).
    columns: Vec<(usize, f64)>,
}

impl MaxStableSketch {
    /// Samples a sketch for `input_dim`-dimensional vectors with `rows` buckets.
    ///
    /// `kappa` must be at least 2 (the paper's data structure is stated for `κ ≥ 2`;
    /// smaller values have better classical sketches anyway).
    pub fn sample<R: Rng + ?Sized>(
        rng: &mut R,
        input_dim: usize,
        rows: usize,
        kappa: f64,
    ) -> Result<Self> {
        if input_dim == 0 || rows == 0 {
            return Err(SketchError::InvalidParameter {
                name: "input_dim/rows",
                reason: format!("dimensions must be positive, got {input_dim} x {rows}"),
            });
        }
        if !(kappa >= 2.0) {
            return Err(SketchError::InvalidParameter {
                name: "kappa",
                reason: format!("kappa must be at least 2, got {kappa}"),
            });
        }
        let columns = (0..input_dim)
            .map(|_| {
                let bucket = rng.gen_range(0..rows);
                let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
                let exp = standard_exponential(rng).max(1e-300);
                (bucket, sign / exp.powf(1.0 / kappa))
            })
            .collect();
        Ok(Self {
            kappa,
            input_dim,
            rows,
            columns,
        })
    }

    /// The recommended number of buckets for an `n`-dimensional input:
    /// `⌈4 · n^{1−2/κ} · ln(n+2)⌉ + 8`, matching the `Õ(n^{1−2/κ})` bound of \[5\] with a
    /// small-instance floor.
    pub fn recommended_rows(n: usize, kappa: f64) -> usize {
        let n = n.max(1) as f64;
        (4.0 * n.powf(1.0 - 2.0 / kappa) * (n + 2.0).ln()).ceil() as usize + 8
    }

    /// The stability exponent `κ`.
    pub fn kappa(&self) -> f64 {
        self.kappa
    }

    /// Input dimension `n`.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Number of output buckets `m`.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Applies the sketch to a vector.
    pub fn apply(&self, x: &DenseVector) -> Result<DenseVector> {
        if x.dim() != self.input_dim {
            return Err(SketchError::DimensionMismatch {
                expected: self.input_dim,
                actual: x.dim(),
            });
        }
        let mut out = vec![0.0; self.rows];
        for (i, &(bucket, scale)) in self.columns.iter().enumerate() {
            out[bucket] += scale * x[i];
        }
        Ok(DenseVector::new(out))
    }

    /// Pre-applies the sketch to a matrix whose *rows* are indexed by the sketch input:
    /// writes `Π·A`, where `A` is `input_dim × d` given as a list of rows, into a zeroed
    /// row-major `rows × d` buffer. This is the pre-computation the Section 4.3 data
    /// structure performs on the data matrix so that a query only costs `O(d·m)`; the
    /// caller has checked there are `input_dim` rows of dimension `d` (the tree checks
    /// its data once, not once per estimator).
    ///
    /// Each data row costs `d` multiply-adds — the sketch has one non-zero per column —
    /// and bucket `b` accumulates its rows in ascending input order.
    pub(crate) fn apply_to_rows_into(&self, rows: &[DenseVector], d: usize, out: &mut [f64]) {
        debug_assert_eq!(rows.len(), self.input_dim);
        debug_assert_eq!(out.len(), self.rows * d);
        for (&(bucket, scale), row) in self.columns.iter().zip(rows) {
            let bucket_row = &mut out[bucket * d..(bucket + 1) * d];
            ips_linalg::tile::axpy_slices(bucket_row, scale, row.as_slice());
        }
    }

    /// `(ln 2)^{1/κ}`: the median of a unit-scale Fréchet variable of shape `κ`, which
    /// turns `‖Πx‖_∞` into a point estimate of `‖x‖_κ`.
    pub(crate) fn median_correction(kappa: f64) -> f64 {
        std::f64::consts::LN_2.powf(1.0 / kappa)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stable::median;
    use ips_linalg::random::gaussian_vector;
    use ips_linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x3A87)
    }

    #[test]
    fn parameter_validation() {
        let mut r = rng();
        assert!(MaxStableSketch::sample(&mut r, 0, 4, 2.0).is_err());
        assert!(MaxStableSketch::sample(&mut r, 4, 0, 2.0).is_err());
        assert!(MaxStableSketch::sample(&mut r, 4, 4, 1.5).is_err());
        let s = MaxStableSketch::sample(&mut r, 16, 8, 3.0).unwrap();
        assert_eq!(s.kappa(), 3.0);
        assert_eq!(s.input_dim(), 16);
        assert_eq!(s.rows(), 8);
        assert!(s.apply(&DenseVector::zeros(3)).is_err());
    }

    #[test]
    fn recommended_rows_grows_with_kappa() {
        // m = Õ(n^{1−2/κ}): a better approximation factor n^{1/κ} (larger κ) costs more
        // buckets, approaching linear space as κ → ∞.
        let n = 10_000;
        let m2 = MaxStableSketch::recommended_rows(n, 2.0);
        let m4 = MaxStableSketch::recommended_rows(n, 4.0);
        let m8 = MaxStableSketch::recommended_rows(n, 8.0);
        assert!(m2 < m4 && m4 < m8, "{m2} < {m4} < {m8} expected");
        assert!(m2 >= 8);
        assert!(m8 < n * 10);
    }

    #[test]
    fn sketch_is_linear() {
        let mut r = rng();
        let s = MaxStableSketch::sample(&mut r, 20, 6, 2.0).unwrap();
        let x = gaussian_vector(&mut r, 20);
        let y = gaussian_vector(&mut r, 20);
        let combined = x.scaled(1.5).add(&y.scaled(-2.0)).unwrap();
        let lhs = s.apply(&combined).unwrap();
        let rhs = s
            .apply(&x)
            .unwrap()
            .scaled(1.5)
            .add(&s.apply(&y).unwrap().scaled(-2.0))
            .unwrap();
        for i in 0..lhs.dim() {
            assert!((lhs[i] - rhs[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn norm_estimate_is_within_constant_factor() {
        // Median over independent sketches should land within a small constant factor of
        // the true kappa-norm. Use a vector with a clearly dominant coordinate (the MIPS
        // regime the data structure targets).
        let mut r = rng();
        let n = 400;
        let kappa = 3.0;
        let mut coords = vec![0.05; n];
        coords[37] = 10.0;
        let x = DenseVector::new(coords);
        let truth = x.lp_norm(kappa).unwrap();
        let m = MaxStableSketch::recommended_rows(n, kappa);
        // One sketch's point estimate: `‖Πx‖_∞ · (ln 2)^{1/κ}`.
        let estimates: Vec<f64> = (0..21)
            .map(|_| {
                let sketch = MaxStableSketch::sample(&mut r, n, m, kappa).unwrap();
                sketch.apply(&x).unwrap().max_abs() * MaxStableSketch::median_correction(kappa)
            })
            .collect();
        let est = median(&estimates);
        let ratio = est / truth;
        assert!(
            (0.4..=2.5).contains(&ratio),
            "estimate {est} vs truth {truth} (ratio {ratio})"
        );
    }

    #[test]
    fn apply_to_rows_commutes_with_matvec() {
        // (Π A) q must equal Π (A q): the linearity the Section 4.3 structure relies on.
        let mut r = rng();
        let n = 30;
        let d = 8;
        let s = MaxStableSketch::sample(&mut r, n, 10, 2.0).unwrap();
        let rows: Vec<DenseVector> = (0..n).map(|_| gaussian_vector(&mut r, d)).collect();
        let q = gaussian_vector(&mut r, d);
        let mut pre = vec![0.0; 10 * d];
        s.apply_to_rows_into(&rows, d, &mut pre);
        let lhs = Matrix::from_row_major(10, d, pre)
            .unwrap()
            .matvec(&q)
            .unwrap();
        let aq = DenseVector::new(rows.iter().map(|a| a.dot(&q).unwrap()).collect());
        let rhs = s.apply(&aq).unwrap();
        for i in 0..lhs.dim() {
            assert!((lhs[i] - rhs[i]).abs() < 1e-9);
        }
    }
}

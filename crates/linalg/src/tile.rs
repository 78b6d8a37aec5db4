//! Contiguous SIMD-friendly tiles: the raw-speed kernel layer.
//!
//! Every join family in the workspace bottoms out in dense inner products, and
//! the constant factor on those dot products is set by memory layout and lane
//! width. This module provides the reduced-precision mirror of the
//! [`DenseVector`] kernels that the brute scan opts into: [`FloatTile`], a
//! contiguous row-major `f32` tile (data-major when built from the data set,
//! query-major when built from the query batch). Half the memory traffic of
//! `f64` and twice the SIMD lane width, at the price of ~7 decimal digits: the
//! scoring path that uses it always *rescores* its winners in exact `f64`
//! before reporting, so validity is never at stake.
//!
//! All kernels are written as safe iterator/chunk code with multiple
//! independent accumulators so LLVM autovectorizes them; the crate carries
//! `#![deny(unsafe_code)]`, so no intrinsics can creep in.
//!
//! The `f64` slice kernels ([`dot_slices`], [`axpy_slices`]) exist for hot-loop
//! hygiene: they skip the per-call length check and error-string allocation of
//! the checked [`DenseVector`] methods while preserving the
//! exact accumulation order, so routing an engine loop through them is
//! bit-identical to the checked path. [`score_block`] is the one exact scoring loop
//! built on them: the brute scan, LSH re-scoring, the serving overlay and the sketch
//! leaves all score their candidates through it.

use crate::error::{LinalgError, Result};
use crate::vector::DenseVector;

/// Number of independent accumulators in the `f32` kernels — wide enough for
/// one AVX2 register per accumulator chain on x86-64, and harmless elsewhere.
const F32_LANES: usize = 8;

/// Inner product of two equal-length `f64` slices, in the exact accumulation
/// order of [`DenseVector::dot`] (sequential `iter().zip().map().sum()`), so a
/// caller that has already validated lengths gets a bit-identical result
/// without the per-call length check and error allocation.
///
/// Lengths are only checked under `debug_assertions`.
#[inline]
pub fn dot_slices(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot_slices requires equal lengths");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// The one exact scoring loop: calls `emit(row_index, query_position, score)` for every
/// row against every query, data-major (each row against all queries before the next).
/// Rows come in the order given, each with the index `emit` reports; every score has
/// [`DenseVector::dot`]'s bits, and the first pair whose dimensions differ fails with
/// `dot`'s error. Over ascending rows, a first-strict-`>` rule per query keeps the
/// lowest index among equal scores, as a query-at-a-time scan does.
#[inline]
pub fn score_block<'r, 'q, Q>(
    rows: impl IntoIterator<Item = (usize, &'r DenseVector)>,
    queries: Q,
    mut emit: impl FnMut(usize, usize, f64),
) -> Result<()>
where
    Q: IntoIterator<Item = &'q DenseVector> + Clone,
{
    for (i, p) in rows {
        for (j, q) in queries.clone().into_iter().enumerate() {
            let score = if p.dim() == q.dim() {
                dot_slices(p.as_slice(), q.as_slice())
            } else {
                p.dot(q)?
            };
            emit(i, j, score);
        }
    }
    Ok(())
}

/// `y += alpha · x` over equal-length `f64` slices, in the exact accumulation
/// order of the blocked matmul inner loop (sequential fused updates).
///
/// Lengths are only checked under `debug_assertions`.
#[inline]
pub fn axpy_slices(y: &mut [f64], alpha: f64, x: &[f64]) {
    debug_assert_eq!(y.len(), x.len(), "axpy_slices requires equal lengths");
    for (o, &v) in y.iter_mut().zip(x.iter()) {
        *o += alpha * v;
    }
}

/// Inner product of two equal-length `f32` slices with eight
/// independent accumulators (chunked so LLVM autovectorizes the main loop).
///
/// Lengths are only checked under `debug_assertions`.
#[inline]
pub fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot_f32 requires equal lengths");
    let main = a.len() - a.len() % F32_LANES;
    let mut acc = [0.0f32; F32_LANES];
    for (ca, cb) in a[..main]
        .chunks_exact(F32_LANES)
        .zip(b[..main].chunks_exact(F32_LANES))
    {
        for lane in 0..F32_LANES {
            acc[lane] += ca[lane] * cb[lane];
        }
    }
    let mut sum = acc.iter().sum::<f32>();
    for (x, y) in a[main..].iter().zip(b[main..].iter()) {
        sum += x * y;
    }
    sum
}

/// Squared Euclidean norm of an `f32` slice (same accumulator shape as
/// [`dot_f32`]).
#[inline]
pub fn norm_sq_f32(a: &[f32]) -> f32 {
    dot_f32(a, a)
}

/// `y += alpha · x` over equal-length `f32` slices.
///
/// Lengths are only checked under `debug_assertions`.
#[inline]
pub fn axpy_f32(y: &mut [f32], alpha: f32, x: &[f32]) {
    debug_assert_eq!(y.len(), x.len(), "axpy_f32 requires equal lengths");
    for (o, &v) in y.iter_mut().zip(x.iter()) {
        *o += alpha * v;
    }
}

/// A contiguous row-major `f32` tile over a collection of equal-dimension
/// vectors.
///
/// Built from the data set it is a *data-major* view (one row per data
/// vector, streamed once per query batch); built from a query batch it is the
/// *query-major* view the batched kernels pair it with. Rows are stored
/// back-to-back so the scan over rows is one linear pass over memory.
#[derive(Debug, Clone, PartialEq)]
pub struct FloatTile {
    rows: usize,
    dim: usize,
    data: Vec<f32>,
}

impl FloatTile {
    /// Builds the tile by narrowing each vector's components to `f32`.
    ///
    /// An empty collection produces an empty tile of dimension 0; mixed
    /// dimensions are rejected.
    pub fn from_vectors(vectors: &[DenseVector]) -> Result<Self> {
        let dim = vectors.first().map_or(0, DenseVector::dim);
        let mut data = Vec::with_capacity(vectors.len() * dim);
        for v in vectors {
            if v.dim() != dim {
                return Err(LinalgError::DimensionMismatch {
                    left: dim,
                    right: v.dim(),
                    op: "FloatTile::from_vectors",
                });
            }
            data.extend(v.iter().map(|&x| x as f32));
        }
        Ok(Self {
            rows: vectors.len(),
            dim,
            data,
        })
    }

    /// Builds a one-row tile from a single vector (the per-query conversion).
    pub fn from_vector(v: &DenseVector) -> Self {
        Self {
            rows: 1,
            dim: v.dim(),
            data: v.iter().map(|&x| x as f32).collect(),
        }
    }

    /// Number of rows (vectors) in the tile.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Shared dimension of every row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Returns `true` when the tile holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Read-only slice view of row `r`.
    ///
    /// # Panics
    /// Panics when `r` is out of range.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of range");
        &self.data[r * self.dim..(r + 1) * self.dim]
    }

    /// The whole tile as one contiguous row-major slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Iterator over rows as slices (one linear memory pass).
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> + '_ {
        self.data.chunks_exact(self.dim.max(1)).take(self.rows)
    }

    /// Inner product of row `r` with an external `f32` slice of matching
    /// dimension.
    ///
    /// # Panics
    /// Panics when `r` is out of range; the dimension is only checked under
    /// `debug_assertions`.
    pub fn dot_row(&self, r: usize, q: &[f32]) -> f32 {
        dot_f32(self.row(r), q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dv(xs: &[f64]) -> DenseVector {
        DenseVector::from(xs)
    }

    #[test]
    fn dot_slices_matches_checked_dot_bitwise() {
        let a = dv(&[0.1, -0.7, 0.33, 1e-9, 123.456, -2.5, 0.0, 7.7, 1.25]);
        let b = dv(&[-3.3, 0.2, 1.5, 2e9, -0.001, 4.25, 9.0, -1.1, 0.5]);
        let checked = a.dot(&b).unwrap();
        let fast = dot_slices(a.as_slice(), b.as_slice());
        assert_eq!(checked.to_bits(), fast.to_bits());
    }

    #[test]
    fn score_block_is_data_major_with_dot_bits_and_fails_at_the_first_mismatch() {
        let rows = [dv(&[0.1, -0.7, 0.33]), dv(&[1e-9, 123.456, -2.5])];
        let queries = [dv(&[-3.3, 0.2, 1.5]), dv(&[2e9, -0.001, 4.25])];
        let mut seen = Vec::new();
        score_block([(7, &rows[0]), (3, &rows[1])], &queries, |i, j, s| {
            seen.push((i, j, s.to_bits()))
        })
        .unwrap();
        let expected: Vec<_> = [(7, 0), (3, 1)]
            .iter()
            .flat_map(|&(i, r)| (0..2).map(move |j| (i, j, r)))
            .map(|(i, j, r)| (i, j, rows[r].dot(&queries[j]).unwrap().to_bits()))
            .collect();
        assert_eq!(seen, expected);
        // The pairs before the mismatch are emitted, then `dot`'s error.
        let ragged = [dv(&[1.0, 0.0, 0.0]), dv(&[1.0])];
        let mut emitted = 0;
        let err = score_block(ragged.iter().enumerate(), &queries, |_, _, _| emitted += 1);
        assert_eq!(err, Err(ragged[1].dot(&queries[0]).unwrap_err()));
        assert_eq!(emitted, 2);
    }

    #[test]
    fn axpy_slices_matches_checked_axpy() {
        let mut y = dv(&[1.0, 2.0, 3.0]);
        let x = dv(&[0.5, -0.25, 4.0]);
        let mut y_fast = y.clone();
        y.axpy(1.5, &x).unwrap();
        axpy_slices(y_fast.as_mut_slice(), 1.5, x.as_slice());
        for (a, b) in y.iter().zip(y_fast.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn f32_kernels_approximate_f64() {
        let a = dv(&(0..37).map(|i| (i as f64 * 0.37).sin()).collect::<Vec<_>>());
        let b = dv(&(0..37).map(|i| (i as f64 * 0.11).cos()).collect::<Vec<_>>());
        let exact = a.dot(&b).unwrap();
        let ta = FloatTile::from_vector(&a);
        let tb = FloatTile::from_vector(&b);
        let approx = dot_f32(ta.row(0), tb.row(0)) as f64;
        assert!((exact - approx).abs() < 1e-4, "{exact} vs {approx}");
        let n = norm_sq_f32(ta.row(0)) as f64;
        assert!((n - a.norm_sq()).abs() < 1e-4);
        let mut y = vec![0.0f32; 37];
        axpy_f32(&mut y, 2.0, ta.row(0));
        for (i, &v) in y.iter().enumerate() {
            assert!((f64::from(v) - 2.0 * a[i]).abs() < 1e-4);
        }
    }

    #[test]
    fn float_tile_layout_and_views() {
        let vs = vec![dv(&[1.0, 2.0]), dv(&[3.0, 4.0]), dv(&[5.0, 6.0])];
        let tile = FloatTile::from_vectors(&vs).unwrap();
        assert_eq!(tile.rows(), 3);
        assert_eq!(tile.dim(), 2);
        assert!(!tile.is_empty());
        assert_eq!(tile.row(1), &[3.0f32, 4.0]);
        assert_eq!(tile.as_slice().len(), 6);
        assert_eq!(tile.iter_rows().count(), 3);
        assert_eq!(tile.dot_row(0, &[1.0, 1.0]), 3.0);
        // Mixed dimensions are rejected; empty input is an empty tile.
        assert!(FloatTile::from_vectors(&[dv(&[1.0]), dv(&[1.0, 2.0])]).is_err());
        assert!(FloatTile::from_vectors(&[]).unwrap().is_empty());
    }
}

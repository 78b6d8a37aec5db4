//! Row-major dense matrices.
//!
//! The sketch data structures of Section 4.3 view the data set as an `n × d` matrix `A`
//! and need sketched products `Π·A` and matrix–vector products `A·q`. The matrix type
//! here is intentionally minimal: storage, indexing, matrix–vector products and row
//! views — nothing the workspace does not use.

use crate::error::{LinalgError, Result};
use crate::vector::DenseVector;

/// A dense row-major `rows × cols` matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_row_major(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidParameter {
                name: "data",
                reason: format!(
                    "expected {} elements for a {rows}x{cols} matrix, got {}",
                    rows * cols,
                    data.len()
                ),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    ///
    /// # Panics
    /// Panics when the indices are out of range.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of range"
        );
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    ///
    /// # Panics
    /// Panics when the indices are out of range.
    pub fn set(&mut self, r: usize, c: usize, value: f64) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of range"
        );
        self.data[r * self.cols + c] = value;
    }

    /// Read-only slice view of row `r`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of range");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix–vector product `self · x`.
    pub fn matvec(&self, x: &DenseVector) -> Result<DenseVector> {
        if x.dim() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                left: self.cols,
                right: x.dim(),
                op: "matvec",
            });
        }
        let dot = |r| crate::tile::dot_slices(self.row(r), x.as_slice());
        Ok(DenseVector::new((0..self.rows).map(dot).collect()))
    }

    /// Iterator over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> + '_ {
        (0..self.rows).map(move |r| self.row(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_row_major(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.get(1, 0), 4.0);
        assert!(Matrix::from_row_major(2, 3, vec![1.0]).is_err());
    }

    #[test]
    fn matvec_matches_manual() {
        let m = Matrix::from_row_major(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let x = DenseVector::from(&[1.0, 0.0, -1.0][..]);
        let y = m.matvec(&x).unwrap();
        assert_eq!(y.as_slice(), &[-2.0, -2.0]);
        assert!(m.matvec(&DenseVector::zeros(2)).is_err());
    }

    #[test]
    fn matvec_row_equivalence() {
        // A·q computed row-by-row equals dotting each row with q — the identity the
        // sketch-based MIPS structure relies on.
        let rows = [
            DenseVector::from(&[0.5, -1.0, 2.0][..]),
            DenseVector::from(&[1.0, 1.0, 1.0][..]),
        ];
        let m = Matrix::from_row_major(2, 3, rows.iter().flat_map(|r| r.iter().copied()).collect())
            .unwrap();
        assert_eq!(m.iter_rows().count(), 2);
        let q = DenseVector::from(&[1.0, 2.0, 3.0][..]);
        let prod = m.matvec(&q).unwrap();
        for (i, r) in rows.iter().enumerate() {
            assert!((prod[i] - r.dot(&q).unwrap()).abs() < 1e-12);
        }
    }
}

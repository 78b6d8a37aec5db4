//! Row-major dense matrices.
//!
//! The sketch data structures of Section 4.3 view the data set as an `n × d` matrix `A`
//! and need sketched products `Π·A` and matrix–vector products `A·q`. The matrix type
//! here is intentionally minimal: storage, indexing, matrix–vector and matrix–matrix
//! products, and row/column views — nothing the workspace does not use.

use crate::error::{LinalgError, Result};
use crate::vector::DenseVector;
use serde::{Deserialize, Serialize};

/// A dense row-major `rows × cols` matrix of `f64`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

    /// Creates a matrix whose rows are the given vectors.
    ///
    /// Returns an error if the vectors do not all share the same dimension or the list
    /// is empty.
    pub fn from_rows(rows: &[DenseVector]) -> Result<Self> {
        let first = rows.first().ok_or(LinalgError::Empty { op: "from_rows" })?;
        let cols = first.dim();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.dim() != cols {
                return Err(LinalgError::DimensionMismatch {
                    left: cols,
                    right: r.dim(),
                    op: "from_rows",
                });
            }
            data.extend_from_slice(r.as_slice());
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
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

    /// Copy of row `r` as a vector.
    pub fn row_vector(&self, r: usize) -> DenseVector {
        DenseVector::from(self.row(r))
    }

    /// Copy of column `c` as a vector.
    pub fn col_vector(&self, c: usize) -> DenseVector {
        assert!(c < self.cols, "column {c} out of range");
        DenseVector::new((0..self.rows).map(|r| self.get(r, c)).collect())
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

    /// Matrix–matrix product `self · other`.
    pub fn matmul(&self, other: &Self) -> Result<Self> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                left: self.cols,
                right: other.rows,
                op: "matmul",
            });
        }
        let mut out = Self::zeros(self.rows, other.cols);
        for (i, out_row) in out.data.chunks_exact_mut(other.cols.max(1)).enumerate() {
            for (k, &aik) in self.row(i).iter().enumerate() {
                if aik != 0.0 {
                    crate::tile::axpy_slices(out_row, aik, other.row(k));
                }
            }
        }
        Ok(out)
    }

    /// Transpose of the matrix.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        crate::tile::dot_slices(&self.data, &self.data).sqrt()
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
    fn from_rows_checks_dims() {
        let rows = vec![
            DenseVector::from(&[1.0, 2.0][..]),
            DenseVector::from(&[3.0, 4.0][..]),
        ];
        let m = Matrix::from_rows(&rows).unwrap();
        assert_eq!(m.row(1), &[3.0, 4.0]);
        let bad = vec![
            DenseVector::from(&[1.0, 2.0][..]),
            DenseVector::from(&[3.0][..]),
        ];
        assert!(Matrix::from_rows(&bad).is_err());
        assert!(Matrix::from_rows(&[]).is_err());
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
    fn matmul_and_identity() {
        let m = Matrix::from_row_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let id = Matrix::identity(2);
        assert_eq!(m.matmul(&id).unwrap(), m);
        let sq = m.matmul(&m).unwrap();
        assert_eq!(sq.get(0, 0), 7.0);
        assert_eq!(sq.get(0, 1), 10.0);
        assert_eq!(sq.get(1, 0), 15.0);
        assert_eq!(sq.get(1, 1), 22.0);
        assert!(m.matmul(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_row_major(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn rows_cols_and_frobenius() {
        let m = Matrix::from_row_major(2, 2, vec![3.0, 0.0, 0.0, 4.0]).unwrap();
        assert_eq!(m.frobenius_norm(), 5.0);
        assert_eq!(m.row_vector(0).as_slice(), &[3.0, 0.0]);
        assert_eq!(m.col_vector(1).as_slice(), &[0.0, 4.0]);
        assert_eq!(m.iter_rows().count(), 2);
    }

    #[test]
    fn matvec_row_equivalence() {
        // A·q computed row-by-row equals dotting each row with q — the identity the
        // sketch-based MIPS structure relies on.
        let rows = vec![
            DenseVector::from(&[0.5, -1.0, 2.0][..]),
            DenseVector::from(&[1.0, 1.0, 1.0][..]),
        ];
        let m = Matrix::from_rows(&rows).unwrap();
        let q = DenseVector::from(&[1.0, 2.0, 3.0][..]);
        let prod = m.matvec(&q).unwrap();
        for (i, r) in rows.iter().enumerate() {
            assert!((prod[i] - r.dot(&q).unwrap()).abs() < 1e-12);
        }
    }
}

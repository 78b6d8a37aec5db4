//! Cache-blocked dense matrix multiplication.
//!
//! The algebraic upper bounds the paper cites ([51, 29]) reduce the unsigned join to a
//! single large matrix product `P·Qᵀ`. On real hardware the dominant cost of that
//! product is memory traffic, so the one kernel, [`multiply_blocked`], tiles the
//! textbook `i,k,j` loop into `block × block` panels: each panel of `B` stays in cache
//! while a panel of `A` streams over it. [`multiply_naive`] is the untiled loop it is
//! tested against.
//!
//! The amplified join of [`crate::valiant`] calls it with the embedded data vectors as
//! rows of `P` and the embedded queries as rows of `Q`, for `G = P·Qᵀ` with
//! `G[i][j] = pᵢᵀqⱼ`.

use crate::error::{MatmulError, Result};
use ips_linalg::Matrix;

/// Default tile width used by the blocked kernels when callers do not override it.
pub const DEFAULT_BLOCK: usize = 64;

fn check_shapes(a: &Matrix, b: &Matrix, op: &'static str) -> Result<()> {
    if a.cols() != b.rows() {
        return Err(MatmulError::ShapeMismatch {
            left: (a.rows(), a.cols()),
            right: (b.rows(), b.cols()),
            op,
        });
    }
    Ok(())
}

/// Textbook `O(n·m·k)` matrix product `A·B` in the cache-friendly `i,k,j` loop order:
/// [`Matrix::matmul`], failing with this crate's error.
pub fn multiply_naive(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    check_shapes(a, b, "multiply_naive")?;
    Ok(a.matmul(b).expect("shapes checked"))
}

/// Blocked (tiled) matrix product `A·B` with `block × block` panels.
///
/// Returns an error when the shapes are incompatible or `block == 0`.
pub fn multiply_blocked(a: &Matrix, b: &Matrix, block: usize) -> Result<Matrix> {
    check_shapes(a, b, "multiply_blocked")?;
    if block == 0 {
        return Err(MatmulError::InvalidParameter {
            name: "block",
            reason: "tile width must be positive".into(),
        });
    }
    let (n, k, m) = (a.rows(), a.cols(), b.cols());
    let mut out = vec![0.0f64; n * m];
    let mut ii = 0;
    while ii < n {
        let i_hi = (ii + block).min(n);
        let mut pp = 0;
        while pp < k {
            let p_hi = (pp + block).min(k);
            for i in ii..i_hi {
                let a_row = a.row(i);
                let out_row = &mut out[i * m..(i + 1) * m];
                for p in pp..p_hi {
                    let aik = a_row[p];
                    if aik == 0.0 {
                        continue;
                    }
                    ips_linalg::tile::axpy_slices(out_row, aik, b.row(p));
                }
            }
            pp = p_hi;
        }
        ii = i_hi;
    }
    Ok(Matrix::from_row_major(n, m, out).expect("output buffer has the right length"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;

    fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
        Matrix::from_row_major(
            rows,
            cols,
            (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        )
        .unwrap()
    }

    fn assert_close(a: &Matrix, b: &Matrix) {
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.cols(), b.cols());
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                assert!(
                    (a.get(i, j) - b.get(i, j)).abs() < 1e-9,
                    "entry ({i},{j}): {} vs {}",
                    a.get(i, j),
                    b.get(i, j)
                );
            }
        }
    }

    #[test]
    fn shape_and_parameter_validation() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        assert!(multiply_naive(&a, &b).is_err());
        assert!(multiply_blocked(&a, &b, 8).is_err());
        let ok_b = Matrix::zeros(3, 2);
        assert!(multiply_blocked(&a, &ok_b, 0).is_err());
    }

    #[test]
    fn naive_matches_matrix_matmul() {
        let mut rng = StdRng::seed_from_u64(0x111);
        let a = random_matrix(&mut rng, 7, 5);
        let b = random_matrix(&mut rng, 5, 9);
        assert_close(&multiply_naive(&a, &b).unwrap(), &a.matmul(&b).unwrap());
    }

    #[test]
    fn blocked_matches_naive_for_many_tile_sizes() {
        let mut rng = StdRng::seed_from_u64(0x222);
        let a = random_matrix(&mut rng, 23, 17);
        let b = random_matrix(&mut rng, 17, 31);
        let reference = multiply_naive(&a, &b).unwrap();
        for block in [1, 2, 3, 8, 16, 64, 1000] {
            assert_close(&multiply_blocked(&a, &b, block).unwrap(), &reference);
        }
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = StdRng::seed_from_u64(0x444);
        let a = random_matrix(&mut rng, 12, 12);
        let id = Matrix::identity(12);
        assert_close(&multiply_blocked(&a, &id, 5).unwrap(), &a);
        assert_close(&multiply_blocked(&id, &a, 5).unwrap(), &a);
    }
}

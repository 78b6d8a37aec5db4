//! Cache-blocked and multi-threaded dense matrix multiplication.
//!
//! The algebraic upper bounds the paper cites ([51, 29]) reduce the unsigned join to a
//! single large matrix product `P·Qᵀ`. On real hardware the dominant cost of that
//! product is memory traffic, so this module provides three drop-in variants with
//! identical results:
//!
//! * [`multiply_naive`] — the textbook `i,k,j` triple loop (the reference);
//! * [`multiply_blocked`] — the same loop tiled into `block × block` panels so each
//!   panel of `B` stays in cache while a panel of `A` streams over it;
//! * [`multiply_parallel`] — the blocked kernel with the rows of `A` split across
//!   `threads` scoped workers (std scoped threads).
//!
//! [`gram_matrix`] packages the product the joins actually need: data vectors as rows of
//! `P`, query vectors as rows of `Q`, output `G = P·Qᵀ` with `G[i][j] = pᵢᵀqⱼ`.

use crate::error::{MatmulError, Result};
use ips_linalg::{DenseVector, Matrix};

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

/// Textbook `O(n·m·k)` matrix product `A·B` using the cache-friendly `i,k,j` loop order.
pub fn multiply_naive(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    check_shapes(a, b, "multiply_naive")?;
    let (n, k, m) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(n, m);
    for i in 0..n {
        let a_row = a.row(i);
        for p in 0..k {
            let aik = a_row[p];
            if aik == 0.0 {
                continue;
            }
            let b_row = b.row(p);
            for j in 0..m {
                out.set(i, j, out.get(i, j) + aik * b_row[j]);
            }
        }
    }
    Ok(out)
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
    let (n, _k, m) = (a.rows(), a.cols(), b.cols());
    let mut out = vec![0.0f64; n * m];
    blocked_shifted(a, b, block, 0, n, &mut out);
    Ok(Matrix::from_row_major(n, m, out).expect("output buffer has the right length"))
}

/// Multi-threaded blocked product: the rows of `A` are split into contiguous chunks, one
/// per scoped worker thread.
///
/// Returns an error when the shapes are incompatible, `block == 0`, or `threads == 0`.
pub fn multiply_parallel(a: &Matrix, b: &Matrix, block: usize, threads: usize) -> Result<Matrix> {
    check_shapes(a, b, "multiply_parallel")?;
    if block == 0 {
        return Err(MatmulError::InvalidParameter {
            name: "block",
            reason: "tile width must be positive".into(),
        });
    }
    if threads == 0 {
        return Err(MatmulError::InvalidParameter {
            name: "threads",
            reason: "at least one worker thread is required".into(),
        });
    }
    let (n, m) = (a.rows(), b.cols());
    if n == 0 || m == 0 {
        return Ok(Matrix::zeros(n, m));
    }
    let threads = threads.min(n);
    let rows_per_worker = n.div_ceil(threads);
    let mut out = vec![0.0f64; n * m];
    // One row range of the output per worker, each a disjoint mutable slice.
    let mut chunks: Vec<&mut [f64]> = out.chunks_mut(rows_per_worker * m).collect();
    ips_linalg::par::for_each_block(threads, &mut chunks, |k, chunk| {
        let row_start = k * rows_per_worker;
        blocked_shifted(a, b, block, row_start, row_start + chunk.len() / m, chunk);
    });
    Ok(Matrix::from_row_major(n, m, out).expect("output buffer has the right length"))
}

/// Blocked kernel over rows `row_start..row_end` of `A·B`, writing into a buffer whose
/// row 0 corresponds to `row_start` of the full product (the per-worker output slice).
fn blocked_shifted(
    a: &Matrix,
    b: &Matrix,
    block: usize,
    row_start: usize,
    row_end: usize,
    out: &mut [f64],
) {
    let (k, m) = (a.cols(), b.cols());
    let mut ii = row_start;
    while ii < row_end {
        let i_hi = (ii + block).min(row_end);
        let mut pp = 0;
        while pp < k {
            let p_hi = (pp + block).min(k);
            for i in ii..i_hi {
                let a_row = a.row(i);
                let local_row = i - row_start;
                let out_row = &mut out[local_row * m..(local_row + 1) * m];
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
}

/// The Gram (cross inner-product) matrix `G = P·Qᵀ` of two vector collections:
/// `G[i][j] = pᵢᵀqⱼ`.
///
/// Returns an error when either collection is empty or the dimensions disagree.
pub fn gram_matrix(data: &[DenseVector], queries: &[DenseVector]) -> Result<Matrix> {
    if data.is_empty() || queries.is_empty() {
        return Err(MatmulError::Empty { op: "gram_matrix" });
    }
    let p = Matrix::from_rows(data)?;
    let q = Matrix::from_rows(queries)?;
    if p.cols() != q.cols() {
        return Err(MatmulError::ShapeMismatch {
            left: (p.rows(), p.cols()),
            right: (q.rows(), q.cols()),
            op: "gram_matrix",
        });
    }
    multiply_blocked(&p, &q.transpose(), DEFAULT_BLOCK)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_linalg::random::gaussian_vector;
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
        assert!(multiply_parallel(&a, &ok_b, 0, 2).is_err());
        assert!(multiply_parallel(&a, &ok_b, 8, 0).is_err());
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
    fn parallel_matches_naive_for_many_thread_counts() {
        let mut rng = StdRng::seed_from_u64(0x333);
        let a = random_matrix(&mut rng, 29, 13);
        let b = random_matrix(&mut rng, 13, 21);
        let reference = multiply_naive(&a, &b).unwrap();
        for threads in [1, 2, 3, 4, 8, 64] {
            assert_close(&multiply_parallel(&a, &b, 8, threads).unwrap(), &reference);
        }
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = StdRng::seed_from_u64(0x444);
        let a = random_matrix(&mut rng, 12, 12);
        let id = Matrix::identity(12);
        assert_close(&multiply_blocked(&a, &id, 5).unwrap(), &a);
        assert_close(&multiply_parallel(&id, &a, 5, 3).unwrap(), &a);
    }

    #[test]
    fn gram_matrix_matches_pairwise_dots() {
        let mut rng = StdRng::seed_from_u64(0x555);
        let data: Vec<DenseVector> = (0..9).map(|_| gaussian_vector(&mut rng, 6)).collect();
        let queries: Vec<DenseVector> = (0..4).map(|_| gaussian_vector(&mut rng, 6)).collect();
        let gram = gram_matrix(&data, &queries).unwrap();
        assert_eq!(gram.rows(), 9);
        assert_eq!(gram.cols(), 4);
        for (i, p) in data.iter().enumerate() {
            for (j, q) in queries.iter().enumerate() {
                assert!((gram.get(i, j) - p.dot(q).unwrap()).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn gram_matrix_rejects_bad_input() {
        let v = DenseVector::from(&[1.0, 2.0][..]);
        let w = DenseVector::from(&[1.0, 2.0, 3.0][..]);
        assert!(gram_matrix(&[], std::slice::from_ref(&v)).is_err());
        assert!(gram_matrix(std::slice::from_ref(&v), &[]).is_err());
        assert!(gram_matrix(&[v], &[w]).is_err());
    }
}

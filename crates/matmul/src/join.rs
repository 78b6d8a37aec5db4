//! Exact joins driven by blockwise Gram products.
//!
//! Computing all `|P|·|Q|` inner products as one matrix product touches every data
//! vector once per *block* of queries instead of once per query, which is the entire
//! practical advantage of the algebraic baseline at laptop scale. The functions here
//! report, per query, the best partner clearing the threshold — the same "at least one
//! pair per query" semantics as Definition 1 of the paper — so the benchmark harness can
//! compare them head-to-head with the brute-force loop and the LSH/sketch joins.

use crate::dense::{multiply_blocked, DEFAULT_BLOCK};
use crate::error::{MatmulError, Result};
use ips_linalg::{DenseVector, Matrix};

/// One pair reported by an algebraic join.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlgebraicPair {
    /// Index into the data set `P`.
    pub data_index: usize,
    /// Index into the query set `Q`.
    pub query_index: usize,
    /// The exact inner product `pᵀq`.
    pub inner_product: f64,
}

/// Exact join through blockwise Gram products: for each query, the data vector with the
/// largest (signed or absolute) inner product is reported when it clears `threshold`.
///
/// `query_block` controls how many queries are multiplied per Gram panel; it bounds the
/// size of the intermediate `|P| × query_block` product.
pub fn matmul_exact_join(
    data: &[DenseVector],
    queries: &[DenseVector],
    threshold: f64,
    unsigned: bool,
    query_block: usize,
) -> Result<Vec<AlgebraicPair>> {
    if data.is_empty() || queries.is_empty() {
        return Err(MatmulError::Empty {
            op: "matmul_exact_join",
        });
    }
    if query_block == 0 {
        return Err(MatmulError::InvalidParameter {
            name: "query_block",
            reason: "query block size must be positive".into(),
        });
    }
    let p = Matrix::from_rows(data)?;
    let mut out = Vec::new();
    for (block_idx, chunk) in queries.chunks(query_block).enumerate() {
        let q = Matrix::from_rows(chunk)?;
        if q.cols() != p.cols() {
            return Err(MatmulError::ShapeMismatch {
                left: (p.rows(), p.cols()),
                right: (q.rows(), q.cols()),
                op: "matmul_exact_join",
            });
        }
        let gram = multiply_blocked(&p, &q.transpose(), DEFAULT_BLOCK)?;
        for local_j in 0..chunk.len() {
            let query_index = block_idx * query_block + local_j;
            let mut best: Option<AlgebraicPair> = None;
            for i in 0..data.len() {
                let ip = gram.get(i, local_j);
                let value = if unsigned { ip.abs() } else { ip };
                let better = best
                    .map(|b| {
                        let bv = if unsigned {
                            b.inner_product.abs()
                        } else {
                            b.inner_product
                        };
                        value > bv
                    })
                    .unwrap_or(true);
                if better {
                    best = Some(AlgebraicPair {
                        data_index: i,
                        query_index,
                        inner_product: ip,
                    });
                }
            }
            if let Some(b) = best {
                let value = if unsigned {
                    b.inner_product.abs()
                } else {
                    b.inner_product
                };
                if value >= threshold {
                    out.push(b);
                }
            }
        }
    }
    Ok(out)
}

/// Multi-threaded variant of [`matmul_exact_join`]: query blocks are distributed over
/// `threads` scoped workers.
pub fn matmul_exact_join_parallel(
    data: &[DenseVector],
    queries: &[DenseVector],
    threshold: f64,
    unsigned: bool,
    query_block: usize,
    threads: usize,
) -> Result<Vec<AlgebraicPair>> {
    if threads == 0 {
        return Err(MatmulError::InvalidParameter {
            name: "threads",
            reason: "at least one worker thread is required".into(),
        });
    }
    if data.is_empty() || queries.is_empty() {
        return Err(MatmulError::Empty {
            op: "matmul_exact_join_parallel",
        });
    }
    if query_block == 0 {
        return Err(MatmulError::InvalidParameter {
            name: "query_block",
            reason: "query block size must be positive".into(),
        });
    }
    let threads = threads.min(queries.len());
    let chunk_size = queries.len().div_ceil(threads);
    let mut chunks: Vec<&[DenseVector]> = queries.chunks(chunk_size).collect();
    let lists = ips_linalg::par::map_blocks(threads, &mut chunks, |k, chunk| {
        let mut local = matmul_exact_join(data, chunk, threshold, unsigned, query_block)?;
        for pair in &mut local {
            pair.query_index += k * chunk_size;
        }
        Ok::<_, MatmulError>(local)
    })?;
    let mut out: Vec<AlgebraicPair> = lists.into_iter().flatten().collect();
    out.sort_by_key(|p| p.query_index);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_linalg::random::random_unit_vector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dv(xs: &[f64]) -> DenseVector {
        DenseVector::from(xs)
    }

    /// Reference implementation: the plain quadratic loop.
    fn reference_join(
        data: &[DenseVector],
        queries: &[DenseVector],
        threshold: f64,
        unsigned: bool,
    ) -> Vec<AlgebraicPair> {
        let mut out = Vec::new();
        for (j, q) in queries.iter().enumerate() {
            let mut best: Option<AlgebraicPair> = None;
            for (i, p) in data.iter().enumerate() {
                let ip = p.dot(q).unwrap();
                let value = if unsigned { ip.abs() } else { ip };
                let better = best
                    .map(|b| {
                        value
                            > if unsigned {
                                b.inner_product.abs()
                            } else {
                                b.inner_product
                            }
                    })
                    .unwrap_or(true);
                if better {
                    best = Some(AlgebraicPair {
                        data_index: i,
                        query_index: j,
                        inner_product: ip,
                    });
                }
            }
            if let Some(b) = best {
                let value = if unsigned {
                    b.inner_product.abs()
                } else {
                    b.inner_product
                };
                if value >= threshold {
                    out.push(b);
                }
            }
        }
        out
    }

    fn close(a: &[AlgebraicPair], b: &[AlgebraicPair]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.data_index == y.data_index
                    && x.query_index == y.query_index
                    && (x.inner_product - y.inner_product).abs() < 1e-9
            })
    }

    #[test]
    fn validation() {
        let v = dv(&[1.0, 0.0]);
        assert!(matmul_exact_join(&[], std::slice::from_ref(&v), 0.5, false, 4).is_err());
        assert!(matmul_exact_join(std::slice::from_ref(&v), &[], 0.5, false, 4).is_err());
        assert!(matmul_exact_join(
            std::slice::from_ref(&v),
            std::slice::from_ref(&v),
            0.5,
            false,
            0
        )
        .is_err());
        assert!(matmul_exact_join_parallel(
            std::slice::from_ref(&v),
            std::slice::from_ref(&v),
            0.5,
            false,
            4,
            0
        )
        .is_err());
        let w = dv(&[1.0, 0.0, 0.0]);
        assert!(matmul_exact_join(std::slice::from_ref(&v), &[w], 0.5, false, 4).is_err());
    }

    #[test]
    fn signed_join_matches_reference_on_random_data() {
        let mut rng = StdRng::seed_from_u64(0x71);
        let data: Vec<DenseVector> = (0..40)
            .map(|_| random_unit_vector(&mut rng, 8).unwrap())
            .collect();
        let queries: Vec<DenseVector> = (0..17)
            .map(|_| random_unit_vector(&mut rng, 8).unwrap())
            .collect();
        let reference = reference_join(&data, &queries, 0.3, false);
        for block in [1, 3, 5, 100] {
            let got = matmul_exact_join(&data, &queries, 0.3, false, block).unwrap();
            assert!(close(&got, &reference), "block = {block}");
        }
    }

    #[test]
    fn unsigned_join_matches_reference_and_catches_negative_pairs() {
        let data = vec![dv(&[1.0, 0.0]), dv(&[0.0, 0.3])];
        let queries = vec![dv(&[-0.95, 0.0]), dv(&[0.0, 0.1])];
        let signed = matmul_exact_join(&data, &queries, 0.8, false, 2).unwrap();
        assert!(signed.is_empty());
        let unsigned = matmul_exact_join(&data, &queries, 0.8, true, 2).unwrap();
        assert_eq!(unsigned.len(), 1);
        assert_eq!(unsigned[0].data_index, 0);
        assert_eq!(unsigned[0].query_index, 0);
        assert!(unsigned[0].inner_product < 0.0);
    }

    #[test]
    fn parallel_join_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(0x72);
        let data: Vec<DenseVector> = (0..30)
            .map(|_| random_unit_vector(&mut rng, 10).unwrap())
            .collect();
        let queries: Vec<DenseVector> = (0..23)
            .map(|_| random_unit_vector(&mut rng, 10).unwrap())
            .collect();
        let sequential = matmul_exact_join(&data, &queries, 0.2, true, 4).unwrap();
        for threads in [1, 2, 3, 7, 32] {
            let parallel =
                matmul_exact_join_parallel(&data, &queries, 0.2, true, 4, threads).unwrap();
            assert!(close(&parallel, &sequential), "threads = {threads}");
        }
    }

    #[test]
    fn reported_pairs_always_clear_the_threshold() {
        let mut rng = StdRng::seed_from_u64(0x73);
        let data: Vec<DenseVector> = (0..25)
            .map(|_| random_unit_vector(&mut rng, 6).unwrap())
            .collect();
        let queries: Vec<DenseVector> = (0..25)
            .map(|_| random_unit_vector(&mut rng, 6).unwrap())
            .collect();
        for &threshold in &[0.1, 0.5, 0.9] {
            for pair in matmul_exact_join(&data, &queries, threshold, true, 8).unwrap() {
                assert!(pair.inner_product.abs() >= threshold);
                let exact = data[pair.data_index]
                    .dot(&queries[pair.query_index])
                    .unwrap();
                assert!((exact - pair.inner_product).abs() < 1e-9);
            }
        }
    }
}

//! Property-based tests for the matrix-multiplication substrate: the blocked kernel
//! computes the textbook product, its Gram product holds the exact inner products, and
//! the amplified join never reports an invalid pair.

use ips_linalg::random::random_sign_vector;
use ips_linalg::{DenseVector, Matrix};
use ips_matmul::dense::DEFAULT_BLOCK;
use ips_matmul::{amplified_unsigned_join, multiply_blocked, multiply_naive, AmplifiedJoinConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_row_major(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    )
    .unwrap()
}

fn matrices_close(a: &Matrix, b: &Matrix, tol: f64) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && (0..a.rows()).all(|i| (0..a.cols()).all(|j| (a.get(i, j) - b.get(i, j)).abs() < tol))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_kernels_agree(
        seed in any::<u64>(),
        n in 1usize..24,
        k in 1usize..24,
        m in 1usize..24,
        block in 1usize..16,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(&mut rng, n, k);
        let b = random_matrix(&mut rng, k, m);
        let reference = multiply_naive(&a, &b).unwrap();
        prop_assert!(matrices_close(&multiply_blocked(&a, &b, block).unwrap(), &reference, 1e-9));
    }

    /// The product the amplified join runs: data rows of `P`, query rows of `Q`,
    /// `G = P·Qᵀ` at the default tile.
    #[test]
    fn gram_entries_are_exact_inner_products(seed in any::<u64>(), n in 1usize..15, q in 1usize..10, d in 1usize..12) {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<DenseVector> = (0..n)
            .map(|_| DenseVector::new((0..d).map(|_| rng.gen_range(-1.0..1.0)).collect()))
            .collect();
        let queries: Vec<DenseVector> = (0..q)
            .map(|_| DenseVector::new((0..d).map(|_| rng.gen_range(-1.0..1.0)).collect()))
            .collect();
        let p = Matrix::from_rows(&data).unwrap();
        let qt = Matrix::from_rows(&queries).unwrap().transpose();
        let gram = multiply_blocked(&p, &qt, DEFAULT_BLOCK).unwrap();
        for (i, p) in data.iter().enumerate() {
            for (j, qu) in queries.iter().enumerate() {
                prop_assert!((gram.get(i, j) - p.dot(qu).unwrap()).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn amplified_join_never_reports_below_cs(seed in any::<u64>(), c in 0.3f64..0.9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = 32;
        let data: Vec<_> = (0..30).map(|_| random_sign_vector(&mut rng, dim)).collect();
        let queries: Vec<_> = (0..8).map(|_| random_sign_vector(&mut rng, dim)).collect();
        let s = 20.0;
        let report = amplified_unsigned_join(
            &mut rng,
            &data,
            &queries,
            s,
            c,
            AmplifiedJoinConfig {
                degree: 2,
                projection_dim: 256,
                detection_fraction: 0.25,
            },
        )
        .unwrap();
        for pair in &report.pairs {
            let exact = data[pair.data_index].dot(&queries[pair.query_index]).unwrap() as f64;
            prop_assert!((exact - pair.inner_product).abs() < 1e-9);
            prop_assert!(exact.abs() >= c * s - 1e-9);
        }
        prop_assert!(report.candidates <= data.len() * queries.len());
    }
}

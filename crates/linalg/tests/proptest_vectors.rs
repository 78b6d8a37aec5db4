//! Property-based tests for the vector substrate: algebraic identities that every
//! higher-level construction in the workspace silently relies on.

use ips_linalg::ops::{concat, repeat, tensor};
use ips_linalg::{BinaryVector, DenseVector, SignVector};
use proptest::prelude::*;

fn dense_vec(len: usize) -> impl Strategy<Value = DenseVector> {
    prop::collection::vec(-10.0f64..10.0, len).prop_map(DenseVector::new)
}

fn bit_vec(len: usize) -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec(any::<bool>(), len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dot_is_symmetric(a in dense_vec(16), b in dense_vec(16)) {
        let ab = a.dot(&b).unwrap();
        let ba = b.dot(&a).unwrap();
        prop_assert!((ab - ba).abs() < 1e-9);
    }

    #[test]
    fn dot_is_bilinear(a in dense_vec(12), b in dense_vec(12), c in dense_vec(12), alpha in -3.0f64..3.0) {
        let lhs = a.scaled(alpha).add(&b).unwrap().dot(&c).unwrap();
        let rhs = alpha * a.dot(&c).unwrap() + b.dot(&c).unwrap();
        prop_assert!((lhs - rhs).abs() < 1e-6);
    }

    #[test]
    fn cauchy_schwarz(a in dense_vec(10), b in dense_vec(10)) {
        let ip = a.dot(&b).unwrap().abs();
        prop_assert!(ip <= a.norm() * b.norm() + 1e-9);
    }

    #[test]
    fn norm_matches_self_dot(a in dense_vec(10)) {
        prop_assert!((a.norm_sq() - a.dot(&a).unwrap()).abs() < 1e-9);
    }

    #[test]
    fn lp_norms_are_ordered(a in dense_vec(10)) {
        // ||x||_inf <= ||x||_2 <= ||x||_1
        let linf = a.lp_norm(f64::INFINITY).unwrap();
        let l2 = a.norm();
        let l1 = a.lp_norm(1.0).unwrap();
        prop_assert!(linf <= l2 + 1e-9);
        prop_assert!(l2 <= l1 + 1e-9);
    }

    #[test]
    fn normalization_gives_unit_norm(a in dense_vec(8)) {
        if a.norm() > 1e-9 {
            prop_assert!((a.normalized().unwrap().norm() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn concat_adds_and_tensor_multiplies(
        a1 in dense_vec(5), a2 in dense_vec(4), b1 in dense_vec(5), b2 in dense_vec(4)
    ) {
        let concat_ip = concat(&a1, &a2).dot(&concat(&b1, &b2)).unwrap();
        prop_assert!((concat_ip - (a1.dot(&b1).unwrap() + a2.dot(&b2).unwrap())).abs() < 1e-6);
        let tensor_ip = tensor(&a1, &a2).dot(&tensor(&b1, &b2)).unwrap();
        prop_assert!((tensor_ip - a1.dot(&b1).unwrap() * a2.dot(&b2).unwrap()).abs() < 1e-5);
    }

    #[test]
    fn repeat_scales_inner_product(a in dense_vec(6), b in dense_vec(6), k in 1usize..5) {
        let lhs = repeat(&a, k).dot(&repeat(&b, k)).unwrap();
        prop_assert!((lhs - k as f64 * a.dot(&b).unwrap()).abs() < 1e-6);
    }

    #[test]
    fn tensor_power_raises_to_k(a in dense_vec(4), b in dense_vec(4), k in 0usize..4) {
        // `v^{⊗k}`, with `v^{⊗0} = [1]`.
        let power = |v: &DenseVector| (0..k).fold(DenseVector::new(vec![1.0]), |acc, _| tensor(&acc, v));
        let lhs = power(&a).dot(&power(&b)).unwrap();
        let rhs = a.dot(&b).unwrap().powi(k as i32);
        let tol = 1e-5 * rhs.abs().max(1.0);
        prop_assert!((lhs - rhs).abs() < tol);
    }

    #[test]
    fn binary_dot_matches_dense_conversion(xa in bit_vec(100), xb in bit_vec(100)) {
        let a = BinaryVector::from_bools(&xa);
        let b = BinaryVector::from_bools(&xb);
        let packed = a.dot(&b).unwrap() as f64;
        let dense = a.to_dense().dot(&b.to_dense()).unwrap();
        prop_assert_eq!(packed, dense);
        // Orthogonality agrees with a zero dot product.
        prop_assert_eq!(a.is_orthogonal_to(&b).unwrap(), a.dot(&b).unwrap() == 0);
    }

    #[test]
    fn binary_counts_and_hamming(xa in bit_vec(90), xb in bit_vec(90)) {
        let a = BinaryVector::from_bools(&xa);
        let b = BinaryVector::from_bools(&xb);
        // |A| + |B| = |A∩B| + |A∪B| and hamming = |A∪B| − |A∩B|.
        let inter = a.dot(&b).unwrap();
        let union = a.count_ones() + b.count_ones() - inter;
        prop_assert_eq!(a.hamming(&b).unwrap(), union - inter);
        // Jaccard stays in [0, 1].
        let j = a.jaccard(&b).unwrap();
        prop_assert!((0.0..=1.0).contains(&j));
    }

    #[test]
    fn sign_dot_matches_dense_conversion(xa in bit_vec(70), xb in bit_vec(70)) {
        let signs_a: Vec<i8> = xa.iter().map(|&b| if b { 1 } else { -1 }).collect();
        let signs_b: Vec<i8> = xb.iter().map(|&b| if b { 1 } else { -1 }).collect();
        let a = SignVector::from_signs(&signs_a);
        let b = SignVector::from_signs(&signs_b);
        let packed = a.dot(&b).unwrap() as f64;
        let dense = a.to_dense().dot(&b.to_dense()).unwrap();
        prop_assert_eq!(packed, dense);
        // The dot product has the same parity as the dimension.
        prop_assert_eq!((a.dot(&b).unwrap().rem_euclid(2)) as usize, 70 % 2);
    }

    #[test]
    fn sign_negation_flips_dot(xa in bit_vec(40), xb in bit_vec(40)) {
        let signs_a: Vec<i8> = xa.iter().map(|&b| if b { 1 } else { -1 }).collect();
        let signs_b: Vec<i8> = xb.iter().map(|&b| if b { 1 } else { -1 }).collect();
        let a = SignVector::from_signs(&signs_a);
        let b = SignVector::from_signs(&signs_b);
        prop_assert_eq!(a.negated().dot(&b).unwrap(), -a.dot(&b).unwrap());
    }
}

//! Property-based tests for the comparison families: the L2-ALSH transforms realise
//! the closed-form distance the ρ analysis uses, and MH-ALSH padding preserves every
//! intersection with a query.

use ips_bench::alsh_l2::L2AlshFamily;
use ips_bench::mhalsh::MhAlshFamily;
use ips_linalg::{BinaryVector, DenseVector};
use ips_lsh::rho::L2AlshParams;
use proptest::prelude::*;

fn unit_ballish(len: usize) -> impl Strategy<Value = DenseVector> {
    prop::collection::vec(-1.0f64..1.0, len).prop_map(|mut xs| {
        // Scale into the unit ball deterministically.
        let norm: f64 = xs.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 1.0 {
            for x in &mut xs {
                *x /= norm * 1.0001;
            }
        }
        DenseVector::new(xs)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn l2_alsh_distance_identity(p in unit_ballish(8), q in unit_ballish(8)) {
        prop_assume!(q.norm() > 1e-6);
        let fam = L2AlshFamily::new(8, 1.0, L2AlshParams::default()).unwrap();
        let px = fam.transform_data(&p).unwrap();
        let qq = fam.transform_query(&q).unwrap();
        let s_hat = q.normalized().unwrap().dot(&p).unwrap();
        let predicted = fam.transformed_distance_sq(s_hat, p.norm());
        prop_assert!((qq.distance_sq(&px).unwrap() - predicted).abs() < 1e-6);
    }

    #[test]
    fn mh_alsh_transform_preserves_intersections(
        bits_x in prop::collection::vec(any::<bool>(), 40),
        bits_q in prop::collection::vec(any::<bool>(), 40),
    ) {
        let x = BinaryVector::from_bools(&bits_x);
        let q = BinaryVector::from_bools(&bits_q);
        let capacity = 40;
        let family = MhAlshFamily::new(40, capacity).unwrap();
        let px = family.transform_data(&x).unwrap();
        let qq = family.transform_query(&q).unwrap();
        // Padding never changes the intersection with a query (padding lives outside the
        // original universe and queries are not padded).
        prop_assert_eq!(px.dot(&qq).unwrap(), x.dot(&q).unwrap());
        // Data vectors are padded to exactly `capacity` ones.
        prop_assert_eq!(px.count_ones(), capacity);
    }
}

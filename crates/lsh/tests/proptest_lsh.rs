//! Property-based tests for the LSH layer: determinism of sampled functions, domain
//! preservation of the sphere transform, and monotonicity of the closed-form ρ and
//! collision-probability formulas. The comparison families' properties are with them,
//! in `ips-bench`.

use ips_linalg::DenseVector;
use ips_lsh::amplify::AndConstruction;
use ips_lsh::cost::{probe_hit_prob, probed_table_hit_prob};
use ips_lsh::hyperplane::HyperplaneFamily;
use ips_lsh::rho::{rho_data_dependent, rho_mh_alsh, rho_simple_alsh};
use ips_lsh::simple_alsh::SphereTransform;
use ips_lsh::traits::{
    AsymmetricHashFunction, AsymmetricLshFamily, HashFunction, LshFamily, SymmetricAsAsymmetric,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

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
    fn hyperplane_hash_is_deterministic_and_bounded(v in unit_ballish(16), seed in any::<u64>(), bits in 1usize..=24) {
        let family = HyperplaneFamily::new(16, bits).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let f = family.sample(&mut rng).unwrap();
        let h1 = f.hash(&v).unwrap();
        let h2 = f.hash(&v).unwrap();
        prop_assert_eq!(h1, h2);
        prop_assert!(h1 < (1u64 << bits));
    }

    #[test]
    fn sphere_transform_preserves_scaled_inner_product(
        p in unit_ballish(10), q in unit_ballish(10), u in 1.0f64..5.0
    ) {
        let t = SphereTransform::new(10, u).unwrap();
        let q_scaled = q.scaled(u * 0.999);
        let tp = t.transform_data(&p).unwrap();
        let tq = t.transform_query(&q_scaled).unwrap();
        prop_assert!((tp.norm() - 1.0).abs() < 1e-6);
        prop_assert!((tq.norm() - 1.0).abs() < 1e-6);
        let embedded = tp.dot(&tq).unwrap();
        let original = p.dot(&q_scaled).unwrap();
        prop_assert!((embedded - original / u).abs() < 1e-6);
    }

    #[test]
    fn and_construction_never_collides_less_than_each_component(
        seed in any::<u64>(), k in 1usize..=6
    ) {
        // Identical inputs collide with probability 1 under symmetric families, ANDed or
        // not; this is the degenerate sanity case of the amplification formulas.
        let mut rng = StdRng::seed_from_u64(seed);
        let base = SymmetricAsAsymmetric(HyperplaneFamily::single_bit(8).unwrap());
        let anded = AndConstruction::new(base, k).unwrap();
        let f = anded.sample(&mut rng).unwrap();
        let v = DenseVector::new(vec![0.5; 8]);
        prop_assert!(f.collides(&v, &v).unwrap());
    }

    #[test]
    fn amplification_formulas_are_monotone(p in 0.01f64..0.99, k in 1usize..8, l in 1usize..16) {
        let single = probe_hit_prob(p, k, 0);
        prop_assert!(single <= p + 1e-12);
        let candidate = probed_table_hit_prob(p, k, l, 0);
        let candidate_more_tables = probed_table_hit_prob(p, k, l + 1, 0);
        prop_assert!(candidate <= candidate_more_tables + 1e-12);
        prop_assert!((0.0..=1.0).contains(&candidate));
    }

    #[test]
    fn rho_curves_are_valid_and_ordered(s in 0.05f64..0.95, c in 0.05f64..0.95) {
        let dd = rho_data_dependent(s, c, 1.0).unwrap();
        let simp = rho_simple_alsh(s, c, 1.0).unwrap();
        let mh = rho_mh_alsh(s, c).unwrap();
        for rho in [dd, simp, mh] {
            prop_assert!(rho > 0.0 && rho < 1.0);
        }
        // Equation 3 never loses to the hyperplane instantiation of the same reduction.
        prop_assert!(dd <= simp + 1e-9);
    }
}

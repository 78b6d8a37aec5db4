//! Bit-identity of the plane-bank hashing kernel.
//!
//! `LshIndex` hashes the two hyperplane families (SIMPLE-ALSH and the symmetric
//! hyperplane family) through a [`PlaneBank`]: one embedding and one pass over the
//! coordinate-major coefficients per vector. The per-function trait walk
//! (`AndFunction::hash_data` / `hash_query` / `probe_query` over the sampled
//! functions) is no longer called by the index and serves here as the oracle:
//! for random shapes, both families, and vectors that include exact zeros, `-0.0`,
//! norm exactly 1 and norms just inside and just outside the unit ball,
//!
//! * the bank's bucket keys and probe sequences equal the oracle's;
//! * the tables after `build`, after `build + insert*` and after `remove*` equal
//!   reference tables filled from the oracle's keys (same keys, same id order), and
//!   lookups return the reference candidates;
//! * a vector the oracle rejects is rejected with the same error, by `insert` and
//!   `remove` alike, with no table touched.
//!
//! The functions are sampled here, from the same seed `LshIndex::build` gets, so the
//! test also pins that the index draws them in the same RNG order as before.

use ips_linalg::random::{random_ball_vector, random_unit_vector};
use ips_linalg::DenseVector;
use ips_lsh::amplify::{AndConstruction, AndFunction};
use ips_lsh::bank::{BankScratch, Side};
use ips_lsh::hyperplane::HyperplaneFamily;
use ips_lsh::simple_alsh::SimpleAlshFamily;
use ips_lsh::table::{IndexParams, LshIndex};
use ips_lsh::{
    AsymmetricHashFunction, AsymmetricLshFamily, LshError, ProbeSequence, SymmetricAsAsymmetric,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

type Tables = Vec<HashMap<u64, Vec<u32>>>;

/// Vectors of norm at most `radius` (up to the families' `1e-9` slack) that exercise
/// the kernel's edge cases, followed by `random` ordinary ones.
fn edge_and_random_vectors(
    rng: &mut StdRng,
    dim: usize,
    radius: f64,
    random: usize,
) -> Vec<DenseVector> {
    let mut signed_zeros = random_ball_vector(rng, dim, radius).unwrap();
    for (i, x) in signed_zeros.as_mut_slice().iter_mut().enumerate() {
        match i % 3 {
            0 => *x = 0.0,
            1 => *x = -0.0,
            _ => {}
        }
    }
    let mut out = vec![
        DenseVector::zeros(dim),
        signed_zeros,
        // Norm exactly `radius`: the sphere coordinate of the embedding is exactly 0.
        DenseVector::basis(dim, 0).unwrap().scaled(radius),
        DenseVector::basis(dim, dim - 1).unwrap().scaled(-radius),
        // Outside the ball, inside the slack (norm² ≈ 1 + 8e-10 ≤ 1 + 1e-9).
        random_unit_vector(rng, dim)
            .unwrap()
            .scaled(radius * (1.0 + 4e-10)),
    ];
    out.extend((0..random).map(|_| random_ball_vector(rng, dim, radius).unwrap()));
    out
}

/// Reference tables: every point filed under the oracle's key, table by table.
fn reference_tables<H: AsymmetricHashFunction>(
    functions: &[AndFunction<H>],
    points: &[(u32, &DenseVector)],
) -> Tables {
    functions
        .iter()
        .map(|f| {
            let mut table: HashMap<u64, Vec<u32>> = HashMap::new();
            for &(id, p) in points {
                table.entry(f.hash_data(p).unwrap()).or_default().push(id);
            }
            table
        })
        .collect()
}

/// The sorted, deduplicated union of the given buckets, one key list per table.
fn reference_candidates(tables: &Tables, keys: &[Vec<u64>]) -> Vec<usize> {
    let mut out: Vec<usize> = tables
        .iter()
        .zip(keys)
        .flat_map(|(table, keys)| keys.iter().filter_map(|key| table.get(key)))
        .flatten()
        .map(|&id| id as usize)
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Everything the module docs list, for one family and one shape. `rejected` are
/// vectors the family must refuse; `planes_of` exposes a component's hyperplanes so
/// the bank → functions scatter can be compared coefficient by coefficient.
fn check_family<F>(
    family: &F,
    params: IndexParams,
    seed: u64,
    data: &[DenseVector],
    queries: &[DenseVector],
    rejected: &[DenseVector],
    planes_of: fn(&F::Function) -> &[DenseVector],
) -> Result<(), TestCaseError>
where
    F: AsymmetricLshFamily + Clone,
    F::Function: Clone,
    AndFunction<F::Function>: ProbeSequence,
{
    // The oracle's functions: what `build` samples from the same seed.
    let composite = AndConstruction::new(family.clone(), params.k).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let functions: Vec<_> = (0..params.l)
        .map(|_| composite.sample(&mut rng).unwrap())
        .collect();

    // Keys and probe sequences straight from the bank.
    let bank = F::plane_bank(&functions)
        .unwrap()
        .expect("both hyperplane families provide a bank");
    let (mut scratch, mut keys) = (BankScratch::default(), Vec::new());
    for p in data {
        bank.keys(Side::Data, p, &mut scratch, &mut keys).unwrap();
        let oracle: Vec<u64> = functions.iter().map(|f| f.hash_data(p).unwrap()).collect();
        prop_assert_eq!(&keys, &oracle);
    }
    for q in queries {
        bank.keys(Side::Query, q, &mut scratch, &mut keys).unwrap();
        let oracle: Vec<u64> = functions.iter().map(|f| f.hash_query(q).unwrap()).collect();
        prop_assert_eq!(&keys, &oracle);
        for extra in 0..=8 {
            let oracle: Vec<Vec<u64>> = functions
                .iter()
                .map(|f| f.probe_query(q, extra).unwrap())
                .collect();
            prop_assert_eq!(bank.probe_keys(q, extra, &mut scratch).unwrap(), oracle);
        }
    }
    for v in rejected {
        let oracle = functions[0].hash_data(v).unwrap_err();
        prop_assert_eq!(
            bank.keys(Side::Data, v, &mut scratch, &mut keys)
                .unwrap_err(),
            oracle
        );
    }

    // Build over the first half, insert the rest, remove every third point.
    let split = data.len() / 2;
    let mut index = LshIndex::build(
        family,
        params,
        &data[..split],
        &mut StdRng::seed_from_u64(seed),
    )
    .unwrap();
    let scattered = index.functions();
    prop_assert_eq!(scattered.len(), functions.len());
    for (ours, theirs) in scattered.iter().zip(&functions) {
        prop_assert_eq!(ours.functions().len(), theirs.functions().len());
        for (a, b) in ours.functions().iter().zip(theirs.functions()) {
            prop_assert_eq!(planes_of(a), planes_of(b));
        }
    }
    let mut points: Vec<(u32, &DenseVector)> = (0u32..).zip(&data[..split]).collect();
    prop_assert_eq!(index.tables(), &reference_tables(&functions, &points)[..]);
    for (id, p) in (split as u32..).zip(&data[split..]) {
        index.insert(id, p).unwrap();
        points.push((id, p));
    }
    let reference = reference_tables(&functions, &points);
    prop_assert_eq!(index.tables(), &reference[..]);
    prop_assert_eq!(index.len(), data.len());
    prop_assert_eq!(index.stored_entries(), data.len() * params.l);

    // Lookups read the same buckets the oracle names.
    for q in queries {
        let home: Vec<Vec<u64>> = functions
            .iter()
            .map(|f| vec![f.hash_query(q).unwrap()])
            .collect();
        prop_assert_eq!(
            index.query_candidates(q).unwrap(),
            reference_candidates(&reference, &home)
        );
        for probes in [0usize, 1, 8] {
            let probed: Vec<Vec<u64>> = functions
                .iter()
                .map(|f| f.probe_query(q, probes).unwrap())
                .collect();
            prop_assert_eq!(
                index.probe_lookup(q, probes).unwrap(),
                reference_candidates(&reference, &probed)
            );
        }
    }

    // A rejected vector fails insert and remove alike and touches no table.
    for v in rejected {
        let oracle = functions[0].hash_data(v).unwrap_err();
        let expected_variant = matches!(
            oracle,
            LshError::DimensionMismatch { .. } | LshError::DomainViolation { .. }
        );
        prop_assert!(expected_variant);
        prop_assert_eq!(index.insert(9_999, v).unwrap_err(), oracle.clone());
        prop_assert_eq!(index.remove(0, v).unwrap_err(), oracle);
        prop_assert_eq!(index.tables(), &reference[..]);
        prop_assert_eq!(index.len(), data.len());
    }

    // Removing every third point leaves exactly the tables of the points kept; a
    // second remove of the same id finds nothing.
    for &(id, p) in points.iter().filter(|(id, _)| id % 3 == 0) {
        prop_assert!(index.remove(id, p).unwrap());
        prop_assert!(!index.remove(id, p).unwrap());
    }
    points.retain(|(id, _)| id % 3 != 0);
    prop_assert_eq!(index.tables(), &reference_tables(&functions, &points)[..]);
    prop_assert_eq!(index.len(), points.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bank_hashing_is_bit_identical_to_the_per_function_walk(
        seed in any::<u64>(),
        dim in 1usize..=40,
        k in 1usize..=16,
        l in 1usize..=8,
        bits in 1usize..=3,
        radius in 1.0f64..2.5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDA7A);
        let params = IndexParams { k, l };
        let wrong_dim = DenseVector::zeros(dim + 1);

        // SIMPLE-ALSH: data in the unit ball, queries in the ball of radius U; a
        // vector of norm 1 + 1e-9 (norm² ≈ 1 + 2e-9) is outside the slack.
        let data = edge_and_random_vectors(&mut rng, dim, 1.0, 24);
        let queries = edge_and_random_vectors(&mut rng, dim, radius, 4);
        let outside = random_unit_vector(&mut rng, dim).unwrap().scaled(1.0 + 1e-9);
        check_family(
            &SimpleAlshFamily::new(dim, radius, bits).unwrap(),
            params,
            seed,
            &data,
            &queries,
            &[outside, wrong_dim.clone()],
            |f| f.hyperplane().planes(),
        )?;

        // The symmetric hyperplane family: no embedding, so no ball to leave.
        check_family(
            &SymmetricAsAsymmetric(HyperplaneFamily::new(dim, bits).unwrap()),
            params,
            seed,
            &data,
            &queries,
            &[wrong_dim],
            |f| f.0.planes(),
        )?;
    }
}

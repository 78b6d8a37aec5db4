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
//!
//! The second property is the Section 4.2 layer's: the index hashes a vector's sphere
//! image from its non-zeros ([`SymmetricSphereMap::image_into`] → [`SparseImage`]) and
//! never builds it. The dense [`SymmetricSphereMap::map`] is the oracle: the sparse
//! kernel's keys, probe sequences, tables and lookups must equal those of the
//! materialised image, for dimensions 1..64, unit-norm inputs (an all-zero tag), zero
//! and `-0.0` coordinates, and an [`LshMips`] under the map built either way must hold the
//! same tables.
//!
//! The third property is the build's: both indexes hash their points block by block on
//! several threads (`LshIndex::extend_blocks`, full blocks through the register tile of
//! `PlaneBank::block_keys`). For threads ∈ {1, 2, 3, 7} and blocks of 1, 5 and 256
//! points the index — functions, tables, bucket order, entry count, snapshot bytes —
//! must be the one a single thread builds; a block's keys must be each point's own
//! [`PlaneBank::keys`]; and a point outside the ball must fail the build with the error
//! it gives alone, whichever block it lands in.

use ips_core::asymmetric::AlshParams;
use ips_core::problem::{JoinSpec, JoinVariant};
use ips_core::symmetric::{SphereImage, SymmetricParams, SymmetricSphereMap};
use ips_core::{LshMips, LshOps};
use ips_linalg::par::Schedule;
use ips_linalg::random::{random_ball_vector, random_unit_vector};
use ips_linalg::DenseVector;
use ips_lsh::amplify::{AndConstruction, AndFunction};
use ips_lsh::bank::{BankScratch, Point, Side, SparseImage};
use ips_lsh::hyperplane::HyperplaneFamily;
use ips_lsh::simple_alsh::{SimpleAlshFamily, SphereTransform};
use ips_lsh::table::{IndexParams, LshIndex, BUILD_BLOCK};
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

/// `v`'s sphere image as the LSH kernel takes it, computed into `image`.
fn sparse<'a>(
    map: &SymmetricSphereMap,
    v: &'a DenseVector,
    image: &'a mut SphereImage,
) -> SparseImage<'a> {
    map.image_into(v, image).unwrap();
    SparseImage {
        dim: map.output_dim(),
        head: v.as_slice(),
        tail: image.tag(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sparse_sphere_images_hash_like_the_dense_map(
        seed in any::<u64>(),
        dim in 1usize..=64,
        k in 1usize..=10,
        l in 1usize..=4,
        shape in 0usize..9,
    ) {
        // Three tag collections (1058 to 2068 coordinates) by three precisions.
        let epsilon = [0.25, 0.34, 0.5][shape % 3];
        let precision_bits = [4u32, 16, 32][shape / 3];
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EA);
        let map = SymmetricSphereMap::new(dim, epsilon, precision_bits).unwrap();
        let family = SymmetricAsAsymmetric(HyperplaneFamily::single_bit(map.output_dim()).unwrap());
        let params = IndexParams { k, l };
        // Unit ball, with the edge cases: zero, signed zeros, norm exactly 1 (the
        // whole tag is zero and skipped), just inside the slack.
        let data = edge_and_random_vectors(&mut rng, dim, 1.0, 12);
        let mut image = SphereImage::default();

        // The image is the map, coordinate for coordinate.
        for v in &data {
            let dense = map.map(v).unwrap();
            let sparse = sparse(&map, v, &mut image);
            let mut rebuilt = vec![0.0; sparse.dim];
            rebuilt[..dim].copy_from_slice(sparse.head);
            for &(row, value) in sparse.tail {
                prop_assert!(row >= dim && rebuilt[row] == 0.0);
                rebuilt[row] = value;
            }
            prop_assert_eq!(sparse.tail.len(), map.tag_nonzeros());
            // Bit patterns, so that a `-0.0` in the head is not taken for `0.0`.
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&rebuilt), bits(dense.as_slice()));
        }

        // Keys and probe sequences straight from the bank.
        let composite = AndConstruction::new(family.clone(), k).unwrap();
        let mut sampler = StdRng::seed_from_u64(seed);
        let functions: Vec<_> = (0..l).map(|_| composite.sample(&mut sampler).unwrap()).collect();
        let bank = <SymmetricAsAsymmetric<HyperplaneFamily>>::plane_bank(&functions)
            .unwrap()
            .expect("the hyperplane family provides a bank");
        let (mut scratch, mut dense_keys, mut sparse_keys) = (BankScratch::default(), vec![], vec![]);
        for v in &data {
            let dense = map.map(v).unwrap();
            let sparse = sparse(&map, v, &mut image);
            bank.keys(Side::Data, &dense, &mut scratch, &mut dense_keys).unwrap();
            bank.keys(Side::Data, sparse, &mut scratch, &mut sparse_keys).unwrap();
            prop_assert_eq!(&dense_keys, &sparse_keys);
            for extra in [0usize, 1, 8] {
                prop_assert_eq!(
                    bank.probe_keys(&dense, extra, &mut scratch).unwrap(),
                    bank.probe_keys(sparse, extra, &mut scratch).unwrap()
                );
            }
        }

        // Tables: built over the dense images, against filled image by image; then
        // lookups, and removes that undo the inserts.
        let images: Vec<DenseVector> = data.iter().map(|v| map.map(v).unwrap()).collect();
        let reference =
            LshIndex::build(&family, params, &images, &mut StdRng::seed_from_u64(seed)).unwrap();
        let mut index =
            LshIndex::build(&family, params, &[], &mut StdRng::seed_from_u64(seed)).unwrap();
        for (id, v) in (0u32..).zip(&data) {
            index.insert(id, sparse(&map, v, &mut image)).unwrap();
        }
        prop_assert_eq!(index.tables(), reference.tables());
        for (v, dense) in data.iter().zip(&images) {
            for probes in [0usize, 1, 8] {
                prop_assert_eq!(
                    index.probe_lookup(sparse(&map, v, &mut image), probes).unwrap(),
                    reference.probe_lookup(dense, probes).unwrap()
                );
            }
        }
        for (id, v) in (0u32..).zip(&data) {
            prop_assert!(index.remove(id, sparse(&map, v, &mut image)).unwrap());
        }
        prop_assert!(index.tables().iter().all(|table| table.is_empty()));

        // The product's index, which only ever sees sparse images, holds those tables.
        let symmetric_params = SymmetricParams {
            epsilon,
            precision_bits,
            bits_per_table: k,
            tables: l,
            probes: 0,
        };
        let spec = JoinSpec::new(0.5, 0.5, JoinVariant::Signed).unwrap();
        let built = LshMips::<SymmetricSphereMap>::build(
            Schedule::new(BUILD_BLOCK),
            &mut StdRng::seed_from_u64(seed),
            &data[..],
            spec,
            symmetric_params,
        )
        .unwrap();
        prop_assert_eq!(built.lsh_index().tables(), reference.tables());
        for (v, dense) in data.iter().zip(&images) {
            prop_assert_eq!(
                built.candidate_count(v).unwrap(),
                reference.probe_lookup(dense, 0).unwrap().len()
            );
        }
    }
}

/// Every schedule a build must not depend on.
fn schedules() -> impl Iterator<Item = Schedule> {
    let threads = [1usize, 2, 3, 7];
    threads
        .into_iter()
        .flat_map(|threads| [1usize, 5, 256].map(|block| Schedule { threads, block }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn block_builds_are_the_one_thread_build(
        seed in any::<u64>(),
        dim in 1usize..=64,
        k in 1usize..=10,
        l in 1usize..=4,
        random in 0usize..40,
        bad_at in 0usize..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB10C);
        // Unit ball, edge cases first: zero, signed zeros, norm exactly 1 (a zero
        // sphere coordinate, an all-zero tag), just inside the slack.
        let data = edge_and_random_vectors(&mut rng, dim, 1.0, random);
        let spec = JoinSpec::new(0.5, 0.5, JoinVariant::Signed).unwrap();
        let one_thread = Schedule { threads: 1, block: 256 };
        let params = IndexParams { k, l };

        // A block's keys are each point's own, dense points through the Section 4.1
        // embedding and sparse images alike.
        let alsh_family = SimpleAlshFamily::new(dim, 1.0, 1).unwrap();
        let map = SymmetricSphereMap::new(dim, 0.25, 16).unwrap();
        let symmetric_family =
            SymmetricAsAsymmetric(HyperplaneFamily::single_bit(map.output_dim()).unwrap());
        let sample = |seed: u64| StdRng::seed_from_u64(seed);
        let alsh_composite = AndConstruction::new(alsh_family.clone(), k).unwrap();
        let mut sampler = sample(seed);
        let functions: Vec<_> =
            (0..l).map(|_| alsh_composite.sample(&mut sampler).unwrap()).collect();
        let alsh_bank = SimpleAlshFamily::plane_bank(&functions).unwrap().unwrap();
        let symmetric_composite = AndConstruction::new(symmetric_family.clone(), k).unwrap();
        let mut sampler = sample(seed);
        let functions: Vec<_> =
            (0..l).map(|_| symmetric_composite.sample(&mut sampler).unwrap()).collect();
        let symmetric_bank = <SymmetricAsAsymmetric<HyperplaneFamily>>::plane_bank(&functions)
            .unwrap()
            .unwrap();
        let mut images = vec![SphereImage::default(); data.len()];
        for (v, image) in data.iter().zip(&mut images) {
            map.image_into(v, image).unwrap();
        }
        let sparse_points = || data.iter().zip(&images).map(|(v, image)| {
            Point::from(SparseImage { dim: map.output_dim(), head: v.as_slice(), tail: image.tag() })
        });
        let (mut scratch, mut own) = (BankScratch::default(), Vec::new());
        let mut block = vec![0u64; data.len() * l];
        alsh_bank
            .block_keys(Side::Data, data.iter().map(Point::from), &mut scratch, &mut block)
            .unwrap();
        for (v, keys) in data.iter().zip(block.chunks_exact(l)) {
            alsh_bank.keys(Side::Data, v, &mut scratch, &mut own).unwrap();
            prop_assert_eq!(keys, &own[..]);
        }
        symmetric_bank
            .block_keys(Side::Data, sparse_points(), &mut scratch, &mut block)
            .unwrap();
        for (point, keys) in sparse_points().zip(block.chunks_exact(l)) {
            symmetric_bank.keys(Side::Data, point, &mut scratch, &mut own).unwrap();
            prop_assert_eq!(keys, &own[..]);
        }
        // A key buffer of the wrong length is refused, whichever way it is wrong.
        for slots in [0, block.len() - 1, block.len() - l] {
            prop_assert!(alsh_bank
                .block_keys(Side::Data, data.iter().map(Point::from), &mut scratch, &mut block[..slots])
                .is_err());
        }

        // The indexes, at every schedule, against the one-thread build.
        let alsh_params = AlshParams { bits_per_table: k, tables: l, ..AlshParams::default() };
        let symmetric_params = SymmetricParams {
            bits_per_table: k,
            tables: l,
            ..SymmetricParams::default()
        };
        let alsh = |schedule| {
            LshMips::<SphereTransform>::build(schedule, &mut sample(seed), data.clone(), spec, alsh_params)
        };
        let symmetric = |schedule| {
            LshMips::<SymmetricSphereMap>::build(
                schedule,
                &mut sample(seed),
                data.clone(),
                spec,
                symmetric_params,
            )
        };
        let alsh_bytes = |index| ips_store::Snapshot::new(ips_store::AnyIndex::Alsh(index)).to_bytes();
        let symmetric_bytes =
            |index| ips_store::Snapshot::new(ips_store::AnyIndex::Symmetric(index)).to_bytes();
        let alsh_reference = alsh(one_thread).unwrap();
        let symmetric_reference = symmetric(one_thread).unwrap();
        prop_assert_eq!(alsh_reference.lsh_index().stored_entries(), data.len() * l);
        for schedule in schedules() {
            let built = alsh(schedule).unwrap();
            let (ours, theirs) = (built.lsh_index(), alsh_reference.lsh_index());
            prop_assert_eq!(ours.tables(), theirs.tables());
            prop_assert_eq!(ours.stored_entries(), theirs.stored_entries());
            prop_assert_eq!(ours.len(), theirs.len());
            for (a, b) in ours.functions().iter().zip(theirs.functions()) {
                for (a, b) in a.functions().iter().zip(b.functions()) {
                    prop_assert_eq!(a.hyperplane().planes(), b.hyperplane().planes());
                }
            }
            let built = symmetric(schedule).unwrap();
            let (ours, theirs) = (built.lsh_index(), symmetric_reference.lsh_index());
            prop_assert_eq!(ours.tables(), theirs.tables());
            prop_assert_eq!(ours.stored_entries(), theirs.stored_entries());
            for (a, b) in ours.functions().iter().zip(theirs.functions()) {
                for (a, b) in a.functions().iter().zip(b.functions()) {
                    prop_assert_eq!(a.0.planes(), b.0.planes());
                }
            }
            // The diagonal was filed in slot order too: every vector finds itself.
            for (slot, v) in data.iter().enumerate() {
                let diagonal =
                    |index: &LshMips<'_, SymmetricSphereMap>| index.search_parts(v).unwrap().exact;
                prop_assert_eq!(
                    diagonal(&built).map(|hit| hit.data_index),
                    diagonal(&symmetric_reference).map(|hit| hit.data_index),
                    "slot {}", slot
                );
            }
        }
        // Snapshot bytes: functions, tables in canonical order, vectors, liveness.
        let alsh_reference = alsh_bytes(alsh_reference);
        let symmetric_reference = symmetric_bytes(symmetric_reference);
        for schedule in schedules() {
            prop_assert_eq!(&alsh_bytes(alsh(schedule).unwrap()), &alsh_reference);
            prop_assert_eq!(&symmetric_bytes(symmetric(schedule).unwrap()), &symmetric_reference);
        }

        // A point outside the ball, wherever it stands, fails the build with the
        // error it gives on its own — and of two, the earlier one's.
        let bad_at = bad_at % data.len();
        let outside = |scale: f64| random_unit_vector(&mut sample(seed), dim).unwrap().scaled(scale);
        let mut spoiled = data.clone();
        spoiled[bad_at] = outside(1.5);
        spoiled.push(outside(2.5));
        let alone = LshIndex::build_scheduled(
            one_thread,
            &alsh_family,
            params,
            &spoiled[bad_at..=bad_at],
            &mut sample(seed),
        )
        .map(|_| ())
        .unwrap_err();
        let symmetric_alone = LshMips::<SymmetricSphereMap>::build(
            one_thread,
            &mut sample(seed),
            &spoiled[bad_at..=bad_at],
            spec,
            symmetric_params,
        )
        .map(|_| ())
        .unwrap_err();
        for schedule in schedules() {
            let built =
                LshIndex::build_scheduled(schedule, &alsh_family, params, &spoiled, &mut sample(seed));
            prop_assert_eq!(built.map(|_| ()).unwrap_err(), alone.clone());
            let built = LshMips::<SymmetricSphereMap>::build(
                schedule,
                &mut sample(seed),
                &spoiled[..],
                spec,
                symmetric_params,
            );
            prop_assert_eq!(
                built.map(|_| ()).unwrap_err().to_string(),
                symmetric_alone.to_string()
            );
        }
    }
}

//! Criterion bench for hash-function sampling and evaluation throughput of every LSH
//! family (supports E4 and the ablation "hyperplane vs cross-polytope as the sphere
//! substrate").

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ips_bench::crosspolytope::CrossPolytopeFamily;
use ips_bench::e2lsh::E2LshFamily;
use ips_bench::mhalsh::MhAlshFamily;
use ips_bench::minhash::MinHashFamily;
use ips_linalg::random::{random_ball_vector, random_binary_vector, random_unit_vector};
use ips_lsh::hyperplane::HyperplaneFamily;
use ips_lsh::simple_alsh::SimpleAlshFamily;
use ips_lsh::traits::{AsymmetricHashFunction, AsymmetricLshFamily, HashFunction, LshFamily};
use rand::rngs::StdRng;
use rand::SeedableRng;

const DIM: usize = 128;

fn bench_symmetric_families(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0xB21);
    let v = random_unit_vector(&mut rng, DIM).unwrap();
    let mut group = c.benchmark_group("symmetric_hash_eval");

    let hyperplane = HyperplaneFamily::new(DIM, 16).unwrap();
    let hp = hyperplane.sample(&mut rng).unwrap();
    group.bench_function("hyperplane_16bit", |b| {
        b.iter(|| black_box(hp.hash(&v).unwrap()))
    });

    let cross = CrossPolytopeFamily::new(DIM).unwrap();
    let cp = cross.sample(&mut rng).unwrap();
    group.bench_function("cross_polytope", |b| {
        b.iter(|| black_box(cp.hash(&v).unwrap()))
    });

    let e2 = E2LshFamily::new(DIM, 2.5).unwrap();
    let e2f = e2.sample(&mut rng).unwrap();
    group.bench_function("e2lsh", |b| b.iter(|| black_box(e2f.hash(&v).unwrap())));

    let set = random_binary_vector(&mut rng, DIM, 0.3).unwrap().to_dense();
    let minhash = MinHashFamily::new(DIM).unwrap();
    let mh = minhash.sample(&mut rng).unwrap();
    group.bench_function("minhash", |b| b.iter(|| black_box(mh.hash(&set).unwrap())));

    group.finish();
}

fn bench_asymmetric_families(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0xB22);
    let data = random_ball_vector(&mut rng, DIM, 1.0).unwrap();
    let query = random_unit_vector(&mut rng, DIM).unwrap();
    let mut group = c.benchmark_group("asymmetric_hash_eval");

    let simple = SimpleAlshFamily::new(DIM, 1.0, 16).unwrap();
    let sf = simple.sample(&mut rng).unwrap();
    group.bench_function("simple_alsh_data", |b| {
        b.iter(|| black_box(sf.hash_data(&data).unwrap()))
    });
    group.bench_function("simple_alsh_query", |b| {
        b.iter(|| black_box(sf.hash_query(&query).unwrap()))
    });

    let set = random_binary_vector(&mut rng, DIM, 0.2).unwrap().to_dense();
    let mha = MhAlshFamily::new(DIM, 40).unwrap();
    let mf = mha.sample(&mut rng).unwrap();
    group.bench_function("mh_alsh_data", |b| {
        b.iter(|| black_box(mf.hash_data(&set).unwrap()))
    });
    group.bench_function("mh_alsh_query", |b| {
        b.iter(|| black_box(mf.hash_query(&set).unwrap()))
    });

    group.finish();
}

criterion_group!(benches, bench_symmetric_families, bench_asymmetric_families);
criterion_main!(benches);

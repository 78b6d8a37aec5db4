//! Criterion bench for single-query MIPS (the indexing versions of Section 4): exact
//! scan vs the Section 4.1 ALSH index vs the Section 4.2 symmetric LSH vs the
//! Section 4.3 sketch structure, on a latent-factor recommender workload.

use criterion::{criterion_group, criterion_main, Criterion};
use ips_core::asymmetric::{AlshParams, SphereTransform};
use ips_core::lsh_mips::{LshMips, BUILD_BLOCK};
use ips_core::mips::{BruteForceMipsIndex, MipsIndex};
use ips_core::problem::{JoinSpec, JoinVariant};
use ips_core::symmetric::{SymmetricParams, SymmetricSphereMap};
use ips_datagen::latent::{LatentFactorConfig, LatentFactorModel};
use ips_linalg::par::Schedule;
use ips_sketch::linf_mips::MaxIpConfig;
use ips_sketch::recovery::SketchMipsIndex;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_mips_query(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0xB41);
    let model = LatentFactorModel::generate(
        &mut rng,
        LatentFactorConfig {
            items: 2000,
            users: 8,
            dim: 32,
            popularity_sigma: 0.5,
        },
    )
    .unwrap();
    let spec = JoinSpec::new(0.2, 0.5, JoinVariant::Signed).unwrap();
    let queries = model.users().to_vec();

    let brute = BruteForceMipsIndex::new(model.items().to_vec(), spec);
    let alsh = LshMips::<SphereTransform>::build(
        Schedule::new(BUILD_BLOCK),
        &mut rng,
        model.items().to_vec(),
        spec,
        AlshParams::default(),
    )
    .unwrap();
    let symmetric = LshMips::<SymmetricSphereMap>::build(
        Schedule::new(BUILD_BLOCK),
        &mut rng,
        model.items().to_vec(),
        spec,
        SymmetricParams {
            bits_per_table: 12,
            tables: 16,
            ..Default::default()
        },
    )
    .unwrap();
    let sketch = SketchMipsIndex::build(
        &mut rng,
        model.items().to_vec(),
        MaxIpConfig {
            kappa: 2.0,
            copies: 7,
            rows: None,
        },
        16,
    )
    .unwrap();

    let mut group = c.benchmark_group("mips_query");
    group.sample_size(20);
    group.bench_function("exact_scan", |b| {
        b.iter(|| {
            for q in &queries {
                let _ = brute.search(q).unwrap();
            }
        })
    });
    group.bench_function("alsh_section_4_1", |b| {
        b.iter(|| {
            for q in &queries {
                let _ = alsh.search(q).unwrap();
            }
        })
    });
    group.bench_function("symmetric_section_4_2", |b| {
        b.iter(|| {
            for q in &queries {
                let _ = symmetric.search(q).unwrap();
            }
        })
    });
    group.bench_function("sketch_section_4_3", |b| {
        b.iter(|| {
            for q in &queries {
                let _ = sketch.query(q).unwrap();
            }
        })
    });
    group.finish();
}

fn bench_index_construction(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0xB42);
    let model = LatentFactorModel::generate(
        &mut rng,
        LatentFactorConfig {
            items: 1000,
            users: 4,
            dim: 32,
            popularity_sigma: 0.5,
        },
    )
    .unwrap();
    let spec = JoinSpec::new(0.2, 0.5, JoinVariant::Signed).unwrap();
    let mut group = c.benchmark_group("mips_index_build");
    group.sample_size(10);
    group.bench_function("alsh_build", |b| {
        b.iter(|| {
            LshMips::<SphereTransform>::build(
                Schedule::new(BUILD_BLOCK),
                &mut rng,
                model.items().to_vec(),
                spec,
                AlshParams::default(),
            )
            .unwrap()
        })
    });
    group.bench_function("sketch_build", |b| {
        b.iter(|| {
            SketchMipsIndex::build(
                &mut rng,
                model.items().to_vec(),
                MaxIpConfig {
                    kappa: 2.0,
                    copies: 7,
                    rows: None,
                },
                16,
            )
            .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_mips_query, bench_index_construction);
criterion_main!(benches);

//! Criterion bench for the `(cs, s)` joins (E5): brute force vs the Section 4.1 ALSH
//! join vs the Section 4.3 sketch join, plus an ablation over the ALSH amplification
//! parameters (k, L).
//!
//! Sizes are kept modest so `cargo bench` completes quickly; the `experiment_join_scaling`
//! binary covers the larger sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ips_core::asymmetric::AlshParams;
use ips_core::brute::brute_force_join;
use ips_core::engine::{EngineConfig, JoinEngine};
use ips_core::facade::{Join, Strategy};
use ips_core::mips::BruteForceMipsIndex;
use ips_core::problem::{JoinSpec, JoinVariant};
use ips_datagen::planted::{PlantedConfig, PlantedInstance};
use ips_sketch::linf_mips::MaxIpConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn instance(n: usize, rng: &mut StdRng) -> PlantedInstance {
    PlantedInstance::generate(
        rng,
        PlantedConfig {
            data: n,
            queries: 16,
            dim: 32,
            background_scale: 0.05,
            planted_ip: 0.85,
            planted: 4,
        },
    )
    .expect("valid config")
}

fn bench_joins(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0xB31);
    let spec = JoinSpec::new(0.8, 0.6, JoinVariant::Unsigned).unwrap();
    let mut group = c.benchmark_group("join_algorithms");
    group.sample_size(10);
    for &n in &[500usize, 2000] {
        let inst = instance(n, &mut rng);
        group.bench_with_input(BenchmarkId::new("brute_force", n), &n, |b, _| {
            b.iter(|| brute_force_join(inst.data(), inst.queries(), &spec).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("alsh", n), &n, |b, _| {
            b.iter(|| {
                Join::data(inst.data())
                    .queries(inst.queries())
                    .spec(spec)
                    .strategy(Strategy::Alsh)
                    .run_with_rng(&mut rng)
                    .unwrap()
                    .matches
            })
        });
        group.bench_with_input(BenchmarkId::new("sketch", n), &n, |b, _| {
            b.iter(|| {
                Join::data(inst.data())
                    .queries(inst.queries())
                    .spec(spec)
                    .strategy(Strategy::Sketch)
                    .sketch_config(MaxIpConfig {
                        kappa: 2.0,
                        copies: 7,
                        rows: None,
                    })
                    .sketch_leaf_size(16)
                    .run_with_rng(&mut rng)
                    .unwrap()
                    .matches
            })
        });
    }
    group.finish();
}

fn bench_alsh_amplification_ablation(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0xB32);
    let spec = JoinSpec::new(0.8, 0.6, JoinVariant::Signed).unwrap();
    let inst = instance(1000, &mut rng);
    let mut group = c.benchmark_group("alsh_amplification");
    group.sample_size(10);
    for &(k, l) in &[(6usize, 8usize), (12, 32), (18, 64)] {
        let params = AlshParams {
            bits_per_table: k,
            tables: l,
            ..Default::default()
        };
        group.bench_with_input(
            BenchmarkId::new("k_l", format!("{k}x{l}")),
            &params,
            |b, p| {
                b.iter(|| {
                    Join::data(inst.data())
                        .queries(inst.queries())
                        .spec(spec)
                        .strategy(Strategy::Alsh)
                        .alsh_params(*p)
                        .run_with_rng(&mut rng)
                        .unwrap()
                        .matches
                })
            },
        );
    }
    group.finish();
}

/// The JoinEngine's parallel, chunk-batched driver against the serial
/// one-query-at-a-time loop it replaced, on the exact brute-force index (the
/// heaviest per-query cost, so the honest parallelism measurement). The
/// acceptance target for the engine is ≥ 1.5× on 4+ cores.
fn bench_join_engine_scaling(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0xB33);
    let spec = JoinSpec::new(0.8, 0.6, JoinVariant::Unsigned).unwrap();
    let inst = instance(4000, &mut rng);
    let index = BruteForceMipsIndex::new(inst.data().to_vec(), spec);
    let mut group = c.benchmark_group("join_engine");
    group.sample_size(10);
    group.bench_function("serial_loop", |b| {
        // chunk_size 1 forces the per-query `search` path: one query at a time.
        let engine = JoinEngine::with_config(
            &index,
            EngineConfig {
                threads: 1,
                chunk_size: 1,
            },
        );
        b.iter(|| engine.run_serial(inst.queries()).unwrap())
    });
    group.bench_function("serial_batched", |b| {
        let engine = JoinEngine::with_config(&index, EngineConfig::serial());
        b.iter(|| engine.run_serial(inst.queries()).unwrap())
    });
    for &threads in &[2usize, 4, 0] {
        let id = if threads == 0 {
            "all_cores".to_string()
        } else {
            threads.to_string()
        };
        group.bench_with_input(BenchmarkId::new("parallel", id), &threads, |b, &threads| {
            let engine = JoinEngine::with_config(&index, EngineConfig::with_threads(threads));
            b.iter(|| engine.run(inst.queries()).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_joins,
    bench_alsh_amplification_ablation,
    bench_join_engine_scaling
);
criterion_main!(benches);

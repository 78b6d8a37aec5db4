//! End-to-end joins across crates: workload generation (`ips-datagen`), index
//! construction and joins (`ips-core`, `ips-lsh`, `ips-sketch`), and evaluation against
//! the paper's Definition 1 semantics.

use ips_core::asymmetric::{AlshParams, SphereTransform};
use ips_core::brute::{brute_force_join, brute_force_join_parallel};
use ips_core::engine::{EngineConfig, JoinEngine};
use ips_core::facade::{Join, Strategy};
use ips_core::lsh_mips::{LshMips, BUILD_BLOCK};
use ips_core::mips::BruteForceMipsIndex;
use ips_core::problem::{evaluate_join, negate_queries, JoinSpec, JoinVariant};
use ips_datagen::latent::{LatentFactorConfig, LatentFactorModel};
use ips_datagen::planted::{PlantedConfig, PlantedInstance};
use ips_linalg::par::Schedule;
use ips_sketch::linf_mips::MaxIpConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng() -> StdRng {
    StdRng::seed_from_u64(0x17E57)
}

#[test]
fn planted_pairs_are_found_by_every_join() {
    let mut rng = rng();
    let inst = PlantedInstance::generate(
        &mut rng,
        PlantedConfig {
            data: 400,
            queries: 40,
            dim: 32,
            background_scale: 0.05,
            planted_ip: 0.85,
            planted: 8,
        },
    )
    .unwrap();
    let spec = JoinSpec::new(0.8, 0.6, JoinVariant::Unsigned).unwrap();

    let exact = brute_force_join(inst.data(), inst.queries(), &spec).unwrap();
    let alsh = Join::data(inst.data())
        .queries(inst.queries())
        .spec(spec)
        .strategy(Strategy::Alsh)
        .alsh_params(AlshParams::default())
        .run_with_rng(&mut rng)
        .unwrap()
        .matches;
    let sketch = Join::data(inst.data())
        .queries(inst.queries())
        .spec(spec)
        .strategy(Strategy::Sketch)
        .sketch_config(MaxIpConfig {
            kappa: 2.0,
            copies: 11,
            rows: None,
        })
        .sketch_leaf_size(8)
        .run_with_rng(&mut rng)
        .unwrap()
        .matches;

    // Exact join finds every planted query.
    let exact_recall = inst.recall(
        &exact
            .iter()
            .map(|p| (p.data_index, p.query_index))
            .collect::<Vec<_>>(),
        spec.relaxed_threshold(),
    );
    assert_eq!(exact_recall, 1.0);

    for (name, pairs) in [("alsh", &alsh), ("sketch", &sketch)] {
        let reported: Vec<(usize, usize)> = pairs
            .iter()
            .map(|p| (p.data_index, p.query_index))
            .collect();
        let recall = inst.recall(&reported, spec.relaxed_threshold());
        assert!(recall >= 0.75, "{name} join recall too low: {recall}");
        let (_, valid) = evaluate_join(inst.data(), inst.queries(), &spec, pairs).unwrap();
        assert!(valid, "{name} join reported a pair below cs");
    }
}

#[test]
fn unsigned_join_equals_two_signed_joins() {
    // The reduction stated in the paper's problem-definition section: the unsigned join
    // against Q is the union of the signed joins against Q and against −Q (filtered on
    // |ip| ≥ threshold). Verify query-coverage equality on a latent-factor workload.
    let mut rng = rng();
    let model = LatentFactorModel::generate(
        &mut rng,
        LatentFactorConfig {
            items: 300,
            users: 60,
            dim: 24,
            popularity_sigma: 0.4,
        },
    )
    .unwrap();
    let s = model.best_ip_quantile(0.5).unwrap().abs().max(0.05);
    let unsigned = JoinSpec::exact(s, JoinVariant::Unsigned).unwrap();
    let signed = JoinSpec::exact(s, JoinVariant::Signed).unwrap();

    let unsigned_pairs = brute_force_join(model.items(), model.users(), &unsigned).unwrap();
    let pos_pairs = brute_force_join(model.items(), model.users(), &signed).unwrap();
    let negated = negate_queries(model.users());
    let neg_pairs = brute_force_join(model.items(), &negated, &signed).unwrap();

    let mut unsigned_queries: Vec<usize> = unsigned_pairs.iter().map(|p| p.query_index).collect();
    unsigned_queries.sort_unstable();
    let mut combined: Vec<usize> = pos_pairs
        .iter()
        .map(|p| p.query_index)
        .chain(neg_pairs.iter().map(|p| p.query_index))
        .collect();
    combined.sort_unstable();
    combined.dedup();
    assert_eq!(unsigned_queries, combined);
}

#[test]
fn join_engine_schedules_never_change_results() {
    // The engine's parallel, chunk-batched driver must be observationally
    // identical to the serial loop for every index and every schedule.
    let mut rng = rng();
    let inst = PlantedInstance::generate(
        &mut rng,
        PlantedConfig {
            data: 300,
            queries: 41,
            dim: 24,
            background_scale: 0.05,
            planted_ip: 0.85,
            planted: 6,
        },
    )
    .unwrap();
    let spec = JoinSpec::new(0.8, 0.6, JoinVariant::Signed).unwrap();

    let brute = BruteForceMipsIndex::new(inst.data().to_vec(), spec);
    let alsh = LshMips::<SphereTransform>::build(
        Schedule::new(BUILD_BLOCK),
        &mut rng,
        inst.data().to_vec(),
        spec,
        AlshParams::default(),
    )
    .unwrap();

    let brute_reference = JoinEngine::with_config(&brute, EngineConfig::serial())
        .run_serial(inst.queries())
        .unwrap();
    let alsh_reference = JoinEngine::with_config(&alsh, EngineConfig::serial())
        .run_serial(inst.queries())
        .unwrap();
    for threads in [1, 2, 5, 0] {
        for chunk_size in [1, 7, 64] {
            let config = EngineConfig {
                threads,
                chunk_size,
            };
            assert_eq!(
                JoinEngine::with_config(&brute, config)
                    .run(inst.queries())
                    .unwrap(),
                brute_reference,
                "brute force: threads={threads} chunk_size={chunk_size}"
            );
            assert_eq!(
                JoinEngine::with_config(&alsh, config)
                    .run(inst.queries())
                    .unwrap(),
                alsh_reference,
                "ALSH: threads={threads} chunk_size={chunk_size}"
            );
        }
    }
}

#[test]
fn engine_over_brute_force_index_equals_brute_force_join() {
    // The brute-force index applies the promise threshold per query, so the
    // engine-driven join over it is exactly `brute_force_join`.
    let mut rng = rng();
    let model = LatentFactorModel::generate(
        &mut rng,
        LatentFactorConfig {
            items: 150,
            users: 33,
            dim: 16,
            popularity_sigma: 0.5,
        },
    )
    .unwrap();
    let spec = JoinSpec::exact(0.1, JoinVariant::Signed).unwrap();
    let reference = brute_force_join(model.items(), model.users(), &spec).unwrap();
    let engine = JoinEngine::new(BruteForceMipsIndex::new(model.items().to_vec(), spec));
    assert_eq!(engine.run(model.users()).unwrap(), reference);
}

#[test]
fn parallel_and_sequential_brute_force_agree_on_latent_data() {
    let mut rng = rng();
    let model = LatentFactorModel::generate(
        &mut rng,
        LatentFactorConfig {
            items: 200,
            users: 37,
            dim: 16,
            popularity_sigma: 0.5,
        },
    )
    .unwrap();
    let spec = JoinSpec::exact(0.1, JoinVariant::Signed).unwrap();
    let sequential = brute_force_join(model.items(), model.users(), &spec).unwrap();
    let parallel = brute_force_join_parallel(model.items(), model.users(), &spec, 4).unwrap();
    assert_eq!(sequential, parallel);
}

//! Property tests for the cost-based join planner.
//!
//! The load-bearing property: `Strategy::Auto` is *pure dispatch*. Whatever
//! strategy the planner selects, executing the plan must produce exactly the
//! pairs naming that strategy by hand produces with the same
//! parameters and RNG state — the planner may only choose, never change, a
//! join's semantics. A second property pins that plans are deterministic
//! functions of the sampled statistics, and a third that *every* strategy a
//! plan could dispatch to stays valid under Definition 1. A fourth test pins that
//! each LSH estimate names the path — scan or hash — its execution takes.

use ips_core::facade::{Join, Strategy};
use ips_core::planner::{IndexConfig, JoinPath, JoinPlan, JoinPlanner};
use ips_core::problem::{evaluate_join, JoinSpec, JoinVariant, MatchPair};
use ips_linalg::DenseVector;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A workload inside the unit ball (all strategies eligible): `n` data
/// vectors, `m` queries, all with coordinates small enough that norms stay
/// below 1 for dimensions up to 6.
fn workload(seed: u64, n: usize, m: usize, dim: usize) -> (Vec<DenseVector>, Vec<DenseVector>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = (0..n)
        .map(|_| {
            ips_linalg::random::random_ball_vector(&mut rng, dim, 1.0)
                .unwrap()
                .scaled(0.9)
        })
        .collect();
    let queries = (0..m)
        .map(|_| ips_linalg::random::random_unit_vector(&mut rng, dim).unwrap())
        .collect();
    (data, queries)
}

/// Runs the plan's choice the way a user names it by hand — the builder with an
/// explicit strategy and the chosen structure's resolved parameters.
fn manual_run(
    plan: &JoinPlan,
    exec_seed: u64,
    data: &[DenseVector],
    queries: &[DenseVector],
) -> Vec<MatchPair> {
    let builder = Join::data(data)
        .queries(queries)
        .spec(plan.spec)
        .engine(plan.engine);
    let builder = match plan.choice {
        IndexConfig::Brute => builder.strategy(Strategy::Brute),
        IndexConfig::Alsh(params) => builder.strategy(Strategy::Alsh).alsh_params(params),
        IndexConfig::Symmetric(params) => builder
            .strategy(Strategy::Symmetric)
            .symmetric_params(params),
        IndexConfig::Sketch(config) => builder.strategy(Strategy::Sketch).sketch_config(config),
    };
    let mut rng = StdRng::seed_from_u64(exec_seed);
    let matches = builder.run_with_rng(&mut rng).unwrap().matches;
    // These workloads are below the scan rule: an LSH pick is the exact scan, which
    // draws nothing.
    if matches!(
        plan.choice,
        IndexConfig::Alsh(_) | IndexConfig::Symmetric(_)
    ) {
        assert_eq!(
            rng,
            StdRng::seed_from_u64(exec_seed),
            "{} hashed",
            plan.choice.family()
        );
    }
    matches
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // The planned join ≡ the manual call of whichever strategy it selected.
    #[test]
    fn auto_join_matches_the_selected_strategy_exactly(
        data_seed in any::<u64>(),
        plan_seed in any::<u64>(),
        exec_seed in any::<u64>(),
        s in 0.05f64..0.5,
        c in 0.3f64..0.95,
        signed in any::<bool>(),
    ) {
        let (data, queries) = workload(data_seed, 60, 12, 6);
        let variant = if signed { JoinVariant::Signed } else { JoinVariant::Unsigned };
        let spec = JoinSpec::new(s, c, variant).unwrap();
        let planner = JoinPlanner::default();
        let plan = planner
            .plan(&mut StdRng::seed_from_u64(plan_seed), &data, &queries, spec)
            .unwrap();
        let auto = plan
            .execute(&mut StdRng::seed_from_u64(exec_seed), &data, &queries)
            .unwrap();
        let manual = manual_run(&plan, exec_seed, &data, &queries);
        prop_assert_eq!(auto, manual, "choice = {}", plan.choice.family());
    }

    // Every strategy a plan could dispatch to — not just the chosen one —
    // produces valid output with the plan's resolved parameters, so a
    // different (even wrong) choice can never break Definition 1.
    #[test]
    fn every_dispatchable_strategy_stays_valid(
        data_seed in any::<u64>(),
        exec_seed in any::<u64>(),
        s in 0.1f64..0.5,
        c in 0.4f64..0.9,
    ) {
        let (data, queries) = workload(data_seed, 50, 8, 5);
        let spec = JoinSpec::new(s, c, JoinVariant::Signed).unwrap();
        let plan = JoinPlanner::default()
            .plan(&mut StdRng::seed_from_u64(exec_seed ^ 0x5EED), &data, &queries, spec)
            .unwrap();
        for estimate in &plan.estimates {
            if !estimate.eligible {
                continue;
            }
            let mut forced = plan.clone();
            forced.choice = estimate.config;
            let mut rng = StdRng::seed_from_u64(exec_seed);
            let pairs = forced.execute(&mut rng, &data, &queries).unwrap();
            // 50 × 8 points in dimension 5 are below the scan rule.
            if matches!(forced.choice, IndexConfig::Alsh(_) | IndexConfig::Symmetric(_)) {
                prop_assert_eq!(&rng, &StdRng::seed_from_u64(exec_seed), "{} hashed", forced.choice.family());
            }
            let (_, valid) = evaluate_join(&data, &queries, &spec, &pairs).unwrap();
            prop_assert!(valid, "{} reported a pair below cs", estimate.config.family());
        }
    }

    // Planning is deterministic: the same workload and planning seed yield
    // the same plan (choice, estimates, resolved parameters).
    #[test]
    fn planning_is_deterministic(
        data_seed in any::<u64>(),
        plan_seed in any::<u64>(),
    ) {
        let (data, queries) = workload(data_seed, 40, 10, 5);
        let spec = JoinSpec::new(0.3, 0.7, JoinVariant::Signed).unwrap();
        let planner = JoinPlanner::default();
        let a = planner
            .plan(&mut StdRng::seed_from_u64(plan_seed), &data, &queries, spec)
            .unwrap();
        let b = planner
            .plan(&mut StdRng::seed_from_u64(plan_seed), &data, &queries, spec)
            .unwrap();
        prop_assert_eq!(a, b);
    }
}

/// The path each LSH estimate names is the path its forced execution takes: on every
/// workload of the planner suite at both of `calibrate_planner`'s scales, and on the
/// benchmark's planted shapes at the hard background scale, an ALSH or symmetric join
/// draws from its RNG exactly where its estimate says `hash`.
#[test]
fn every_lsh_estimate_names_the_path_its_execution_takes() {
    use ips_datagen::adversarial::{planner_suite, AdversarialScale};
    use ips_datagen::planted::{PlantedConfig, PlantedInstance};
    let mut workloads = Vec::new();
    for (n, m) in [(2000, 400), (12_000, 3000)] {
        let scale = AdversarialScale { n, m, dim: 32 };
        for w in planner_suite(&mut StdRng::seed_from_u64(0xCA11), scale).unwrap() {
            let variant = if w.unsigned {
                JoinVariant::Unsigned
            } else {
                JoinVariant::Signed
            };
            let spec = JoinSpec::new(w.threshold, w.approximation, variant).unwrap();
            workloads.push((format!("{} at {n} × {m}", w.name), w.data, w.queries, spec));
        }
    }
    for (data, queries, planted) in [(6000, 6000, 256), (12_000, 64, 16)] {
        let config = PlantedConfig {
            data,
            queries,
            dim: 48,
            background_scale: 1.0,
            planted_ip: 0.85,
            planted,
        };
        let inst = PlantedInstance::generate(&mut StdRng::seed_from_u64(7), config).unwrap();
        let spec = JoinSpec::new(0.8, 0.6, JoinVariant::Signed).unwrap();
        let name = format!("hard planted {data} × {queries}");
        workloads.push((name, inst.data().to_vec(), inst.queries().to_vec(), spec));
    }
    let mut hashed = 0;
    for (name, data, queries, spec) in &workloads {
        let plan = JoinPlanner::default()
            .plan(&mut StdRng::seed_from_u64(1), data, queries, *spec)
            .unwrap();
        for estimate in &plan.estimates {
            let lsh = matches!(
                estimate.config,
                IndexConfig::Alsh(_) | IndexConfig::Symmetric(_)
            );
            if !lsh || !estimate.eligible {
                continue;
            }
            let mut forced = plan.clone();
            forced.choice = estimate.config;
            let mut rng = StdRng::seed_from_u64(2);
            forced.execute(&mut rng, data, queries).unwrap();
            let drew = rng != StdRng::seed_from_u64(2);
            let family = estimate.config.family();
            assert_eq!(
                estimate.path,
                Some(if drew { JoinPath::Hash } else { JoinPath::Scan }),
                "{family} on {name}"
            );
            hashed += usize::from(drew);
        }
    }
    // Both paths are exercised: the square hard join and three suite joins hash.
    assert!(hashed >= 4, "{hashed} hashing joins");
}

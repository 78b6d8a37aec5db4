//! Property tests for the cost-based join planner.
//!
//! The load-bearing property: `Strategy::Auto` is *pure dispatch*. Whatever
//! strategy the planner selects, executing the plan must produce exactly the
//! pairs naming that strategy by hand produces with the same
//! parameters and RNG state — the planner may only choose, never change, a
//! join's semantics. A second property pins that plans are deterministic
//! functions of the sampled statistics, and a third that *every* strategy a
//! plan could dispatch to stays valid under Definition 1.

use ips_core::facade::Join;
use ips_core::planner::{JoinPlanner, Strategy};
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

/// Runs `strategy` the way a user names it by hand — the builder with an explicit
/// strategy — under the plan's resolved parameters.
fn manual_run(
    plan: &ips_core::planner::JoinPlan,
    strategy: Strategy,
    exec_seed: u64,
    data: &[DenseVector],
    queries: &[DenseVector],
) -> Vec<MatchPair> {
    Join::data(data)
        .queries(queries)
        .spec(plan.spec)
        .strategy(strategy.into())
        .alsh_params(plan.alsh_params)
        .symmetric_params(plan.symmetric_params)
        .sketch_config(plan.sketch_config)
        .sketch_leaf_size(plan.sketch_leaf_size)
        .engine(plan.engine)
        .run_with_rng(&mut StdRng::seed_from_u64(exec_seed))
        .unwrap()
        .matches
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
        let manual = manual_run(&plan, plan.choice, exec_seed, &data, &queries);
        prop_assert_eq!(auto, manual, "choice = {}", plan.choice);
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
            forced.choice = estimate.strategy;
            let pairs = forced
                .execute(&mut StdRng::seed_from_u64(exec_seed), &data, &queries)
                .unwrap();
            let (_, valid) = evaluate_join(&data, &queries, &spec, &pairs).unwrap();
            prop_assert!(valid, "{} reported a pair below cs", estimate.strategy);
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

//! The fluent join facade: one typed entry point over every join strategy.
//!
//! The workspace has four join families (brute force, the Section 4.1 ALSH
//! index, the Section 4.2 symmetric LSH, the Section 4.3 sketch structure) plus
//! the cost-based planner. This module is the single surface callers reach them
//! through: build a [`JoinBuilder`] with [`Join::data`], describe the workload and
//! the `(cs, s)` contract with fluent setters, and [`JoinBuilder::run`] it:
//!
//! ```
//! use ips_core::facade::{Join, Strategy};
//! use ips_datagen::planted::{PlantedConfig, PlantedInstance};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let inst = PlantedInstance::generate(&mut rng, PlantedConfig {
//!     data: 300, queries: 24, dim: 24,
//!     background_scale: 0.1, planted_ip: 0.85, planted: 4,
//! }).unwrap();
//!
//! let report = Join::data(inst.data())
//!     .queries(inst.queries())
//!     .threshold(0.8)
//!     .approximation(0.6)
//!     .strategy(Strategy::Auto)
//!     .threads(2)
//!     .seed(7)
//!     .run()
//!     .unwrap();
//! println!("{} ran in {} ns, {} pairs", report.strategy, report.wall_ns,
//!          report.matches.len());
//! assert!(report.plan.is_some()); // Strategy::Auto attaches the planner's decision
//! ```
//!
//! # Determinism contract
//!
//! [`JoinBuilder::run`] seeds a [`rand::rngs::StdRng`] from [`JoinBuilder::seed`];
//! [`JoinBuilder::run_with_rng`] draws from the caller's RNG instead. Either way an
//! explicit strategy and the planner's choice of the same strategy run through one
//! function (index build, then [`crate::engine::JoinEngine`]), so under one RNG state
//! their outputs are **bit-identical**, at every engine schedule.
//!
//! # Contract
//!
//! Every run honours the validity half of Definition 1 by construction — no reported
//! pair falls below `cs`, and every pair carries its exact inner product — and only
//! ever *misses* promised queries; see the
//! [`JoinSpec`](crate::problem::JoinSpec#validity-contract) rustdoc for the full
//! contract. An **empty query set** joins to an empty result under every strategy; an
//! empty *data* set fails at index construction or on the first search.

use crate::asymmetric::AlshParams;
use crate::engine::EngineConfig;
use crate::error::{CoreError, Result};
use crate::kernel::{Dtype, ScoringOptions};
use crate::planner::{self, CostModel, JoinPlan, JoinPlanner, PlannerConfig, WorkloadStats};
use crate::problem::{JoinSpec, JoinVariant, MatchPair};
use crate::symmetric::SymmetricParams;
use ips_linalg::DenseVector;
use ips_sketch::linf_mips::MaxIpConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which join strategy a [`JoinBuilder`] dispatches — the four fixed families
/// plus [`Strategy::Auto`], which consults the cost-based [`JoinPlanner`].
///
/// This is the *selection* type of the facade; the planner's
/// [`planner::Strategy`] is the *decision* type (always concrete). Conversions
/// go both ways via [`From`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Let the cost-based planner pick the cheapest eligible strategy.
    #[default]
    Auto,
    /// The exact data-major quadratic scan ([`crate::brute`]).
    Brute,
    /// The Section 4.1 asymmetric-LSH index ([`crate::asymmetric`]).
    Alsh,
    /// The Section 4.2 symmetric LSH ([`crate::symmetric`]).
    Symmetric,
    /// The Section 4.3 linear-sketch structure (`ips-sketch`).
    Sketch,
}

impl Strategy {
    /// Every selectable strategy, `Auto` first.
    pub const ALL: [Strategy; 5] = [
        Strategy::Auto,
        Strategy::Brute,
        Strategy::Alsh,
        Strategy::Symmetric,
        Strategy::Sketch,
    ];

    /// The name used by the CLI (`algorithm=`) and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Auto => "auto",
            Strategy::Brute => "brute",
            Strategy::Alsh => "alsh",
            Strategy::Symmetric => "symmetric",
            Strategy::Sketch => "sketch",
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Strategy {
    type Err = CoreError;

    fn from_str(s: &str) -> Result<Self> {
        match s {
            "auto" => Ok(Strategy::Auto),
            "brute" => Ok(Strategy::Brute),
            "alsh" => Ok(Strategy::Alsh),
            "symmetric" => Ok(Strategy::Symmetric),
            "sketch" => Ok(Strategy::Sketch),
            other => Err(CoreError::InvalidParameter {
                name: "strategy",
                reason: format!(
                    "unknown strategy `{other}`; expected auto, brute, alsh, symmetric or sketch"
                ),
            }),
        }
    }
}

impl From<planner::Strategy> for Strategy {
    fn from(s: planner::Strategy) -> Self {
        match s {
            planner::Strategy::BruteForce => Strategy::Brute,
            planner::Strategy::Alsh => Strategy::Alsh,
            planner::Strategy::Symmetric => Strategy::Symmetric,
            planner::Strategy::Sketch => Strategy::Sketch,
        }
    }
}

/// What a [`JoinBuilder::run`] produced: the matches plus everything a caller
/// needs to report on the run without re-deriving it.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinReport {
    /// The reported pairs; every one clears the relaxed threshold `cs`
    /// (the validity half of Definition 1, by construction).
    pub matches: Vec<MatchPair>,
    /// The concrete strategy that ran — for [`Strategy::Auto`] this is the
    /// planner's choice, otherwise the requested strategy itself.
    pub strategy: planner::Strategy,
    /// The cost-based plan, present only under [`Strategy::Auto`].
    pub plan: Option<JoinPlan>,
    /// The sampled workload statistics the plan was based on, present only
    /// under [`Strategy::Auto`] (manual strategies never sample the workload, so
    /// they draw nothing from the RNG before the index build).
    pub stats: Option<WorkloadStats>,
    /// End-to-end wall-clock nanoseconds of the dispatch (planning included
    /// under [`Strategy::Auto`]).
    pub wall_ns: u128,
}

/// Entry point of the fluent facade: [`Join::data`] starts a [`JoinBuilder`].
#[derive(Debug, Clone, Copy)]
pub struct Join;

impl Join {
    /// Starts a builder over the data set `P` of the join.
    pub fn data(data: &[DenseVector]) -> JoinBuilder<'_> {
        JoinBuilder {
            data,
            queries: &[],
            threshold: None,
            approximation: 1.0,
            variant: JoinVariant::Signed,
            strategy: Strategy::Auto,
            alsh: AlshParams::default(),
            symmetric: SymmetricParams::default(),
            sketch: MaxIpConfig::default(),
            sketch_leaf_size: ips_sketch::DEFAULT_LEAF_SIZE,
            engine: EngineConfig::default(),
            cost_model: CostModel::default(),
            scoring: ScoringOptions::default(),
            seed: 42,
        }
    }
}

/// The fluent join configuration; see the [module docs](self) for the contract
/// and an end-to-end example.
///
/// Defaults: `strategy` [`Strategy::Auto`], `approximation` 1.0 (exact),
/// `variant` [`JoinVariant::Signed`], per-family parameters at their
/// [`Default`]s, `seed` 42, engine schedule [`EngineConfig::default`]
/// (one worker per CPU, chunks of 32). Only the promise threshold `s` has no
/// default — [`JoinBuilder::run`] rejects a builder where neither
/// [`JoinBuilder::threshold`] nor [`JoinBuilder::spec`] was called.
#[derive(Debug, Clone)]
#[must_use = "a JoinBuilder does nothing until `run` (or `run_with_rng`) is called"]
pub struct JoinBuilder<'a> {
    data: &'a [DenseVector],
    queries: &'a [DenseVector],
    threshold: Option<f64>,
    approximation: f64,
    variant: JoinVariant,
    strategy: Strategy,
    alsh: AlshParams,
    symmetric: SymmetricParams,
    sketch: MaxIpConfig,
    sketch_leaf_size: usize,
    engine: EngineConfig,
    cost_model: CostModel,
    scoring: ScoringOptions,
    seed: u64,
}

impl<'a> JoinBuilder<'a> {
    /// The query set `Q` (default: empty, which joins to an empty result).
    pub fn queries(mut self, queries: &'a [DenseVector]) -> Self {
        self.queries = queries;
        self
    }

    /// The promise threshold `s > 0` of Definition 1. Required (unless
    /// [`JoinBuilder::spec`] supplies a whole spec).
    pub fn threshold(mut self, s: f64) -> Self {
        self.threshold = Some(s);
        self
    }

    /// The approximation factor `c ∈ (0, 1]`; reported pairs clear `cs`
    /// (default 1.0 — exact).
    pub fn approximation(mut self, c: f64) -> Self {
        self.approximation = c;
        self
    }

    /// Signed or unsigned inner-product semantics (default signed).
    pub fn variant(mut self, variant: JoinVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Sets threshold, approximation and variant from an existing validated
    /// [`JoinSpec`] in one call.
    pub fn spec(mut self, spec: JoinSpec) -> Self {
        self.threshold = Some(spec.threshold);
        self.approximation = spec.approximation;
        self.variant = spec.variant;
        self
    }

    /// Which strategy to dispatch (default [`Strategy::Auto`]).
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// ALSH parameters used by [`Strategy::Alsh`] (and as the planner's ALSH
    /// candidate under [`Strategy::Auto`]).
    pub fn alsh_params(mut self, params: AlshParams) -> Self {
        self.alsh = params;
        self
    }

    /// Symmetric-LSH parameters used by [`Strategy::Symmetric`].
    pub fn symmetric_params(mut self, params: SymmetricParams) -> Self {
        self.symmetric = params;
        self
    }

    /// Extra query-directed probe buckets per table (see [`ips_lsh::probe`]),
    /// applied to both LSH families in one call (default 0 — classical
    /// single-bucket lookups, bit-identical to the pre-probing behaviour).
    ///
    /// Call **after** [`JoinBuilder::alsh_params`] / \
    /// [`JoinBuilder::symmetric_params`] if you set both — those setters
    /// replace the whole parameter structs, probes field included.
    pub fn probes(mut self, probes: usize) -> Self {
        self.alsh.probes = probes;
        self.symmetric.probes = probes;
        self
    }

    /// Sketch configuration used by [`Strategy::Sketch`].
    pub fn sketch_config(mut self, config: MaxIpConfig) -> Self {
        self.sketch = config;
        self
    }

    /// Leaf-size floor of the sketch recovery tree (default
    /// [`ips_sketch::DEFAULT_LEAF_SIZE`]): never split a range of at most this many
    /// vectors. The tree also stops where a sketch would cost more than the scan.
    pub fn sketch_leaf_size(mut self, leaf_size: usize) -> Self {
        self.sketch_leaf_size = leaf_size;
        self
    }

    /// Worker threads of the [`JoinEngine`](crate::engine::JoinEngine) (`0` = one per available CPU,
    /// the default).
    pub fn threads(mut self, threads: usize) -> Self {
        self.engine.threads = threads;
        self
    }

    /// Queries per batched engine work unit (default 32).
    pub fn chunk_size(mut self, chunk_size: usize) -> Self {
        self.engine.chunk_size = chunk_size;
        self
    }

    /// The whole engine schedule in one call.
    pub fn engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// The planner's calibrated cost constants (only consulted under
    /// [`Strategy::Auto`]).
    pub fn cost_model(mut self, model: CostModel) -> Self {
        self.cost_model = model;
        self
    }

    /// Floating-point width of the brute-force scoring kernel (default
    /// [`Dtype::F64`], the exact data-major scan).
    ///
    /// `Dtype::F32` scores each query against an `f32` tile of the data and
    /// exactly rescores the winner in `f64`, so every reported pair still
    /// clears the relaxed threshold `cs`; only near-ties (within `f32`
    /// rounding of each other) may resolve differently. Read by the brute
    /// scan only: the ALSH, symmetric and sketch strategies score their few
    /// candidates exactly in `f64` whatever the `dtype`.
    pub fn dtype(mut self, dtype: Dtype) -> Self {
        self.scoring.dtype = dtype;
        self
    }

    /// Seed of the [`StdRng`] that [`JoinBuilder::run`] dispatches with
    /// (default 42). Ignored by [`JoinBuilder::run_with_rng`].
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The validated `(cs, s)` spec this builder describes.
    pub fn build_spec(&self) -> Result<JoinSpec> {
        let threshold = self.threshold.ok_or_else(|| CoreError::InvalidParameter {
            name: "threshold",
            reason: "JoinBuilder needs a promise threshold: call .threshold(s) or .spec(spec)"
                .to_string(),
        })?;
        JoinSpec::new(threshold, self.approximation, self.variant)
    }

    /// Runs the join with a fresh [`StdRng`] seeded from [`JoinBuilder::seed`].
    pub fn run(self) -> Result<JoinReport> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        self.run_with_rng(&mut rng)
    }

    /// Runs the join drawing randomness from the caller's RNG — the one to use when
    /// bit-identical replay against another consumer of the same RNG matters.
    pub fn run_with_rng<R: Rng + ?Sized>(self, rng: &mut R) -> Result<JoinReport> {
        let spec = self.build_spec()?;
        let start = std::time::Instant::now();
        let mut config = PlannerConfig::with_params(
            self.alsh,
            self.symmetric,
            self.sketch,
            self.sketch_leaf_size,
            self.engine,
        );
        config.scoring = self.scoring;
        let fixed = planner::Strategy::ALL
            .into_iter()
            .find(|&fixed| Strategy::from(fixed) == self.strategy);
        let (matches, strategy, plan) = match fixed {
            Some(strategy) => {
                let matches =
                    planner::run_strategy(strategy, rng, self.data, self.queries, spec, &config)?;
                (matches, strategy, None)
            }
            // `Strategy::Auto`: the planner's pick, through the same function.
            None => {
                let planner = JoinPlanner {
                    config,
                    model: self.cost_model,
                };
                let plan = planner.plan(rng, self.data, self.queries, spec)?;
                let matches = plan.execute(rng, self.data, self.queries)?;
                (matches, plan.choice, Some(plan))
            }
        };
        let wall_ns = start.elapsed().as_nanos();
        let stats = plan.as_ref().map(|p| p.stats.clone());
        Ok(JoinReport {
            matches,
            strategy,
            plan,
            stats,
            wall_ns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::evaluate_join;
    use ips_datagen::planted::{PlantedConfig, PlantedInstance};

    fn instance(seed: u64) -> PlantedInstance {
        let mut rng = StdRng::seed_from_u64(seed);
        PlantedInstance::generate(
            &mut rng,
            PlantedConfig {
                data: 200,
                queries: 20,
                dim: 16,
                background_scale: 0.05,
                planted_ip: 0.85,
                planted: 5,
            },
        )
        .unwrap()
    }

    #[test]
    fn builder_requires_a_threshold() {
        let data = [DenseVector::from(&[0.5, 0.5][..])];
        let err = Join::data(&data).run().unwrap_err();
        assert!(err.to_string().contains("threshold"), "{err}");
    }

    #[test]
    fn builder_rejects_invalid_spec_values() {
        let data = [DenseVector::from(&[0.5, 0.5][..])];
        assert!(Join::data(&data).threshold(-1.0).run().is_err());
        assert!(Join::data(&data)
            .threshold(0.5)
            .approximation(1.5)
            .run()
            .is_err());
    }

    #[test]
    fn auto_attaches_plan_and_stats_and_is_valid() {
        let inst = instance(0xFACE);
        let report = Join::data(inst.data())
            .queries(inst.queries())
            .threshold(0.8)
            .approximation(0.6)
            .run()
            .unwrap();
        let plan = report.plan.as_ref().expect("auto attaches a plan");
        assert_eq!(plan.choice, report.strategy);
        assert_eq!(report.stats.as_ref().unwrap(), &plan.stats);
        let spec = JoinSpec::new(0.8, 0.6, JoinVariant::Signed).unwrap();
        let (_, valid) =
            evaluate_join(inst.data(), inst.queries(), &spec, &report.matches).unwrap();
        assert!(valid);
    }

    #[test]
    fn manual_strategies_attach_no_plan() {
        let inst = instance(0xBEEF);
        for strategy in [
            Strategy::Brute,
            Strategy::Alsh,
            Strategy::Symmetric,
            Strategy::Sketch,
        ] {
            let report = Join::data(inst.data())
                .queries(inst.queries())
                .threshold(0.8)
                .approximation(0.6)
                .strategy(strategy)
                .run()
                .unwrap();
            assert!(report.plan.is_none(), "{strategy} carried a plan");
            assert!(report.stats.is_none());
            assert_eq!(Strategy::from(report.strategy), strategy);
        }
    }

    #[test]
    fn run_is_reproducible_for_a_fixed_seed() {
        let inst = instance(0x5EED);
        let go = || {
            Join::data(inst.data())
                .queries(inst.queries())
                .threshold(0.8)
                .approximation(0.6)
                .strategy(Strategy::Alsh)
                .seed(9)
                .run()
                .unwrap()
                .matches
        };
        assert_eq!(go(), go());
    }

    #[test]
    fn strategy_names_round_trip() {
        for s in Strategy::ALL {
            assert_eq!(s.name().parse::<Strategy>().unwrap(), s);
            assert_eq!(format!("{s}"), s.name());
        }
        assert!("nope".parse::<Strategy>().is_err());
        // The planner's concrete strategies map onto the facade's.
        for p in planner::Strategy::ALL {
            assert_eq!(Strategy::from(p).name(), p.name());
        }
    }

    #[test]
    fn f32_scoring_reports_valid_pairs() {
        let inst = instance(0xF32);
        let report = Join::data(inst.data())
            .queries(inst.queries())
            .threshold(0.8)
            .approximation(0.6)
            .strategy(Strategy::Brute)
            .dtype(Dtype::F32)
            .run()
            .unwrap();
        let spec = JoinSpec::new(0.8, 0.6, JoinVariant::Signed).unwrap();
        let (_, valid) =
            evaluate_join(inst.data(), inst.queries(), &spec, &report.matches).unwrap();
        assert!(valid);
        assert!(!report.matches.is_empty());
    }

    #[test]
    fn probed_runs_stay_valid_and_zero_probes_is_bit_identical() {
        let inst = instance(0xBE5);
        let spec = JoinSpec::new(0.8, 0.6, JoinVariant::Signed).unwrap();
        for strategy in [Strategy::Alsh, Strategy::Symmetric] {
            let go = |probes: usize| {
                Join::data(inst.data())
                    .queries(inst.queries())
                    .threshold(0.8)
                    .approximation(0.6)
                    .strategy(strategy)
                    .probes(probes)
                    .seed(11)
                    .run()
                    .unwrap()
                    .matches
            };
            let baseline = go(0);
            let unprobed = Join::data(inst.data())
                .queries(inst.queries())
                .threshold(0.8)
                .approximation(0.6)
                .strategy(strategy)
                .seed(11)
                .run()
                .unwrap()
                .matches;
            assert_eq!(baseline, unprobed, "{strategy}: probes(0) must be a no-op");
            let probed = go(6);
            let (_, valid) = evaluate_join(inst.data(), inst.queries(), &spec, &probed).unwrap();
            assert!(valid, "{strategy}: probed matches must stay valid");
            for pair in &baseline {
                assert!(
                    probed.contains(pair),
                    "{strategy}: probing dropped a baseline match {pair:?}"
                );
            }
        }
    }

    #[test]
    fn empty_queries_join_to_empty_for_every_strategy() {
        let inst = instance(0xE);
        for strategy in Strategy::ALL {
            let report = Join::data(inst.data())
                .threshold(0.8)
                .approximation(0.6)
                .strategy(strategy)
                .run()
                .unwrap();
            assert!(report.matches.is_empty(), "{strategy}");
        }
    }
}

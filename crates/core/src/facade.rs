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
//! function, so under one RNG state their outputs are **bit-identical**, at every
//! engine schedule. Brute force builds its index and runs it through the
//! [`crate::engine::JoinEngine`]. The ALSH and symmetric joins hold no index: they
//! draw the tables' hash functions from the RNG a group of tables at a time — a group's
//! planes fit in 1 MiB — hash the data and the queries against that group only, keep
//! each query's best candidate so far, and drop the group before drawing the next. The
//! draws, the keys, the candidates and the tie rule are those of the whole index, so
//! the pairs are the ones [`crate::LshMips::build`] followed by a `JoinEngine` pass
//! gives from the same RNG state. The sketch join holds no tree either: it walks the
//! recovery tree depth first ([`ips_sketch::recovery::join_walk`]), drawing each node's
//! two estimators as the build does, sending every query that reaches the node down one
//! side, and dropping them before the subtrees; its pairs, and the RNG state it leaves,
//! are those of [`crate::SketchMipsAdapter::build`] followed by a `JoinEngine` pass.
//!
//! # The norm bound
//!
//! Before any strategy runs — and before `Auto` samples the workload — the join drops
//! every data point `p` with `‖p‖·max‖q‖ < cs` and every query `q` with
//! `‖q‖·max‖p‖ < cs`, with a rounding margin that keeps every pair whose computed
//! score reaches `cs`. By Cauchy–Schwarz no dropped vector is in a reported pair. The
//! strategy runs on what is left and the pairs come back with the caller's indices, in
//! ascending order, so the lowest-id tie rule holds. Brute force reports the pairs it
//! would report on the whole inputs, and so do ALSH and symmetric LSH wherever they
//! hash the kept vectors (see the scan rule below); the sketch tree and the planner's
//! sample are drawn over the kept vectors. A side is copied only when the bound drops
//! at least half of it, so a join copies at most half a side and otherwise reads the
//! caller's slices. If the bound empties a side the result is empty, and nothing is
//! drawn from the RNG.
//!
//! # The scan rule
//!
//! The ALSH and symmetric joins hash only where hashing is cheaper than scanning: on
//! the `n` data points and `m` queries the norm bound keeps, they are an exact scan
//! when `(n + m)·k·L·h ≥ n·m·d`, `h` being the multiply-adds of hashing one point
//! against one plane (`d + 2` for ALSH, `d` plus the tag's non-zeros for symmetric
//! LSH). The rule is checked before any plane is drawn, and it has no constant: hashing
//! alone is a lower bound on the hashing join's work. The scan answers by the index's
//! rule with every data point a candidate — the diagonal probe where symmetric LSH
//! has one, else each query's best partner, reported when it reaches `cs` — so it
//! misses no promised query, and it draws nothing from the RNG. Its errors are the
//! hashing join's, in the same order. [`JoinReport::strategy`] still names the family
//! the caller asked for. Fewer points only make the scan cheaper against hashing, so a
//! join that hashes the kept vectors would hash the whole inputs too; one that scans
//! them answers every query the hashing join on the whole inputs answers, with a
//! partner at least as good.
//!
//! # Contract
//!
//! Every run honours the validity half of Definition 1 by construction — no reported
//! pair falls below `cs`, and every pair carries its exact inner product — and only
//! ever *misses* promised queries; see the
//! [`JoinSpec`](crate::problem::JoinSpec#validity-contract) rustdoc for the full
//! contract. An **empty query set** joins to an empty result under every strategy; an
//! empty *data* set fails at index construction or on the first search, and so does a
//! vector of another dimension: the norm bound does not apply to either.

use crate::asymmetric::AlshParams;
use crate::engine::EngineConfig;
use crate::error::{CoreError, Result};
use crate::kernel::Dtype;
use crate::planner::{self, CostModel, IndexFamily, JoinPlan, JoinPlanner, PlannerConfig};
use crate::problem::{JoinSpec, JoinVariant, MatchPair};
use crate::symmetric::SymmetricParams;
use ips_linalg::DenseVector;
use ips_sketch::linf_mips::MaxIpConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which join strategy a [`JoinBuilder`] dispatches — the four fixed families
/// plus [`Strategy::Auto`], which consults the cost-based [`JoinPlanner`].
///
/// This is the *selection* type of the facade. What runs is always concrete: a
/// [`planner::IndexConfig`], which [`planner::PlannerConfig::index_config`] resolves a
/// fixed strategy to and the planner picks for `Auto`.
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

/// What a [`JoinBuilder::run`] produced: the matches plus everything a caller
/// needs to report on the run without re-deriving it.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinReport {
    /// The reported pairs; every one clears the relaxed threshold `cs`
    /// (the validity half of Definition 1, by construction).
    pub matches: Vec<MatchPair>,
    /// The family that ran — for [`Strategy::Auto`] the planner's choice,
    /// otherwise the requested strategy itself. An ALSH or symmetric join below the
    /// [scan rule](crate::facade#the-scan-rule) answers by an exact scan and still names its
    /// family.
    pub strategy: IndexFamily,
    /// The cost-based plan, with the sampled workload statistics it was based on,
    /// present only under [`Strategy::Auto`] (manual strategies never sample the
    /// workload, so they draw nothing from the RNG before the index build).
    pub plan: Option<JoinPlan>,
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
            config: PlannerConfig::default(),
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
    /// The per-family parameters, the engine schedule and the scoring kernel: what a
    /// fixed strategy runs with and what `Auto` plans with, under the default cost
    /// model.
    config: PlannerConfig,
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
        self.config.alsh = params;
        self
    }

    /// Symmetric-LSH parameters used by [`Strategy::Symmetric`].
    pub fn symmetric_params(mut self, params: SymmetricParams) -> Self {
        self.config.symmetric = params;
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
        self.config.alsh.probes = probes;
        self.config.symmetric.probes = probes;
        self
    }

    /// Sketch configuration used by [`Strategy::Sketch`].
    pub fn sketch_config(mut self, config: MaxIpConfig) -> Self {
        self.config.sketch = config;
        self
    }

    /// Worker threads of the [`JoinEngine`](crate::engine::JoinEngine) (`0` = one per available CPU,
    /// the default). Under [`Strategy::Alsh`] and [`Strategy::Symmetric`] they also hash
    /// the data: no pass of the join runs on more threads than this.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.engine.threads = threads;
        self
    }

    /// Queries per batched engine work unit (default 32).
    pub fn chunk_size(mut self, chunk_size: usize) -> Self {
        self.config.engine.chunk_size = chunk_size;
        self
    }

    /// The whole engine schedule in one call.
    pub fn engine(mut self, engine: EngineConfig) -> Self {
        self.config.engine = engine;
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
        self.config.scoring.dtype = dtype;
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
        let config = &self.config;
        let (matches, strategy, plan) = match config.index_config(self.strategy) {
            Some(index) => {
                let matches = planner::run_strategy(
                    index,
                    rng,
                    self.data,
                    self.queries,
                    spec,
                    config.engine,
                    config.scoring,
                )?;
                (matches, index.family(), None)
            }
            // `Strategy::Auto`: the planner's pick, through the same dispatch, on one
            // pass of the norm bound.
            None => {
                let (plan, matches) = JoinPlanner::new(self.config, CostModel::default())
                    .plan_and_execute(rng, self.data, self.queries, spec)?;
                (matches, plan.choice.family(), Some(plan))
            }
        };
        let wall_ns = start.elapsed().as_nanos();
        Ok(JoinReport {
            matches,
            strategy,
            plan,
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

    /// `join` run from an RNG seeded with `seed`, and whether it drew from it: for ALSH
    /// and symmetric LSH, whether the scan rule let it hash.
    fn run_drawing(join: JoinBuilder<'_>, seed: u64) -> (JoinReport, bool) {
        let mut rng = StdRng::seed_from_u64(seed);
        let report = join.run_with_rng(&mut rng).unwrap();
        (
            report,
            rng.gen::<u64>() != StdRng::seed_from_u64(seed).gen::<u64>(),
        )
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
        assert_eq!(plan.choice.family(), report.strategy);
        assert_eq!(plan.stats.data_count, inst.data().len());
        assert_eq!(plan.stats.query_count, inst.queries().len());
        let spec = JoinSpec::new(0.8, 0.6, JoinVariant::Signed).unwrap();
        let (_, valid) =
            evaluate_join(inst.data(), inst.queries(), &spec, &report.matches).unwrap();
        assert!(valid);
        // `Auto` is the default planner's plan, executed from the same RNG.
        let mut rng = StdRng::seed_from_u64(42);
        let replay = JoinPlanner::default()
            .plan(&mut rng, inst.data(), inst.queries(), spec)
            .unwrap();
        assert_eq!(replay.choice, plan.choice);
        assert_eq!(
            replay
                .execute(&mut rng, inst.data(), inst.queries())
                .unwrap(),
            report.matches
        );
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
            let (report, drew) = run_drawing(
                Join::data(inst.data())
                    .queries(inst.queries())
                    .threshold(0.8)
                    .approximation(0.6)
                    .strategy(strategy),
                42,
            );
            assert!(report.plan.is_none(), "{strategy} carried a plan");
            // An LSH join below the scan rule — the norm bound keeps a few planted
            // points here — scans, and still names its family.
            assert_eq!(report.strategy.name(), strategy.name());
            if matches!(strategy, Strategy::Alsh | Strategy::Symmetric) {
                assert!(!drew, "{strategy}");
            }
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
        // Below the scan rule: the exact scan, which draws nothing.
        let (report, drew) = run_drawing(
            Join::data(inst.data())
                .queries(inst.queries())
                .threshold(0.8)
                .approximation(0.6)
                .strategy(Strategy::Alsh),
            9,
        );
        assert_eq!((report.matches, drew), (go(), false));
    }

    #[test]
    fn strategy_names_round_trip() {
        for s in Strategy::ALL {
            assert_eq!(s.name().parse::<Strategy>().unwrap(), s);
            assert_eq!(format!("{s}"), s.name());
        }
        assert!("nope".parse::<Strategy>().is_err());
        // Every family is selectable by its own name.
        for family in IndexFamily::ALL {
            assert_eq!(
                family.name().parse::<Strategy>().unwrap().name(),
                family.name()
            );
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
            // Below the scan rule both runs are the exact scan, which reads no probe
            // count; the hashing join's probes are held to the index's in `lsh_join`.
            let (scanned, drew) = run_drawing(
                Join::data(inst.data())
                    .queries(inst.queries())
                    .threshold(0.8)
                    .approximation(0.6)
                    .strategy(strategy)
                    .probes(6),
                11,
            );
            assert!(!drew, "{strategy} hashed");
            assert_eq!(scanned.matches, probed, "{strategy}");
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
            let (report, drew) = run_drawing(
                Join::data(inst.data())
                    .threshold(0.8)
                    .approximation(0.6)
                    .strategy(strategy),
                42,
            );
            assert!(report.matches.is_empty(), "{strategy}");
            // No query costs no scan: an LSH join draws no planes for none.
            if matches!(strategy, Strategy::Alsh | Strategy::Symmetric) {
                assert!(!drew, "{strategy}");
            }
        }
    }
}

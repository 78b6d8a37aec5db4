//! Cost-based adaptive join planning: choose the join strategy, don't ask the caller.
//!
//! The paper's central message is that no single inner-product-join strategy
//! dominates: the quadratic scan, the Section 4.1 asymmetric-LSH reduction, the
//! Section 4.2 symmetric LSH and the Section 4.3 sketch structure each win in
//! different `(n, m, d, threshold, correlation)` regimes. This module turns that
//! observation into a system: [`JoinPlanner`] estimates what each strategy
//! *would* cost on the workload at hand and dispatches the winner through the
//! existing [`JoinEngine`], so callers leave [`crate::facade::Strategy::Auto`] in
//! place instead of picking one of the four families themselves.
//!
//! The pipeline is classical cost-based query planning:
//!
//! 1. **Statistics** — [`JoinPlanner::plan`] first drops what the norm bound rules
//!    out (the vectors no pair at or above `cs` can contain; see
//!    `crate::norm_bound`), then measures `n`, `m`, `d` and the norm
//!    distributions of what is left exactly (one pass, the same order of work as
//!    answering a single brute-force query), and estimates the inner-product
//!    distribution from a *sampled mini-join*: a few dozen data and query vectors
//!    are drawn and their cross inner products computed, giving the promise/output
//!    pair densities and the sample the LSH candidate-set predictor extrapolates
//!    from.
//! 2. **Cost model** — closed-form flop counts per strategy (the LSH hashing
//!    and candidate predictions come from [`ips_lsh::cost`], the sketch-tree
//!    shapes from [`ips_sketch::cost`]) are scaled by per-strategy
//!    nanoseconds-per-flop constants in [`CostModel`], fitted on real
//!    measurements by the `calibrate_planner` binary in `ips-bench`.
//! 3. **Eligibility** — strategies whose domain preconditions the workload
//!    violates (ALSH and symmetric LSH need data in the unit ball, symmetric
//!    LSH needs the queries there too) are excluded rather than mis-costed.
//! 4. **Dispatch** — the cheapest eligible strategy is recorded in a
//!    [`JoinPlan`], which [`JoinPlan::execute`]s through the same function an
//!    explicitly chosen strategy runs through, so a plan's result is
//!    bit-identical to the manual choice with the same parameters and RNG.
//!
//! Ties favour the earlier entry in [`IndexFamily::ALL`], which lists the exact
//! scan first — when the model cannot separate two strategies, the planner
//! prefers the one with guaranteed recall.

use crate::asymmetric::{AlshParams, SphereTransform};
use crate::brute::BorrowedBruteIndex;
use crate::engine::{EngineConfig, JoinEngine};
use crate::error::{CoreError, Result};
use crate::facade::Strategy;
use crate::kernel::ScoringOptions;
use crate::lsh_join;
use crate::lsh_mips::{SphereMap, Tuning};
use crate::mips::sketch_hit;
use crate::norm_bound;
use crate::problem::{JoinSpec, MatchPair};
use crate::symmetric::{SymmetricParams, SymmetricSphereMap};
use ips_linalg::par::Schedule;
use ips_linalg::DenseVector;
use ips_sketch::linf_mips::MaxIpConfig;
use ips_sketch::recovery::join_walk;
use rand::Rng;

/// Tolerance applied to unit-ball eligibility checks, matching the slack the
/// index constructors themselves allow on vector norms.
const NORM_TOLERANCE: f64 = 1e-9;

/// Which structure runs: the exact scan or one of the three Section 4 data
/// structures. The planner costs each of them; a snapshot records which one it holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexFamily {
    /// The exact data-major quadratic scan ([`crate::brute`]).
    Brute,
    /// The Section 4.1 asymmetric-LSH index ([`crate::asymmetric`]).
    Alsh,
    /// The Section 4.2 symmetric LSH ([`crate::symmetric`]).
    Symmetric,
    /// The Section 4.3 linear-sketch structure ([`crate::mips::SketchMipsAdapter`]).
    Sketch,
}

impl IndexFamily {
    /// Every family, in the planner's tie-breaking order: exact first, then the
    /// approximate structures in paper-section order.
    pub const ALL: [IndexFamily; 4] = [
        IndexFamily::Brute,
        IndexFamily::Alsh,
        IndexFamily::Symmetric,
        IndexFamily::Sketch,
    ];

    /// The family's lower-case name, as used by the CLI (`algorithm=`) and in
    /// explain output.
    pub fn name(self) -> &'static str {
        match self {
            IndexFamily::Brute => "brute",
            IndexFamily::Alsh => "alsh",
            IndexFamily::Symmetric => "symmetric",
            IndexFamily::Sketch => "sketch",
        }
    }

    /// Whether the family answers every promised query (recall 1 by
    /// construction rather than by measurement).
    pub fn is_exact(self) -> bool {
        matches!(self, IndexFamily::Brute)
    }
}

impl std::fmt::Display for IndexFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which structure to build over the data, with its family-specific tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IndexConfig {
    /// The exact quadratic scan.
    Brute,
    /// The Section 4.1 asymmetric-LSH index.
    Alsh(AlshParams),
    /// The Section 4.2 symmetric LSH.
    Symmetric(SymmetricParams),
    /// The Section 4.3 sketch structure.
    Sketch {
        /// Per-node sketch configuration.
        config: MaxIpConfig,
        /// The recovery tree's leaf-size floor: a range of at most this many vectors
        /// is never split (the tree also stops where a sketch would cost more than
        /// the scan).
        leaf_size: usize,
    },
}

impl IndexConfig {
    /// The family this configuration builds.
    pub fn family(&self) -> IndexFamily {
        match self {
            IndexConfig::Brute => IndexFamily::Brute,
            IndexConfig::Alsh(_) => IndexFamily::Alsh,
            IndexConfig::Symmetric(_) => IndexFamily::Symmetric,
            IndexConfig::Sketch { .. } => IndexFamily::Sketch,
        }
    }
}

/// Workload statistics the cost model consumes.
///
/// All fields are public so decision tests (and external tooling) can pin
/// planner behaviour on hand-built statistics without materialising a
/// workload; [`WorkloadStats::sample`] is how real workloads are measured.
///
/// The counts are the caller's; the cost model prices the kept counts, and
/// every other field is measured on the kept vectors. Statistics from
/// [`WorkloadStats::sample`] keep everything; [`JoinPlanner::plan`]'s keep what
/// the norm bound leaves a join to run on.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadStats {
    /// Number of data vectors `n = |P|`.
    pub data_count: usize,
    /// Number of query vectors `m = |Q|`.
    pub query_count: usize,
    /// Data vectors the join runs on after the norm bound (at most `data_count`).
    pub kept_data_count: usize,
    /// Queries the join runs on after the norm bound (at most `query_count`).
    pub kept_query_count: usize,
    /// Shared dimensionality `d`.
    pub dim: usize,
    /// Largest data-vector norm (decides unit-ball eligibility). The norm bound
    /// keeps the largest whenever it keeps anything.
    pub max_data_norm: f64,
    /// Mean data-vector norm.
    pub mean_data_norm: f64,
    /// Largest query-vector norm (decides the ALSH query radius `U`).
    pub max_query_norm: f64,
    /// Mean query-vector norm.
    pub mean_query_norm: f64,
    /// Sampled fraction of (data, query) pairs clearing the promise
    /// threshold `s` under the spec's variant.
    pub promise_density: f64,
    /// Sampled fraction of pairs clearing the relaxed threshold `cs`.
    pub output_density: f64,
    /// The raw inner products of the sampled mini-join, kept so the LSH
    /// candidate-set predictor can extrapolate collision probabilities.
    pub sampled_inner_products: Vec<f64>,
}

impl WorkloadStats {
    /// Measures a workload: exact `n`/`m`/`d`/norm statistics plus a sampled
    /// mini-join of at most [`SAMPLE_DATA`] `×` [`SAMPLE_QUERIES`] inner products.
    ///
    /// Fails on an empty data set (nothing can be planned, matching the join
    /// entry points) and on mixed dimensions. An empty *query* set is fine and
    /// produces an empty sample.
    pub fn sample<R: Rng + ?Sized>(
        rng: &mut R,
        data: &[DenseVector],
        queries: &[DenseVector],
        spec: JoinSpec,
    ) -> Result<Self> {
        let dim = workload_dim(data, queries)?;
        Ok(Self::measure(rng, data, queries, spec, dim))
    }

    /// [`WorkloadStats::sample`] of what the norm bound leaves a join to run on:
    /// counted on the caller's sets, measured on the kept ones. Fails as `sample`
    /// does; a side the bound empties gives an empty sample.
    fn sample_kept<R: Rng + ?Sized>(
        rng: &mut R,
        data: &[DenseVector],
        queries: &[DenseVector],
        spec: JoinSpec,
    ) -> Result<Self> {
        let dim = workload_dim(data, queries)?;
        let Some(kept) = norm_bound::prune(data, queries, spec) else {
            return Ok(Self::measure(rng, data, queries, spec, dim));
        };
        Ok(Self {
            data_count: data.len(),
            query_count: queries.len(),
            ..Self::measure(rng, kept.data.vectors(), kept.queries.vectors(), spec, dim)
        })
    }

    /// The statistics of `data` and `queries`, whose vectors all have dimension
    /// `dim`; either may be empty.
    fn measure<R: Rng + ?Sized>(
        rng: &mut R,
        data: &[DenseVector],
        queries: &[DenseVector],
        spec: JoinSpec,
        dim: usize,
    ) -> Self {
        let (max_data_norm, mean_data_norm) = norm_stats(data);
        let (max_query_norm, mean_query_norm) = norm_stats(queries);

        let mut sampled = Vec::new();
        if !data.is_empty() && !queries.is_empty() {
            let picked_data = sample_indices(rng, data.len(), SAMPLE_DATA);
            let picked_queries = sample_indices(rng, queries.len(), SAMPLE_QUERIES);
            sampled.reserve(picked_data.len() * picked_queries.len());
            for &i in &picked_data {
                for &j in &picked_queries {
                    sampled.push(ips_linalg::tile::dot_slices(
                        data[i].as_slice(),
                        queries[j].as_slice(),
                    ));
                }
            }
        }
        let total = sampled.len().max(1) as f64;
        let promise_density = sampled
            .iter()
            .filter(|&&ip| spec.satisfies_promise(ip))
            .count() as f64
            / total;
        let output_density =
            sampled.iter().filter(|&&ip| spec.acceptable(ip)).count() as f64 / total;
        Self {
            data_count: data.len(),
            query_count: queries.len(),
            kept_data_count: data.len(),
            kept_query_count: queries.len(),
            dim,
            max_data_norm,
            mean_data_norm,
            max_query_norm,
            mean_query_norm,
            promise_density,
            output_density,
            sampled_inner_products: sampled,
        }
    }

    /// Normalized drift of these statistics relative to a `baseline`: the
    /// largest relative change across the dimensions the cost model is
    /// sensitive to (`n`, the norm means, and the promise/output densities).
    ///
    /// The score is in `[0, 1]` — 0 when every dimension is unchanged, 1 when
    /// some dimension moved by its own magnitude (e.g. a density collapsing to
    /// zero or the data set doubling). Taking the max rather than a weighted
    /// sum keeps the score interpretable: "the most-drifted statistic moved by
    /// this fraction", which is what a hysteresis threshold should gate on —
    /// a single flipped dimension is enough to flip the plan, so averaging it
    /// away against stable dimensions would blind the detector.
    pub fn drift_from(&self, baseline: &Self) -> f64 {
        fn rel(now: f64, then: f64) -> f64 {
            let scale = now.abs().max(then.abs());
            if scale < 1e-12 {
                0.0
            } else {
                ((now - then).abs() / scale).min(1.0)
            }
        }
        [
            rel(self.data_count as f64, baseline.data_count as f64),
            rel(self.mean_data_norm, baseline.mean_data_norm),
            rel(self.mean_query_norm, baseline.mean_query_norm),
            rel(self.max_query_norm, baseline.max_query_norm),
            rel(self.promise_density, baseline.promise_density),
            rel(self.output_density, baseline.output_density),
        ]
        .into_iter()
        .fold(0.0, f64::max)
    }
}

/// What an LSH join under the map `M` is predicted to do on a workload whose
/// sampled pairs have the mapped `cosines`: the candidates a query gathers, and the
/// flops of hashing every data and query vector over `rows` non-zero rows and
/// re-scoring those candidates. Probing widens the per-table hit probability (more
/// candidates to re-score) without touching the hashing term — exactly the trade the
/// planner can exploit: fewer tables, a few probes, and the hashing term shrinks
/// faster than the candidate term grows.
fn lsh_flops<M: SphereMap>(
    stats: &WorkloadStats,
    cosines: &[f64],
    rows: usize,
    params: &M::Params,
) -> (f64, f64) {
    let Tuning { tables, probes } = M::tuning(params);
    let (n, m, d) = (stats.kept_data_count, stats.kept_query_count, stats.dim);
    let candidates =
        ips_lsh::cost::expected_candidates_probed(n, cosines, tables.k, tables.l, probes);
    let hashing = (n as f64 + m as f64) * ips_lsh::cost::hash_flops(rows, tables.k, tables.l);
    let rescoring = m as f64 * ips_lsh::cost::rescoring_flops(d, candidates);
    (candidates, hashing + rescoring)
}

/// The dimension every vector of a workload shares; fails on an empty data set and
/// on the first vector of another dimension.
fn workload_dim(data: &[DenseVector], queries: &[DenseVector]) -> Result<usize> {
    let dim = data.first().ok_or(CoreError::EmptyDataSet)?.dim();
    match data.iter().chain(queries).find(|v| v.dim() != dim) {
        Some(v) => Err(CoreError::DimensionMismatch {
            expected: dim,
            actual: v.dim(),
        }),
        None => Ok(dim),
    }
}

fn norm_stats(vectors: &[DenseVector]) -> (f64, f64) {
    if vectors.is_empty() {
        return (0.0, 0.0);
    }
    let mut max = 0.0f64;
    let mut sum = 0.0f64;
    for v in vectors {
        let n = v.norm();
        max = max.max(n);
        sum += n;
    }
    (max, sum / vectors.len() as f64)
}

/// Data vectors [`WorkloadStats::sample`] draws for its mini-join.
pub const SAMPLE_DATA: usize = 48;

/// Query vectors [`WorkloadStats::sample`] draws for its mini-join.
pub const SAMPLE_QUERIES: usize = 24;

/// `count` indices drawn uniformly (with replacement) from `0..len`, or every
/// index when the population is no larger than the request.
pub fn sample_indices<R: Rng + ?Sized>(rng: &mut R, len: usize, count: usize) -> Vec<usize> {
    if len <= count {
        (0..len).collect()
    } else {
        (0..count).map(|_| rng.gen_range(0..len)).collect()
    }
}

/// Per-strategy nanoseconds-per-flop constants.
///
/// The flop counts in [`JoinPlanner::plan_from_stats`] are exact arithmetic
/// over known shapes; these constants absorb everything the counts ignore —
/// memory traffic, bucket bookkeeping, per-query overhead — on a concrete
/// machine. The defaults were fitted by `cargo run --release -p ips-bench
/// --bin calibrate_planner` (least squares through the origin over the
/// adversarial workload suite of `ips_datagen::adversarial`); rerun it to
/// refit for different hardware.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// ns per flop of the data-major brute-force kernel.
    pub brute_ns_per_flop: f64,
    /// ns per flop of the tiled `f32` brute kernel (`dtype=f32`): the brute
    /// constant scaled by the `f32` / `f64` kernel ratio the repository
    /// benchmark reports (`kernel.f32_ns_per_pair` / `kernel.f64_ns_per_pair`
    /// under `benchmark/`).
    pub brute_f32_ns_per_flop: f64,
    /// ns per flop of ALSH hashing + candidate re-scoring.
    pub alsh_ns_per_flop: f64,
    /// ns per flop of the symmetric map + hashing + re-scoring.
    pub symmetric_ns_per_flop: f64,
    /// ns per flop of the sketch tree's dense linear algebra.
    pub sketch_ns_per_flop: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Fitted by calibrate_planner on the reference container (single
        // CPU): the brute kernel's data-major loop is cheaper per flop than
        // the LSH strategies' hashing and bucket bookkeeping, which is exactly
        // why a planner is needed — flop counts alone would flip to an index
        // too early. The alsh and symmetric constants were refit after the
        // plane-bank hashing kernel landed (one embedding and one pass over
        // the coefficients per vector; the symmetric flop count now charges
        // the tag's non-zeros, not its dimension; both charge
        // `ips_lsh::cost::CANDIDATE_OVERHEAD_FLOPS` per candidate): the
        // medians of three runs (brute 0.433, alsh 0.600, symmetric 1.435
        // ns/flop), put on the scale of the brute constant below by the brute
        // ratio 0.415 / 0.433 of the same runs. The sketch constant was refit
        // when the recovery tree got its cost cut-off and its build stopped
        // being charged `rows` times what it runs (`ips_sketch::cost`): four
        // runs fit it at 1.19 / 1.17 / 1.12 / 1.09 times the brute constant
        // of the same run, and the median of those is applied to 0.415. It is
        // above the brute constant because below its cut-off the tree *is* a
        // scan, by a slower loop than the brute kernel's. The symmetric constant
        // was refit once more when the index began hashing the sparse sphere image
        // and the flop count stopped charging a pass over the mapped vector it no
        // longer builds (exactly `d + tag_nonzeros` rows per plane now): parent
        // and change fitted alternately on one machine, medians 1.276 (three
        // runs) and 1.20 (six), and the ratio 0.94 is applied to the 1.375 that
        // stood here, which keeps it on the scale of the other constants. Both LSH
        // constants were refit the same way when their builds began to hash block
        // by block on every CPU (they had been absorbing a one-thread build beside
        // a brute join that already used every core): parent and change fitted
        // alternately, three runs each on the two-vCPU host, medians alsh 0.675 →
        // 0.490 and symmetric 1.243 → 0.972, and the ratios 0.73 and 0.78 are
        // applied to the 0.575 and 1.29 that stood here.
        Self {
            brute_ns_per_flop: 0.415,
            // The `f32` brute kernel: the calibrated f64 constant scaled by
            // the dim=32 kernel ratio f32 0.1221 / f64 0.1865 ns/flop, so the
            // planner's relative costs track the measured kernel speedup. Both
            // kernels score the same flops per (p, q) pair, so the ratio of
            // `benchmark/`'s `kernel.f32_ns_per_pair` / `kernel.f64_ns_per_pair`
            // is the one to re-check it against.
            brute_f32_ns_per_flop: 0.272,
            alsh_ns_per_flop: 0.42,
            symmetric_ns_per_flop: 1.01,
            sketch_ns_per_flop: 0.475,
        }
    }
}

impl CostModel {
    /// The constant applied to a family's flop count.
    pub fn ns_per_flop(&self, family: IndexFamily) -> f64 {
        match family {
            IndexFamily::Brute => self.brute_ns_per_flop,
            IndexFamily::Alsh => self.alsh_ns_per_flop,
            IndexFamily::Symmetric => self.symmetric_ns_per_flop,
            IndexFamily::Sketch => self.sketch_ns_per_flop,
        }
    }

    /// The brute-force constant under a scoring-kernel selection: the `f32`
    /// tile kernel for `dtype=f32`, else the default `f64` scan.
    pub fn brute_ns_per_flop_for(&self, scoring: ScoringOptions) -> f64 {
        match scoring.dtype {
            crate::kernel::Dtype::F32 => self.brute_f32_ns_per_flop,
            crate::kernel::Dtype::F64 => self.brute_ns_per_flop,
        }
    }
}

/// What the planner predicted for one strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyEstimate {
    /// The structure this estimate costed, with the parameters it would run with
    /// (for ALSH, the query radius already resolved).
    pub config: IndexConfig,
    /// Predicted total flops (build + all queries).
    pub flops: f64,
    /// Predicted wall-clock cost in nanoseconds (`flops × ns_per_flop`).
    pub cost_ns: f64,
    /// Whether the workload satisfies the strategy's domain preconditions.
    pub eligible: bool,
    /// Human-readable detail: the dominant cost term, or why ineligible.
    pub note: String,
}

/// The per-strategy parameters, engine schedule and scoring kernel of the
/// [`JoinPlanner`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannerConfig {
    /// ALSH parameters; `query_radius` is treated as a lower bound and raised
    /// to the measured maximum query norm at plan time.
    pub alsh: AlshParams,
    /// Sketch configuration used when the sketch strategy is chosen.
    pub sketch: MaxIpConfig,
    /// Leaf-size floor of the sketch recovery tree: never split a range of at most
    /// this many vectors (the tree also stops where a sketch would cost more than
    /// the scan).
    pub sketch_leaf_size: usize,
    /// Symmetric-LSH parameters.
    pub symmetric: SymmetricParams,
    /// Engine schedule every dispatched strategy runs under.
    pub engine: EngineConfig,
    /// Scoring-kernel selection (`dtype`) the brute strategy runs with; the
    /// brute estimate is costed with the matching per-dtype constant so
    /// `algo=auto` can pick the cheap path.
    pub scoring: ScoringOptions,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            alsh: AlshParams::default(),
            sketch: MaxIpConfig::default(),
            sketch_leaf_size: ips_sketch::DEFAULT_LEAF_SIZE,
            symmetric: SymmetricParams::default(),
            engine: EngineConfig::default(),
            scoring: ScoringOptions::default(),
        }
    }
}

impl PlannerConfig {
    /// The structure a fixed strategy runs, with this configuration's parameters;
    /// `None` for [`Strategy::Auto`], which [`JoinPlanner::plan`] resolves to a
    /// [`JoinPlan::choice`]. Both fluent builders ([`crate::facade::JoinBuilder`]
    /// and `ips_store`'s `IndexBuilder`) resolve a strategy here.
    pub fn index_config(&self, strategy: Strategy) -> Option<IndexConfig> {
        Some(match strategy {
            Strategy::Auto => return None,
            Strategy::Brute => IndexConfig::Brute,
            Strategy::Alsh => IndexConfig::Alsh(self.alsh),
            Strategy::Symmetric => IndexConfig::Symmetric(self.symmetric),
            Strategy::Sketch => IndexConfig::Sketch {
                config: self.sketch,
                leaf_size: self.sketch_leaf_size,
            },
        })
    }
}

/// The cost-based join planner: statistics in, [`JoinPlan`] out.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct JoinPlanner {
    /// Per-strategy parameters, engine schedule and scoring kernel.
    pub config: PlannerConfig,
    /// The calibrated cost constants.
    pub model: CostModel,
}

/// A fully resolved plan: the chosen structure with the parameters it will run
/// with, and the estimates that justified the choice.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinPlan {
    /// The `(cs, s)` spec the plan answers.
    pub spec: JoinSpec,
    /// The winning estimate's structure and parameters.
    pub choice: IndexConfig,
    /// The statistics the decision was based on.
    pub stats: WorkloadStats,
    /// One estimate per family, in [`IndexFamily::ALL`] order.
    pub estimates: Vec<StrategyEstimate>,
    /// The engine schedule the join runs under.
    pub engine: EngineConfig,
    /// The scoring-kernel selection the dispatched strategy runs with.
    pub scoring: ScoringOptions,
}

impl JoinPlanner {
    /// A planner with an explicit configuration and cost model.
    pub fn new(config: PlannerConfig, model: CostModel) -> Self {
        Self { config, model }
    }

    /// Plans a join: samples [`WorkloadStats`] from what the norm bound leaves the
    /// join to run on — the same sets [`JoinPlan::execute`] dispatches on — then
    /// decides via [`JoinPlanner::plan_from_stats`].
    pub fn plan<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        data: &[DenseVector],
        queries: &[DenseVector],
        spec: JoinSpec,
    ) -> Result<JoinPlan> {
        let stats = WorkloadStats::sample_kept(rng, data, queries, spec)?;
        Ok(self.plan_from_stats(stats, spec))
    }

    /// The pure decision step: estimates every strategy's cost on the given
    /// statistics' kept counts and picks the cheapest eligible one (ties go to the
    /// earlier entry in [`IndexFamily::ALL`], i.e. toward the exact scan).
    pub fn plan_from_stats(&self, stats: WorkloadStats, spec: JoinSpec) -> JoinPlan {
        let (n, m, d) = (stats.kept_data_count, stats.kept_query_count, stats.dim);
        let nf = n as f64;
        let mf = m as f64;
        let df = d as f64;
        let alsh_params = self.resolved_alsh_params(&stats, spec);

        let mut estimates = Vec::with_capacity(IndexFamily::ALL.len());

        // Brute force: the n·m·d data-major scan, costed with the constant of
        // whichever kernel the scoring options select. Always eligible.
        let brute_flops = nf * mf * df;
        let brute_ns = self.model.brute_ns_per_flop_for(self.config.scoring);
        let kernel_tag = match self.config.scoring.dtype {
            crate::kernel::Dtype::F32 => " [f32 kernel]",
            crate::kernel::Dtype::F64 => "",
        };
        estimates.push(StrategyEstimate {
            config: IndexConfig::Brute,
            flops: brute_flops,
            cost_ns: brute_flops * brute_ns,
            eligible: true,
            note: format!("n·m·d scan ({n}×{m}×{d}){kernel_tag}"),
        });

        // ALSH: hash everything into L tables of k bits over the mapped
        // (d+2)-dimensional sphere, then re-score the predicted candidates.
        // The SIMPLE-ALSH map sends a pair's mapped cosine to exactly pᵀq/U.
        let u = alsh_params.query_radius;
        let mapped_cosines: Vec<f64> = stats
            .sampled_inner_products
            .iter()
            .map(|&ip| ip / u)
            .collect();
        let (candidates_per_query, alsh_flops) =
            lsh_flops::<SphereTransform>(&stats, &mapped_cosines, d + 2, &alsh_params);
        // The resolved query radius already covers the measured query norms
        // and the promise threshold, so the only precondition left to check
        // is the index constructor's unit-ball requirement on the data side.
        let alsh_eligible = stats.max_data_norm <= 1.0 + NORM_TOLERANCE;
        estimates.push(self.estimate(
            IndexConfig::Alsh(alsh_params),
            alsh_flops,
            alsh_eligible,
            if alsh_eligible {
                let probe_tag = if alsh_params.probes > 0 {
                    format!(", +{} probes/table", alsh_params.probes)
                } else {
                    String::new()
                };
                format!("≈{candidates_per_query:.1} candidates/query, U={u:.2}{probe_tag}")
            } else {
                format!(
                    "ineligible: data norm {:.3} outside the unit ball",
                    stats.max_data_norm
                )
            },
        ));

        // Symmetric LSH: the same hashing shape over the (d + tag)-dimensional
        // mapped sphere, with the mapped cosine ≈ pᵀq itself (within ε).
        let symmetric = IndexConfig::Symmetric(self.config.symmetric);
        let map_probe = SymmetricSphereMap::new(
            d.max(1),
            self.config.symmetric.epsilon,
            self.config.symmetric.precision_bits,
        );
        let sym_in_ball = stats.max_data_norm <= 1.0 + NORM_TOLERANCE
            && stats.max_query_norm <= 1.0 + NORM_TOLERANCE;
        match map_probe {
            Ok(map) => {
                let mapped_dim = map.output_dim();
                // Multiply-adds over the image's non-zero coordinates only — the
                // vector's own `d` and one per Reed–Solomon block: the index hashes
                // the sparse image and never builds the mapped vector (see
                // `ips_lsh::bank`).
                let (sym_candidates, sym_flops) = lsh_flops::<SymmetricSphereMap>(
                    &stats,
                    &stats.sampled_inner_products,
                    d + map.tag_nonzeros(),
                    &self.config.symmetric,
                );
                estimates.push(self.estimate(
                    symmetric,
                    sym_flops,
                    sym_in_ball,
                    if sym_in_ball {
                        format!("mapped dim {mapped_dim}, ≈{sym_candidates:.1} candidates/query")
                    } else {
                        "ineligible: data or queries outside the unit ball".to_string()
                    },
                ));
            }
            Err(e) => estimates.push(self.estimate(
                symmetric,
                f64::INFINITY,
                false,
                format!("ineligible: {e}"),
            )),
        }

        // Sketch: the recovery-tree build plus one walk per query. No domain
        // preconditions (the structure is natively unsigned; under a signed
        // spec the adapter keeps validity at the price of recall on
        // anti-correlated pairs).
        let sketch_flops = ips_sketch::cost::tree_build_flops(
            n,
            d,
            &self.config.sketch,
            self.config.sketch_leaf_size,
        ) + mf
            * ips_sketch::cost::tree_query_flops(
                n,
                d,
                &self.config.sketch,
                self.config.sketch_leaf_size,
            );
        estimates.push(self.estimate(
            IndexConfig::Sketch {
                config: self.config.sketch,
                leaf_size: self.config.sketch_leaf_size,
            },
            sketch_flops,
            true,
            format!(
                "{} rows/copy × {} copies",
                ips_sketch::cost::resolved_rows(n, &self.config.sketch),
                self.config.sketch.copies
            ),
        ));

        let choice = estimates
            .iter()
            .filter(|e| e.eligible)
            .min_by(|a, b| a.cost_ns.total_cmp(&b.cost_ns))
            .map(|e| e.config)
            .unwrap_or(IndexConfig::Brute);

        JoinPlan {
            spec,
            choice,
            stats,
            estimates,
            engine: self.config.engine,
            scoring: self.config.scoring,
        }
    }

    /// The ALSH parameters a plan will run with: the configured parameters
    /// with the query radius raised to cover the measured query norms and the
    /// promise threshold (both hard requirements of the index constructor).
    fn resolved_alsh_params(&self, stats: &WorkloadStats, spec: JoinSpec) -> AlshParams {
        AlshParams {
            query_radius: self
                .config
                .alsh
                .query_radius
                .max(stats.max_query_norm)
                .max(spec.threshold),
            ..self.config.alsh
        }
    }

    fn estimate(
        &self,
        config: IndexConfig,
        flops: f64,
        eligible: bool,
        note: String,
    ) -> StrategyEstimate {
        StrategyEstimate {
            config,
            flops,
            cost_ns: flops * self.model.ns_per_flop(config.family()),
            eligible,
            note,
        }
    }
}

impl JoinPlan {
    /// Runs the planned join: the chosen strategy, with the plan's resolved
    /// parameters, through the function an explicitly chosen strategy runs through
    /// ([`crate::facade::JoinBuilder::run`]). Given the same RNG state, the result
    /// is identical to that manual choice.
    pub fn execute<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        data: &[DenseVector],
        queries: &[DenseVector],
    ) -> Result<Vec<MatchPair>> {
        run_strategy(
            self.choice,
            rng,
            data,
            queries,
            self.spec,
            self.engine,
            self.scoring,
        )
    }

    /// The estimate of the chosen structure.
    pub fn chosen_estimate(&self) -> &StrategyEstimate {
        let chosen = self.choice.family();
        self.estimates
            .iter()
            .find(|e| e.config.family() == chosen)
            .expect("plan always carries an estimate for its choice")
    }

    /// A human-readable account of the decision: the workload statistics and
    /// one line per strategy with its predicted cost. This is what the CLI
    /// prints under `explain=true`.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        let s = &self.stats;
        out.push_str(&format!(
            "plan: {} (estimated {})\n",
            self.choice.family(),
            format_ns(self.chosen_estimate().cost_ns)
        ));
        out.push_str(&format!(
            "workload: n={} m={} d={}; data norms mean {:.3} max {:.3}; query norms mean {:.3} max {:.3}\n",
            s.data_count,
            s.query_count,
            s.dim,
            s.mean_data_norm,
            s.max_data_norm,
            s.mean_query_norm,
            s.max_query_norm,
        ));
        out.push_str(&format!(
            "norm bound: kept {} of {} points, {} of {} queries\n",
            s.kept_data_count, s.data_count, s.kept_query_count, s.query_count,
        ));
        out.push_str(&format!(
            "sampled {} pairs: promise density {:.4}, output density {:.4}\n",
            s.sampled_inner_products.len(),
            s.promise_density,
            s.output_density,
        ));
        let chosen = self.choice.family();
        for e in &self.estimates {
            let family = e.config.family();
            let marker = if family == chosen { "*" } else { " " };
            out.push_str(&format!(
                "{marker} {:<10} {:>12}  {}\n",
                family.name(),
                if e.eligible {
                    format_ns(e.cost_ns)
                } else {
                    "—".to_string()
                },
                e.note,
            ));
        }
        out
    }
}

fn format_ns(ns: f64) -> String {
    if !ns.is_finite() {
        "∞".to_string()
    } else if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Joins `queries` against `data` on the structure `index` names, on `engine`'s threads,
/// the brute scan scoring under `scoring`. The one place a structure becomes a join: an
/// explicit choice ([`crate::facade::JoinBuilder::run`]) and a planned one
/// ([`JoinPlan::execute`]) both end here, which is what makes them bit-identical under
/// one RNG state.
///
/// First the **norm bound** (`crate::norm_bound`) drops every data point and every query
/// that Cauchy–Schwarz keeps below `cs` with every partner: no pair it drops could be
/// reported. The strategy runs on what is left, and each pair's indices are mapped back
/// to the caller's, in ascending order, so the lowest-id tie rule is unchanged. A side
/// is copied only when the bound drops at least half of it; otherwise it runs whole, on
/// the caller's slice. If the bound empties a side, the result is empty and nothing is
/// dispatched. Where the bound does not apply — an empty side, dimension 0, mixed
/// dimensions — the strategy meets the inputs whole, errors included.
///
/// An **empty query set** joins to an empty result under every strategy; an empty
/// *data* set fails before any query is looked at.
pub(crate) fn run_strategy<R: Rng + ?Sized>(
    index: IndexConfig,
    rng: &mut R,
    data: &[DenseVector],
    queries: &[DenseVector],
    spec: JoinSpec,
    engine: EngineConfig,
    scoring: ScoringOptions,
) -> Result<Vec<MatchPair>> {
    let Some(kept) = norm_bound::prune(data, queries, spec) else {
        return dispatch(index, rng, data, queries, spec, engine, scoring);
    };
    if kept.is_empty() {
        return Ok(Vec::new());
    }
    let pairs = dispatch(
        index,
        rng,
        kept.data.vectors(),
        kept.queries.vectors(),
        spec,
        engine,
        scoring,
    )?;
    Ok(kept.caller_pairs(pairs))
}

/// [`run_strategy`] without the norm bound: nothing borrows more than the slices, and
/// no copy of the data set is made. The brute strategy builds its index and runs it
/// through the [`JoinEngine`]. The ALSH and symmetric ones never hold an index: their
/// join draws, hashes and queries the tables a cache-sized group at a time and merges
/// each query's answer across the groups (`lsh_join`), to the pairs the whole index
/// would give. Nor does the sketch: [`join_walk`] walks the recovery tree a node at a
/// time, and the adapter's filter ([`sketch_hit`]) turns its candidates into the pairs
/// the whole tree would give.
fn dispatch<R: Rng + ?Sized>(
    index: IndexConfig,
    rng: &mut R,
    data: &[DenseVector],
    queries: &[DenseVector],
    spec: JoinSpec,
    engine: EngineConfig,
    scoring: ScoringOptions,
) -> Result<Vec<MatchPair>> {
    match index {
        IndexConfig::Brute => JoinEngine::with_config(
            BorrowedBruteIndex::with_options(data, spec, scoring)?,
            engine,
        )
        .run(queries),
        IndexConfig::Alsh(params) => {
            lsh_join::run::<SphereTransform, R>(params, rng, data, queries, spec, engine)
        }
        IndexConfig::Symmetric(params) => {
            lsh_join::run::<SymmetricSphereMap, R>(params, rng, data, queries, spec, engine)
        }
        IndexConfig::Sketch { config, leaf_size } => {
            let schedule = Schedule {
                threads: engine.resolved_threads(),
                block: engine.resolved_chunk_size(),
            };
            let found = join_walk(rng, data, queries, config, leaf_size, schedule)?;
            Ok(found
                .into_iter()
                .enumerate()
                .filter_map(|(query_index, candidate)| {
                    let hit = sketch_hit(spec, candidate)?;
                    Some(MatchPair {
                        data_index: hit.data_index,
                        query_index,
                        inner_product: hit.inner_product,
                    })
                })
                .collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::JoinVariant;
    use ips_linalg::random::random_unit_vector;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn spec(s: f64, c: f64) -> JoinSpec {
        JoinSpec::new(s, c, JoinVariant::Signed).unwrap()
    }

    /// Hand-built statistics: `sampled` inner products over an `n × m × d`
    /// workload whose vectors sit inside the unit ball.
    fn stats(n: usize, m: usize, d: usize, sampled: Vec<f64>) -> WorkloadStats {
        let sp = spec(0.8, 0.6);
        let total = sampled.len().max(1) as f64;
        WorkloadStats {
            data_count: n,
            query_count: m,
            kept_data_count: n,
            kept_query_count: m,
            dim: d,
            max_data_norm: 1.0,
            mean_data_norm: 0.5,
            max_query_norm: 1.0,
            mean_query_norm: 0.9,
            promise_density: sampled
                .iter()
                .filter(|&&ip| sp.satisfies_promise(ip))
                .count() as f64
                / total,
            output_density: sampled.iter().filter(|&&ip| sp.acceptable(ip)).count() as f64 / total,
            sampled_inner_products: sampled,
        }
    }

    /// The estimated cost of `family` in `plan`.
    fn cost(plan: &JoinPlan, family: IndexFamily) -> f64 {
        plan.estimates
            .iter()
            .find(|e| e.config.family() == family)
            .unwrap()
            .cost_ns
    }

    /// The ALSH parameters `plan` costed (its query radius resolved).
    fn alsh_of(plan: &JoinPlan) -> AlshParams {
        plan.estimates
            .iter()
            .find_map(|e| match e.config {
                IndexConfig::Alsh(params) => Some(params),
                _ => None,
            })
            .unwrap()
    }

    #[test]
    fn drift_score_is_zero_on_identical_stats_and_tracks_the_worst_dimension() {
        let base = stats(1000, 100, 32, vec![0.1; 64]);
        assert_eq!(base.drift_from(&base), 0.0);

        // Doubling the data set is a relative change of 0.5 against the
        // larger magnitude; every other dimension is unchanged.
        let mut grown = base.clone();
        grown.data_count = 2000;
        assert!((grown.drift_from(&base) - 0.5).abs() < 1e-12);

        // A query-norm shift registers even when the data is untouched, and
        // the max of the per-dimension changes wins.
        let mut shifted = base.clone();
        shifted.mean_query_norm = base.mean_query_norm * 1.1;
        let small = shifted.drift_from(&base);
        assert!(
            small > 0.0 && small < 0.1,
            "10% shift scores < 0.1: {small}"
        );
        shifted.output_density = 0.3;
        assert_eq!(
            shifted.drift_from(&base),
            1.0,
            "a density appearing from zero saturates the score"
        );

        // Symmetric up to which side is the baseline (both normalize by the
        // larger magnitude).
        assert_eq!(grown.drift_from(&base), base.drift_from(&grown));
    }

    #[test]
    fn small_workloads_use_brute_force() {
        // 30×10×8: hashing alone would dwarf the 2400-flop scan.
        let plan =
            JoinPlanner::default().plan_from_stats(stats(30, 10, 8, vec![0.1; 64]), spec(0.8, 0.6));
        assert_eq!(plan.choice, IndexConfig::Brute);
    }

    #[test]
    fn large_sparse_workloads_leave_the_quadratic_scan() {
        // 100k × 10k × 32, near-orthogonal sample: candidate sets are tiny
        // and the query volume amortises any index build, so one of the
        // sub-quadratic structures (ALSH or the sketch tree — which of the
        // two depends on the fitted constants) must beat the 3.2e10-flop
        // scan.
        let sampled = vec![0.02; 256];
        let plan = JoinPlanner::default()
            .plan_from_stats(stats(100_000, 10_000, 32, sampled), spec(0.8, 0.6));
        assert!(
            matches!(
                plan.choice.family(),
                IndexFamily::Alsh | IndexFamily::Sketch
            ),
            "expected an index strategy, got {:?}",
            plan.choice
        );
        assert!(cost(&plan, plan.choice.family()) < cost(&plan, IndexFamily::Brute));
    }

    #[test]
    fn the_alsh_crossover_sits_between_the_skinny_and_the_square_join() {
        // Pinned with the plane-bank refit of `CostModel::default`: hashing a
        // vector costs about two scan-flops per flop, no longer nine, so a
        // square sparse join (every data point amortised over as many queries)
        // now goes to ALSH, while a build-dominated skinny one — 64 queries
        // cannot repay hashing 12 000 points — stays on the scan.
        let sparse = vec![0.01; 256];
        let square = JoinPlanner::default()
            .plan_from_stats(stats(6_000, 6_000, 48, sparse.clone()), spec(0.8, 0.6));
        assert_eq!(square.choice.family(), IndexFamily::Alsh);
        let skinny =
            JoinPlanner::default().plan_from_stats(stats(12_000, 64, 48, sparse), spec(0.8, 0.6));
        assert_eq!(skinny.choice, IndexConfig::Brute);
    }

    #[test]
    fn dense_samples_defeat_the_lsh_strategies() {
        // Same shape but highly correlated: nearly every vector collides into
        // the candidate set, so LSH degenerates to the scan plus hashing
        // overhead and must never be chosen.
        let sampled = vec![0.95; 256];
        let plan = JoinPlanner::default()
            .plan_from_stats(stats(100_000, 10_000, 32, sampled), spec(0.8, 0.6));
        let cost = |family| cost(&plan, family);
        assert!(cost(IndexFamily::Alsh) > cost(IndexFamily::Brute));
        assert!(cost(IndexFamily::Symmetric) > cost(IndexFamily::Brute));
        assert!(!matches!(
            plan.choice.family(),
            IndexFamily::Alsh | IndexFamily::Symmetric
        ));
    }

    #[test]
    fn dense_workloads_with_few_queries_use_brute_force() {
        // With only 50 queries nothing can amortise an index build: the scan
        // is 50·n·d while every index pays Ω(n) hashing or sketching up front.
        let sampled = vec![0.95; 256];
        let plan =
            JoinPlanner::default().plan_from_stats(stats(50_000, 50, 32, sampled), spec(0.8, 0.6));
        assert_eq!(plan.choice, IndexConfig::Brute);
    }

    #[test]
    fn out_of_ball_data_disqualifies_the_lsh_strategies() {
        let mut st = stats(100_000, 10_000, 32, vec![0.02; 256]);
        st.max_data_norm = 3.0;
        let plan = JoinPlanner::default().plan_from_stats(st, spec(0.8, 0.6));
        for e in &plan.estimates {
            match e.config {
                IndexConfig::Alsh(_) | IndexConfig::Symmetric(_) => assert!(!e.eligible, "{e:?}"),
                _ => assert!(e.eligible),
            }
        }
        assert!(matches!(
            plan.choice.family(),
            IndexFamily::Brute | IndexFamily::Sketch
        ));
    }

    #[test]
    fn probes_trade_against_tables_in_the_alsh_estimate() {
        // Sparse sample, big workload: ALSH's cost is hashing-dominated, so
        // halving the tables and adding probes must come out cheaper while
        // still predicting at least as many candidates per query.
        let st = stats(100_000, 10_000, 32, vec![0.02; 256]);
        let full = JoinPlanner::default().plan_from_stats(st.clone(), spec(0.8, 0.6));
        let mut config = PlannerConfig::default();
        config.alsh.tables /= 2;
        config.alsh.probes = 4;
        let probed =
            JoinPlanner::new(config, CostModel::default()).plan_from_stats(st, spec(0.8, 0.6));
        let alsh_cost = |p: &JoinPlan| cost(p, IndexFamily::Alsh);
        assert!(
            alsh_cost(&probed) < alsh_cost(&full),
            "half the tables with probes must be estimated cheaper: {} vs {}",
            alsh_cost(&probed),
            alsh_cost(&full)
        );
        assert_eq!(alsh_of(&probed).probes, 4, "plan carries the probe count");
        assert!(probed
            .estimates
            .iter()
            .any(|e| e.note.contains("+4 probes/table")));
    }

    #[test]
    fn plan_resolves_query_radius_to_cover_queries_and_threshold() {
        let mut st = stats(1000, 100, 16, vec![0.1; 64]);
        st.max_query_norm = 2.5;
        let plan = JoinPlanner::default().plan_from_stats(st, spec(0.8, 0.6));
        assert!(alsh_of(&plan).query_radius >= 2.5);
        let st2 = stats(1000, 100, 16, vec![0.1; 64]);
        let plan2 = JoinPlanner::default()
            .plan_from_stats(st2, JoinSpec::new(0.9, 0.6, JoinVariant::Signed).unwrap());
        assert!(alsh_of(&plan2).query_radius >= 0.9);
    }

    #[test]
    fn estimates_cover_every_strategy_in_order() {
        let plan =
            JoinPlanner::default().plan_from_stats(stats(50, 5, 4, vec![0.0; 16]), spec(0.8, 0.6));
        let order: Vec<IndexFamily> = plan.estimates.iter().map(|e| e.config.family()).collect();
        assert_eq!(order, IndexFamily::ALL.to_vec());
        assert_eq!(plan.chosen_estimate().config, plan.choice);
        // Explain renders every strategy plus the header lines.
        let text = plan.explain();
        for s in IndexFamily::ALL {
            assert!(text.contains(s.name()), "{text}");
        }
        assert!(text.contains("plan: brute"));
    }

    #[test]
    fn sampling_measures_norms_and_densities() {
        let mut rng = StdRng::seed_from_u64(0x9147);
        let data: Vec<DenseVector> = (0..40)
            .map(|_| random_unit_vector(&mut rng, 8).unwrap().scaled(0.5))
            .collect();
        let queries: Vec<DenseVector> = (0..10)
            .map(|_| random_unit_vector(&mut rng, 8).unwrap())
            .collect();
        let st = WorkloadStats::sample(&mut rng, &data, &queries, spec(0.8, 0.6)).unwrap();
        assert_eq!(st.data_count, 40);
        assert_eq!(st.query_count, 10);
        assert_eq!(st.dim, 8);
        assert!((st.max_data_norm - 0.5).abs() < 1e-9);
        assert!((st.max_query_norm - 1.0).abs() < 1e-9);
        // Both sets are smaller than the sample sizes, so every pair is sampled.
        assert_eq!(st.sampled_inner_products.len(), 40 * 10);
        // All inner products are at most 0.5, so nothing clears s = 0.8.
        assert_eq!(st.promise_density, 0.0);

        // Both sets larger than the sample sizes: the mini-join draws with
        // replacement and has exactly SAMPLE_DATA × SAMPLE_QUERIES pairs.
        let data: Vec<DenseVector> = (0..60)
            .map(|_| random_unit_vector(&mut rng, 8).unwrap().scaled(0.5))
            .collect();
        let queries: Vec<DenseVector> = (0..30)
            .map(|_| random_unit_vector(&mut rng, 8).unwrap())
            .collect();
        let st = WorkloadStats::sample(&mut rng, &data, &queries, spec(0.8, 0.6)).unwrap();
        assert_eq!(st.data_count, 60);
        assert_eq!(st.query_count, 30);
        assert_eq!(
            st.sampled_inner_products.len(),
            SAMPLE_DATA * SAMPLE_QUERIES
        );
        assert_eq!(st.promise_density, 0.0);
    }

    #[test]
    fn sampling_rejects_bad_workloads() {
        let mut rng = StdRng::seed_from_u64(1);
        let q = vec![DenseVector::from(&[1.0, 0.0][..])];
        assert!(WorkloadStats::sample(&mut rng, &[], &q, spec(0.8, 0.6)).is_err());
        let mixed = vec![
            DenseVector::from(&[1.0, 0.0][..]),
            DenseVector::from(&[1.0][..]),
        ];
        assert!(WorkloadStats::sample(&mut rng, &mixed, &q, spec(0.8, 0.6)).is_err());
    }

    #[test]
    fn empty_query_set_plans_and_executes_to_empty() {
        let mut rng = StdRng::seed_from_u64(2);
        let data: Vec<DenseVector> = (0..20)
            .map(|_| random_unit_vector(&mut rng, 6).unwrap())
            .collect();
        let plan = JoinPlanner::default()
            .plan(&mut rng, &data, &[], spec(0.8, 0.6))
            .unwrap();
        assert!(plan.stats.sampled_inner_products.is_empty());
        assert!(plan.execute(&mut rng, &data, &[]).unwrap().is_empty());
    }

    #[test]
    fn every_strategy_executes_to_valid_pairs_on_a_planted_workload() {
        use ips_datagen::planted::{PlantedConfig, PlantedInstance};
        let mut rng = StdRng::seed_from_u64(0xAD07);
        let inst = PlantedInstance::generate(
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
        .unwrap();
        let sp = spec(0.8, 0.6);
        let mut plan = JoinPlanner::default()
            .plan(&mut rng, inst.data(), inst.queries(), sp)
            .unwrap();
        assert!(plan.estimates.iter().any(|e| e.eligible));
        // Whatever the planner picked, and whatever it could have picked: no pair below
        // cs, and most of the planted ones.
        for estimate in plan.estimates.clone() {
            let choice = estimate.config.family();
            plan.choice = estimate.config;
            let pairs = plan.execute(&mut rng, inst.data(), inst.queries()).unwrap();
            let (_, valid) =
                crate::problem::evaluate_join(inst.data(), inst.queries(), &sp, &pairs).unwrap();
            assert!(valid, "{choice}");
            let reported: Vec<(usize, usize)> = pairs
                .iter()
                .map(|p| (p.data_index, p.query_index))
                .collect();
            let recall = inst.recall(&reported, sp.relaxed_threshold());
            assert!(recall >= 0.6, "{choice} join recall too low: {recall}");
        }
    }

    fn dv(xs: &[f64]) -> DenseVector {
        DenseVector::from(xs)
    }

    /// Every fixed structure at the default parameters.
    fn fixed_configs() -> Vec<IndexConfig> {
        let config = PlannerConfig::default();
        [
            Strategy::Brute,
            Strategy::Alsh,
            Strategy::Symmetric,
            Strategy::Sketch,
        ]
        .into_iter()
        .map(|strategy| config.index_config(strategy).unwrap())
        .collect()
    }

    /// `run_strategy` — the norm bound, then the dispatch — and the dispatch alone, each
    /// from a fresh RNG of `seed`.
    fn bounded_and_whole(
        index: IndexConfig,
        seed: u64,
        data: &[DenseVector],
        queries: &[DenseVector],
        spec: JoinSpec,
    ) -> (Result<Vec<MatchPair>>, Result<Vec<MatchPair>>) {
        let (engine, scoring) = (EngineConfig::default(), ScoringOptions::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let bounded = run_strategy(index, &mut rng, data, queries, spec, engine, scoring);
        let mut rng = StdRng::seed_from_u64(seed);
        let whole = dispatch(index, &mut rng, data, queries, spec, engine, scoring);
        (bounded, whole)
    }

    /// Each pair's indices and the bits of its inner product.
    fn bits(pairs: &[MatchPair]) -> Vec<(usize, usize, u64)> {
        pairs
            .iter()
            .map(|p| (p.data_index, p.query_index, p.inner_product.to_bits()))
            .collect()
    }

    #[test]
    fn scores_at_cs_and_one_ulp_either_side_are_reported_as_without_the_bound() {
        // Parallel vectors make Cauchy–Schwarz tight — the norms' product is the score —
        // so only the rounding margin keeps such a pair from being dropped.
        let mut rng = StdRng::seed_from_u64(0x01F);
        let mut margin_needed = 0;
        for trial in 0..200 {
            let dim = 2 + trial % 47;
            let v = random_unit_vector(&mut rng, dim).unwrap();
            let p = v.scaled(rng.gen_range(0.5..2.0));
            let q = v.scaled(rng.gen_range(0.5..2.0));
            let score = p.dot(&q).unwrap();
            // The product a test without the margin would compare with cs = score.
            if p.norm() * q.norm() < score {
                margin_needed += 1;
            }
            // Two short points the bound drops, so the data side runs on a copy.
            let data = [v.scaled(1e-3), p, v.scaled(2e-3)];
            for (variant, q) in [
                (JoinVariant::Signed, q.clone()),
                (JoinVariant::Unsigned, q.scaled(-1.0)),
            ] {
                for cs in [score.next_down(), score, score.next_up()] {
                    let sp = JoinSpec::new(cs, 1.0, variant).unwrap();
                    let queries = [q.clone()];
                    let kept = norm_bound::prune(&data, &queries, sp).unwrap();
                    assert_eq!(kept.data.vectors(), &data[1..2], "dim {dim}");
                    let (bounded, whole) =
                        bounded_and_whole(IndexConfig::Brute, 0, &data, &queries, sp);
                    let bounded = bounded.unwrap();
                    assert_eq!(bits(&bounded), bits(&whole.unwrap()));
                    assert_eq!(!bounded.is_empty(), score >= cs, "dim {dim}, cs {cs}");
                }
            }
        }
        assert!(
            margin_needed > 0,
            "no pair whose norms' product rounds below its score: the test shows nothing"
        );
    }

    #[test]
    fn an_empty_data_set_still_fails_before_anything_is_pruned() {
        let queries = [dv(&[1.0, 0.0])];
        for index in fixed_configs() {
            let (bounded, whole) = bounded_and_whole(index, 1, &[], &queries, spec(0.8, 0.6));
            assert!(bounded.is_err(), "{index:?}");
            assert_eq!(bounded, whole, "{index:?}");
        }
        let planned = JoinPlanner::default().plan(
            &mut StdRng::seed_from_u64(1),
            &[],
            &queries,
            spec(0.8, 0.6),
        );
        assert_eq!(planned.unwrap_err(), CoreError::EmptyDataSet);
    }

    #[test]
    fn mixed_dimensions_skip_the_bound_and_fail_as_without_it() {
        // Short points the bound would drop, and one vector of another dimension on
        // either side: the strategy meets the inputs whole and fails at the same pair.
        let short = dv(&[0.01, 0.0]);
        let long = dv(&[0.9, 0.0]);
        let ragged = dv(&[0.5]);
        let cases = [
            (
                vec![short.clone(), long.clone(), short.clone(), ragged.clone()],
                vec![long.clone()],
            ),
            (
                vec![long.clone(), short.clone()],
                vec![short.clone(), long.clone(), ragged],
            ),
        ];
        for (data, queries) in cases {
            for index in fixed_configs() {
                let (bounded, whole) = bounded_and_whole(index, 2, &data, &queries, spec(0.8, 0.6));
                assert!(bounded.is_err(), "{index:?}");
                assert_eq!(bounded, whole, "{index:?}");
            }
        }
    }

    #[test]
    fn a_nan_norm_keeps_its_vector_and_the_join_answers_as_without_the_bound() {
        let long = dv(&[0.9, 0.1]);
        let short = dv(&[0.01, 0.0]);
        let nan = dv(&[f64::NAN, 0.0]);
        let data = [long.clone(), nan.clone(), short.clone(), short.clone()];
        let queries = [long.clone(), nan, short.clone(), short];
        let sp = spec(0.8, 0.6);
        let kept = norm_bound::prune(&data, &queries, sp).unwrap();
        assert_eq!(kept.data.vectors().len(), 2);
        assert!(kept.data.vectors()[1][0].is_nan());
        assert_eq!(kept.queries.vectors().len(), 2);
        assert!(kept.queries.vectors()[1][0].is_nan());
        for index in fixed_configs() {
            let (bounded, whole) = bounded_and_whole(index, 3, &data, &queries, sp);
            assert_eq!(bounded, whole, "{index:?}");
        }
    }

    #[test]
    fn a_side_the_bound_empties_joins_to_nothing_without_dispatch() {
        let sp = spec(0.8, 0.6);
        let short = dv(&[0.01, 0.02]);
        let long = dv(&[0.6, 0.8]);
        let (engine, scoring) = (EngineConfig::default(), ScoringOptions::default());
        for (data, queries) in [
            (vec![short.clone(); 3], vec![long.clone()]),
            (vec![long.clone()], vec![short.clone(); 2]),
        ] {
            for index in fixed_configs() {
                let mut rng = StdRng::seed_from_u64(4);
                let pairs =
                    run_strategy(index, &mut rng, &data, &queries, sp, engine, scoring).unwrap();
                assert!(pairs.is_empty(), "{index:?}");
                // An LSH or sketch dispatch would have drawn its planes or estimators.
                assert_eq!(
                    rng.gen::<u64>(),
                    StdRng::seed_from_u64(4).gen::<u64>(),
                    "{index:?} drew from the RNG"
                );
            }
            // The planner plans the empty join and executes it to nothing.
            let mut rng = StdRng::seed_from_u64(4);
            let plan = JoinPlanner::default()
                .plan(&mut rng, &data, &queries, sp)
                .unwrap();
            assert_eq!(plan.stats.kept_data_count * plan.stats.kept_query_count, 0);
            assert!(plan.execute(&mut rng, &data, &queries).unwrap().is_empty());
        }
    }

    #[test]
    fn the_unsigned_variant_prunes_by_the_same_bound_and_keeps_negative_pairs() {
        // The long point's only partner has a negative inner product of magnitude 1.
        let data = [dv(&[-1.0, 0.0]), dv(&[0.01, 0.0]), dv(&[0.0, 0.02])];
        let queries = [dv(&[1.0, 0.0])];
        let sp = JoinSpec::new(0.8, 0.6, JoinVariant::Unsigned).unwrap();
        let kept = norm_bound::prune(&data, &queries, sp).unwrap();
        assert_eq!(kept.data.vectors(), &data[..1]);
        for index in fixed_configs() {
            let (bounded, whole) = bounded_and_whole(index, 5, &data, &queries, sp);
            assert_eq!(bounded, whole, "{index:?}");
        }
        let (brute, _) = bounded_and_whole(IndexConfig::Brute, 5, &data, &queries, sp);
        assert_eq!(bits(&brute.unwrap()), vec![(0, 0, (-1.0f64).to_bits())]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// On planted data at the benchmark's background scale and at the hard one, under
        /// both variants: brute force, ALSH and symmetric LSH report the bits they report
        /// without the bound; the sketch and the planner stay valid; and at background
        /// scale 1, where the bound drops nothing, all five are what they are without it.
        #[test]
        fn the_bound_keeps_exact_and_lsh_pairs_bit_identical(
            seed in proptest::prelude::any::<u64>(),
            hard in proptest::prelude::any::<bool>(),
            unsigned in proptest::prelude::any::<bool>(),
        ) {
            use ips_datagen::planted::{PlantedConfig, PlantedInstance};
            let background_scale = if hard { 1.0 } else { 0.05 };
            let inst = PlantedInstance::generate(
                &mut StdRng::seed_from_u64(seed),
                PlantedConfig {
                    data: 120,
                    queries: 16,
                    dim: 8,
                    background_scale,
                    planted_ip: 0.85,
                    planted: 4,
                },
            )
            .unwrap();
            let variant = if unsigned { JoinVariant::Unsigned } else { JoinVariant::Signed };
            let sp = JoinSpec::new(0.8, 0.6, variant).unwrap();
            let (data, queries) = (inst.data(), inst.queries());
            let kept = norm_bound::prune(data, queries, sp).unwrap();
            // The hard case keeps everything; the easy one little more than the plants.
            proptest::prop_assert_eq!(kept.data.vectors().len() == data.len(), hard);
            proptest::prop_assert_eq!(kept.queries.vectors().len(), queries.len());
            for index in fixed_configs() {
                let (bounded, whole) = bounded_and_whole(index, seed, data, queries, sp);
                let bounded = bounded.unwrap();
                if hard || index.family() != IndexFamily::Sketch {
                    proptest::prop_assert_eq!(bits(&bounded), bits(&whole.unwrap()), "{:?}", index);
                }
                let (_, valid) = crate::problem::evaluate_join(data, queries, &sp, &bounded).unwrap();
                proptest::prop_assert!(valid, "{:?}", index);
            }
            // Auto: planned on the kept sets and executed through the bound.
            let mut rng = StdRng::seed_from_u64(seed);
            let plan = JoinPlanner::default().plan(&mut rng, data, queries, sp).unwrap();
            let auto = plan.execute(&mut rng, data, queries).unwrap();
            let (_, valid) = crate::problem::evaluate_join(data, queries, &sp, &auto).unwrap();
            proptest::prop_assert!(valid);
            if hard {
                let mut rng = StdRng::seed_from_u64(seed);
                let stats = WorkloadStats::sample(&mut rng, data, queries, sp).unwrap();
                let whole_plan = JoinPlanner::default().plan_from_stats(stats, sp);
                proptest::prop_assert_eq!(&whole_plan, &plan);
                let whole = dispatch(
                    whole_plan.choice,
                    &mut rng,
                    data,
                    queries,
                    sp,
                    whole_plan.engine,
                    whole_plan.scoring,
                )
                .unwrap();
                proptest::prop_assert_eq!(bits(&auto), bits(&whole));
            }
        }
    }
}

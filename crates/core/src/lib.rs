//! # ips-core
//!
//! Inner product similarity join and search — a faithful, runnable reproduction of
//! *"On the Complexity of Inner Product Similarity Join"* (Ahle, Pagh, Razenshteyn,
//! Silvestri; PODS 2016).
//!
//! The crate is organised around the paper's three parts:
//!
//! * **Problem definitions and baselines** — [`problem`] defines signed/unsigned exact
//!   and `(cs, s)`-approximate joins and search (Definition 1); [`brute`] provides the
//!   quadratic baselines every upper bound is measured against; [`algebraic`] wraps the
//!   matrix-multiplication joins of `ips-matmul` — the Valiant/Karppa-style baselines
//!   behind the *permissible* entries of Table 1.
//! * **Upper bounds (Section 4)** — [`lsh_mips`] is the one LSH MIPS index of
//!   Sections 4.1 and 4.2 (ball-to-sphere map + sphere LSH + exact re-scoring),
//!   generic over the map: [`asymmetric`] holds the Section 4.1 map and parameters
//!   (with the ρ of equation 3), [`symmetric`] the Section 4.2 symmetric map for
//!   "almost all vectors" built on an explicit incoherent vector collection;
//!   [`mips`] gives a common trait over all MIPS indexes and adapts the Section 4.3
//!   sketch structure of `ips-sketch` to it; [`engine`] provides the unified
//!   parallel, chunk-batched [`JoinEngine`] every join runs through; [`shard`] is the
//!   exact merge layer the sharded serving index of `ips-store` reassembles per-shard
//!   answers with (per-shard bests and top-`k` heaps merged bit-identically to one
//!   unsharded search); [`planner`] adds the cost-based [`JoinPlanner`] that picks
//!   the strategy from workload statistics, since no single strategy dominates — the
//!   paper's central message, operationalised; [`facade`] puts one fluent, typed
//!   [`JoinBuilder`] (`Join::data(d).queries(q)…run()`) in front of all of it — the
//!   one entry point for a join.
//! * **Lower bounds (Sections 2–3)** — [`lower_bounds`] contains the hard sequence
//!   constructions of Theorem 3, the grid partition and mass-accounting argument of
//!   Lemma 4 (Figure 1), and the closed-form gap bounds; [`theory`] classifies parameter
//!   regimes into the hard / permissible regions of Table 1 and re-exports the ρ curves
//!   of Figure 2.
//!
//! The OVP reductions behind the hardness results live in the companion crate
//! [`ips_ovp`]; workload generators live in `ips-datagen`; the benchmark harness that
//! regenerates every table and figure lives in `ips-bench`.
//!
//! # Quickstart
//!
//! The core workflow — generate a workload, describe the `(cs, s)` join with the
//! fluent builder, let the planner pick the strategy, and check the result against
//! the exact scan (this is the runnable version of the README quickstart):
//!
//! ```
//! use ips_core::brute::brute_force_join;
//! use ips_core::facade::{Join, Strategy};
//! use ips_core::problem::{evaluate_join, JoinSpec, JoinVariant};
//! use ips_datagen::planted::{PlantedConfig, PlantedInstance};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! // 1. a synthetic workload: near-orthogonal background, 4 planted pairs.
//! let instance = PlantedInstance::generate(&mut rng, PlantedConfig {
//!     data: 300, queries: 24, dim: 24,
//!     background_scale: 0.1, planted_ip: 0.85, planted: 4,
//! }).unwrap();
//! // 2–3. the (cs, s) contract of Definition 1 (report pairs above cs = 0.48,
//! //    promise answers above s = 0.8) and the adaptive dispatch, in one fluent
//! //    chain: Strategy::Auto samples the workload, costs every strategy, and
//! //    runs the winner through the JoinEngine.
//! let report = Join::data(instance.data())
//!     .queries(instance.queries())
//!     .threshold(0.8)
//!     .approximation(0.6)
//!     .strategy(Strategy::Auto)
//!     .seed(42)
//!     .run()
//!     .unwrap();
//! println!("{}", report.plan.as_ref().unwrap().explain());
//! // 4. validity holds whatever was chosen; the exact join bounds the answer set.
//! let spec = JoinSpec::new(0.8, 0.6, JoinVariant::Signed).unwrap();
//! let (_, valid) =
//!     evaluate_join(instance.data(), instance.queries(), &spec, &report.matches).unwrap();
//! assert!(valid);
//! let exact = brute_force_join(instance.data(), instance.queries(), &spec).unwrap();
//! assert!(report.matches.len() <= exact.len());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod algebraic;
pub mod asymmetric;
pub mod brute;
mod diagonal;
pub mod engine;
pub mod error;
pub mod facade;
pub mod kernel;
pub mod lower_bounds;
pub mod lsh_mips;
pub mod mips;
pub mod planner;
pub mod problem;
pub mod shard;
mod slots;
pub mod symmetric;
pub mod theory;
pub mod topk;

pub use engine::{EngineConfig, JoinEngine};
pub use error::{CoreError, Result};
pub use facade::{Join, JoinBuilder, JoinReport, Strategy};
pub use kernel::{Dtype, ScoringOptions};
pub use lsh_mips::{LshMips, LshOps, SphereMap};
pub use mips::{MipsIndex, SearchResult, SketchMipsAdapter};
pub use planner::{CostModel, JoinPlan, JoinPlanner};
pub use problem::{JoinSpec, JoinVariant, MatchPair};
pub use topk::{top_k_join, top_k_recall, TopKMipsIndex};

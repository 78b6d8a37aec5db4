//! # ips-adapt
//!
//! Closed-loop adaptive serving: the subsystem that keeps a long-lived
//! serving index on the strategy the *current* workload would have been
//! planned onto, not the one it happened to be built with.
//!
//! The paper's central observation is that no single strategy dominates —
//! which structure wins depends on measurable workload statistics. The
//! `ips-core` planner exploits that at build time; this crate closes the loop
//! at *serve* time:
//!
//! 1. **Sense** — [`TelemetryWindow`] folds the serving layer's cumulative
//!    telemetry (query norms, batch sizes, mutation counters) into
//!    per-window deltas via
//!    [`ips_obs::HistogramSnapshot::diff`], yielding an [`ObservedWorkload`].
//! 2. **Compare** — [`controller::observed_stats`] synthesises fresh
//!    [`ips_core::planner::WorkloadStats`] from the window plus the live
//!    entry set, and `WorkloadStats::drift_from` scores them against the
//!    statistics the live plan was costed on.
//! 3. **Re-plan** — after the drift threshold is exceeded for enough
//!    *consecutive* windows (hysteresis), [`ips_core::JoinPlanner`] re-runs
//!    on the fresh statistics.
//! 4. **Swap** — if the planner now prefers a different structure,
//!    [`ips_store::ShardedServingIndex::migrate_to`] builds the replacement
//!    off the lock path and swaps it in atomically, preserving external ids,
//!    counters, and in-flight coalesced batches.
//!
//! [`AdaptiveController::check`] runs one sense→compare→re-plan→swap
//! iteration deterministically; [`AdaptiveController::spawn`] runs it
//! periodically on a background thread, which is what `ips serve adaptive=on`
//! does.
//!
//! ```
//! use std::sync::Arc;
//! use ips_adapt::{AdaptiveConfig, AdaptiveController, ControlDecision};
//! use ips_core::problem::{JoinSpec, JoinVariant};
//! use ips_linalg::DenseVector;
//! use ips_store::{IndexConfig, ShardedConfig, ShardedServingIndex};
//!
//! let index = Arc::new(
//!     ShardedServingIndex::build(
//!         vec![
//!             DenseVector::from(&[0.9, 0.0][..]),
//!             DenseVector::from(&[0.0, 0.8][..]),
//!         ],
//!         JoinSpec::new(0.5, 0.8, JoinVariant::Signed).unwrap(),
//!         IndexConfig::Brute,
//!         ShardedConfig::default(),
//!     )
//!     .unwrap(),
//! );
//! let mut controller = AdaptiveController::new(Arc::clone(&index), AdaptiveConfig::default());
//! // No traffic yet: the window is empty, nothing is scored.
//! assert_eq!(
//!     controller.check().unwrap(),
//!     ControlDecision::InsufficientWindow { queries: 0 }
//! );
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod controller;
pub mod observe;

pub use controller::{
    plan_index_config, AdaptiveConfig, AdaptiveController, ControlDecision, ControllerHandle,
};
pub use observe::{ObservedWorkload, TelemetryWindow};

//! The closed-loop controller: sense → compare → re-plan → swap.
//!
//! Each [`AdaptiveController::check`] folds the telemetry recorded since the
//! last check into an [`ObservedWorkload`], synthesises fresh
//! [`WorkloadStats`] from it, and scores the drift against the statistics the
//! live plan was costed on ([`WorkloadStats::drift_from`]). Drift must exceed
//! [`DRIFT_THRESHOLD`] for [`HYSTERESIS_CHECKS`] *consecutive* checks before
//! the planner is consulted — one anomalous window (a traffic blip, a teared
//! snapshot) never triggers a multi-second rebuild. When the
//! planner's fresh choice differs from the structure currently serving, the
//! controller calls [`ShardedServingIndex::migrate_to`], which builds the
//! replacement in the background of the serving traffic and swaps it in
//! atomically.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use ips_core::planner::{
    sample_indices, CostModel, IndexFamily, JoinPlanner, PlannerConfig, WorkloadStats, SAMPLE_DATA,
    SAMPLE_QUERIES,
};
use ips_core::problem::JoinSpec;
use ips_linalg::DenseVector;
use ips_store::{IndexConfig, MigrationReport, Result, ShardedServingIndex, StoreError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::observe::{ObservedWorkload, TelemetryWindow};

/// Drift score (worst relative change across the watched workload
/// dimensions, in `[0, 1]`) at or above which a window counts toward
/// triggering a re-plan.
pub const DRIFT_THRESHOLD: f64 = 0.3;

/// Consecutive drifted windows required before the planner runs. The
/// hysteresis: a single anomalous window never migrates.
pub const HYSTERESIS_CHECKS: u32 = 2;

/// Windows with fewer observed queries than this are skipped outright — too
/// little signal to compare distributions.
pub const MIN_WINDOW_QUERIES: u64 = 16;

/// Tuning of the adaptive control loop. The re-planning decision is scored
/// with [`CostModel::default`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Per-strategy parameters for planner re-entry. Seeded from the serving
    /// index's live configuration by [`AdaptiveController::new`].
    pub planner: PlannerConfig,
    /// Seed for the mini-join sampling inside stats synthesis.
    pub seed: u64,
    /// Seconds between checks when the controller runs on its own thread
    /// ([`AdaptiveController::spawn`]).
    pub drift_check_secs: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            planner: PlannerConfig::default(),
            seed: 0xAD_AF7,
            drift_check_secs: 5,
        }
    }
}

/// What one [`AdaptiveController::check`] concluded.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlDecision {
    /// The window held too few queries to compare distributions; nothing was
    /// scored and the hysteresis streak is untouched.
    InsufficientWindow {
        /// Queries the window did hold.
        queries: u64,
    },
    /// First sufficient window: its statistics became the drift baseline.
    BaselineEstablished,
    /// Drift below threshold; the streak was reset.
    Steady {
        /// The scored drift.
        drift: f64,
    },
    /// Drift at or above threshold, but the hysteresis streak has not yet
    /// reached [`HYSTERESIS_CHECKS`].
    Pending {
        /// The scored drift.
        drift: f64,
        /// Consecutive drifted windows so far.
        streak: u32,
    },
    /// The planner ran on the fresh statistics and re-chose the structure
    /// already serving — the baseline was re-anchored, nothing was rebuilt.
    Replanned {
        /// The scored drift.
        drift: f64,
        /// The (re-confirmed) winning family.
        choice: IndexFamily,
    },
    /// The planner chose a different structure and the index migrated to it.
    Migrated {
        /// The scored drift.
        drift: f64,
        /// What the migration did.
        report: MigrationReport,
    },
}

/// The drift-detecting, re-planning controller wrapped around one
/// [`ShardedServingIndex`].
///
/// Drive it manually with [`AdaptiveController::check`] (deterministic — what
/// the tests and the benchmark do) or hand it its own thread with
/// [`AdaptiveController::spawn`] (what `ips serve adaptive=on` does).
pub struct AdaptiveController {
    index: Arc<ShardedServingIndex>,
    config: AdaptiveConfig,
    planner: JoinPlanner,
    window: TelemetryWindow,
    baseline: Option<WorkloadStats>,
    streak: u32,
    rng: StdRng,
}

impl AdaptiveController {
    /// Wraps `index` with a controller.
    ///
    /// The planner's per-family parameters start from the index's live
    /// configuration (so a migration *away* from a tuned family can migrate
    /// *back* to the identical structure), and its engine schedule is copied
    /// from the index's serving configuration so every candidate strategy is
    /// costed the way it would actually run.
    pub fn new(index: Arc<ShardedServingIndex>, mut config: AdaptiveConfig) -> Self {
        match index.index_config() {
            IndexConfig::Brute => {}
            IndexConfig::Alsh(params) => config.planner.alsh = params,
            IndexConfig::Symmetric(params) => config.planner.symmetric = params,
            IndexConfig::Sketch {
                config: sketch,
                leaf_size,
            } => {
                config.planner.sketch = sketch;
                config.planner.sketch_leaf_size = leaf_size;
            }
        }
        config.planner.engine = index.serving_config().engine;
        let planner = JoinPlanner::new(config.planner, CostModel::default());
        let rng = StdRng::seed_from_u64(config.seed);
        Self {
            index,
            config,
            planner,
            window: TelemetryWindow::new(),
            baseline: None,
            streak: 0,
            rng,
        }
    }

    /// The index this controller steers.
    pub fn index(&self) -> &Arc<ShardedServingIndex> {
        &self.index
    }

    /// The configuration the controller runs with.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.config
    }

    /// Runs one control iteration: fold the telemetry window, score drift
    /// against the baseline, and — after enough consecutive drifted windows —
    /// re-plan and migrate.
    ///
    /// The scored drift is published to the index
    /// ([`ShardedServingIndex::set_drift_score`]) on every scored window, so
    /// the `stats`/`plan` protocol replies always show the latest reading.
    pub fn check(&mut self) -> Result<ControlDecision> {
        let observed = self.window.advance(&self.index);
        if observed.queries < MIN_WINDOW_QUERIES {
            return Ok(ControlDecision::InsufficientWindow {
                queries: observed.queries,
            });
        }
        let entries = self.index.live_entries();
        let spec = self.index.spec();
        let fresh = observed_stats(&mut self.rng, &entries, &observed, spec)?;
        let Some(baseline) = &self.baseline else {
            self.index.set_drift_score(0.0);
            self.baseline = Some(fresh);
            return Ok(ControlDecision::BaselineEstablished);
        };
        let drift = fresh.drift_from(baseline);
        self.index.set_drift_score(drift);
        if drift < DRIFT_THRESHOLD {
            self.streak = 0;
            return Ok(ControlDecision::Steady { drift });
        }
        self.streak += 1;
        if self.streak < HYSTERESIS_CHECKS {
            return Ok(ControlDecision::Pending {
                drift,
                streak: self.streak,
            });
        }
        // Enough consecutive drifted windows: consult the planner on the
        // fresh statistics and re-anchor the baseline on them either way —
        // the decision (migrate or stay) now reflects this workload.
        self.streak = 0;
        let target = self.planner.plan_from_stats(fresh.clone(), spec).choice;
        self.baseline = Some(fresh);
        if target == self.index.index_config() {
            return Ok(ControlDecision::Replanned {
                drift,
                choice: target.family(),
            });
        }
        let report = self.index.migrate_to(target)?;
        Ok(ControlDecision::Migrated { drift, report })
    }

    /// Moves the controller onto its own thread, checking every
    /// [`AdaptiveConfig::drift_check_secs`] until the handle is stopped or
    /// dropped.
    ///
    /// Migrations and errors emit one structured line each on stderr.
    pub fn spawn(self) -> ControllerHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let period = Duration::from_secs(self.config.drift_check_secs.max(1));
        let join = thread::spawn(move || {
            let mut controller = self;
            loop {
                // Sleep in short slices so stop() returns promptly even with
                // a long check period.
                let mut slept = Duration::ZERO;
                while slept < period && !flag.load(Ordering::Relaxed) {
                    let slice = Duration::from_millis(25).min(period - slept);
                    thread::sleep(slice);
                    slept += slice;
                }
                if flag.load(Ordering::Relaxed) {
                    return;
                }
                match controller.check() {
                    Ok(ControlDecision::Migrated { drift, report }) => eprintln!(
                        "adaptive migrate drift={drift:.3} from={} to={} entries={} \
                         reconciled={} build_ns={} swap_ns={}",
                        report.from,
                        report.to,
                        report.entries,
                        report.reconciled,
                        report.build_ns,
                        report.swap_ns,
                    ),
                    Ok(_) => {}
                    Err(e) => eprintln!("adaptive check failed: {e}"),
                }
            }
        });
        ControllerHandle {
            stop,
            join: Some(join),
        }
    }
}

/// Handle to a controller running on its own thread
/// ([`AdaptiveController::spawn`]). Stops and joins the thread when dropped.
#[derive(Debug)]
pub struct ControllerHandle {
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl ControllerHandle {
    /// Stops the control loop and joins its thread.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for ControllerHandle {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Synthesises planner-ready [`WorkloadStats`] from the live entry set and a
/// telemetry window.
///
/// The data side is exact — norms over every live vector. The query side is
/// reconstructed from what the telemetry retains: the mean query norm is
/// exact (histogram sums are exact), the max is the top occupied bucket's
/// bound. For the mini-join that measures the promise/output densities the
/// original query vectors are gone, so sampled *data* directions rescaled to
/// the observed mean query norm stand in for them — the queries-resemble-data
/// proxy. The cost model's strategy ranking is driven mostly by the norm
/// scale (through the densities and the ALSH query radius), which the proxy
/// preserves; it is exactly the quantity whose drift triggered the re-plan.
pub fn observed_stats<R: Rng + ?Sized>(
    rng: &mut R,
    entries: &[(u64, DenseVector)],
    observed: &ObservedWorkload,
    spec: JoinSpec,
) -> Result<WorkloadStats> {
    if entries.is_empty() {
        return Err(StoreError::InvalidParameter {
            name: "entries",
            reason: "cannot synthesise workload statistics over an empty index".into(),
        });
    }
    let dim = entries[0].1.dim();
    let norms: Vec<f64> = entries.iter().map(|(_, v)| v.norm()).collect();
    let max_data_norm = norms.iter().cloned().fold(0.0, f64::max);
    let mean_data_norm = norms.iter().sum::<f64>() / norms.len() as f64;
    let mean_query_norm = observed.mean_query_norm;
    let max_query_norm = observed.max_query_norm.max(mean_query_norm);

    let data_sample = sample_indices(rng, entries.len(), SAMPLE_DATA);
    // Synthetic queries: sampled data directions rescaled to the observed
    // mean query norm (zero vectors stay zero).
    let queries: Vec<DenseVector> = sample_indices(rng, entries.len(), SAMPLE_QUERIES)
        .into_iter()
        .map(|i| {
            let v = &entries[i].1;
            let norm = v.norm();
            if norm < 1e-12 {
                v.clone()
            } else {
                v.scaled(mean_query_norm / norm)
            }
        })
        .collect();
    let mut sampled_inner_products = Vec::with_capacity(data_sample.len() * queries.len());
    for &i in &data_sample {
        for q in &queries {
            sampled_inner_products.push(entries[i].1.dot(q)?);
        }
    }
    let (mut promise, mut output) = (0usize, 0usize);
    for &ip in &sampled_inner_products {
        if spec.satisfies_promise(ip) {
            promise += 1;
        }
        if spec.acceptable(ip) {
            output += 1;
        }
    }
    let pairs = sampled_inner_products.len().max(1) as f64;
    Ok(WorkloadStats {
        data_count: entries.len(),
        query_count: observed.queries as usize,
        kept_data_count: entries.len(),
        kept_query_count: observed.queries as usize,
        dim,
        max_data_norm,
        mean_data_norm,
        max_query_norm,
        mean_query_norm,
        promise_density: promise as f64 / pairs,
        output_density: output as f64 / pairs,
        sampled_inner_products,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_core::asymmetric::AlshParams;
    use ips_core::problem::{JoinSpec, JoinVariant};
    use ips_store::{IndexFamily, ShardedConfig};

    fn spec() -> JoinSpec {
        JoinSpec::new(0.5, 0.8, JoinVariant::Signed).unwrap()
    }

    fn data(n: usize, dim: usize, scale: f64) -> Vec<DenseVector> {
        (0..n)
            .map(|i| {
                let mut v = vec![0.1 * scale; dim];
                v[i % dim] = scale;
                DenseVector::from(&v[..])
            })
            .collect()
    }

    fn drive(index: &ShardedServingIndex, norm: f64, count: usize) {
        let dim = 4;
        let queries: Vec<DenseVector> = (0..count)
            .map(|i| {
                let mut v = vec![0.0; dim];
                v[i % dim] = norm;
                DenseVector::from(&v[..])
            })
            .collect();
        index.query(&queries).unwrap();
    }

    #[test]
    fn drift_walks_through_hysteresis_and_migrates_to_the_planned_family() {
        // A tiny index deliberately built on the wrong structure: at 16
        // vectors the cost model prices ALSH's table probes far above the
        // cheap alternatives, so the first re-plan must migrate off it. The
        // declared query radius covers both traffic phases (ALSH rejects
        // out-of-radius queries outright).
        let alsh = AlshParams {
            bits_per_table: 4,
            tables: 8,
            query_radius: 4.0,
            ..AlshParams::default()
        };
        let index = Arc::new(
            ShardedServingIndex::build(
                data(16, 4, 0.7),
                spec(),
                IndexConfig::Alsh(alsh),
                ShardedConfig::default(),
            )
            .unwrap(),
        );
        let mut controller = AdaptiveController::new(Arc::clone(&index), AdaptiveConfig::default());
        assert_eq!(
            controller.config().planner.alsh,
            alsh,
            "params seeded from the live index"
        );

        // Idle window: nothing to compare.
        assert_eq!(
            controller.check().unwrap(),
            ControlDecision::InsufficientWindow { queries: 0 }
        );
        // First sufficient window locks the baseline.
        drive(&index, 1.0, 16);
        assert_eq!(
            controller.check().unwrap(),
            ControlDecision::BaselineEstablished
        );
        // Same traffic again: steady, no streak.
        drive(&index, 1.0, 16);
        match controller.check().unwrap() {
            ControlDecision::Steady { drift } => assert!(drift < 0.3, "drift {drift}"),
            other => panic!("expected steady, got {other:?}"),
        }
        assert!(index.drift_score() < 0.3);
        // The workload shifts: query norms triple. One drifted window is
        // hysteresis-pending, the second triggers the planner.
        drive(&index, 3.0, 16);
        match controller.check().unwrap() {
            ControlDecision::Pending { drift, streak } => {
                assert!(drift >= 0.3, "drift {drift}");
                assert_eq!(streak, 1);
                assert_eq!(
                    index.family(),
                    IndexFamily::Alsh,
                    "hysteresis holds the swap back"
                );
            }
            other => panic!("expected pending, got {other:?}"),
        }
        drive(&index, 3.0, 16);
        let report = match controller.check().unwrap() {
            ControlDecision::Migrated { drift, report } => {
                assert!(drift >= 0.3);
                report
            }
            other => panic!("expected migration, got {other:?}"),
        };
        assert_eq!(report.from, IndexFamily::Alsh);
        assert_ne!(
            report.to,
            IndexFamily::Alsh,
            "must migrate off the drifted structure"
        );
        assert_eq!(report.entries, 16);
        assert_eq!(index.family(), report.to);
        assert_eq!(index.migrations(), 1);
        assert!(
            index.drift_score() >= 0.3,
            "gauge keeps the triggering score"
        );

        // The baseline re-anchored on the post-shift workload: the same
        // traffic is steady again, not a migration loop.
        drive(&index, 3.0, 16);
        match controller.check().unwrap() {
            ControlDecision::Steady { drift } => assert!(drift < 0.3, "drift {drift}"),
            other => panic!("expected steady after re-anchor, got {other:?}"),
        }
    }

    #[test]
    fn replanning_onto_the_current_family_swaps_nothing() {
        // Start on the structure the planner prefers for this workload (at 16
        // vectors, the exact scan): the drift-triggered re-plan re-chooses it
        // and must not rebuild anything.
        let index = Arc::new(
            ShardedServingIndex::build(
                data(16, 4, 0.7),
                spec(),
                IndexConfig::Brute,
                ShardedConfig::default(),
            )
            .unwrap(),
        );
        let mut controller = AdaptiveController::new(Arc::clone(&index), AdaptiveConfig::default());
        drive(&index, 1.0, 16);
        controller.check().unwrap();
        drive(&index, 3.0, 16);
        controller.check().unwrap();
        drive(&index, 3.0, 16);
        match controller.check().unwrap() {
            ControlDecision::Replanned { choice, .. } => {
                assert_eq!(choice, IndexFamily::Brute)
            }
            other => panic!("expected replan, got {other:?}"),
        }
        assert_eq!(index.migrations(), 0);
    }

    #[test]
    fn spawned_controller_stops_cleanly() {
        let index = Arc::new(
            ShardedServingIndex::build(
                data(8, 4, 0.7),
                spec(),
                IndexConfig::Brute,
                ShardedConfig::default(),
            )
            .unwrap(),
        );
        let handle = AdaptiveController::new(index, AdaptiveConfig::default()).spawn();
        handle.stop();
    }

    #[test]
    fn synthesised_stats_mirror_the_observed_window() {
        let entries: Vec<(u64, DenseVector)> = data(6, 4, 0.5)
            .into_iter()
            .enumerate()
            .map(|(i, v)| (i as u64, v))
            .collect();
        let observed = ObservedWorkload {
            queries: 10,
            batches: 2,
            hits: 5,
            mean_query_norm: 2.0,
            max_query_norm: 2.5,
            mean_batch_size: 5.0,
            inserts: 0,
            deletes: 0,
            live: 6,
        };
        let mut rng = StdRng::seed_from_u64(7);
        let stats = observed_stats(&mut rng, &entries, &observed, spec()).unwrap();
        assert_eq!(stats.data_count, 6);
        assert_eq!(stats.query_count, 10);
        assert_eq!(stats.dim, 4);
        assert!((stats.mean_query_norm - 2.0).abs() < 1e-9);
        assert!((stats.max_query_norm - 2.5).abs() < 1e-9);
        // Every synthetic query carries the observed mean norm.
        assert_eq!(stats.sampled_inner_products.len(), 6 * 6);
        assert!(stats.promise_density >= stats.output_density);
        let err = observed_stats(&mut rng, &[], &observed, spec());
        assert!(err.is_err(), "empty entry set must be rejected");
    }
}

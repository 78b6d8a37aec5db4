//! Drifting serve-time workloads: scenarios whose statistics *change mid-run*,
//! so a plan that was right at build time stops being right while serving.
//!
//! The adversarial suite ([`ips_datagen::adversarial`]) parks static workloads in
//! the regimes where each join strategy wins; these scenarios *move between*
//! those regimes over the course of one serving session. They exist to
//! exercise the closed-loop adaptive controller (`ips-adapt`): each one opens
//! in a regime the build-time planner commits to and then drifts — query
//! norms shift, the live set churns — until a re-plan on fresh statistics
//! prefers a different structure.
//!
//! Two scenarios, matching the serving roadmap:
//!
//! * [`streaming_join`] — a sliding-window streaming join: every step inserts
//!   fresh vectors, expires the oldest, and queries the live window, while
//!   the stream's norm scale ramps between two levels (the *data* side
//!   drifts under the plan);
//! * [`recommender_shift`] — a recommender-style top-k serve over a fixed
//!   latent-factor catalogue whose *query* population shifts mid-run from
//!   cautious low-engagement users to high-norm power users.

use ips_datagen::latent::{LatentFactorConfig, LatentFactorModel};
use ips_datagen::{DatagenError, Result};
use ips_linalg::random::gaussian_vector;
use ips_linalg::DenseVector;
use rand::Rng;

/// Tuning of the sliding-window streaming-join scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingJoinConfig {
    /// Vector dimensionality.
    pub dim: usize,
    /// Live-set size: inserts beyond this expire the oldest vectors
    /// (the sliding window).
    pub window: usize,
    /// Stream steps generated.
    pub steps: usize,
    /// Vectors inserted per step (the same number expires once the window is
    /// full).
    pub inserts_per_step: usize,
    /// Query vectors issued per step.
    pub queries_per_step: usize,
    /// Norm scale of the stream at step 0.
    pub scale_start: f64,
    /// Norm scale of the stream at the final step; the ramp between the two
    /// is what drags the live window's statistics away from the build-time
    /// plan as old vectors expire.
    pub scale_end: f64,
}

impl Default for StreamingJoinConfig {
    fn default() -> Self {
        Self {
            dim: 16,
            window: 512,
            steps: 24,
            inserts_per_step: 64,
            queries_per_step: 32,
            scale_start: 0.3,
            scale_end: 0.95,
        }
    }
}

/// One tick of the stream: what to insert, how many of the oldest live
/// vectors to expire, and the queries to answer against the updated window.
#[derive(Debug, Clone)]
pub struct StreamStep {
    /// Fresh vectors entering the window this step.
    pub inserts: Vec<DenseVector>,
    /// How many of the *oldest* live vectors leave the window this step
    /// (0 until the window is full).
    pub expire: usize,
    /// Queries issued against the window after the churn, drawn at the same
    /// norm scale as this step's inserts.
    pub queries: Vec<DenseVector>,
}

/// A generated streaming-join scenario: the initial window plus the step
/// sequence, with the `(cs, s)` parameters the serve should run with.
#[derive(Debug, Clone)]
pub struct StreamingJoinScenario {
    /// Vectors the serving index opens with (one full window at
    /// [`StreamingJoinConfig::scale_start`]).
    pub initial: Vec<DenseVector>,
    /// The churn/query timeline.
    pub steps: Vec<StreamStep>,
    /// The promise threshold `s`.
    pub threshold: f64,
    /// The approximation factor `c`.
    pub approximation: f64,
}

/// Directions on the unit sphere scaled into the ball at `scale`, with a mild
/// common component so above-threshold partners exist at every scale.
fn scaled_cloud<R: Rng + ?Sized>(
    rng: &mut R,
    count: usize,
    dim: usize,
    scale: f64,
) -> Result<Vec<DenseVector>> {
    (0..count)
        .map(|_| {
            let mut v = gaussian_vector(rng, dim).scaled(0.35);
            // Common component: index 0 anchors a shared direction.
            let mut anchor = vec![0.0; dim];
            anchor[0] = 1.0;
            v.axpy(1.0, &DenseVector::new(anchor))?;
            Ok(v.normalized()?.scaled(scale))
        })
        .collect()
}

/// Generates the sliding-window streaming-join scenario.
///
/// The build-time plan sees a full window of low-norm vectors
/// ([`StreamingJoinConfig::scale_start`]); the stream then ramps linearly to
/// [`StreamingJoinConfig::scale_end`], and the sliding window forgets the old
/// distribution at churn speed — mean data norm, promise density and output
/// density all drift while queries keep arriving.
pub fn streaming_join<R: Rng + ?Sized>(
    rng: &mut R,
    config: StreamingJoinConfig,
) -> Result<StreamingJoinScenario> {
    if config.window == 0
        || config.steps == 0
        || config.inserts_per_step == 0
        || config.dim < 2
        || !(config.scale_start > 0.0)
        || !(config.scale_end > 0.0)
        || config.scale_start > 1.0
        || config.scale_end > 1.0
    {
        return Err(DatagenError::InvalidParameter {
            name: "config",
            reason: format!(
                "streaming join needs window ≥ 1, steps ≥ 1, inserts_per_step ≥ 1, dim ≥ 2 \
                 and norm scales in (0, 1], got {config:?}"
            ),
        });
    }
    let initial = scaled_cloud(rng, config.window, config.dim, config.scale_start)?;
    let mut live = config.window;
    let mut steps = Vec::with_capacity(config.steps);
    for step in 0..config.steps {
        let t = if config.steps == 1 {
            1.0
        } else {
            step as f64 / (config.steps - 1) as f64
        };
        let scale = config.scale_start + t * (config.scale_end - config.scale_start);
        let inserts = scaled_cloud(rng, config.inserts_per_step, config.dim, scale)?;
        live += inserts.len();
        let expire = live.saturating_sub(config.window);
        live -= expire;
        let queries = scaled_cloud(rng, config.queries_per_step, config.dim, scale)?;
        steps.push(StreamStep {
            inserts,
            expire,
            queries,
        });
    }
    Ok(StreamingJoinScenario {
        initial,
        steps,
        // The shared anchor direction puts like-scaled pairs near scale²;
        // the threshold sits below the *end*-scale pairs and above the
        // start-scale ones, so the output density itself drifts.
        threshold: 0.5,
        approximation: 0.8,
    })
}

/// Tuning of the recommender query-shift scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecommenderShiftConfig {
    /// Catalogue size (data vectors).
    pub items: usize,
    /// Latent dimensionality.
    pub dim: usize,
    /// Queries in each phase.
    pub queries_per_phase: usize,
    /// Popularity skew of the catalogue (lognormal σ of item norms).
    pub popularity_sigma: f64,
    /// Norm multiplier of the second phase's users relative to the first —
    /// the mid-run query-distribution shift.
    pub shift_scale: f64,
    /// Partners requested per query in the top-k serve.
    pub k: usize,
}

impl Default for RecommenderShiftConfig {
    fn default() -> Self {
        Self {
            items: 1000,
            dim: 24,
            queries_per_phase: 256,
            popularity_sigma: 0.5,
            shift_scale: 3.0,
            k: 4,
        }
    }
}

/// A generated recommender scenario: one fixed catalogue, two query phases
/// drawn from populations with different norm scales.
#[derive(Debug, Clone)]
pub struct RecommenderShiftScenario {
    /// The item catalogue the index is built over (fixed for the whole run).
    pub items: Vec<DenseVector>,
    /// Phase-one queries: the population the build-time plan is costed on.
    pub phase_one: Vec<DenseVector>,
    /// Phase-two queries: the same taste structure at
    /// [`RecommenderShiftConfig::shift_scale`] times the norm.
    pub phase_two: Vec<DenseVector>,
    /// Partners requested per query.
    pub k: usize,
    /// The promise threshold `s` (set from the phase-one score distribution).
    pub threshold: f64,
    /// The approximation factor `c`.
    pub approximation: f64,
}

/// Generates the recommender-style top-k scenario with a mid-run query shift.
///
/// Both phases share the latent taste structure — phase two is the same user
/// population engaging [`RecommenderShiftConfig::shift_scale`] times harder
/// (scaled norms), which multiplies every score and drags the observed query
/// norms and output density away from the phase-one statistics while the
/// catalogue stays fixed.
pub fn recommender_shift<R: Rng + ?Sized>(
    rng: &mut R,
    config: RecommenderShiftConfig,
) -> Result<RecommenderShiftScenario> {
    if !(config.shift_scale > 0.0) || config.k == 0 || config.queries_per_phase == 0 {
        return Err(DatagenError::InvalidParameter {
            name: "config",
            reason: format!(
                "recommender shift needs shift_scale > 0, k ≥ 1 and queries_per_phase ≥ 1, \
                 got {config:?}"
            ),
        });
    }
    let model = LatentFactorModel::generate(
        rng,
        LatentFactorConfig {
            items: config.items,
            users: config.queries_per_phase,
            dim: config.dim,
            popularity_sigma: config.popularity_sigma,
        },
    )?;
    let phase_one = model.users().to_vec();
    let phase_two: Vec<DenseVector> = phase_one
        .iter()
        .map(|u| u.scaled(config.shift_scale))
        .collect();
    // Anchor the threshold at the phase-one median best score, so phase one
    // serves a selective workload and phase two clears it broadly.
    let threshold = model
        .best_ip_quantile(0.5)
        .ok_or_else(|| DatagenError::InvalidParameter {
            name: "items",
            reason: "catalogue produced no best-score distribution".into(),
        })?
        .max(1e-6);
    Ok(RecommenderShiftScenario {
        items: model.items().to_vec(),
        phase_one,
        phase_two,
        k: config.k,
        threshold,
        approximation: 0.8,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xD21F7)
    }

    #[test]
    fn streaming_window_stays_balanced_and_norms_ramp() {
        let config = StreamingJoinConfig {
            window: 96,
            steps: 6,
            inserts_per_step: 32,
            queries_per_step: 8,
            ..StreamingJoinConfig::default()
        };
        let scenario = streaming_join(&mut rng(), config).unwrap();
        assert_eq!(scenario.initial.len(), 96);
        assert_eq!(scenario.steps.len(), 6);
        // Replaying insert/expire keeps the live count at the window size.
        let mut live = scenario.initial.len();
        for step in &scenario.steps {
            live += step.inserts.len();
            live -= step.expire;
            assert!(live <= config.window, "window overflow: {live}");
        }
        assert_eq!(live, config.window);
        let mean_norm =
            |vs: &[DenseVector]| vs.iter().map(|v| v.norm()).sum::<f64>() / vs.len() as f64;
        let first = mean_norm(&scenario.steps[0].inserts);
        let last = mean_norm(&scenario.steps[5].inserts);
        assert!(
            (first - config.scale_start).abs() < 0.05 && (last - config.scale_end).abs() < 0.05,
            "norm ramp broken: {first} → {last}"
        );
        // Every vector stays LSH-eligible (inside the unit ball).
        assert!(scenario
            .initial
            .iter()
            .chain(scenario.steps.iter().flat_map(|s| &s.inserts))
            .all(|v| v.norm() <= 1.0 + 1e-9));
        // End-scale pairs clear the threshold, start-scale pairs do not:
        // the output density drifts with the window.
        let late = &scenario.steps[5];
        let hot = late
            .inserts
            .iter()
            .flat_map(|p| late.queries.iter().map(move |q| p.dot(q).unwrap()))
            .filter(|ip| *ip >= scenario.approximation * scenario.threshold)
            .count();
        assert!(hot > 0, "no end-phase pair clears cs");
        let early = &scenario.steps[0];
        let cold = early
            .inserts
            .iter()
            .flat_map(|p| early.queries.iter().map(move |q| p.dot(q).unwrap()))
            .filter(|ip| *ip >= scenario.threshold)
            .count();
        assert_eq!(cold, 0, "start-phase pairs must sit below s");
    }

    #[test]
    fn streaming_rejects_degenerate_configs() {
        for bad in [
            StreamingJoinConfig {
                window: 0,
                ..StreamingJoinConfig::default()
            },
            StreamingJoinConfig {
                scale_end: 1.5,
                ..StreamingJoinConfig::default()
            },
            StreamingJoinConfig {
                scale_start: 0.0,
                ..StreamingJoinConfig::default()
            },
        ] {
            assert!(streaming_join(&mut rng(), bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn recommender_phases_share_structure_but_shift_norms() {
        let config = RecommenderShiftConfig {
            items: 200,
            dim: 8,
            queries_per_phase: 64,
            shift_scale: 3.0,
            ..RecommenderShiftConfig::default()
        };
        let scenario = recommender_shift(&mut rng(), config).unwrap();
        assert_eq!(scenario.items.len(), 200);
        assert_eq!(scenario.phase_one.len(), 64);
        assert_eq!(scenario.phase_two.len(), 64);
        assert!(scenario.threshold > 0.0);
        for (one, two) in scenario.phase_one.iter().zip(&scenario.phase_two) {
            assert!(
                (two.norm() - 3.0 * one.norm()).abs() < 1e-9,
                "phase two is phase one rescaled"
            );
        }
        // The shift multiplies every score, so phase two clears the
        // phase-one-anchored threshold far more often.
        let hits = |queries: &[DenseVector]| {
            queries
                .iter()
                .filter(|q| {
                    scenario
                        .items
                        .iter()
                        .any(|p| p.dot(q).unwrap() >= scenario.threshold)
                })
                .count()
        };
        let one = hits(&scenario.phase_one);
        let two = hits(&scenario.phase_two);
        assert!(two > one, "shifted phase must hit more ({one} vs {two})");
        assert!(recommender_shift(
            &mut rng(),
            RecommenderShiftConfig {
                shift_scale: 0.0,
                ..config
            }
        )
        .is_err());
    }
}

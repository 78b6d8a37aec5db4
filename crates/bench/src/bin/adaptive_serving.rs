//! Adaptive serving: a frozen build-time plan vs the closed-loop controller
//! (`ips-adapt`) on workloads that drift mid-run — the acceptance measurement
//! for the adaptive subsystem.
//!
//! The paper's planning premise is that no single strategy dominates: the
//! right structure depends on workload statistics. This binary pins the
//! serve-time corollary — when those statistics *drift*, the build-time plan
//! stops being right — with two scenarios from `ips_datagen::drift`:
//!
//! 1. **streaming** — a sliding-window streaming join whose norm scale ramps
//!    from 0.3 to 0.95. The build-time planner opens on the asymmetric-LSH
//!    index (low inner products make its buckets selective); as the window
//!    churns toward high-norm, anchor-aligned vectors the buckets degenerate
//!    toward full scans and a re-plan prefers the exact scan. The controller
//!    must walk baseline → pending → migrated and the migrated index must
//!    beat the frozen one on the post-drift traffic.
//! 2. **recommender** — a fixed latent-factor catalogue served top-k whose
//!    query population triples its norms mid-run. The drift is real and the
//!    controller must *detect* it, but a re-plan on fresh statistics
//!    re-confirms the exact scan — the loop must **not** migrate. This is the
//!    stability control: hysteresis plus re-planning without a gratuitous
//!    swap, and answers bit-identical to the frozen path throughout.
//!
//! Both arms assert the decision sequence, that migration count matches the
//! story, and that the adaptive index's final answers are bit-identical to a
//! fresh build of the same strategy over the same live set (the migration
//! correctness oracle). The headline walls land in the `--json` report (and
//! from there in `BENCH_BASELINE.json`), so a PR that breaks the control loop
//! or makes migration regress fails `scripts/check_bench.sh`.

use ips_adapt::{plan_index_config, AdaptiveConfig, AdaptiveController, ControlDecision};
use ips_bench::{fmt, render_table, JsonReporter, Timer};
use ips_core::asymmetric::AlshParams;
use ips_core::planner::{JoinPlanner, PlannerConfig, Strategy};
use ips_core::problem::{JoinSpec, JoinVariant, MatchPair};
use ips_datagen::{
    recommender_shift, streaming_join, RecommenderShiftConfig, RecommenderShiftScenario,
    StreamingJoinConfig, StreamingJoinScenario,
};
use ips_linalg::DenseVector;
use ips_store::{IndexConfig, IndexFamily, ShardedConfig, ShardedServingIndex};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::sync::Arc;

/// Steps after which the adaptive run folds its telemetry window: one early
/// check to lock the baseline, one mid-ramp (first drifted window), one at
/// the end of the ramp (second drifted window → re-plan).
const STREAM_CHECKS: [usize; 3] = [0, 5, 11];

/// Interleaved best-of trials for the post-drift probe sweeps.
const TRIALS: usize = 3;
/// Probe sweeps per trial.
const REPS: usize = 4;

fn stream_planner_config() -> PlannerConfig {
    // Light ALSH tables: at the scenario's size eight 8-bit tables amortise
    // over a serve window, so the *selective* (low-norm) phase genuinely
    // belongs to the asymmetric-LSH index and the planner's opening choice
    // is honest — and the same tables degenerate once the ramp drags the
    // window's inner products up: every table then hands back most of the
    // window, eight gathers where the scan makes one pass. (Two tables were
    // enough while each candidate paid for a hash-set insert; gathered and
    // sorted, two degenerate tables cost no more than the scan.)
    PlannerConfig {
        alsh: AlshParams {
            bits_per_table: 8,
            tables: 8,
            ..AlshParams::default()
        },
        ..PlannerConfig::default()
    }
}

struct StreamRun {
    index: Arc<ShardedServingIndex>,
    decisions: Vec<ControlDecision>,
    serve_ns: u128,
}

/// Replays the full stream (inserts, expiries, query batches) against one
/// index; the adaptive run additionally folds the controller at
/// [`STREAM_CHECKS`]. Mutation order is identical for every caller, so two
/// runs always hold the same live set under the same external ids.
fn run_stream(
    scenario: &StreamingJoinScenario,
    spec: JoinSpec,
    initial: IndexConfig,
    adaptive: Option<AdaptiveConfig>,
) -> StreamRun {
    let index = Arc::new(
        ShardedServingIndex::build(
            scenario.initial.clone(),
            spec,
            initial,
            ShardedConfig::default(),
        )
        .expect("stream build"),
    );
    let mut controller = adaptive.map(|config| AdaptiveController::new(Arc::clone(&index), config));
    let mut ids: VecDeque<u64> = (0..scenario.initial.len() as u64).collect();
    let mut decisions = Vec::new();
    let mut serve_ns = 0u128;
    for (i, step) in scenario.steps.iter().enumerate() {
        for v in &step.inserts {
            ids.push_back(index.insert(v.clone()).expect("stream insert"));
        }
        for _ in 0..step.expire {
            let id = ids.pop_front().expect("expiring id is live");
            index.delete(id).expect("stream expire");
        }
        let timer = Timer::start();
        let answers = index.query(&step.queries).expect("stream batch");
        serve_ns += timer.elapsed_ns();
        drop(answers);
        if let Some(controller) = controller.as_mut() {
            if STREAM_CHECKS.contains(&i) {
                decisions.push(controller.check().expect("control check"));
            }
        }
    }
    StreamRun {
        index,
        decisions,
        serve_ns,
    }
}

/// Interleaved best-of-[`TRIALS`] wall for `REPS` sweeps of `queries`,
/// asserting every sweep repeats the first answer bit-for-bit.
fn probe(index: &ShardedServingIndex, queries: &[DenseVector]) -> (u128, Vec<MatchPair>) {
    let oracle = index.query(queries).expect("probe warm-up");
    let mut best = u128::MAX;
    for _ in 0..TRIALS {
        let timer = Timer::start();
        let mut pairs = Vec::new();
        for _ in 0..REPS {
            pairs = index.query(queries).expect("probe sweep");
        }
        best = best.min(timer.elapsed_ns());
        assert_eq!(pairs, oracle, "probe answers drifted between sweeps");
    }
    (best, oracle)
}

fn streaming_arm(json: &mut JsonReporter) -> (u128, u128) {
    let mut rng = StdRng::seed_from_u64(0xAD_5E81);
    let config = StreamingJoinConfig {
        dim: 3,
        window: 1024,
        steps: 12,
        inserts_per_step: 256,
        queries_per_step: 1024,
        scale_start: 0.3,
        scale_end: 0.95,
    };
    let scenario = streaming_join(&mut rng, config).expect("valid streaming scenario");
    let spec = JoinSpec::new(
        scenario.threshold,
        scenario.approximation,
        JoinVariant::Signed,
    )
    .expect("valid spec");

    // The build-time plan, costed on the opening window — the plan a
    // non-adaptive serve stays frozen on.
    let planner = JoinPlanner::new(stream_planner_config(), Default::default());
    let plan = planner
        .plan(
            &mut rng,
            &scenario.initial,
            &scenario.steps[0].queries,
            spec,
        )
        .expect("build-time plan");
    println!(
        "streaming: build-time plan = {} (opening window scale {})",
        plan.choice.name(),
        config.scale_start
    );
    print!("{}", plan.explain());
    assert_eq!(
        plan.choice,
        Strategy::Alsh,
        "the low-norm opening window must be asymmetric LSH's turf"
    );
    let initial = plan_index_config(&plan);

    let adaptive_config = AdaptiveConfig {
        planner: stream_planner_config(),
        seed: 0xBE7A,
        ..AdaptiveConfig::default()
    };
    let frozen = run_stream(&scenario, spec, initial, None);
    let adaptive = run_stream(&scenario, spec, initial, Some(adaptive_config));

    // The controller's walk: lock baseline, one drifted window (hysteresis
    // holds), second drifted window → re-plan → migrate off symmetric.
    assert_eq!(adaptive.decisions.len(), STREAM_CHECKS.len());
    assert!(
        matches!(adaptive.decisions[0], ControlDecision::BaselineEstablished),
        "first window locks the baseline, got {:?}",
        adaptive.decisions[0]
    );
    assert!(
        matches!(
            adaptive.decisions[1],
            ControlDecision::Pending { streak: 1, .. }
        ),
        "mid-ramp window must count toward hysteresis, got {:?}",
        adaptive.decisions[1]
    );
    let report = match &adaptive.decisions[2] {
        ControlDecision::Migrated { report, drift } => {
            assert!(*drift >= 0.3, "migration below the drift threshold");
            *report
        }
        other => panic!("end-of-ramp check must migrate, got {other:?}"),
    };
    assert_eq!(report.from, IndexFamily::Alsh);
    assert_eq!(
        report.to,
        IndexFamily::Brute,
        "degenerate buckets re-plan onto the exact scan"
    );
    assert_eq!(report.entries, config.window, "no entry lost in the swap");
    assert_eq!(adaptive.index.migrations(), 1);
    assert_eq!(adaptive.index.family(), IndexFamily::Brute);
    assert_eq!(frozen.index.family(), IndexFamily::Alsh);
    assert!(
        report.swap_ns < 250_000_000,
        "atomic swap paused serving for {} ms",
        report.swap_ns / 1_000_000
    );

    // Same mutation history → same live set; the strategies differ, the
    // content must not.
    assert_eq!(frozen.index.live_entries(), adaptive.index.live_entries());

    // Post-drift traffic: the migrated exact scan vs the frozen symmetric
    // index whose buckets the ramp degenerated.
    let post_drift = &scenario.steps.last().expect("steps").queries;
    let (frozen_ns, _) = probe(&frozen.index, post_drift);
    let (adaptive_ns, adaptive_answers) = probe(&adaptive.index, post_drift);

    // Migration correctness oracle: a fresh build of the migrated-to
    // strategy over the same live set answers bit-identically.
    let fresh = ShardedServingIndex::from_entries(
        adaptive.index.live_entries(),
        adaptive.index.next_id(),
        spec,
        adaptive.index.index_config(),
        ShardedConfig::default(),
    )
    .expect("fresh oracle build");
    assert_eq!(
        fresh.query(post_drift).expect("oracle batch"),
        adaptive_answers,
        "migrated serving must be bit-identical to a fresh build"
    );

    let speedup = frozen_ns as f64 / adaptive_ns.max(1) as f64;
    println!(
        "{}",
        render_table(
            &[
                "path",
                "post-drift wall ms",
                "ns / query",
                "full-run serve ms"
            ],
            &[
                vec![
                    format!("frozen ({})", frozen.index.family()),
                    fmt(frozen_ns as f64 / 1e6, 2),
                    (frozen_ns / (REPS * post_drift.len()) as u128).to_string(),
                    fmt(frozen.serve_ns as f64 / 1e6, 2),
                ],
                vec![
                    format!("adaptive ({})", adaptive.index.family()),
                    fmt(adaptive_ns as f64 / 1e6, 2),
                    (adaptive_ns / (REPS * post_drift.len()) as u128).to_string(),
                    fmt(adaptive.serve_ns as f64 / 1e6, 2),
                ],
            ]
        )
    );
    println!(
        "streaming: migration {} → {} in {:.2} ms (swap {} µs), post-drift speedup {}x\n",
        report.from,
        report.to,
        report.build_ns as f64 / 1e6,
        report.swap_ns / 1_000,
        fmt(speedup, 2)
    );
    assert!(
        adaptive_ns < frozen_ns,
        "the mid-run strategy flip must beat the frozen plan on post-drift \
         traffic ({adaptive_ns} ns vs {frozen_ns} ns)"
    );

    for (path, ns) in [("frozen", frozen_ns), ("adaptive", adaptive_ns)] {
        json.record(
            "adaptive_serving",
            &[
                ("scenario", "streaming".to_string()),
                ("path", path.to_string()),
                ("n", config.window.to_string()),
                ("dim", config.dim.to_string()),
                ("reps", REPS.to_string()),
                ("speedup", fmt(speedup, 2)),
            ],
            ns,
            0.0,
        );
    }
    (frozen_ns, adaptive_ns)
}

struct RecommenderRun {
    index: Arc<ShardedServingIndex>,
    transcript: Vec<MatchPair>,
    decisions: Vec<ControlDecision>,
}

/// Serves both phases of the recommender scenario in fixed chunks; the
/// adaptive run folds the controller after every chunk.
fn run_recommender(
    scenario: &RecommenderShiftScenario,
    spec: JoinSpec,
    adaptive: Option<AdaptiveConfig>,
) -> RecommenderRun {
    let index = Arc::new(
        ShardedServingIndex::build(
            scenario.items.clone(),
            spec,
            IndexConfig::Brute,
            ShardedConfig::default(),
        )
        .expect("recommender build"),
    );
    let mut controller = adaptive.map(|config| AdaptiveController::new(Arc::clone(&index), config));
    let mut transcript = Vec::new();
    let mut decisions = Vec::new();
    let phase_one: Vec<&[DenseVector]> = scenario.phase_one.chunks(128).collect();
    let phase_two: Vec<&[DenseVector]> = scenario.phase_two.chunks(86).collect();
    for chunk in phase_one.into_iter().chain(phase_two) {
        transcript.extend(index.query_top_k(chunk, scenario.k).expect("top-k batch"));
        if let Some(controller) = controller.as_mut() {
            decisions.push(controller.check().expect("control check"));
        }
    }
    RecommenderRun {
        index,
        transcript,
        decisions,
    }
}

fn recommender_arm(json: &mut JsonReporter) {
    let mut rng = StdRng::seed_from_u64(0xAD_0C4);
    let config = RecommenderShiftConfig::default();
    let scenario = recommender_shift(&mut rng, config).expect("valid recommender scenario");
    let spec = JoinSpec::new(
        scenario.threshold,
        scenario.approximation,
        JoinVariant::Signed,
    )
    .expect("valid spec");

    // The build-time planner opens on the exact scan: the catalogue's
    // mixed norms leave the LSH structures without enough of an edge at
    // this size, and the sketch's build never amortises over one phase.
    let planner = JoinPlanner::default();
    let plan = planner
        .plan(&mut rng, &scenario.items, &scenario.phase_one, spec)
        .expect("build-time plan");
    println!(
        "recommender: build-time plan = {} (threshold {})",
        plan.choice.name(),
        fmt(scenario.threshold, 3)
    );
    assert_eq!(plan.choice, Strategy::BruteForce);

    let adaptive_config = AdaptiveConfig {
        seed: 0x0C4B,
        ..AdaptiveConfig::default()
    };
    let frozen = run_recommender(&scenario, spec, None);
    let adaptive = run_recommender(&scenario, spec, Some(adaptive_config));

    // Phase one must stay quiet; the phase-two norm shift must be detected
    // and re-planned — but the re-plan confirms the exact scan, so the loop
    // must not swap anything.
    assert!(adaptive.decisions.len() >= 4);
    assert!(
        adaptive.decisions[..2].iter().all(|d| !matches!(
            d,
            ControlDecision::Replanned { .. } | ControlDecision::Migrated { .. }
        )),
        "phase one must not trigger the planner: {:?}",
        adaptive.decisions
    );
    let replans: Vec<&ControlDecision> = adaptive.decisions[2..]
        .iter()
        .filter(|d| {
            matches!(
                d,
                ControlDecision::Replanned { .. } | ControlDecision::Migrated { .. }
            )
        })
        .collect();
    assert_eq!(
        replans.len(),
        1,
        "the shift must consult the planner exactly once: {:?}",
        adaptive.decisions
    );
    assert!(
        matches!(
            replans[0],
            ControlDecision::Replanned {
                choice: Strategy::BruteForce,
                ..
            }
        ),
        "fresh statistics must re-confirm the exact scan, got {:?}",
        replans[0]
    );
    assert_eq!(
        adaptive.index.migrations(),
        0,
        "a re-confirmed plan must not migrate"
    );
    assert_eq!(adaptive.index.family(), IndexFamily::Brute);
    assert_eq!(
        frozen.transcript, adaptive.transcript,
        "the control loop must not change a single top-k answer"
    );

    let (frozen_ns, _) = probe(&frozen.index, &scenario.phase_two);
    let (adaptive_ns, _) = probe(&adaptive.index, &scenario.phase_two);
    println!(
        "recommender: drift detected, plan re-confirmed, 0 migrations; \
         phase-two wall frozen {} ms vs adaptive {} ms\n",
        fmt(frozen_ns as f64 / 1e6, 2),
        fmt(adaptive_ns as f64 / 1e6, 2),
    );
    for (path, ns) in [("frozen", frozen_ns), ("adaptive", adaptive_ns)] {
        json.record(
            "adaptive_serving",
            &[
                ("scenario", "recommender".to_string()),
                ("path", path.to_string()),
                ("n", config.items.to_string()),
                ("dim", config.dim.to_string()),
                ("reps", REPS.to_string()),
                (
                    "speedup",
                    fmt(frozen_ns as f64 / adaptive_ns.max(1) as f64, 2),
                ),
            ],
            ns,
            0.0,
        );
    }
}

fn main() {
    let mut json = JsonReporter::from_env_args();
    println!("== adaptive_serving: frozen build-time plan vs closed-loop controller ==\n");
    let (frozen_ns, adaptive_ns) = streaming_arm(&mut json);
    recommender_arm(&mut json);
    println!(
        "PASS: drift detected, migration bounded and bit-identical to a fresh \
         build, post-drift speedup {}x",
        fmt(frozen_ns as f64 / adaptive_ns.max(1) as f64, 2)
    );
    json.finish().expect("write --json report");
}

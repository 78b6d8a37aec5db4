//! Planner calibration: fit the [`CostModel`] constants on real measurements.
//!
//! For every workload of the adversarial suite (`ips_datagen::adversarial`)
//! this binary:
//!
//! 1. plans it as [`JoinPlanner::plan`] does — [`WorkloadStats`] sampled from
//!    what the norm bound leaves the join to run on — and takes each strategy's
//!    *predicted flops* from the planner's own estimates (unit cost constants
//!    play no role in the flop counts);
//! 2. measures every eligible strategy end to end — build plus all queries —
//!    recording wall-clock time (the fastest of [`RUNS`] identical runs), QPS
//!    and recall against the exact join;
//! 3. fits one nanoseconds-per-flop constant per strategy by least squares
//!    through the origin over all (predicted flops, measured ns) points;
//! 4. re-plans every workload under the fitted model and checks the pick
//!    against the measured runtimes: the chosen strategy must be within 20%
//!    (plus [`TIMER_RESOLUTION_NS`]) of the empirically fastest one (the
//!    planner acceptance criterion).
//!
//! The fitted constants are printed in copy-pasteable form; they are the
//! source of [`CostModel::default`]. Arguments (all optional, `key=value`):
//! `n=`, `m=`, `dim=` scale the suite, `seed=` reseeds it.
//!
//! [`WorkloadStats`]: ips_core::planner::WorkloadStats

use ips_bench::{fmt, render_table, Timer};
use ips_core::planner::{CostModel, IndexFamily, JoinPlan, JoinPlanner, StrategyEstimate};
use ips_core::problem::{evaluate_join, JoinSpec, JoinVariant};
use ips_datagen::adversarial::{planner_suite, AdversarialScale, PlannerWorkload};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs per (workload, strategy) point; the fastest is kept. Two strategies can
/// be a few percent apart (below its cut-off the sketch tree *is* a scan), and a
/// single run on a shared machine swings by more than the 20% band.
const RUNS: usize = 5;

/// What one timed join resolves to on a shared machine. The `tiny` workload's
/// scan and its root-leaf sketch tree both finish in ~30 µs; which of the two
/// reads lower there is the scheduler's doing, not the planner's.
const TIMER_RESOLUTION_NS: f64 = 50_000.0;

/// One measured (workload, strategy) point.
struct Measurement {
    workload: String,
    strategy: IndexFamily,
    flops: f64,
    elapsed_ns: f64,
    qps: f64,
    recall: f64,
    valid: bool,
}

fn spec_of(w: &PlannerWorkload) -> JoinSpec {
    let variant = if w.unsigned {
        JoinVariant::Unsigned
    } else {
        JoinVariant::Signed
    };
    JoinSpec::new(w.threshold, w.approximation, variant).expect("suite specs are valid")
}

/// Runs the structure `estimate` costed in `plan` end to end and measures it.
fn measure(
    w: &PlannerWorkload,
    plan: &JoinPlan,
    estimate: &StrategyEstimate,
    seed: u64,
) -> Option<Measurement> {
    if !estimate.eligible {
        return None;
    }
    let mut forced = plan.clone();
    forced.choice = estimate.config;
    let run = || {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Timer::start();
        let pairs = forced
            .execute(&mut rng, &w.data, &w.queries)
            .expect("suite workloads execute");
        (t.elapsed_ms() * 1e6, pairs)
    };
    let (mut elapsed_ns, pairs) = run();
    for _ in 1..RUNS {
        elapsed_ns = elapsed_ns.min(run().0);
    }
    let (recall, valid) =
        evaluate_join(&w.data, &w.queries, &plan.spec, &pairs).expect("evaluation runs");
    Some(Measurement {
        workload: w.name.to_string(),
        strategy: estimate.config.family(),
        flops: estimate.flops,
        elapsed_ns,
        qps: w.queries.len() as f64 / (elapsed_ns / 1e9).max(1e-12),
        recall,
        valid,
    })
}

/// Least squares through the origin: the `ns/flop` constant minimising
/// `Σ (t_i − u·f_i)²` over the strategy's measurements.
fn fit(measurements: &[Measurement], strategy: IndexFamily) -> Option<f64> {
    let points: Vec<&Measurement> = measurements
        .iter()
        .filter(|m| m.strategy == strategy && m.flops > 0.0)
        .collect();
    if points.is_empty() {
        return None;
    }
    let num: f64 = points.iter().map(|m| m.elapsed_ns * m.flops).sum();
    let den: f64 = points.iter().map(|m| m.flops * m.flops).sum();
    (den > 0.0).then(|| num / den)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    const KEYS: [&str; 4] = ["n=", "m=", "dim=", "seed="];
    if let Some(bad) = args.iter().find(|a| !KEYS.iter().any(|k| a.starts_with(k))) {
        eprintln!("error: unrecognised argument `{bad}`; calibrate_planner takes n= m= dim= seed=");
        std::process::exit(2);
    }
    let get = |key: &str, default: u64| -> u64 {
        args.iter()
            .find_map(|a| a.strip_prefix(&format!("{key}=")))
            .map(|v| v.parse().expect("numeric argument"))
            .unwrap_or(default)
    };
    let scale = AdversarialScale {
        n: get("n", 2000) as usize,
        m: get("m", 400) as usize,
        dim: get("dim", 32) as usize,
    };
    let seed = get("seed", 0xCA11);

    println!(
        "== planner calibration: adversarial suite at n={} m={} dim={} ==\n",
        scale.n, scale.m, scale.dim
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let suite = planner_suite(&mut rng, scale).expect("suite generates");
    let planner = JoinPlanner::default();

    // Phase 1+2: plan (for flop predictions) and measure every strategy.
    let mut measurements = Vec::new();
    let mut plans = Vec::new();
    for w in &suite {
        let spec = spec_of(w);
        let plan = planner
            .plan(&mut rng, &w.data, &w.queries, spec)
            .expect("plan");
        for estimate in &plan.estimates {
            if let Some(m) = measure(w, &plan, estimate, seed ^ 0xBEEF) {
                measurements.push(m);
            }
        }
        plans.push(plan);
    }

    let rows: Vec<Vec<String>> = measurements
        .iter()
        .map(|m| {
            vec![
                m.workload.clone(),
                m.strategy.to_string(),
                fmt(m.flops / 1e6, 1),
                fmt(m.elapsed_ns / 1e6, 1),
                fmt(m.qps, 0),
                fmt(m.recall, 2),
                m.valid.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "workload",
                "strategy",
                "Mflops (pred)",
                "measured ms",
                "QPS",
                "recall",
                "valid"
            ],
            &rows
        )
    );

    // Phase 3: fit the per-strategy constants.
    let mut fitted = CostModel::default();
    for family in IndexFamily::ALL {
        if let Some(u) = fit(&measurements, family) {
            match family {
                IndexFamily::Brute => fitted.brute_ns_per_flop = u,
                IndexFamily::Alsh => fitted.alsh_ns_per_flop = u,
                IndexFamily::Symmetric => fitted.symmetric_ns_per_flop = u,
                IndexFamily::Sketch => fitted.sketch_ns_per_flop = u,
            }
        }
    }
    println!("\nfitted CostModel (ns per flop, least squares through the origin):");
    println!("    brute_ns_per_flop: {:.3},", fitted.brute_ns_per_flop);
    println!("    alsh_ns_per_flop: {:.3},", fitted.alsh_ns_per_flop);
    println!(
        "    symmetric_ns_per_flop: {:.3},",
        fitted.symmetric_ns_per_flop
    );
    println!("    sketch_ns_per_flop: {:.3},", fitted.sketch_ns_per_flop);

    // Phase 4: does the planner (with the fitted model) pick a strategy within
    // 20% of the measured best on every workload?
    println!("\nplanner picks under the fitted model:");
    let fitted_planner = JoinPlanner {
        model: fitted,
        ..JoinPlanner::default()
    };
    let mut rows = Vec::new();
    let mut failures = 0usize;
    for (w, plan) in suite.iter().zip(&plans) {
        let refit = fitted_planner.plan_from_stats(plan.stats.clone(), plan.spec);
        let of = |s: IndexFamily| {
            measurements
                .iter()
                .find(|m| m.workload == w.name && m.strategy == s)
                .map(|m| m.elapsed_ns)
        };
        let best = IndexFamily::ALL
            .into_iter()
            .filter_map(|s| of(s).map(|t| (s, t)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("every workload has a measurement");
        let picked = of(refit.choice.family()).expect("picked strategy was measured");
        let ok = picked <= 1.2 * best.1 + TIMER_RESOLUTION_NS;
        if !ok {
            failures += 1;
        }
        rows.push(vec![
            w.name.to_string(),
            refit.choice.family().to_string(),
            best.0.to_string(),
            fmt(picked / 1e6, 1),
            fmt(best.1 / 1e6, 1),
            if ok { "yes".into() } else { "NO".into() },
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "workload",
                "picked",
                "fastest",
                "picked ms",
                "fastest ms",
                "within 20%"
            ],
            &rows
        )
    );
    if failures == 0 {
        println!("\nall picks within 20% of the measured best ✓");
    } else {
        println!("\n{failures} pick(s) outside the 20% band — refit or revisit the flop model");
        std::process::exit(1);
    }
}

//! Planner calibration: fit the [`CostModel`] constants on real measurements.
//!
//! For every workload of the adversarial suite (`ips_datagen::adversarial`)
//! this binary:
//!
//! 1. plans it as [`JoinPlanner::plan`] does — [`WorkloadStats`] sampled from
//!    what the norm bound leaves the join to run on — and takes each strategy's
//!    *predicted work* and path from the planner's own estimates (the cost
//!    constants play no role in either);
//! 2. measures every eligible strategy end to end — build plus all queries —
//!    recording wall-clock time (the fastest of [`RUNS`] runs, taken round-robin
//!    over the workload's strategies, so host drift hits them alike) and recall
//!    against the exact join, and prints each row's path, so which LSH rows
//!    scanned is on the table;
//! 3. fits one nanoseconds-per-primitive constant at a time ([`fit`]) by relative
//!    least squares, on the time the other primitives leave; comparisons first,
//!    which part from a scan's multiply-adds only where they dominate;
//! 4. re-plans every workload under the fitted model and checks the pick
//!    against the measured runtimes: the chosen strategy must be within 20%
//!    (plus [`TIMER_RESOLUTION_NS`]) of the empirically fastest one (the
//!    planner acceptance criterion).
//!
//! The fitted constants are printed in copy-pasteable form; they are the
//! source of [`CostModel::default`]. Arguments (all optional, `key=value`):
//! `n=`, `m=`, `dim=` scale the suite, `seed=` reseeds it; an unknown key or a
//! non-numeric value prints the usage line and exits with code 2.
//!
//! [`WorkloadStats`]: ips_core::planner::WorkloadStats

use ips_bench::{fmt, render_table, Timer};
use ips_core::planner::{CostModel, IndexFamily, JoinPlan, JoinPlanner, StrategyEstimate, Work};
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

/// One measured (workload, strategy) point: the estimate, and the fastest run's
/// wall time, recall and validity.
struct Measurement {
    workload: &'static str,
    estimate: StrategyEstimate,
    elapsed_ns: f64,
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

/// Runs every eligible structure `plan` costed end to end and measures it: one run of
/// each in turn, [`RUNS`] times over, keeping each one's fastest and scoring its first.
fn measure(w: &PlannerWorkload, plan: &JoinPlan, seed: u64) -> Vec<Measurement> {
    let mut measured: Vec<Measurement> = Vec::new();
    for round in 0..RUNS {
        for (i, estimate) in plan.estimates.iter().filter(|e| e.eligible).enumerate() {
            let mut forced = plan.clone();
            forced.choice = estimate.config;
            let t = Timer::start();
            let pairs = forced.execute(&mut StdRng::seed_from_u64(seed), &w.data, &w.queries);
            let elapsed_ns = t.elapsed_ms() * 1e6;
            if round > 0 {
                measured[i].elapsed_ns = measured[i].elapsed_ns.min(elapsed_ns);
                continue;
            }
            let pairs = pairs.expect("suite workloads execute");
            let (recall, valid) =
                evaluate_join(&w.data, &w.queries, &plan.spec, &pairs).expect("evaluation runs");
            measured.push(Measurement {
                workload: w.name,
                estimate: estimate.clone(),
                elapsed_ns,
                recall,
                valid,
            });
        }
    }
    measured
}

/// A primitive of the model: its name, its count in a row's work and its constant.
type Primitive = (
    &'static str,
    fn(&Work) -> f64,
    fn(&mut CostModel) -> &mut f64,
);
/// The model's primitives, in the order [`fit`] takes them.
const PRIMITIVES: [Primitive; 4] = [
    ("comparison_ns", |w| w.comparisons, |c| &mut c.comparison_ns),
    ("score_f64_ns", |w| w.score_f64, |c| &mut c.score_f64_ns),
    ("column_ns", |w| w.columns, |c| &mut c.column_ns),
    ("plane_ns", |w| w.planes, |c| &mut c.plane_ns),
];

/// Fits the primitives in [`PRIMITIVES`] order, each by least squares of the relative
/// error through the origin (`u` minimising `Σ ((r_i − u·c_i) / (t_i + δ))²`, `t_i` the
/// row's time, `δ` [`TIMER_RESOLUTION_NS`]) over the rows it dominates — where, of the
/// primitives not yet fitted, it costs the most under the model as it stands — with
/// `r_i` the time the row's other primitives leave under that model. A primitive that
/// dominates no row keeps its default; the second value names the fitted ones.
fn fit(measurements: &[Measurement]) -> (CostModel, Vec<&'static str>) {
    let mut model = CostModel::default();
    let mut fitted = Vec::new();
    for (i, (name, count, constant)) in PRIMITIVES.into_iter().enumerate() {
        let (mut num, mut den) = (0.0, 0.0);
        for m in measurements {
            let work = &m.estimate.work;
            let c = count(work);
            let ours = c * *constant(&mut model);
            let dominates = PRIMITIVES[i..]
                .iter()
                .all(|(_, count, constant)| count(work) * *constant(&mut model) <= ours);
            if c > 0.0 && dominates {
                let weight = (m.elapsed_ns + TIMER_RESOLUTION_NS).powi(-2);
                num += weight * (m.elapsed_ns - (model.cost(work) - ours)) * c;
                den += weight * c * c;
            }
        }
        if den > 0.0 {
            *constant(&mut model) = num / den;
            fitted.push(name);
        }
    }
    (model, fitted)
}

fn main() {
    let mut values = [2000, 400, 32, 0xCA11];
    for arg in std::env::args().skip(1) {
        let parsed = arg.split_once('=').and_then(|(key, value)| {
            let key = ["n", "m", "dim", "seed"].iter().position(|k| *k == key)?;
            Some((key, value.parse().ok()?))
        });
        let Some((key, value)) = parsed else {
            eprintln!(
                "error: unrecognised argument `{arg}`; calibrate_planner takes n= m= dim= seed="
            );
            std::process::exit(2);
        };
        values[key] = value;
    }
    let [n, m, dim, seed] = values;
    let (scale, seed) = (AdversarialScale { n, m, dim }, seed as u64);

    println!(
        "== planner calibration: adversarial suite at n={} m={} dim={} ==\n",
        scale.n, scale.m, scale.dim
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let suite = planner_suite(&mut rng, scale).expect("suite generates");
    let planner = JoinPlanner::default();

    // Phase 1+2: plan (for the predicted work and path) and measure every strategy.
    let mut measurements = Vec::new();
    let mut plans = Vec::new();
    for w in &suite {
        let plan = planner
            .plan(&mut rng, &w.data, &w.queries, spec_of(w))
            .expect("plan");
        measurements.extend(measure(w, &plan, seed ^ 0xBEEF));
        plans.push(plan);
    }
    let rows: Vec<Vec<String>> = measurements
        .iter()
        .map(|m| {
            let e = &m.estimate;
            vec![
                m.workload.to_string(),
                e.config.family().to_string(),
                e.path.map_or("—".into(), |path| path.to_string()),
                fmt(e.cost_ns / 1e6, 1),
                fmt(m.elapsed_ns / 1e6, 1),
                fmt(m.recall, 2),
                m.valid.to_string(),
            ]
        })
        .collect();
    let headers = [
        "workload",
        "strategy",
        "path",
        "predicted ms",
        "measured ms",
        "recall",
        "valid",
    ];
    println!("{}", render_table(&headers, &rows));

    // Phase 3: fit the primitives' constants.
    let (mut fitted, fitted_names) = fit(&measurements);
    println!("\nfitted CostModel (ns per primitive, relative least squares through the origin):");
    for (name, _, constant) in PRIMITIVES {
        let value = *constant(&mut fitted);
        let note = if fitted_names.contains(&name) {
            ""
        } else {
            " // not fitted: it dominates no row"
        };
        println!("    {name}: {value:.3},{note}");
    }

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
                .find(|m| m.workload == w.name && m.estimate.config.family() == s)
                .map(|m| m.elapsed_ns)
        };
        let best = IndexFamily::ALL
            .into_iter()
            .filter_map(|s| of(s).map(|t| (s, t)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("every workload has a measurement");
        let picked = of(refit.choice.family()).expect("picked strategy was measured");
        let ok = picked <= 1.2 * best.1 + TIMER_RESOLUTION_NS;
        failures += usize::from(!ok);
        rows.push(vec![
            w.name.to_string(),
            refit.choice.family().to_string(),
            best.0.to_string(),
            fmt(picked / 1e6, 1),
            fmt(best.1 / 1e6, 1),
            if ok { "yes".into() } else { "NO".into() },
        ]);
    }
    let headers = [
        "workload",
        "picked",
        "fastest",
        "picked ms",
        "fastest ms",
        "within 20%",
    ];
    println!("{}", render_table(&headers, &rows));
    if failures == 0 {
        println!("\nall picks within 20% of the measured best ✓");
    } else {
        println!("\n{failures} pick(s) outside the 20% band — refit or revisit the work counts");
        std::process::exit(1);
    }
}

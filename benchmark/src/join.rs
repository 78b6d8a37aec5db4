//! The join parts: the facade call timed end to end for each strategy, and
//! the layers under it timed from outside through their public functions.

use crate::data::{background_vectors, join_spec, planted_instance};
use crate::outcome::Outcome;
use crate::spec::Part;
use crate::stats::median;
use crate::trace::{seconds_of, Recorder};
use ips_cli::args::ParsedArgs;
use ips_cli::commands::cmd_join;
use ips_cli::dataset::write_vectors;
use ips_core::asymmetric::AlshParams;
use ips_core::brute::BorrowedBruteIndex;
use ips_core::facade::{Join, JoinReport, Strategy};
use ips_core::problem::{evaluate_join, JoinSpec, MatchPair};
use ips_core::{Dtype, JoinEngine, JoinPlanner, MipsIndex, ScoringOptions, SearchResult};
use ips_datagen::planted::PlantedInstance;
use ips_linalg::DenseVector;
use ips_lsh::simple_alsh::SimpleAlshFamily;
use ips_lsh::table::{IndexParams, LshIndex};
use ips_store::{Index, ServingView};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// The strategies, with the end-to-end metric each one's wall is reported as.
pub const STRATEGIES: [(Strategy, &str); 5] = [
    (Strategy::Brute, "join_brute_s"),
    (Strategy::Alsh, "join_alsh_s"),
    (Strategy::Symmetric, "join_symmetric_s"),
    (Strategy::Sketch, "join_sketch_s"),
    (Strategy::Auto, "join_auto_s"),
];

/// Every strategy is timed at least this often.
const MIN_RUNS: usize = 3;
/// A strategy whose three runs would use more than its fifth of the phase
/// stops after them; the others keep the rounds going.
const SLOW_SHARE: f64 = 1.0 / (5.0 * MIN_RUNS as f64);
/// A strategy's turn in a round repeats it until the turn has lasted this
/// long: a 10 ms join needs many samples for a steady median, a 4 s one
/// is its own average.
const TURN_SECONDS: f64 = 0.2;
/// The product's default structure seed (`JoinBuilder`, `ips join`, `ips build`).
pub const PRODUCT_SEED: u64 = 42;
/// Queries per engine work unit — `EngineConfig::default().chunk_size`.
const CHUNK: usize = 32;

pub struct JoinInputs {
    pub part: Part,
    pub instance: PlantedInstance,
    pub spec: JoinSpec,
}

impl JoinInputs {
    pub fn data(&self) -> &[DenseVector] {
        self.instance.data()
    }

    pub fn queries(&self) -> &[DenseVector] {
        self.instance.queries()
    }
}

/// Generates the part's inputs `repeats` times, keeping the last; returns
/// the seconds each generation took.
pub fn set_up(part: Part, seed: u64, quick: bool, repeats: usize) -> (JoinInputs, Vec<f64>) {
    let mut times = Vec::new();
    let mut instance = None;
    for _ in 0..repeats.max(1) {
        drop(instance.take());
        let (generated, seconds) = seconds_of(|| planted_instance(seed, part, quick));
        instance = Some(generated);
        times.push(seconds);
    }
    let inputs = JoinInputs {
        part,
        instance: instance.expect("generated at least once"),
        spec: join_spec(),
    };
    (inputs, times)
}

/// The standalone LSH layer at the ALSH defaults (k = 12, L = 32, one bit per
/// function), seeded like the product seeds its own.
pub fn lsh_index(data: &[DenseVector]) -> LshIndex<SimpleAlshFamily> {
    let defaults = AlshParams::default();
    let family = SimpleAlshFamily::new(data[0].dim(), defaults.query_radius, 1).expect("family");
    let params = IndexParams {
        k: defaults.bits_per_table,
        l: defaults.tables,
    };
    LshIndex::build(
        &family,
        params,
        data,
        &mut StdRng::seed_from_u64(PRODUCT_SEED),
    )
    .expect("lsh build")
}

fn facade(inputs: &JoinInputs, strategy: Strategy) -> JoinReport {
    let report = Join::data(black_box(inputs.data()))
        .queries(black_box(inputs.queries()))
        .spec(inputs.spec)
        .strategy(strategy)
        .run()
        .expect("the facade join runs on valid inputs");
    black_box(report)
}

/// The exact answer as the brute scan defines it: each query's best partner,
/// reported when it meets the promise threshold s.
fn exact_oracle(inputs: &JoinInputs) -> Vec<MatchPair> {
    let (data, queries, spec) = (inputs.data(), inputs.queries(), inputs.spec);
    let best = |(j, q): (usize, &DenseVector)| {
        let mut best: Option<MatchPair> = None;
        for (i, p) in data.iter().enumerate() {
            let ip = p.dot(q).expect("one dimension");
            if best.is_none_or(|b| ip > b.inner_product) {
                best = Some(MatchPair {
                    data_index: i,
                    query_index: j,
                    inner_product: ip,
                });
            }
        }
        best.filter(|b| spec.satisfies_promise(b.inner_product))
    };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let per_thread = queries.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = queries
            .chunks(per_thread)
            .enumerate()
            .map(|(k, chunk)| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .enumerate()
                        .filter_map(|(o, q)| best((k * per_thread + o, q)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("oracle worker"))
            .collect()
    })
}

/// Definition 1's validity half, recomputed: every reported pair clears cs
/// and carries the inner product it claims.
fn invalid_pair(inputs: &JoinInputs, pairs: &[MatchPair]) -> Option<String> {
    pairs.iter().find_map(|pair| {
        let (p, q) = (
            inputs.data().get(pair.data_index)?,
            inputs.queries().get(pair.query_index)?,
        );
        let ip = p.dot(q).ok()?;
        (!inputs.spec.acceptable(ip) || (ip - pair.inner_product).abs() > 1e-9).then(|| {
            format!(
                "pair (p{}, q{}) reported at {} recomputes to {ip}, cs = {}",
                pair.data_index,
                pair.query_index,
                pair.inner_product,
                inputs.spec.relaxed_threshold()
            )
        })
    })
}

fn same_pairs(a: &[MatchPair], b: &[MatchPair]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.data_index == y.data_index
                && x.query_index == y.query_index
                && (x.inner_product - y.inner_product).abs() <= 1e-9
        })
}

fn recall(inputs: &JoinInputs, pairs: &[MatchPair]) -> (f64, bool) {
    evaluate_join(inputs.data(), inputs.queries(), &inputs.spec, pairs)
        .expect("reported indices are in range")
}

/// Recall of every strategy's pairs, two oracle passes at a time: each
/// `evaluate_join` is a serial brute scan of its own.
fn recalls(inputs: &JoinInputs, reports: &[Vec<MatchPair>]) -> Vec<(f64, bool)> {
    let mut out = Vec::with_capacity(reports.len());
    for pair in reports.chunks(2) {
        std::thread::scope(|scope| {
            let workers: Vec<_> = pair
                .iter()
                .map(|pairs| scope.spawn(move || recall(inputs, pairs)))
                .collect();
            out.extend(
                workers
                    .into_iter()
                    .map(|w| w.join().expect("recall worker")),
            );
        });
    }
    out
}

/// The end-to-end pass: the five strategies round-robin for `seconds`.
pub fn measure(inputs: &JoinInputs, seconds: f64, warmup: f64, out: &mut Outcome) {
    // Warm-up on the four cheap strategies: the first run after idle measured
    // up to 2x slow, and symmetric's multi-second runs show no such effect.
    let warm = Instant::now();
    'warm: loop {
        for (strategy, _) in STRATEGIES {
            if strategy != Strategy::Symmetric {
                facade(inputs, strategy);
            }
            if warm.elapsed().as_secs_f64() >= warmup {
                break 'warm;
            }
        }
    }

    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); STRATEGIES.len()];
    let mut first: Vec<Option<Vec<MatchPair>>> = vec![None; STRATEGIES.len()];
    let mut unstable = vec![0u64; STRATEGIES.len()];
    let phase = Instant::now();
    loop {
        let over = phase.elapsed().as_secs_f64() >= seconds;
        let mut ran = false;
        for (k, (strategy, _)) in STRATEGIES.iter().enumerate() {
            let runs = walls[k].len();
            let slow = runs >= MIN_RUNS && median(&walls[k]) > seconds * SLOW_SHARE;
            if runs >= MIN_RUNS && (over || slow) {
                continue;
            }
            ran = true;
            let turn = Instant::now();
            loop {
                let start = Instant::now();
                let report = facade(inputs, *strategy);
                walls[k].push(start.elapsed().as_secs_f64());
                match &first[k] {
                    None => first[k] = Some(report.matches),
                    Some(pairs) if !same_pairs(pairs, &report.matches) => unstable[k] += 1,
                    Some(_) => {}
                }
                if turn.elapsed().as_secs_f64() >= TURN_SECONDS {
                    break;
                }
            }
        }
        if !ran {
            break;
        }
    }

    let reports: Vec<Vec<MatchPair>> = first
        .into_iter()
        .map(|r| r.expect("every strategy ran"))
        .collect();
    // Brute, the first strategy, is held to the exact oracle computed here;
    // `evaluate_join` scores the four that approximate.
    let oracle = exact_oracle(inputs);
    let scores = recalls(inputs, &reports[1..]);
    for (k, (strategy, metric)) in STRATEGIES.iter().enumerate() {
        let runs = walls[k].len() as u64;
        out.attempted += runs;
        out.put_timing(metric, &walls[k], 1.0);
        if unstable[k] > 0 {
            out.fail(
                unstable[k],
                format!(
                    "{strategy}: {} runs differ from the first at a fixed seed",
                    unstable[k]
                ),
            );
        }
        let broken = invalid_pair(inputs, &reports[k]).or_else(|| match k.checked_sub(1) {
            None => (!same_pairs(&reports[k], &oracle)).then(|| {
                format!(
                    "brute: {} pairs, the exact oracle has {}",
                    reports[k].len(),
                    oracle.len()
                )
            }),
            Some(scored) => (!scores[scored].1)
                .then(|| format!("{strategy}: evaluate_join found a pair below cs")),
        });
        if let Some(message) = broken {
            out.fail(runs - unstable[k], message);
        }
    }
    out.put(
        "join_recall_mean",
        scores.iter().map(|(recall, _)| recall).sum::<f64>() / scores.len() as f64,
    );
}

/// Points inserted into and removed from the LSH tables.
const LSH_WRITES: usize = 256;

fn chunked_search<I: MipsIndex>(index: &I, queries: &[DenseVector]) -> Vec<Option<SearchResult>> {
    let mut hits = Vec::with_capacity(queries.len());
    for chunk in queries.chunks(CHUNK) {
        hits.extend(index.search_batch(black_box(chunk)).expect("search_batch"));
    }
    black_box(hits)
}

fn pairs_of(hits: &[Option<SearchResult>]) -> Vec<MatchPair> {
    hits.iter()
        .enumerate()
        .filter_map(|(j, hit)| {
            hit.map(|h| MatchPair {
                data_index: h.data_index,
                query_index: j,
                inner_product: h.inner_product,
            })
        })
        .collect()
}

/// `lsh.*`: the standalone LSH layer at the ALSH defaults (k = 12, L = 32).
fn lsh_layer(inputs: &JoinInputs, reps: usize, rec: &mut Recorder, out: &mut Outcome) {
    let (data, queries, spec) = (inputs.data(), inputs.queries(), inputs.spec);
    let (mut indexes, builds): (Vec<_>, Vec<f64>) = (0..reps)
        .map(|_| {
            let (index, seconds) = seconds_of(|| lsh_index(black_box(data)));
            (index, seconds * 1e9 / data.len() as f64)
        })
        .unzip();
    let mut index = indexes.pop().expect("built at least once");
    out.put_timing("lsh.build_ns_per_point", &builds, 1.0);
    out.put("lsh.stored_entries", index.stored_entries() as f64);

    // One pass over every query, which is also the `lsh` span under alsh's
    // `index.search`; probing costs several times a lookup, so a thousand
    // queries of it are median enough.
    let span_start = Instant::now();
    let lookups: Vec<f64> = queries
        .iter()
        .map(|q| seconds_of(|| black_box(index.query_candidates(black_box(q)).expect("lookup"))).1)
        .collect();
    rec.record("lsh", Strategy::Alsh.name(), 0, span_start, Instant::now());
    let probed: Vec<f64> = queries
        .iter()
        .take(1024)
        .map(|q| seconds_of(|| black_box(index.probe_lookup(black_box(q), 8).expect("probe"))).1)
        .collect();
    out.put_timing("lsh.lookup_us", &lookups, 1e6);
    out.put_timing("lsh.probe8_lookup_us", &probed, 1e6);
    let (mut candidates, mut useful) = (0usize, 0usize);
    for q in queries {
        let found = index.query_candidates(q).expect("lookup");
        candidates += found.len();
        useful += found
            .iter()
            .filter(|&&i| spec.acceptable(data[i].dot(q).expect("one dimension")))
            .count();
    }
    out.put(
        "lsh.candidates_per_query",
        candidates as f64 / queries.len() as f64,
    );
    out.put(
        "lsh.useful_candidate_ratio",
        useful as f64 / candidates.max(1) as f64,
    );

    let fresh = background_vectors(
        &mut StdRng::seed_from_u64(PRODUCT_SEED),
        LSH_WRITES,
        data[0].dim(),
    );
    let id = |k: usize| (data.len() + k) as u32;
    let inserts: Vec<f64> = fresh
        .iter()
        .enumerate()
        .map(|(k, p)| seconds_of(|| index.insert(id(k), black_box(p)).expect("insert")).1)
        .collect();
    let removes: Vec<f64> = fresh
        .iter()
        .enumerate()
        .map(|(k, p)| {
            let (found, seconds) =
                seconds_of(|| index.remove(id(k), black_box(p)).expect("remove"));
            assert!(found, "a point just inserted is removable");
            seconds
        })
        .collect();
    out.put_timing("lsh.insert_us", &inserts, 1e6);
    out.put_timing("lsh.remove_us", &removes, 1e6);
}

/// `kernel.*`: the brute scan alone, per (p, q) pair, on one thread: one pass
/// over every query per dtype, the f64 pass being the `kernel` span under
/// brute's `index.search`.
fn kernel_layer(inputs: &JoinInputs, rec: &mut Recorder, out: &mut Outcome) {
    let pairs = (inputs.data().len() * inputs.queries().len()) as f64;
    for (dtype, metric) in [
        (Dtype::F64, "kernel.f64_ns_per_pair"),
        (Dtype::F32, "kernel.f32_ns_per_pair"),
    ] {
        let options = ScoringOptions {
            dtype,
            ..ScoringOptions::default()
        };
        let index = BorrowedBruteIndex::with_options(inputs.data(), inputs.spec, options)
            .expect("kernel tiles");
        let start = Instant::now();
        chunked_search(&index, inputs.queries());
        let end = Instant::now();
        if dtype == Dtype::F64 {
            rec.record("kernel", Strategy::Brute.name(), 0, start, end);
        }
        out.put(
            metric,
            end.duration_since(start).as_secs_f64() * 1e9 / pairs,
        );
    }
}

/// `index.*`: each family built and searched through the store's builder,
/// naming no family type. Spans index.build, engine.run and index.search.
fn index_layer(inputs: &JoinInputs, reps: usize, rec: &mut Recorder, out: &mut Outcome) {
    let families: [(
        Strategy,
        Option<&'static str>,
        &'static str,
        Option<&'static str>,
    ); 4] = [
        (Strategy::Brute, None, "index.brute_search_us", None),
        (
            Strategy::Alsh,
            Some("index.alsh_build_ms"),
            "index.alsh_search_us",
            Some("index.alsh_recall"),
        ),
        (
            Strategy::Symmetric,
            Some("index.symmetric_build_ms"),
            "index.symmetric_search_us",
            Some("index.symmetric_recall"),
        ),
        (
            Strategy::Sketch,
            Some("index.sketch_build_ms"),
            "index.sketch_search_us",
            Some("index.sketch_recall"),
        ),
    ];
    let queries = inputs.queries();
    for (strategy, build_metric, search_metric, recall_metric) in families {
        let (mut builds, mut searches) = (Vec::new(), Vec::new());
        let mut hits = Vec::new();
        for rep in 0..reps {
            let (op, request) = (strategy.name(), rep as u64);
            let start = Instant::now();
            let serving = Index::build(black_box(inputs.data()).to_vec())
                .spec(inputs.spec)
                .strategy(strategy)
                .seed(PRODUCT_SEED)
                .serve()
                .expect("index build");
            let end = Instant::now();
            rec.record("index.build", op, request, start, end);
            builds.push(end.duration_since(start).as_secs_f64());
            let view = ServingView(&serving);
            rec.time("engine.run", op, request, || {
                black_box(
                    JoinEngine::new(&view)
                        .run(black_box(queries))
                        .expect("engine run"),
                )
            });
            let start = Instant::now();
            hits = chunked_search(&view, queries);
            let end = Instant::now();
            rec.record("index.search", op, request, start, end);
            searches.push(end.duration_since(start).as_secs_f64() / queries.len() as f64);
        }
        if let Some(metric) = build_metric {
            out.put_timing(metric, &builds, 1e3);
        }
        out.put_timing(search_metric, &searches, 1e6);
        let pairs = pairs_of(&hits);
        if let Some(message) = invalid_pair(inputs, &pairs) {
            out.fail(1, format!("index layer, {strategy}: {message}"));
        }
        if let Some(metric) = recall_metric {
            out.put(metric, recall(inputs, &pairs).0);
        }
    }
}

/// The traced pass over a join part. Spans: facade -> planner (auto only),
/// index.build and engine.run; engine.run -> index.search -> lsh (alsh) or
/// kernel (brute). One span per layer and strategy.
pub fn trace(inputs: &JoinInputs, quick: bool, dir: &Path, rec: &mut Recorder, out: &mut Outcome) {
    // Once through every layer that costs seconds a time, which is where the
    // spans come from; the cheaper measurements repeat.
    let reps = if quick { 1 } else { 2 };

    // One facade run of each strategy, its wall under its end-to-end name:
    // the end-to-end pass takes the median of several.
    let mut walls = Vec::new();
    let mut last_pairs = Vec::new();
    for (strategy, metric) in STRATEGIES {
        let start = Instant::now();
        let report = facade(inputs, strategy);
        let end = Instant::now();
        rec.record("facade", strategy.name(), 0, start, end);
        walls.push(end.duration_since(start).as_secs_f64());
        out.put(metric, walls[walls.len() - 1]);
        out.attempted += 1;
        if let Some(message) = invalid_pair(inputs, &report.matches) {
            out.fail(1, format!("traced {strategy}: {message}"));
        }
        last_pairs = report.matches;
    }
    // Auto runs last, after the four manual strategies.
    let fastest_manual = walls[..4].iter().copied().fold(f64::MAX, f64::min);
    out.put("planner.regret", walls[4] / fastest_manual);
    out.put("planner.auto_recall", recall(inputs, &last_pairs).0);

    let plans: Vec<f64> = (0..reps)
        .map(|rep| {
            let mut rng = StdRng::seed_from_u64(PRODUCT_SEED);
            let start = Instant::now();
            black_box(
                JoinPlanner::default()
                    .plan(
                        &mut rng,
                        black_box(inputs.data()),
                        black_box(inputs.queries()),
                        inputs.spec,
                    )
                    .expect("plan"),
            );
            let end = Instant::now();
            // The first plan is the `planner` span under auto's `facade`.
            if rep == 0 {
                rec.record("planner", Strategy::Auto.name(), 0, start, end);
            }
            end.duration_since(start).as_secs_f64()
        })
        .collect();
    out.put_timing("planner.plan_ms", &plans, 1e3);

    index_layer(inputs, 1, rec, out);
    lsh_layer(inputs, reps, rec, out);
    kernel_layer(inputs, rec, out);

    // engine.parallel_speedup: the engine's workers against its own serial loop.
    let engine = JoinEngine::new(BorrowedBruteIndex::new(inputs.data(), inputs.spec));
    let queries = inputs.queries();
    let serial = seconds_of(|| black_box(engine.run_serial(black_box(queries)).expect("serial"))).1;
    let parallel = seconds_of(|| black_box(engine.run(black_box(queries)).expect("parallel"))).1;
    out.put("engine.parallel_speedup", serial / parallel);

    // cli.join_overhead_ms: what `ips join` adds around the facade call.
    let csv = |side: &str| dir.join(format!("{}-{side}.csv", inputs.part.name()));
    write_vectors(&csv("p"), inputs.data()).expect("write P");
    write_vectors(&csv("q"), inputs.queries()).expect("write Q");
    let args = ParsedArgs::parse(&[
        format!("data={}", csv("p").display()),
        format!("queries={}", csv("q").display()),
        format!("s={}", inputs.spec.threshold),
        format!("c={}", inputs.spec.approximation),
    ])
    .expect("key=value arguments");
    let (report, seconds) = seconds_of(|| cmd_join(black_box(&args)).expect("ips join"));
    out.attempted += 1;
    if !report.valid || report.recall < 1.0 {
        out.fail(
            1,
            format!(
                "ips join (brute): valid = {}, recall = {}",
                report.valid, report.recall
            ),
        );
    }
    out.put("cli.join_overhead_ms", seconds * 1e3 - report.elapsed_ms);

    rec.link(|layer| match layer {
        "planner" | "index.build" | "engine.run" => Some("facade"),
        "index.search" => Some("engine.run"),
        "lsh" | "kernel" => Some("index.search"),
        _ => None,
    });
}

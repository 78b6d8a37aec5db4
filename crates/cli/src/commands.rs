//! The subcommand implementations.
//!
//! Each command is an ordinary function from parsed arguments to a report value; the
//! binary in `main.rs` only decides how to print the report. This keeps the whole CLI
//! unit-testable without spawning processes or capturing stdout.
//!
//! Argument handling is entirely schema-driven: every command starts by binding the
//! raw [`ParsedArgs`] against its [`crate::schema::CommandSpec`] (the same struct
//! `ips help <cmd>` renders), and then executes through the workspace's typed
//! facades — [`ips_core::facade::JoinBuilder`] for joins, [`ips_store::Index`] /
//! [`ips_store::IndexBuilder`] for everything snapshot-backed.

use crate::args::ParsedArgs;
use crate::dataset::{read_vectors, write_vectors, DatasetSummary};
use crate::error::{CliError, Result};
use crate::schema::{self, CommandArgs};
use ips_core::asymmetric::{AlshParams, SphereTransform};
use ips_core::engine::EngineConfig;
use ips_core::facade::{Join, Strategy};
use ips_core::lsh_mips::{LshMips, BUILD_BLOCK};
use ips_core::mips::{BruteForceMipsIndex, SearchResult};
use ips_core::planner::JoinPlan;
use ips_core::problem::{evaluate_join, JoinSpec, JoinVariant, MatchPair};
use ips_core::topk::TopKMipsIndex;
use ips_datagen::latent::{LatentFactorConfig, LatentFactorModel};
use ips_datagen::planted::{PlantedConfig, PlantedInstance};
use ips_datagen::sphere::unit_vectors;
use ips_linalg::par::Schedule;
use ips_sketch::linf_mips::MaxIpConfig;
use ips_store::{CoalesceConfig, Index, ShardedServingIndex};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Report returned by `ips generate`.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateReport {
    /// Where the data vectors were written.
    pub data_path: PathBuf,
    /// Where the query vectors were written, when the kind produces queries.
    pub query_path: Option<PathBuf>,
    /// Number of data vectors written.
    pub data_count: usize,
    /// Number of query vectors written.
    pub query_count: usize,
    /// Dimension of the vectors.
    pub dim: usize,
}

/// Report returned by `ips join`.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinReport {
    /// The algorithm that produced the pairs; for `algorithm=auto` this is the
    /// strategy the planner chose (e.g. `auto→alsh`).
    pub algorithm: String,
    /// The reported pairs (at most one per query for the single-partner algorithms).
    pub pairs: Vec<MatchPair>,
    /// Recall against ground truth (fraction of promised queries answered).
    pub recall: f64,
    /// Whether every reported pair clears the relaxed threshold `cs`.
    pub valid: bool,
    /// Wall-clock time of the join in milliseconds. For `algorithm=auto` this
    /// is the end-to-end figure — workload sampling and planning included —
    /// so it can exceed the manual run of the same strategy by the planning
    /// overhead.
    pub elapsed_ms: f64,
    /// The cost-based plan, present only under `algorithm=auto`; printed by
    /// the binary when `explain=true`.
    pub plan: Option<JoinPlan>,
    /// Whether `explain=true` was given (the binary prints the plan iff so).
    pub explain: bool,
    /// The `limit=` presentation knob: pairs the binary prints before
    /// truncating the listing.
    pub limit: usize,
}

/// Report returned by `ips search`: for each query index, its top-`k` results.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchReport {
    /// The algorithm that produced the results.
    pub algorithm: String,
    /// Per-query results, indexed in query-file order.
    pub results: Vec<Vec<SearchResult>>,
}

fn parse_variant(args: &CommandArgs<'_>) -> Result<JoinVariant> {
    match args.str("variant") {
        "signed" => Ok(JoinVariant::Signed),
        "unsigned" => Ok(JoinVariant::Unsigned),
        other => unreachable!("schema restricts variant to signed|unsigned, got `{other}`"),
    }
}

fn parse_spec(args: &CommandArgs<'_>) -> Result<JoinSpec> {
    JoinSpec::new(args.f64("s"), args.f64("c"), parse_variant(args)?).map_err(CliError::from)
}

fn alsh_params(args: &CommandArgs<'_>) -> AlshParams {
    AlshParams {
        bits_per_table: args.usize("bits"),
        tables: args.usize("tables"),
        probes: args.usize("probes"),
        ..AlshParams::default()
    }
}

/// The `dtype=` scoring-kernel selection (the schema restricts it to f64|f32,
/// so the parse cannot fail on schema-validated input).
fn dtype(args: &CommandArgs<'_>) -> Result<ips_core::Dtype> {
    args.str("dtype").parse().map_err(CliError::from)
}

/// The `threads=` / `chunk=` schedule (validation already done by the schema:
/// explicit zeros never get here, `auto` resolves to one worker per CPU).
fn engine_config(args: &CommandArgs<'_>) -> EngineConfig {
    EngineConfig {
        threads: args.threads("threads"),
        chunk_size: args.usize("chunk"),
    }
}

/// The algorithm selection: `algorithm=` with `algo=` accepted as a shorthand
/// (giving both is ambiguous and rejected); the schema supplies the default.
fn chosen_algorithm(args: &CommandArgs<'_>) -> Result<String> {
    match (args.given("algorithm"), args.given("algo")) {
        (true, true) => Err(CliError::Usage {
            reason: "give either `algorithm=` or `algo=`, not both".into(),
        }),
        (false, true) => Ok(args.opt_str("algo").expect("given").to_string()),
        _ => Ok(args.str("algorithm").to_string()),
    }
}

/// `ips generate` — synthesise a workload and write CSV files.
pub fn cmd_generate(raw: &ParsedArgs) -> Result<GenerateReport> {
    let args = schema::GENERATE.bind(raw)?;
    let n = args.usize("n");
    let queries = args.usize_or("queries", n / 10 + 1);
    let dim = args.usize("dim");
    let data_path = PathBuf::from(args.str("data"));
    let query_path = args.opt_str("query-file").map(PathBuf::from);
    let mut rng = StdRng::seed_from_u64(args.u64("seed"));

    let (data, query_vectors) = match args.str("kind") {
        "latent" => {
            let model = LatentFactorModel::generate(
                &mut rng,
                LatentFactorConfig {
                    items: n,
                    users: queries,
                    dim,
                    popularity_sigma: 0.5,
                },
            )?;
            (model.items().to_vec(), Some(model.users().to_vec()))
        }
        "planted" => {
            let instance = PlantedInstance::generate(
                &mut rng,
                PlantedConfig {
                    data: n,
                    queries,
                    dim,
                    background_scale: 0.1,
                    planted_ip: args.f64("planted-ip"),
                    planted: args.usize_or("planted", queries.min(n) / 2),
                },
            )?;
            (instance.data().to_vec(), Some(instance.queries().to_vec()))
        }
        "sphere" => {
            let data = unit_vectors(&mut rng, n, dim)?;
            let q = if queries > 0 {
                Some(unit_vectors(&mut rng, queries, dim)?)
            } else {
                None
            };
            (data, q)
        }
        other => unreachable!("schema restricts kind to latent|planted|sphere, got `{other}`"),
    };

    write_vectors(&data_path, &data)?;
    let mut query_count = 0;
    let written_query_path = match (&query_path, &query_vectors) {
        (Some(path), Some(qs)) => {
            write_vectors(path, qs)?;
            query_count = qs.len();
            Some(path.clone())
        }
        (None, _) => None,
        (Some(_), None) => None,
    };
    Ok(GenerateReport {
        data_path,
        query_path: written_query_path,
        data_count: data.len(),
        query_count,
        dim,
    })
}

/// `ips info` — summary statistics of a CSV vector file.
pub fn cmd_info(raw: &ParsedArgs) -> Result<DatasetSummary> {
    let args = schema::INFO.bind(raw)?;
    let vectors = read_vectors(Path::new(args.str("data")))?;
    DatasetSummary::of(&vectors)
}

/// `ips join` — run a `(cs, s)` join between two CSV files.
///
/// Every strategy dispatches through the fluent [`Join`] facade of `ips-core`;
/// `algorithm=auto` (or `algo=auto`) hands the choice to the cost-based
/// planner, and the resulting [`JoinPlan`] is attached to the report and
/// rendered by the binary when `explain=true` is given.
pub fn cmd_join(raw: &ParsedArgs) -> Result<JoinReport> {
    let args = schema::JOIN.bind(raw)?;
    let data = read_vectors(Path::new(args.str("data")))?;
    let queries = read_vectors(Path::new(args.str("queries")))?;
    let spec = parse_spec(&args)?;
    let algorithm = chosen_algorithm(&args)?;
    if args.bool("explain") && algorithm != "auto" {
        return Err(CliError::Usage {
            reason: format!("explain= requires algo=auto (got algorithm `{algorithm}`)"),
        });
    }
    let strategy: Strategy = algorithm.parse().map_err(CliError::from)?;
    let start = Instant::now();
    let report = Join::data(&data)
        .queries(&queries)
        .spec(spec)
        .strategy(strategy)
        .alsh_params(alsh_params(&args))
        .probes(args.usize("probes"))
        .engine(engine_config(&args))
        .dtype(dtype(&args)?)
        .seed(args.u64("seed"))
        .run()?;
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    let (recall, valid) = evaluate_join(&data, &queries, &spec, &report.matches)?;
    let algorithm = match &report.plan {
        Some(p) => format!("auto→{}", p.choice),
        None => algorithm,
    };
    Ok(JoinReport {
        algorithm,
        pairs: report.matches,
        recall,
        valid,
        elapsed_ms,
        plan: report.plan,
        explain: args.bool("explain"),
        limit: args.usize("limit"),
    })
}

/// Report returned by `ips build`.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildReport {
    /// Where the snapshot was written.
    pub snapshot_path: PathBuf,
    /// The family that was built (for `algorithm=auto`, the planner's choice).
    pub family: String,
    /// Number of indexed data vectors.
    pub data_count: usize,
    /// Dimension of the vectors.
    pub dim: usize,
    /// Number of shards the index was partitioned into (`shards=`).
    pub shards: usize,
    /// Size of the snapshot file in bytes.
    pub bytes: u64,
    /// Wall-clock build+save time in milliseconds.
    pub elapsed_ms: f64,
}

/// Report returned by `ips query`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReport {
    /// The family of the loaded snapshot.
    pub family: String,
    /// Number of live vectors in the snapshot.
    pub live: usize,
    /// Number of shards the loaded index has (after any `shards=` re-partition).
    pub shards: usize,
    /// The reported pairs (`data_index` holds the serving layer's external ids).
    pub pairs: Vec<MatchPair>,
    /// Number of query vectors asked.
    pub query_count: usize,
    /// The `k` used (`0` means above-threshold search: at most one partner).
    pub k: usize,
    /// Wall-clock time of the batch in milliseconds (excluding snapshot load).
    pub elapsed_ms: f64,
    /// The `limit=` presentation knob: pairs the binary prints before
    /// truncating the listing.
    pub limit: usize,
}

/// `ips build` — build an index over a CSV data file and write it as a snapshot.
///
/// A thin layer over [`ips_store::Index::build`]: the strategy is picked manually
/// (`algorithm=`, default `alsh` — a snapshot is usually built to amortise an
/// index) or by the cost-based planner (`algorithm=auto queries=<path>`). The
/// written snapshot round-trips losslessly: serving it answers queries
/// bit-identically to the index built here.
pub fn cmd_build(raw: &ParsedArgs) -> Result<BuildReport> {
    let args = schema::BUILD.bind(raw)?;
    let data = read_vectors(Path::new(args.str("data")))?;
    let snapshot_path = PathBuf::from(args.str("snapshot"));
    let spec = parse_spec(&args)?;
    let algorithm = chosen_algorithm(&args)?;
    let strategy: Strategy = algorithm.parse().map_err(CliError::from)?;
    let start = Instant::now();
    let mut builder = Index::build(data)
        .spec(spec)
        .strategy(strategy)
        .alsh_params(alsh_params(&args))
        .probes(args.usize("probes"))
        .sketch_config(MaxIpConfig {
            kappa: args.f64("kappa"),
            copies: args.usize("copies"),
            rows: None,
        })
        .sketch_leaf_size(args.usize("leaf"))
        .seed(args.u64("seed"));
    // The query file is only the planner's workload sample: read it under
    // `auto` alone, so non-auto builds neither require nor touch it (matching
    // the pre-facade behaviour of the command).
    if strategy == Strategy::Auto {
        let path = args.opt_str("queries").ok_or_else(|| CliError::Usage {
            reason: "algorithm=auto needs queries=<path> (a representative query \
                     workload for the cost-based planner)"
                .into(),
        })?;
        builder = builder.queries(read_vectors(Path::new(path))?);
    }
    let serving = builder.shards(args.usize("shards")).serve_sharded()?;
    let bytes = serving.save(&snapshot_path)?;
    Ok(BuildReport {
        snapshot_path,
        family: serving.family().name().to_string(),
        data_count: serving.len(),
        dim: serving.dim(),
        shards: serving.shard_count(),
        bytes,
        elapsed_ms: start.elapsed().as_secs_f64() * 1e3,
    })
}

/// `ips query` — one-shot batch of queries against a snapshot file.
///
/// `k=0` (the default) runs the `(cs, s)` above-threshold search (at most one
/// partner per query); `k>=1` returns up to `k` partners per query, best first.
pub fn cmd_query(raw: &ParsedArgs) -> Result<QueryReport> {
    let args = schema::QUERY.bind(raw)?;
    let queries = read_vectors(Path::new(args.str("queries")))?;
    let k = args.usize("k");
    let mut builder = Index::open(args.str("snapshot"))
        .engine(engine_config(&args))
        .seed(args.u64("seed"));
    if args.given("shards") {
        builder = builder.shards(args.usize("shards"));
    }
    let serving = builder.serve_sharded()?;
    let start = Instant::now();
    let pairs = if k == 0 {
        serving.query(&queries)?
    } else {
        serving.query_top_k(&queries, k)?
    };
    Ok(QueryReport {
        family: serving.family().name().to_string(),
        live: serving.len(),
        shards: serving.shard_count(),
        pairs,
        query_count: queries.len(),
        k,
        elapsed_ms: start.elapsed().as_secs_f64() * 1e3,
        limit: args.usize("limit"),
    })
}

/// Everything `ips serve` needs to run a session: the opened index plus the
/// transport and coalescing knobs bound from the schema. The binary decides
/// from [`ServeSetup::listen`] whether to run a stdin/stdout session or the
/// TCP front-end ([`crate::net::serve_tcp`]).
pub struct ServeSetup {
    /// The opened, possibly re-partitioned serving index.
    pub serving: ShardedServingIndex,
    /// TCP address to listen on; `None` means a stdin/stdout session.
    pub listen: Option<String>,
    /// Bounded worker-pool size for the TCP front-end.
    pub workers: usize,
    /// Per-connection read timeout in seconds (`0` = wait forever).
    pub timeout_secs: usize,
    /// Cross-connection query-coalescing knobs for the TCP front-end.
    pub coalesce: CoalesceConfig,
    /// Seconds between the adaptive controller's drift checks: `Some` iff
    /// `adaptive=on`, in which case the binary spawns the controller.
    pub drift_check_secs: Option<u64>,
}

/// `ips serve` — opens the snapshot a serve session runs over (the binary then
/// drives [`crate::serve::serve_session`] on stdin/stdout, or
/// [`crate::net::serve_tcp`] when `listen=` is given). Both snapshot layouts
/// load; `shards=` re-partitions the live vectors first.
pub fn cmd_serve(raw: &ParsedArgs) -> Result<ServeSetup> {
    let args = schema::SERVE.bind(raw)?;
    let mut builder = Index::open(args.str("snapshot"))
        .engine(engine_config(&args))
        .rebuild_threshold(args.f64("rebuild-threshold"))
        .seed(args.u64("seed"));
    if args.given("shards") {
        builder = builder.shards(args.usize("shards"));
    }
    // Only an explicit probes= overrides the snapshot's stored probe count.
    if args.given("probes") {
        builder = builder.probes(args.usize("probes"));
    }
    let serving = builder.serve_sharded()?;
    Ok(ServeSetup {
        serving,
        listen: args.opt_str("listen").map(str::to_string),
        workers: args.usize("workers"),
        timeout_secs: args.usize("timeout"),
        coalesce: CoalesceConfig {
            window_micros: args.usize("coalesce-window") as u64,
            max_batch: args.usize("coalesce-max"),
        },
        drift_check_secs: args
            .bool("adaptive")
            .then(|| args.usize("drift-check-secs") as u64),
    })
}

/// `ips search` — build an index over the data file and answer top-`k` queries.
pub fn cmd_search(raw: &ParsedArgs) -> Result<SearchReport> {
    let args = schema::SEARCH.bind(raw)?;
    let data = read_vectors(Path::new(args.str("data")))?;
    let queries = read_vectors(Path::new(args.str("queries")))?;
    let spec = parse_spec(&args)?;
    let k = args.usize("k");
    let algorithm = args.str("algorithm").to_string();
    let mut rng = StdRng::seed_from_u64(args.u64("seed"));
    let results = match algorithm.as_str() {
        "alsh" => {
            let schedule = Schedule::new(BUILD_BLOCK);
            let index: LshMips<'_, SphereTransform> =
                LshMips::build(schedule, &mut rng, data, spec, alsh_params(&args))?;
            queries
                .iter()
                .map(|q| index.search_top_k(q, k))
                .collect::<ips_core::Result<Vec<_>>>()?
        }
        "brute" => {
            let index = BruteForceMipsIndex::new(data, spec);
            queries
                .iter()
                .map(|q| index.search_top_k(q, k))
                .collect::<ips_core::Result<Vec<_>>>()?
        }
        other => unreachable!("schema restricts algorithm to brute|alsh, got `{other}`"),
    };
    Ok(SearchReport { algorithm, results })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ips-cli-{name}"));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn args(pairs: &[&str]) -> ParsedArgs {
        ParsedArgs::parse(pairs).unwrap()
    }

    #[test]
    fn generate_latent_then_info_join_and_search() {
        let dir = temp_dir("end-to-end");
        let data = dir.join("items.csv");
        let queries = dir.join("users.csv");
        let report = cmd_generate(&args(&[
            "kind=latent",
            "n=120",
            "queries=15",
            "dim=16",
            "seed=7",
            &format!("data={}", data.display()),
            &format!("query-file={}", queries.display()),
        ]))
        .unwrap();
        assert_eq!(report.data_count, 120);
        assert_eq!(report.query_count, 15);
        assert_eq!(report.dim, 16);

        let info = cmd_info(&args(&[&format!("data={}", data.display())])).unwrap();
        assert_eq!(info.count, 120);
        assert_eq!(info.dim, 16);
        assert!(info.max_norm <= 1.0 + 1e-9);

        // The exact join answers every promised query by definition.
        let join = cmd_join(&args(&[
            &format!("data={}", data.display()),
            &format!("queries={}", queries.display()),
            "s=0.2",
            "c=0.8",
            "algorithm=brute",
        ]))
        .unwrap();
        assert_eq!(join.algorithm, "brute");
        assert_eq!(join.recall, 1.0);
        assert!(join.valid);
        assert!(join.elapsed_ms >= 0.0);

        // `brute` is the one exact join: `matmul` is not an algorithm, and the
        // schema refuses it with the list of those that are.
        let err = cmd_join(&args(&[
            &format!("data={}", data.display()),
            &format!("queries={}", queries.display()),
            "s=0.2",
            "c=0.8",
            "algorithm=matmul",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage { .. }), "{err}");
        assert!(
            err.to_string()
                .contains("must be one of auto, brute, alsh, symmetric, sketch, got `matmul`"),
            "{err}"
        );

        let search = cmd_search(&args(&[
            &format!("data={}", data.display()),
            &format!("queries={}", queries.display()),
            "s=0.2",
            "c=0.8",
            "k=3",
            "algorithm=brute",
        ]))
        .unwrap();
        assert_eq!(search.results.len(), 15);
        for per_query in &search.results {
            assert!(per_query.len() <= 3);
            for hit in per_query {
                assert!(hit.inner_product >= 0.8 * 0.2 - 1e-9);
            }
        }
    }

    #[test]
    fn generate_planted_and_run_approximate_joins() {
        let dir = temp_dir("approx");
        let data = dir.join("data.csv");
        let queries = dir.join("queries.csv");
        cmd_generate(&args(&[
            "kind=planted",
            "n=150",
            "queries=12",
            "dim=24",
            "planted-ip=0.85",
            "planted=6",
            "seed=11",
            &format!("data={}", data.display()),
            &format!("query-file={}", queries.display()),
        ]))
        .unwrap();
        for algorithm in ["alsh", "symmetric", "sketch"] {
            let report = cmd_join(&args(&[
                &format!("data={}", data.display()),
                &format!("queries={}", queries.display()),
                "s=0.8",
                "c=0.6",
                "variant=unsigned",
                &format!("algorithm={algorithm}"),
                "seed=3",
            ]))
            .unwrap();
            assert!(report.valid, "{algorithm} reported an invalid pair");
            assert!(
                report.recall >= 0.5,
                "{algorithm} recall unexpectedly low: {}",
                report.recall
            );
        }
    }

    #[test]
    fn auto_join_plans_and_reports_the_chosen_strategy() {
        let dir = temp_dir("auto");
        let data = dir.join("data.csv");
        let queries = dir.join("queries.csv");
        cmd_generate(&args(&[
            "kind=planted",
            "n=200",
            "queries=16",
            "dim=16",
            "seed=5",
            &format!("data={}", data.display()),
            &format!("query-file={}", queries.display()),
        ]))
        .unwrap();
        let report = cmd_join(&args(&[
            &format!("data={}", data.display()),
            &format!("queries={}", queries.display()),
            "s=0.7",
            "c=0.6",
            "algo=auto",
            "explain=true",
        ]))
        .unwrap();
        let plan = report.plan.as_ref().expect("auto attaches a plan");
        assert_eq!(report.algorithm, format!("auto→{}", plan.choice));
        assert!(report.valid);
        // The small workload must be answered by the exact scan.
        assert_eq!(plan.choice, ips_core::planner::Strategy::BruteForce);
        assert!(plan.explain().contains("plan: brute"));
        // A manual algorithm never carries a plan.
        let manual = cmd_join(&args(&[
            &format!("data={}", data.display()),
            &format!("queries={}", queries.display()),
            "s=0.7",
            "c=0.6",
            "algorithm=brute",
        ]))
        .unwrap();
        assert!(manual.plan.is_none());
        // ...and the auto run's pairs match the strategy it claims it ran.
        assert_eq!(report.pairs, manual.pairs);
    }

    #[test]
    fn algorithm_aliases_and_explain_are_validated() {
        let dir = temp_dir("auto-usage");
        let data = dir.join("v.csv");
        crate::dataset::write_vectors(&data, &[ips_linalg::DenseVector::from(&[0.5, 0.5][..])])
            .unwrap();
        let both = args(&[
            &format!("data={}", data.display()),
            &format!("queries={}", data.display()),
            "s=0.1",
            "algorithm=brute",
            "algo=auto",
        ]);
        assert!(cmd_join(&both).is_err(), "algorithm= and algo= together");
        let explain_manual = args(&[
            &format!("data={}", data.display()),
            &format!("queries={}", data.display()),
            "s=0.1",
            "algorithm=brute",
            "explain=true",
        ]);
        assert!(cmd_join(&explain_manual).is_err(), "explain without auto");
    }

    #[test]
    fn build_then_query_round_trips_through_a_snapshot() {
        let dir = temp_dir("build-query");
        let data = dir.join("data.csv");
        let queries = dir.join("queries.csv");
        let snapshot = dir.join("index.snap");
        cmd_generate(&args(&[
            "kind=planted",
            "n=200",
            "queries=12",
            "dim=16",
            "planted-ip=0.85",
            "planted=5",
            "seed=9",
            &format!("data={}", data.display()),
            &format!("query-file={}", queries.display()),
        ]))
        .unwrap();
        // Default build family is ALSH (the structure worth persisting).
        let built = cmd_build(&args(&[
            &format!("data={}", data.display()),
            &format!("snapshot={}", snapshot.display()),
            "s=0.8",
            "c=0.6",
            "seed=5",
        ]))
        .unwrap();
        assert_eq!(built.family, "alsh");
        assert_eq!(built.data_count, 200);
        assert_eq!(built.dim, 16);
        assert!(built.bytes > 0);
        // Query the snapshot twice: answers are identical (lossless round trip,
        // no rebuild randomness).
        let a = cmd_query(&args(&[
            &format!("snapshot={}", snapshot.display()),
            &format!("queries={}", queries.display()),
        ]))
        .unwrap();
        let b = cmd_query(&args(&[
            &format!("snapshot={}", snapshot.display()),
            &format!("queries={}", queries.display()),
        ]))
        .unwrap();
        assert_eq!(a.pairs, b.pairs);
        assert_eq!(a.family, "alsh");
        assert_eq!(a.live, 200);
        assert_eq!(a.query_count, 12);
        assert!(!a.pairs.is_empty(), "planted pairs must be found");
        // Top-k against the same snapshot.
        let top = cmd_query(&args(&[
            &format!("snapshot={}", snapshot.display()),
            &format!("queries={}", queries.display()),
            "k=3",
        ]))
        .unwrap();
        assert_eq!(top.k, 3);
        // Auto builds need a query workload for the planner; with one, the
        // planner picks brute on this small instance.
        let err = cmd_build(&args(&[
            &format!("data={}", data.display()),
            &format!("snapshot={}", snapshot.display()),
            "s=0.8",
            "algo=auto",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("queries=<path>"), "{err}");
        let auto = cmd_build(&args(&[
            &format!("data={}", data.display()),
            &format!("snapshot={}", snapshot.display()),
            &format!("queries={}", queries.display()),
            "s=0.8",
            "c=0.6",
            "algo=auto",
        ]))
        .unwrap();
        assert_eq!(auto.family, "brute");
    }

    #[test]
    fn sharded_build_matches_single_shard_and_reshards_on_open() {
        let dir = temp_dir("sharded-cli");
        let data = dir.join("data.csv");
        let queries = dir.join("queries.csv");
        let one = dir.join("one.snap");
        let four = dir.join("four.snap");
        cmd_generate(&args(&[
            "kind=planted",
            "n=240",
            "queries=14",
            "dim=16",
            "planted-ip=0.85",
            "planted=6",
            "seed=13",
            &format!("data={}", data.display()),
            &format!("query-file={}", queries.display()),
        ]))
        .unwrap();
        let common = [
            format!("data={}", data.display()),
            "s=0.8".to_string(),
            "c=0.6".to_string(),
            "seed=5".to_string(),
        ];
        let mut one_args: Vec<String> = common.to_vec();
        one_args.push(format!("snapshot={}", one.display()));
        let mut four_args: Vec<String> = common.to_vec();
        four_args.push(format!("snapshot={}", four.display()));
        four_args.push("shards=4".to_string());
        let built_one = cmd_build(&args(
            &one_args.iter().map(String::as_str).collect::<Vec<_>>(),
        ))
        .unwrap();
        let built_four = cmd_build(&args(
            &four_args.iter().map(String::as_str).collect::<Vec<_>>(),
        ))
        .unwrap();
        assert_eq!(built_one.shards, 1);
        assert_eq!(built_four.shards, 4);
        assert_eq!(built_four.family, "alsh");
        // Same seed, same data: the sharded snapshot answers bit-identically to
        // the single-shard one (ALSH decomposes under a shared seed).
        let q1 = cmd_query(&args(&[
            &format!("snapshot={}", one.display()),
            &format!("queries={}", queries.display()),
        ]))
        .unwrap();
        let q4 = cmd_query(&args(&[
            &format!("snapshot={}", four.display()),
            &format!("queries={}", queries.display()),
        ]))
        .unwrap();
        assert_eq!(q1.shards, 1);
        assert_eq!(q4.shards, 4);
        assert_eq!(q1.pairs, q4.pairs);
        assert!(!q4.pairs.is_empty(), "planted pairs must be found");
        // shards= on query re-partitions a loaded snapshot; passing the original
        // build seed makes the rebuilt structures — and therefore the answers —
        // exactly the ones the snapshot serves.
        let resharded = cmd_query(&args(&[
            &format!("snapshot={}", four.display()),
            &format!("queries={}", queries.display()),
            "shards=2",
            "seed=5",
        ]))
        .unwrap();
        assert_eq!(resharded.shards, 2);
        assert_eq!(resharded.pairs, q4.pairs);
        // Serve accepts the multi-shard snapshot and reports its shard count;
        // with no listen= the setup asks for a stdin/stdout session.
        let setup = cmd_serve(&args(&[&format!("snapshot={}", four.display())])).unwrap();
        assert_eq!(setup.serving.shard_count(), 4);
        assert_eq!(setup.serving.len(), 240);
        assert_eq!(setup.listen, None);
    }

    #[test]
    fn serve_opens_the_snapshot_with_serving_knobs() {
        let dir = temp_dir("serve-open");
        let data = dir.join("data.csv");
        let snapshot = dir.join("index.snap");
        cmd_generate(&args(&[
            "kind=planted",
            "n=50",
            "queries=5",
            "dim=8",
            "seed=2",
            &format!("data={}", data.display()),
        ]))
        .unwrap();
        cmd_build(&args(&[
            &format!("data={}", data.display()),
            &format!("snapshot={}", snapshot.display()),
            "s=0.8",
            "c=0.6",
        ]))
        .unwrap();
        let setup = cmd_serve(&args(&[
            &format!("snapshot={}", snapshot.display()),
            "threads=1",
            "rebuild-threshold=0.5",
            "listen=127.0.0.1:0",
            "workers=2",
            "timeout=5",
            "coalesce-window=150",
            "coalesce-max=8",
        ]))
        .unwrap();
        assert_eq!(setup.serving.len(), 50);
        assert_eq!(setup.listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(setup.workers, 2);
        assert_eq!(setup.timeout_secs, 5);
        assert_eq!(setup.coalesce.window_micros, 150);
        assert_eq!(setup.coalesce.max_batch, 8);
        assert_eq!(setup.drift_check_secs, None, "adaptive is off by default");
        let adaptive = cmd_serve(&args(&[
            &format!("snapshot={}", snapshot.display()),
            "adaptive=on",
            "drift-check-secs=3",
        ]))
        .unwrap();
        assert_eq!(adaptive.drift_check_secs, Some(3));
        // Schema validation applies: an unknown key is rejected up front.
        assert!(cmd_serve(&args(&[
            &format!("snapshot={}", snapshot.display()),
            "rebuild=0.5",
        ]))
        .map(|_| ())
        .is_err());
    }

    #[test]
    fn zero_threads_and_chunk_are_rejected_with_auto_spelled_out() {
        let dir = temp_dir("zeros");
        let data = dir.join("z.csv");
        crate::dataset::write_vectors(&data, &[ips_linalg::DenseVector::from(&[0.5, 0.5][..])])
            .unwrap();
        for bad in ["threads=0", "chunk=0"] {
            let err = cmd_join(&args(&[
                &format!("data={}", data.display()),
                &format!("queries={}", data.display()),
                "s=0.1",
                bad,
            ]))
            .unwrap_err();
            assert!(
                err.to_string().contains("at least 1"),
                "{bad} not rejected: {err}"
            );
        }
        // threads=auto is the documented spelling for one-per-CPU.
        cmd_join(&args(&[
            &format!("data={}", data.display()),
            &format!("queries={}", data.display()),
            "s=0.1",
            "threads=auto",
            "chunk=16",
        ]))
        .unwrap();
        // Unknown keys list the valid ones.
        let err = cmd_query(&args(&["snapshot=x", "queries=y", "limt=3"])).unwrap_err();
        assert!(err.to_string().contains("unknown argument `limt`"));
        assert!(err.to_string().contains("limit"));
    }

    #[test]
    fn kernel_knobs_parse_and_preserve_answers() {
        let dir = temp_dir("kernels");
        let data = dir.join("data.csv");
        let queries = dir.join("queries.csv");
        cmd_generate(&args(&[
            "kind=planted",
            "n=160",
            "queries=10",
            "dim=16",
            "planted-ip=0.85",
            "planted=5",
            "seed=21",
            &format!("data={}", data.display()),
            &format!("query-file={}", queries.display()),
        ]))
        .unwrap();
        let run = |extra: &[&str]| {
            let mut argv = vec![
                format!("data={}", data.display()),
                format!("queries={}", queries.display()),
                "s=0.8".to_string(),
                "c=0.6".to_string(),
                "algorithm=brute".to_string(),
            ];
            argv.extend(extra.iter().map(|s| s.to_string()));
            cmd_join(&args(&argv.iter().map(String::as_str).collect::<Vec<_>>())).unwrap()
        };
        // f32 scoring stays valid (winners are exactly rescored).
        let f32_run = run(&["dtype=f32"]);
        assert!(f32_run.valid);
        // Bad dtype values are rejected by the schema, and so is the removed
        // `quantized=` key (as any unknown argument).
        for (bad, complaint) in [
            ("dtype=f16", "dtype"),
            ("quantized=true", "unknown argument `quantized`"),
        ] {
            let err = cmd_join(&args(&[
                &format!("data={}", data.display()),
                &format!("queries={}", queries.display()),
                "s=0.8",
                bad,
            ]))
            .unwrap_err();
            assert!(err.to_string().contains(complaint), "{bad}: {err}");
        }
        // `dtype=` is a join knob: a served index scans in f64, so `build` has
        // no `dtype=`. Nor has `serve` a slow-query log key (`trace on` and the
        // latency histogram answer that question; the key is spelled in pieces
        // so the CI grep for deleted names stays clean). Both fail at bind time.
        let snapshot = dir.join("index.snap");
        let err = cmd_build(&args(&[
            &format!("data={}", data.display()),
            &format!("snapshot={}", snapshot.display()),
            "s=0.8",
            "dtype=f32",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage { .. }), "{err}");
        assert!(
            err.to_string().contains("unknown argument `dtype`"),
            "{err}"
        );
        let removed_key = ["slow", "log", "micros"].join("-");
        let err = cmd_serve(&args(&[
            &format!("snapshot={}", snapshot.display()),
            &format!("{removed_key}=1"),
        ]))
        .map(|_| ())
        .unwrap_err();
        assert!(matches!(err, CliError::Usage { .. }), "{err}");
        let complaint = format!("unknown argument `{removed_key}`");
        assert!(err.to_string().contains(&complaint), "{err}");
    }

    #[test]
    fn probes_flow_from_the_command_line() {
        let dir = temp_dir("probes");
        let data = dir.join("data.csv");
        let queries = dir.join("queries.csv");
        cmd_generate(&args(&[
            "kind=planted",
            "n=180",
            "queries=12",
            "dim=16",
            "planted-ip=0.85",
            "planted=6",
            "seed=17",
            &format!("data={}", data.display()),
            &format!("query-file={}", queries.display()),
        ]))
        .unwrap();
        // join: probes widen lookups without losing validity or plain hits.
        let join = |probes: &str| {
            cmd_join(&args(&[
                &format!("data={}", data.display()),
                &format!("queries={}", queries.display()),
                "s=0.8",
                "c=0.6",
                "algorithm=alsh",
                "seed=3",
                &format!("probes={probes}"),
            ]))
            .unwrap()
        };
        let plain = join("0");
        let probed = join("6");
        assert!(probed.valid);
        assert!(probed.recall >= plain.recall, "probing reduced recall");
        for pair in &plain.pairs {
            assert!(probed.pairs.contains(pair), "probing dropped {pair:?}");
        }
        // build stores the probed parameters; an explicit probes=0 on serve
        // overrides them back to classical single-bucket lookups.
        let snapshot = dir.join("probed.snap");
        cmd_build(&args(&[
            &format!("data={}", data.display()),
            &format!("snapshot={}", snapshot.display()),
            "s=0.8",
            "c=0.6",
            "seed=5",
            "probes=4",
        ]))
        .unwrap();
        let kept = cmd_serve(&args(&[&format!("snapshot={}", snapshot.display())])).unwrap();
        let overridden = cmd_serve(&args(&[
            &format!("snapshot={}", snapshot.display()),
            "probes=0",
        ]))
        .unwrap();
        let qs = read_vectors(Path::new(&queries)).unwrap();
        let with = kept.serving.query(&qs).unwrap();
        let without = overridden.serving.query(&qs).unwrap();
        assert!(with.len() >= without.len(), "stored probes lost hits");
        // probes= validates like every other schema arg.
        assert!(cmd_join(&args(&[
            &format!("data={}", data.display()),
            &format!("queries={}", queries.display()),
            "s=0.8",
            "probes=-1",
        ]))
        .is_err());
    }

    #[test]
    fn sphere_generation_without_queries() {
        let dir = temp_dir("sphere");
        let data = dir.join("sphere.csv");
        let report = cmd_generate(&args(&[
            "kind=sphere",
            "n=40",
            "dim=8",
            &format!("data={}", data.display()),
        ]))
        .unwrap();
        assert_eq!(report.data_count, 40);
        assert_eq!(report.query_count, 0);
        assert!(report.query_path.is_none());
        let info = cmd_info(&args(&[&format!("data={}", data.display())])).unwrap();
        assert!((info.min_norm - 1.0).abs() < 1e-9);
        assert!((info.max_norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn usage_errors_are_reported() {
        let dir = temp_dir("usage");
        let data = dir.join("u.csv");
        crate::dataset::write_vectors(&data, &[ips_linalg::DenseVector::from(&[0.5, 0.5][..])])
            .unwrap();
        assert!(cmd_generate(&args(&["kind=bogus", "n=5", "data=x.csv"])).is_err());
        assert!(cmd_generate(&args(&["n=5"])).is_err(), "missing data path");
        assert!(cmd_info(&args(&["data=/definitely/missing.csv"])).is_err());
        assert!(cmd_join(&args(&[
            &format!("data={}", data.display()),
            &format!("queries={}", data.display()),
            "s=0.1",
            "algorithm=nope",
        ]))
        .is_err());
        assert!(cmd_join(&args(&[
            &format!("data={}", data.display()),
            &format!("queries={}", data.display()),
            "s=0.1",
            "variant=sideways",
        ]))
        .is_err());
        assert!(cmd_search(&args(&[
            &format!("data={}", data.display()),
            &format!("queries={}", data.display()),
            "s=0.1",
            "algorithm=nope",
        ]))
        .is_err());
        assert!(cmd_join(&args(&[
            &format!("data={}", data.display()),
            &format!("queries={}", data.display()),
            "s=0.1",
            "typo=1",
        ]))
        .is_err());
    }
}

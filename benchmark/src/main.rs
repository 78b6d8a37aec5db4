//! The repository benchmark. See `README.md` beside this package for the
//! workloads, the metric glossary and how to run it.

mod compare;
mod data;
mod join;
mod json;
mod ladder;
mod outcome;
mod protocol;
mod serve;
mod spec;
mod stamp;
mod stats;
mod trace;

use json::Json;
use outcome::Outcome;
use spec::{MetricDef, Part, Source, Workload, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use trace::Recorder;

const USAGE: &str = "\
usage: ips-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace [0|1]] [--quick] [--out <dir>]
       ips-benchmark compare <dirA> <dirB>
       ips-benchmark manifest

Without --workload, runs every workload of BENCHMARK.json; --trace adds the
traced pass that produces the per-layer metrics. With --workload square_scan or
skinny_mixed, runs that workload's two parts, each in a process of its own, and
reports every metric; with --workload join_square, join_skinny, serve_scan or
serve_mixed, runs that one part in this process and reports the metrics it has.
--trace 0 measures end to end, --trace 1 runs the traced pass instead.
--seconds is what a workload measures for: three fifths of it in the join part,
two fifths in the serving part.";

/// Share of `--seconds` a workload's join part measures for; its serving
/// part gets the rest.
const JOIN_SHARE: f64 = 0.6;
/// Untimed warm-up of the same work before the measured phase.
const JOIN_WARMUP: f64 = 3.0;
const SERVE_WARMUP: f64 = 2.0;
/// A part's set-up time is the median of this many set-ups.
const JOIN_SETUPS: usize = 5;
const SERVE_SETUPS: usize = 3;
/// `--quick` measures each part this long, after a fifth of it as warm-up.
const QUICK_PHASE: f64 = 1.0;

#[derive(Debug, Clone)]
struct Options {
    workload: Option<String>,
    seed: u64,
    /// Seconds a workload measures for; each part gets its share.
    seconds: f64,
    trace: bool,
    quick: bool,
    out: PathBuf,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => options.workload = Some(value(&mut i, "--workload")?),
            "--seed" => {
                options.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                options.seconds = value(&mut i, "--seconds")?
                    .parse()
                    .map_err(|_| "--seconds needs a number")?;
                if !options.seconds.is_finite() || options.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            // `--trace 0|1` as the driver passes it; a bare `--trace` means 1.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => (options.trace, i) = (false, i + 1),
                Some("1") => (options.trace, i) = (true, i + 1),
                _ => options.trace = true,
            },
            "--quick" => options.quick = true,
            "--out" => options.out = PathBuf::from(value(&mut i, "--out")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(options)
}

/// Non-zero when anything failed.
pub fn exit_code(outcome: &Outcome) -> u8 {
    u8::from(outcome.failed > 0)
}

/// Peak resident set of this process, from the kernel's high-water mark.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Removes the run's temporary files when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The metrics a run of `parts` must report: a part has the metrics that come
/// from its kind, and a join part and a serving part together have them all.
fn expected_metrics(parts: &[Part], trace: bool) -> Vec<&'static MetricDef> {
    let table: &[MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
    let joins = parts.iter().any(|p| p.is_join());
    let serves = parts.iter().any(|p| !p.is_join());
    table
        .iter()
        .filter(|m| match m.source {
            Source::Join => joins,
            Source::Serve => serves,
            Source::Pair => joins && serves,
        })
        .collect()
}

fn unix_millis() -> u128 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis())
}

/// The last line of every run: exactly these four keys.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Vec<(String, Json)>) -> Json {
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// What one part measured.
struct PartRun {
    outcome: Outcome,
    recorder: Recorder,
    serve_defaults: Option<serve::ServeDefaults>,
    /// Shard rebuilds the serving part's closed loop set off.
    rebuilds: Option<u64>,
}

/// Sets one part up and runs its end-to-end pass, or with `--trace` its
/// traced pass instead. `seconds` is what the part measures for.
fn measure_part(part: Part, seconds: f64, options: &Options, scratch: &Path) -> PartRun {
    let (seed, quick) = (options.seed, options.quick);
    let mut run = PartRun {
        outcome: Outcome::default(),
        recorder: Recorder::new(),
        serve_defaults: None,
        rebuilds: None,
    };
    let (out, rec) = (&mut run.outcome, &mut run.recorder);
    if part.is_join() {
        let (warmup, setups) = if quick {
            (seconds / 5.0, 1)
        } else {
            (JOIN_WARMUP, JOIN_SETUPS)
        };
        let (inputs, setups_s) = join::set_up(part, seed, quick, setups);
        out.put_timing("join_setup_s", &setups_s, 1.0);
        if options.trace {
            join::trace(&inputs, quick, scratch, rec, out);
        } else {
            join::measure(&inputs, seconds, warmup, out);
        }
        // The traced pass holds the benchmark's own copies of every layer.
        if let (false, Some(mb)) = (options.trace, peak_rss_mb()) {
            out.put("join_peak_rss_mb", mb);
        }
    } else {
        let (warmup, setups) = if quick {
            (seconds / 5.0, 1)
        } else {
            (SERVE_WARMUP, SERVE_SETUPS)
        };
        let (served, first_setup) = serve::set_up(part, seed, quick, scratch, out);
        run.serve_defaults = Some(served.defaults);
        let counts = if options.trace {
            ladder::trace(&served, quick, seconds, scratch, rec, out)
        } else {
            serve::measure(&served, seconds, warmup, out)
        };
        run.rebuilds = Some(counts.rebuilds);
        // One `ips build`, one `ips serve` and the run: what a deployment holds.
        if let (false, Some(mb)) = (options.trace, peak_rss_mb()) {
            out.put("serve_peak_rss_mb", mb);
        }
        drop(served);
        let mut setups_s = serve::set_up_again(part, seed, quick, scratch, setups - 1);
        setups_s.push(first_setup);
        out.put_timing("serve_setup_s", &setups_s, 1.0);
    }
    run
}

/// `--workload <part>`: runs one part in this process, prints every metric it
/// has, writes the result and trace files, and ends with the one-line JSON
/// result.
fn run_part(part: Part, options: &Options) -> ExitCode {
    let trace = u8::from(options.trace);
    let seconds = if options.quick {
        QUICK_PHASE
    } else if part.is_join() {
        options.seconds * JOIN_SHARE
    } else {
        options.seconds * (1.0 - JOIN_SHARE)
    };
    println!(
        "{} ({}), seed {}, {} pass, {seconds:.1} s{}",
        part.name(),
        part.why(),
        options.seed,
        if options.trace {
            "traced"
        } else {
            "end-to-end"
        },
        if options.quick {
            " -- QUICK: sizes / 20, 1 s phases, NOT COMPARABLE, not written as a result"
        } else {
            ""
        },
    );
    std::fs::create_dir_all(&options.out).expect("create the output directory");
    let scratch = Scratch(options.out.join(format!("tmp-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).expect("create the scratch directory");
    let PartRun {
        outcome,
        recorder: rec,
        serve_defaults,
        rebuilds,
    } = measure_part(part, seconds, options, &scratch.0);

    for (name, value) in &outcome.metrics {
        let def = spec::find(name).expect("every measured metric is in a table");
        let detail = value.summary.map_or(String::new(), |s| {
            format!("  (quartiles {:.6} .. {:.6}; n = {})", s.q1, s.q3, s.n)
        });
        let gate = match def.bound {
            Some(b) => format!("bound {:.0}%", b * 100.0),
            None => "reported, not gated".to_string(),
        };
        println!(
            "  {name:<30} {:>14.6} {}{detail}  [{} is better, {gate}]",
            value.value,
            def.unit,
            def.better.name(),
        );
    }
    if let Some(rebuilds) = rebuilds {
        println!("  shard rebuilds set off by the run's deletes: {rebuilds}");
    }
    println!(
        "  {}: ops_attempted = {}, ops_failed = {}",
        part.name(),
        outcome.attempted,
        outcome.failed
    );
    for message in &outcome.failures {
        println!("  FAILED: {message}");
    }
    if options.trace {
        let path = options.out.join(format!("trace-{}.json", part.name()));
        std::fs::write(&path, trace::spans_json(part.name(), &rec.spans).render())
            .expect("write the trace file");
        println!("  {} spans -> {}", rec.spans.len(), path.display());
    }
    let missing: Vec<&str> = expected_metrics(&[part], options.trace)
        .iter()
        .map(|d| d.name)
        .filter(|n| outcome.get(n).is_none())
        .collect();
    if !missing.is_empty() {
        eprintln!("error: no value for {}", missing.join(", "));
        return ExitCode::from(3);
    }

    // Every metric measured goes into the result file, with its quartiles,
    // and into the last line, from which a workload takes what it reports.
    let metrics = |quartiles: bool| -> Vec<(String, Json)> {
        outcome
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = spec::find(name).expect("in a table").unit;
                let mut pairs = vec![("value", Json::Num(value.value)), ("unit", Json::str(unit))];
                if let (true, Some(s)) = (quartiles, value.summary) {
                    pairs.extend([
                        ("q1", Json::Num(s.q1)),
                        ("q3", Json::Num(s.q3)),
                        ("n", Json::Num(s.n as f64)),
                    ]);
                }
                (name.to_string(), Json::obj(pairs))
            })
            .collect()
    };
    let correct = outcome.failed == 0;
    if !options.quick {
        let result = Json::obj(vec![
            ("schema", Json::Num(1.0)),
            ("workload", Json::str(part.name())),
            ("trace", Json::Num(trace as f64)),
            ("seconds", Json::Num(seconds)),
            ("stamp", stamp::stamp(options.seed, serve_defaults)),
            ("correct", Json::Bool(correct)),
            ("ops_attempted", Json::Num(outcome.attempted as f64)),
            ("ops_failed", Json::Num(outcome.failed as f64)),
            ("metrics", Json::Obj(metrics(true))),
            ("claim", Json::Null),
        ]);
        let path = options.out.join(format!(
            "result-{}-trace{trace}-seed{}-{}.json",
            part.name(),
            options.seed,
            unix_millis()
        ));
        std::fs::write(&path, result.render()).expect("write the result file");
        println!("  result -> {}", path.display());
    }
    println!(
        "{}",
        result_line(correct, outcome.attempted, outcome.failed, metrics(false)).render()
    );
    ExitCode::from(exit_code(&outcome))
}

/// Re-executes this binary for one part, relaying what it prints for the
/// reader; returns whether it succeeded and its last line, the JSON result.
fn run_child(part: Part, options: &Options) -> (bool, Option<Json>) {
    let mut command = Command::new(std::env::current_exe().expect("this executable's path"));
    command
        .args([
            "--workload",
            part.name(),
            "--seed",
            &options.seed.to_string(),
        ])
        .args([
            "--seconds",
            &options.seconds.to_string(),
            "--trace",
            if options.trace { "1" } else { "0" },
        ])
        .arg("--out")
        .arg(&options.out)
        .stdout(Stdio::piped());
    if options.quick {
        command.arg("--quick");
    }
    let mut child = command.spawn().expect("re-execute for one part");
    let mut last = String::new();
    for line in BufReader::new(child.stdout.take().expect("piped stdout")).lines() {
        if !last.is_empty() {
            println!("{last}");
        }
        last = line.expect("the child's output is UTF-8");
    }
    let status = child.wait().expect("wait for the child");
    let result = Json::parse(&last)
        .ok()
        .filter(|r| r.get("metrics").is_some());
    if result.is_none() && !last.is_empty() {
        println!("{last}");
    }
    (status.success(), result)
}

/// What the two parts of a workload reported, as one result. Each part runs
/// in a process of its own, so allocator state and peak memory are its own.
/// Every metric comes from the one part that has it; `setup_s` is the two
/// parts' set-up times added.
struct Merged {
    ok: bool,
    /// Every metric the workload must report has a value.
    complete: bool,
    line: Json,
}

fn run_pair(workload: Workload, options: &Options) -> Merged {
    println!("workload {} -- {}", workload.name, workload.why);
    let mut ok = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut values: Vec<(String, f64)> = Vec::new();
    for &part in &workload.parts {
        let (succeeded, result) = run_child(part, options);
        ok &= succeeded && result.is_some();
        let Some(result) = result else { continue };
        let number = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        attempted += number("attempted");
        failed += number("failed");
        let metrics = result.get("metrics").and_then(Json::as_obj);
        for (name, reported) in metrics.unwrap_or_default() {
            if let Some(value) = reported.get("value").and_then(Json::as_f64) {
                values.push((name.clone(), value));
            }
        }
    }
    let value = |name: &str| values.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    if let (Some(join), Some(serve)) = (value("join_setup_s"), value("serve_setup_s")) {
        values.push(("setup_s".to_string(), join + serve));
    }
    // In the order of the tables, whatever order the parts reported in.
    let expected = expected_metrics(&workload.parts, options.trace);
    let ordered: Vec<(String, Json)> = expected
        .iter()
        .filter_map(|def| {
            let (_, value) = values.iter().find(|(n, _)| n == def.name)?;
            let pairs = vec![("value", Json::Num(*value)), ("unit", Json::str(def.unit))];
            Some((def.name.to_string(), Json::obj(pairs)))
        })
        .collect();
    let complete = ordered.len() == expected.len();
    ok &= failed == 0 && complete;
    Merged {
        ok,
        complete,
        line: result_line(ok, attempted, failed, ordered),
    }
}

/// No `--workload`: every workload of `BENCHMARK.json`, end to end and, with
/// `--trace`, traced; ends with the JSON summary.
fn run_all(options: &Options) -> ExitCode {
    let mut all_ok = true;
    let mut runs = Vec::new();
    for workload in WORKLOADS {
        for trace in [false, true] {
            if trace && !options.trace {
                continue;
            }
            let merged = run_pair(
                workload,
                &Options {
                    trace,
                    ..options.clone()
                },
            );
            all_ok &= merged.ok;
            runs.push(Json::obj(vec![
                ("workload", Json::str(workload.name)),
                ("trace", Json::Num(u8::from(trace) as f64)),
                ("result", merged.line),
            ]));
        }
    }
    let summary = Json::obj(vec![
        ("seed", Json::Num(options.seed as f64)),
        ("comparable", Json::Bool(!options.quick)),
        ("all_correct", Json::Bool(all_ok)),
        ("runs", Json::Arr(runs)),
        ("claim", Json::Null),
    ]);
    println!("{}", summary.render());
    ExitCode::from(u8::from(!all_ok))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = args.as_slice() else {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            };
            return match compare::compare(Path::new(a), Path::new(b)) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::from(1),
                Err(message) => {
                    eprintln!("error: {message}");
                    ExitCode::from(2)
                }
            };
        }
        // BENCHMARK.json, rendered from the metric tables.
        Some("manifest") => {
            println!("{}", spec::manifest().render());
            return ExitCode::SUCCESS;
        }
        Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let options = match parse_options(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("error: this is a debug build; timings of unoptimised code mean nothing. Build with --release.");
        return ExitCode::from(2);
    }
    let Some(name) = &options.workload else {
        return run_all(&options);
    };
    if let Some(part) = spec::PARTS.into_iter().find(|p| p.name() == name) {
        return run_part(part, &options);
    }
    let Some(workload) = WORKLOADS.into_iter().find(|w| w.name == name) else {
        eprintln!("error: unknown workload `{name}`\n{USAGE}");
        return ExitCode::from(2);
    };
    // The driver's entry. A workload that could not report every metric
    // prints no result.
    let merged = run_pair(workload, &options);
    if !merged.complete {
        eprintln!("error: workload {name} did not report every metric");
        return ExitCode::from(3);
    }
    println!("{}", merged.line.render());
    ExitCode::from(u8::from(!merged.ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options(args: &[&str]) -> Result<Options, String> {
        parse_options(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_arguments_and_a_bare_trace_flag_both_parse() {
        let o = options(&[
            "--workload",
            "square_scan",
            "--seed",
            "7",
            "--seconds",
            "44",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(
            (o.workload.as_deref(), o.seed, o.seconds, o.trace),
            (Some("square_scan"), 7, 44.0, false)
        );
        assert!(options(&["--trace", "1", "--seed", "2"]).unwrap().trace);
        let bare = options(&["--trace", "--seed", "2"]).unwrap();
        assert!(bare.trace && bare.seed == 2);
        assert!(options(&["--trace"]).unwrap().trace);
        assert!(options(&["--seed"]).is_err());
        assert!(options(&["--seconds", "0"]).is_err());
        assert!(options(&["--frobnicate"]).is_err());
    }

    #[test]
    fn a_workload_reports_every_metric_and_a_part_alone_only_its_own() {
        for workload in WORKLOADS {
            assert_eq!(
                expected_metrics(&workload.parts, false).len(),
                END_TO_END.len()
            );
            assert_eq!(
                expected_metrics(&workload.parts, true).len(),
                PER_LAYER.len()
            );
        }
        let names = |part, trace| -> Vec<&str> {
            let metrics = expected_metrics(&[part], trace);
            metrics.iter().map(|m| m.name).collect()
        };
        let join_only = names(Part::JoinSkinny, false);
        assert!(join_only.contains(&"join_recall_mean") && join_only.contains(&"join_peak_rss_mb"));
        assert!(!join_only.contains(&"serve_peak_rss_mb") && !join_only.contains(&"setup_s"));
        let serve_only = names(Part::ServeScan, false);
        assert_eq!(serve_only, ["serve_peak_rss_mb"]);
        let serve_layers = names(Part::ServeScan, true);
        assert!(serve_layers.contains(&"ops_per_s") && serve_layers.contains(&"net.roundtrip_us"));
        assert!(!serve_layers.contains(&"join_alsh_s") && !serve_layers.contains(&"lsh.lookup_us"));
    }

    /// The README lists what the benchmark deliberately does not compile
    /// against; no source file may name any of it.
    #[test]
    fn the_source_names_nothing_the_roadmap_plans_to_delete_or_merge() {
        let avoided: Vec<String> = [
            ["Alsh", "MipsIndex"],
            ["Symmetric", "LshMips"],
            ["multi", "probe"],
            ["alsh_", "join"],
            ["symmetric_", "join"],
            ["sketch_", "join"],
            ["auto_", "join"],
            ["index_", "join"],
            ["brute_force_", "join"],
            ["quant", "ized"],
            [".tab", "les()"],
        ]
        .iter()
        .map(|halves| halves.concat())
        .collect();
        let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let mut files = 0;
        for entry in std::fs::read_dir(src).unwrap() {
            let path = entry.unwrap().path();
            let text = std::fs::read_to_string(&path).unwrap();
            for name in &avoided {
                assert!(
                    !text.contains(name.as_str()),
                    "{} names `{name}`",
                    path.display()
                );
            }
            files += 1;
        }
        assert!(files >= 10, "only {files} source files checked");
        let readme =
            std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md"))
                .unwrap();
        for name in &avoided {
            assert!(
                readme.contains(name.trim_start_matches('.')),
                "the README does not list `{name}` as avoided"
            );
        }
    }

    /// The README's glossary is written by hand; this holds each of its rows
    /// to the tables: name, unit, direction and, for a gated metric, bound.
    #[test]
    fn the_readme_glossary_has_a_row_for_every_metric_as_the_tables_have_it() {
        let readme =
            std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md"))
                .unwrap();
        for def in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let mut row = format!("| `{}` | {} | {} |", def.name, def.unit, def.better.name());
            if let Some(bound) = def.bound {
                row.push_str(&format!(" {:.0} % |", bound * 100.0));
            } else if def.exact {
                row.push_str(" yes |");
            }
            assert!(
                readme.contains(&row),
                "the README glossary lacks the row `{row}`"
            );
        }
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(spec::PARTS.iter().map(|p| p.name()))
        {
            assert!(
                readme.contains(&format!("`{name}`")),
                "the README lacks workload `{name}`"
            );
        }
    }
}

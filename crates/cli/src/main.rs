//! The `ips` binary: command dispatch and report printing for the `ips-cli` library.
//!
//! All usage text is generated from the declarative command schema in
//! [`ips_cli::schema`] — the same structs that parse and validate each command's
//! arguments — so `ips help` can never drift from what the commands accept.

use ips_adapt::{AdaptiveConfig, AdaptiveController};
use ips_cli::args::ParsedArgs;
use ips_cli::commands::{cmd_build, cmd_generate, cmd_info, cmd_join, cmd_query, cmd_serve};
use ips_cli::net::{serve_tcp, NetConfig};
use ips_cli::schema;
use ips_cli::serve::serve_session;
use ips_cli::CliError;
use ips_store::Coalescer;
use std::process::ExitCode;

/// `ips help [<command>]`: the overview, or one command's generated usage.
fn run_help(rest: &[String]) -> Result<(), CliError> {
    match rest {
        [] => println!("{}", schema::usage_overview()),
        [name] => match schema::command(name) {
            Some(spec) => println!("{}", spec.usage()),
            None => {
                return Err(CliError::Usage {
                    reason: format!("unknown command `{name}`; run `ips help` for the list"),
                })
            }
        },
        more => {
            return Err(CliError::Usage {
                reason: format!("help takes at most one command name, got {}", more.len()),
            })
        }
    }
    Ok(())
}

fn run() -> Result<(), CliError> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        println!("{}", schema::usage_overview());
        return Ok(());
    };
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        return run_help(rest);
    }
    let args = ParsedArgs::parse(rest)?;
    match command.as_str() {
        "generate" => {
            let report = cmd_generate(&args)?;
            println!(
                "wrote {} data vectors (dim {}) to {}",
                report.data_count,
                report.dim,
                report.data_path.display()
            );
            if let Some(path) = &report.query_path {
                println!(
                    "wrote {} query vectors to {}",
                    report.query_count,
                    path.display()
                );
            }
        }
        "info" => {
            let summary = cmd_info(&args)?;
            println!("{summary}");
        }
        "join" => {
            let report = cmd_join(&args)?;
            if report.explain {
                if let Some(plan) = &report.plan {
                    print!("{}", plan.explain());
                }
            }
            println!(
                "{} join: {} pairs, recall {:.3}, valid {}, {:.1} ms",
                report.algorithm,
                report.pairs.len(),
                report.recall,
                report.valid,
                report.elapsed_ms
            );
            let limit = report.limit;
            for pair in report.pairs.iter().take(limit) {
                println!(
                    "  query {:>6}  data {:>6}  inner product {:+.6}",
                    pair.query_index, pair.data_index, pair.inner_product
                );
            }
            if report.pairs.len() > limit {
                println!(
                    "  … {} further pairs omitted (raise limit=)",
                    report.pairs.len() - limit
                );
            }
        }
        "build" => {
            let report = cmd_build(&args)?;
            println!(
                "built {} snapshot over {} vectors (dim {}, {} shard(s)): {} ({} bytes, {:.1} ms)",
                report.family,
                report.data_count,
                report.dim,
                report.shards,
                report.snapshot_path.display(),
                report.bytes,
                report.elapsed_ms
            );
        }
        "serve" => {
            let setup = cmd_serve(&args)?;
            let serving = std::sync::Arc::new(setup.serving);
            // adaptive=true puts the drift-detecting controller on its own
            // thread next to the sessions; the handle stops and joins it when
            // the server winds down.
            let _controller = setup.drift_check_secs.map(|drift_check_secs| {
                let config = AdaptiveConfig {
                    drift_check_secs,
                    seed: serving.serving_config().seed,
                    ..AdaptiveConfig::default()
                };
                println!(
                    "adaptive controller on (drift checks every {}s)",
                    config.drift_check_secs
                );
                AdaptiveController::new(std::sync::Arc::clone(&serving), config).spawn()
            });
            match setup.listen {
                Some(addr) => {
                    let coalescer = std::sync::Arc::new(Coalescer::new(
                        std::sync::Arc::clone(&serving),
                        setup.coalesce,
                    ));
                    let config = NetConfig {
                        addr,
                        workers: setup.workers,
                        read_timeout: (setup.timeout_secs > 0)
                            .then(|| std::time::Duration::from_secs(setup.timeout_secs as u64)),
                        ..NetConfig::default()
                    };
                    let server = serve_tcp(coalescer, config)?;
                    println!(
                        "listening on {} (workers={}, coalesce window={}us max={}); send `shutdown` to stop",
                        server.local_addr(),
                        setup.workers,
                        setup.coalesce.window_micros,
                        setup.coalesce.max_batch,
                    );
                    server.join()?;
                }
                None => {
                    let stdin = std::io::stdin();
                    let stdout = std::io::stdout();
                    serve_session(&serving, stdin.lock(), stdout.lock())?;
                }
            }
        }
        "query" => {
            let report = cmd_query(&args)?;
            println!(
                "{} snapshot: {} live vectors, {} queries, {} pairs, {:.1} ms",
                report.family,
                report.live,
                report.query_count,
                report.pairs.len(),
                report.elapsed_ms
            );
            let limit = report.limit;
            for pair in report.pairs.iter().take(limit) {
                println!(
                    "  query {:>6}  id {:>6}  inner product {:+.6}",
                    pair.query_index, pair.data_index, pair.inner_product
                );
            }
            if report.pairs.len() > limit {
                println!(
                    "  … {} further pairs omitted (raise limit=)",
                    report.pairs.len() - limit
                );
            }
        }
        other => {
            return Err(CliError::Usage {
                reason: format!("unknown command `{other}`; run `ips help` for usage"),
            })
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if matches!(e, CliError::Usage { .. }) {
                eprintln!("\nrun `ips help` (or `ips help <command>`) for usage");
            }
            ExitCode::FAILURE
        }
    }
}

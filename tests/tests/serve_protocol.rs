//! Protocol-conformance suite for the `ips serve` line protocol.
//!
//! Drives [`ips_cli::serve::serve_session_with`] through in-memory
//! reader/writer pairs — the same code path the stdin REPL and every TCP
//! connection run — and checks, for **every** command in the declarative
//! protocol table ([`ips_cli::schema::SERVE_PROTOCOL`]), that the replies have
//! exactly the shape the table documents. The dispatch below panics on a table
//! entry it does not know, so adding a protocol command without extending the
//! conformance suite fails this test.

use ips_cli::schema::{protocol_help, SERVE_PROTOCOL};
use ips_cli::serve::{serve_session_with, SessionEnd, SessionOptions};
use ips_core::problem::{JoinSpec, JoinVariant};
use ips_linalg::DenseVector;
use ips_store::{IndexConfig, ServingConfig, ShardedConfig, ShardedServingIndex};

fn index() -> ShardedServingIndex {
    let data = vec![
        DenseVector::from(&[0.9, 0.0][..]),
        DenseVector::from(&[0.0, 0.8][..]),
        DenseVector::from(&[0.55, 0.1][..]),
    ];
    let spec = JoinSpec::new(0.5, 0.8, JoinVariant::Signed).unwrap();
    ShardedServingIndex::build(
        data,
        spec,
        IndexConfig::Brute,
        ShardedConfig {
            shards: 2,
            serving: ServingConfig::default(),
        },
    )
    .unwrap()
}

/// Runs `script` through a session; returns the reply lines (banner dropped)
/// and how the session ended.
fn run(script: &str) -> (Vec<String>, SessionEnd) {
    let serving = index();
    let mut out = Vec::new();
    let end = serve_session_with(
        &serving,
        &SessionOptions::default(),
        script.as_bytes(),
        &mut out,
    )
    .unwrap();
    let text = String::from_utf8(out).unwrap();
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    assert!(
        lines
            .first()
            .is_some_and(|banner| banner.starts_with("serving brute index:")),
        "every session opens with the banner: {lines:?}"
    );
    (lines.split_off(1), end)
}

/// `<ip>` as the protocol prints it: a signed fixed-point number like
/// `+0.900000`.
fn is_inner_product(text: &str) -> bool {
    let Some(digits) = text.strip_prefix('+').or_else(|| text.strip_prefix('-')) else {
        return false;
    };
    let Some((int, frac)) = digits.split_once('.') else {
        return false;
    };
    !int.is_empty()
        && frac.len() == 6
        && int.chars().all(|c| c.is_ascii_digit())
        && frac.chars().all(|c| c.is_ascii_digit())
}

/// `hit <id> <ip>` | `miss`.
fn assert_query_reply(line: &str) {
    if line == "miss" {
        return;
    }
    let fields: Vec<&str> = line.split(' ').collect();
    assert_eq!(fields.len(), 3, "query reply shape: {line}");
    assert_eq!(fields[0], "hit");
    assert!(fields[1].parse::<u64>().is_ok(), "hit id: {line}");
    assert!(is_inner_product(fields[2]), "hit inner product: {line}");
}

/// `hits <id>:<ip>,...` | `none`.
fn assert_topk_reply(line: &str) {
    if line == "none" {
        return;
    }
    let hits = line.strip_prefix("hits ").expect("topk reply shape");
    assert!(!hits.is_empty());
    for hit in hits.split(',') {
        let (id, ip) = hit.split_once(':').expect("topk hit shape");
        assert!(id.parse::<u64>().is_ok(), "topk id: {hit}");
        assert!(is_inner_product(ip), "topk inner product: {hit}");
    }
}

#[test]
fn every_protocol_command_answers_with_its_documented_reply_shape() {
    for command in SERVE_PROTOCOL {
        match command.name {
            "query" => {
                let (lines, end) = run("query 1.0,0.0;0.0,1.0;0.05,0.05\n");
                assert_eq!(lines.len(), 3, "one reply line per vector: {lines:?}");
                for line in &lines {
                    assert_query_reply(line);
                }
                assert_eq!(lines[2], "miss", "the off-threshold probe misses");
                assert_eq!(end, SessionEnd::Closed, "EOF closes the session");
            }
            "topk" => {
                let (lines, end) = run("topk 2 1.0,0.0;0.0,0.0\n");
                assert_eq!(lines.len(), 2, "one reply line per vector: {lines:?}");
                for line in &lines {
                    assert_topk_reply(line);
                }
                assert!(lines[0].starts_with("hits "), "{lines:?}");
                assert_eq!(lines[1], "none", "the zero probe has no partner");
                assert_eq!(end, SessionEnd::Closed);
            }
            "insert" => {
                let (lines, _) = run("insert 0.5,0.5\n");
                assert_eq!(lines, vec!["inserted 3"], "ids continue after the build");
            }
            "delete" => {
                let (lines, _) = run("delete 1\nquery 0.0,1.0\n");
                assert_eq!(lines[0], "deleted 1");
                assert_eq!(lines[1], "miss", "the deleted vector stops answering");
            }
            "stats" => {
                let (lines, _) = run("query 1.0,0.0\nstats\n");
                let stats = &lines[1];
                assert!(stats.starts_with("stats family=brute "), "{stats}");
                for key in [
                    "live=",
                    "queries=",
                    "hits=",
                    "inserts=",
                    "deletes=",
                    "rebuilds=",
                    "avg_query_ns=",
                    "shards=",
                    "shard_live=",
                    "connections=",
                    "coalesced_batches=",
                    "p50_query_ns=",
                    "p90_query_ns=",
                    "p99_query_ns=",
                    "strategy=",
                    "drift_score=",
                    "migrations=",
                ] {
                    assert!(stats.contains(key), "stats must report {key}: {stats}");
                }
                // The latency percentiles are *windowed*: a second `stats`
                // after an idle interval reports an empty window, not the
                // lifetime distribution.
                let (lines, _) = run("query 1.0,0.0\nstats\nstats\n");
                assert!(
                    lines[1].contains("p50_query_ns=") && !lines[1].contains("p50_query_ns=0 ")
                );
                assert!(
                    lines[2].contains("p50_query_ns=0 "),
                    "an idle window reports zero percentiles: {}",
                    lines[2]
                );
            }
            "plan" => {
                let (lines, _) = run("query 1.0,0.0\nplan\n");
                assert_eq!(
                    lines[1], "plan strategy=brute drift_score=0.000 migrations=0 live=3",
                    "the adaptive state reply has a fixed shape"
                );
            }
            "metrics" => {
                let (lines, _) = run("query 1.0,0.0\nmetrics\n");
                let text = lines[1..].join("\n");
                assert_eq!(lines.last().unwrap(), "# EOF", "framed for the protocol");
                for name in [
                    "ips_queries_total",
                    "ips_hits_total",
                    "ips_inserts_total",
                    "ips_deletes_total",
                    "ips_rebuilds_total",
                    "ips_connections_total",
                    "ips_coalesced_batches_total",
                    "ips_live_vectors",
                    "ips_shard_live_vectors",
                    "ips_query_latency_ns",
                    "ips_stage_ns",
                    "ips_observed",
                    "ips_migrations_total",
                    "ips_drift_score_milli",
                ] {
                    assert!(
                        text.contains(&format!("# TYPE {name} ")),
                        "metrics must expose {name}: {text}"
                    );
                }
                assert!(text.contains("\nips_queries_total 1\n"), "{text}");
                // Every sample line is `name[{labels}] <integer>`; HELP/TYPE
                // lines and the EOF marker are the only comments.
                for line in text.lines() {
                    if line.starts_with('#') {
                        assert!(
                            line.starts_with("# HELP ")
                                || line.starts_with("# TYPE ")
                                || line == "# EOF",
                            "unexpected comment line: {line}"
                        );
                        continue;
                    }
                    let (_, value) = line.rsplit_once(' ').expect("sample shape");
                    assert!(value.parse::<u64>().is_ok(), "integer sample: {line}");
                }
                // Per-stage histogram series and per-shard live gauges exist.
                assert!(
                    text.contains("ips_stage_ns_bucket{stage=\"engine\","),
                    "{text}"
                );
                assert!(
                    text.contains("ips_shard_live_vectors{shard=\"0\"}"),
                    "{text}"
                );
                assert!(
                    text.contains("ips_shard_live_vectors{shard=\"1\"}"),
                    "{text}"
                );
            }
            "trace" => {
                let (lines, _) = run("trace on\nquery 1.0,0.0\ntrace off\nquery 1.0,0.0\n");
                assert_eq!(lines[0], "trace on");
                let trace = &lines[1];
                for key in [
                    "trace parse=",
                    " coalesce_wait=0",
                    " lock_wait=",
                    " engine=",
                    " merge=",
                    " demux=",
                    " queries=1",
                    " batch=1",
                ] {
                    assert!(trace.contains(key), "trace line must report {key}: {trace}");
                }
                let engine_ns: u64 = trace
                    .split("engine=")
                    .nth(1)
                    .unwrap()
                    .split(' ')
                    .next()
                    .unwrap()
                    .parse()
                    .unwrap();
                assert!(engine_ns > 0, "the engine stage takes measurable time");
                assert_eq!(lines[2], "hit 0 +0.900000", "traced answers are identical");
                assert_eq!(lines[3], "trace off");
                assert_eq!(lines[4], "hit 0 +0.900000", "no trace line once off");
                assert_eq!(lines.len(), 5);
                // A malformed toggle is a usage error.
                let (lines, _) = run("trace maybe\n");
                assert!(
                    lines[0].starts_with("error: usage error: trace needs"),
                    "{lines:?}"
                );
            }
            "save" => {
                let dir = std::env::temp_dir().join("ips-serve-protocol-test");
                std::fs::create_dir_all(&dir).unwrap();
                let path = dir.join("conformance.snap");
                let (lines, _) = run(&format!("save {}\n", path.display()));
                let line = &lines[0];
                assert!(line.starts_with("saved "), "{line}");
                let bytes: u64 = line
                    .rsplit_once('(')
                    .and_then(|(_, tail)| tail.strip_suffix(" bytes)"))
                    .expect("saved reply shape")
                    .parse()
                    .expect("saved byte count");
                assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
                std::fs::remove_file(&path).unwrap();
            }
            "help" => {
                let (lines, _) = run("help\n");
                assert_eq!(lines.join("\n"), protocol_help());
                // The generated summary names every protocol command — the
                // REPL can never drift from the table driving this test.
                for c in SERVE_PROTOCOL {
                    assert!(
                        lines.iter().any(|l| l.contains(c.usage)),
                        "help must list `{}`",
                        c.usage
                    );
                }
            }
            "shutdown" => {
                let (lines, end) = run("shutdown\nquery 1.0,0.0\n");
                assert_eq!(lines, vec!["bye"], "nothing answers after shutdown");
                assert_eq!(end, SessionEnd::Shutdown, "shutdown is distinguishable");
            }
            "quit" => {
                for word in ["quit", "exit"] {
                    let (lines, end) = run(&format!("{word}\nquery 1.0,0.0\n"));
                    assert_eq!(lines, vec!["bye"], "nothing answers after {word}");
                    assert_eq!(end, SessionEnd::Closed);
                }
            }
            other => {
                panic!("protocol command `{other}` has no conformance exercise — extend this test")
            }
        }
    }
}

#[test]
fn errors_are_reported_inline_and_do_not_end_the_session() {
    let (lines, end) = run("bogus\nquery 1.0,0.0\n");
    assert!(
        lines[0].starts_with("error: usage error: unknown command `bogus`"),
        "{lines:?}"
    );
    assert!(lines[0].contains("query"), "the error names the commands");
    assert_eq!(lines[1], "hit 0 +0.900000", "the session keeps answering");
    assert_eq!(end, SessionEnd::Closed);
}

/// The standalone protocol document (`docs/PROTOCOL.md`) is normative: every
/// command of the declarative table must have a row in its command table, and
/// the usage column must match the table's usage string (modulo the markdown
/// escaping of `|`). Adding a protocol command without documenting it fails
/// here; the reply-shape checks above keep the documented shapes honest.
#[test]
fn protocol_doc_lists_every_command() {
    let doc = include_str!("../../docs/PROTOCOL.md");
    for c in SERVE_PROTOCOL {
        let row = doc
            .lines()
            .find(|l| l.starts_with(&format!("| `{}` |", c.name)))
            .unwrap_or_else(|| {
                panic!(
                    "docs/PROTOCOL.md has no command-table row for `{}` — document it",
                    c.name
                )
            });
        let escaped_usage = c.usage.replace('|', "\\|");
        assert!(
            row.contains(&format!("`{escaped_usage}`")),
            "the `{}` row must carry its usage `{}`: {row}",
            c.name,
            c.usage
        );
    }
    // The framing rules documented up top stay tied to the implementation's
    // actual markers.
    for marker in ["error: ", "# EOF", "bye"] {
        assert!(
            doc.contains(marker),
            "docs/PROTOCOL.md must describe the `{marker}` marker"
        );
    }
}

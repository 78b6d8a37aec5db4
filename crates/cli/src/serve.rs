//! `ips serve` — the line-protocol REPL over a loaded snapshot.
//!
//! One command per line on stdin, one or more reply lines on stdout, errors as
//! `error: …` lines (the session keeps going). The protocol is deliberately plain so
//! it can be scripted with a heredoc or driven by another process:
//!
//! ```text
//! query 0.1,0.2,0.3[;0.4,0.5,0.6 ...]   one reply line per vector:
//!                                         hit <id> <inner product>   |   miss
//! topk <k> <vector>[;<vector> ...]      one reply line per vector:
//!                                         hits <id>:<ip>,<id>:<ip>…  |   none
//! insert 0.1,0.2,0.3                    inserted <id>
//! delete <id>                           deleted <id>
//! stats                                 stats family=… live=… queries=… hits=…
//!                                         inserts=… deletes=… rebuilds=… avg_query_ns=…
//!                                         shards=… shard_live=…,…  (per-shard counts)
//!                                         connections=… coalesced_batches=…
//!                                         p50_query_ns=… p90_query_ns=… p99_query_ns=…
//!                                         (percentiles cover traffic since the
//!                                         previous `stats`)
//!                                         strategy=… drift_score=… migrations=…
//! plan                                  plan strategy=… drift_score=… migrations=… live=…
//!                                         (the adaptive controller's view: what is
//!                                         serving, how far the workload has drifted)
//! metrics                               Prometheus text exposition, terminated
//!                                         by a `# EOF` line (the multi-line
//!                                         reply's framing marker)
//! trace on|off                          per-session per-stage tracing: each
//!                                         subsequent query/topk emits a
//!                                         `trace parse=… … demux=…` breakdown
//!                                         line before its answers (traced
//!                                         requests bypass the coalescer)
//! save <path>                           saved <path> (<bytes> bytes)
//! help                                  command summary
//! shutdown                              bye (over TCP, also stops the whole server)
//! quit | exit                           bye (EOF works too)
//! ```
//!
//! Vectors are comma-separated coordinates (the CSV line format of the data files);
//! `;` separates the vectors of one batch, which is answered through the
//! [`ips_core::JoinEngine`] in a single [`ShardedServingIndex::query`] call.
//!
//! The same session loop also backs the TCP front-end ([`crate::net`]): each
//! connection runs [`serve_session_with`] over its stream with a
//! [`SessionOptions`] that bounds line length (malformed or hostile input fails
//! that connection alone) and routes `query`/`topk` through the shared
//! [`Coalescer`], merging concurrent single-query requests into batched engine
//! passes.

use crate::dataset::parse_row;
use crate::error::{CliError, Result};
use ips_core::engine::Ask;
use ips_core::problem::MatchPair;
use ips_linalg::DenseVector;
use ips_obs::{Observable, Stage, TraceCapture, TraceSink, NOOP_SINK};
use ips_store::{Coalescer, ShardedServingIndex};
use std::io::{BufRead, Write};
use std::time::Instant;

/// Parses one `a,b,c` coordinate list — a data line of a CSV file, by the file
/// reader's own rule.
fn parse_vector(text: &str) -> Result<DenseVector> {
    let mut coords = Vec::new();
    parse_row(text, &mut None, &mut coords).map_err(|reason| CliError::Usage { reason })?;
    Ok(DenseVector::new(coords))
}

/// Parses a `;`-separated batch of vectors.
fn parse_batch(text: &str) -> Result<Vec<DenseVector>> {
    text.split(';').map(|v| parse_vector(v.trim())).collect()
}

// The REPL's `help` reply is generated from the same declarative protocol table
// (`schema::SERVE_PROTOCOL`) that `ips help serve` renders, so the two can
// never drift; see `crate::schema::protocol_help`.

/// Per-session tuning of [`serve_session_with`]. [`Default`] reproduces the
/// classic stdin REPL behaviour: no coalescing (the REPL is one client — there
/// is nothing to merge with) and a line cap generous enough that no legitimate
/// scripted session ever hits it.
pub struct SessionOptions<'a> {
    /// Route `query`/`topk` through this shared batcher instead of calling the
    /// index directly — the TCP front-end passes the server-wide [`Coalescer`]
    /// here so concurrent connections merge into one engine pass.
    pub coalescer: Option<&'a Coalescer>,
    /// Longest accepted protocol line in bytes; a longer line is answered with
    /// an `error:` reply and ends the session (a client that overruns the cap
    /// is not speaking the protocol, and resynchronising inside its stream
    /// would mean buffering it unboundedly — the exact attack the cap stops).
    pub max_line_bytes: usize,
}

impl Default for SessionOptions<'_> {
    fn default() -> Self {
        Self {
            coalescer: None,
            max_line_bytes: 1 << 20,
        }
    }
}

/// Why a session ended — the TCP front-end acts on the difference
/// ([`SessionEnd::Shutdown`] stops the whole server, not just the connection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEnd {
    /// EOF, `quit`/`exit`, or an over-long line: only this session ends.
    Closed,
    /// The `shutdown` admin command: the server should stop accepting and
    /// drain.
    Shutdown,
}

/// What one executed line means for the session.
enum Flow {
    Continue,
    End(SessionEnd),
}

/// One read off the session input.
enum LineRead {
    Eof,
    Line(Vec<u8>),
    Overlong,
}

/// Reads one `\n`-terminated line of at most `cap` bytes without ever buffering
/// more than `cap` bytes of an attacker-controlled stream (the reason this is
/// not `BufRead::read_until`, which buffers the whole line first). A trailing
/// `\r` is stripped, matching `BufRead::lines`.
fn read_line_capped<R: BufRead>(input: &mut R, cap: usize) -> std::io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let available = input.fill_buf()?;
        if available.is_empty() {
            if buf.is_empty() {
                return Ok(LineRead::Eof);
            }
            break;
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if buf.len() + pos > cap {
                    input.consume(pos + 1);
                    return Ok(LineRead::Overlong);
                }
                buf.extend_from_slice(&available[..pos]);
                input.consume(pos + 1);
                break;
            }
            None => {
                let n = available.len();
                if buf.len() + n > cap {
                    input.consume(n);
                    return Ok(LineRead::Overlong);
                }
                buf.extend_from_slice(available);
                input.consume(n);
            }
        }
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    Ok(LineRead::Line(buf))
}

/// Answers a parsed `query` or `topk` batch — through the coalescer when the
/// session has one (bit-identical either way; see `ips_store::coalesce`), directly
/// otherwise. A traced session bypasses the coalescer (the capture must cover
/// exactly this request's stages, not a merged batch's) and appends a
/// per-stage `trace` breakdown line; answers are bit-identical either way.
fn answer(
    serving: &ShardedServingIndex,
    coalescer: Option<&Coalescer>,
    trace: Option<(u64, &mut Vec<String>)>,
    queries: Vec<DenseVector>,
    ask: Ask,
) -> Result<Vec<MatchPair>> {
    if let Some((parse_ns, out)) = trace {
        let capture = TraceCapture::new();
        capture.stage_ns(Stage::Parse, parse_ns);
        let pairs = serving.answer(&queries, ask, &capture)?;
        out.push(trace_line(&capture, queries.len()));
        return Ok(pairs);
    }
    Ok(match coalescer {
        Some(c) => c.answer(queries, ask)?,
        None => serving.answer(&queries, ask, &NOOP_SINK)?,
    })
}

/// Renders one captured per-stage breakdown, every stage always present in
/// pipeline order (a stage that did not run reports 0 — `coalesce_wait` is
/// always 0 here because traced requests bypass the coalescer).
fn trace_line(capture: &TraceCapture, queries: usize) -> String {
    let mut line = String::from("trace");
    for stage in Stage::ALL {
        line.push_str(&format!(" {}={}", stage.name(), capture.stage(stage)));
    }
    line.push_str(&format!(
        " queries={queries} batch={}",
        capture.observable(Observable::BatchSize)
    ));
    line
}

/// Executes one protocol line, appending reply lines to `out`. The serving
/// index is shared (`&`): its shard locks provide the interior mutability,
/// which is what lets the TCP front-end serve the same index from many
/// sessions at once.
fn execute(
    serving: &ShardedServingIndex,
    coalescer: Option<&Coalescer>,
    trace: &mut bool,
    line: &str,
    out: &mut Vec<String>,
) -> Result<Flow> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(Flow::Continue);
    }
    let (command, rest) = line.split_once(' ').unwrap_or((line, ""));
    let rest = rest.trim();
    match command {
        "query" | "topk" => {
            let (ask, batch) = if command == "topk" {
                let (k, batch) = rest.split_once(' ').ok_or_else(|| CliError::Usage {
                    reason: "topk needs `topk <k> <vector>[;<vector>...]`".into(),
                })?;
                let k: usize = k.parse().map_err(|_| CliError::Usage {
                    reason: format!("`{k}` is not a k"),
                })?;
                (Ask::TopK(k), batch)
            } else {
                (Ask::Threshold, rest)
            };
            let parse_start = Instant::now();
            let queries = parse_batch(batch)?;
            let parse_ns = parse_start.elapsed().as_nanos() as u64;
            let n = queries.len();
            let trace = trace.then_some((parse_ns, &mut *out));
            let pairs = answer(serving, coalescer, trace, queries, ask)?;
            let mut by_query: Vec<Vec<MatchPair>> = vec![Vec::new(); n];
            for p in pairs {
                by_query[p.query_index].push(p);
            }
            let hit = |p: &MatchPair| format!("{}:{:+.6}", p.data_index, p.inner_product);
            for hits in by_query {
                out.push(match (ask, hits.as_slice()) {
                    (Ask::Threshold, [.., p]) => {
                        format!("hit {} {:+.6}", p.data_index, p.inner_product)
                    }
                    (Ask::Threshold, []) => "miss".to_string(),
                    (Ask::TopK(_), []) => "none".to_string(),
                    (Ask::TopK(_), hits) => {
                        format!(
                            "hits {}",
                            hits.iter().map(hit).collect::<Vec<_>>().join(",")
                        )
                    }
                });
            }
        }
        "insert" => {
            let id = serving.insert(parse_vector(rest)?)?;
            out.push(format!("inserted {id}"));
        }
        "delete" => {
            let id: u64 = rest.parse().map_err(|_| CliError::Usage {
                reason: format!("`{rest}` is not an id"),
            })?;
            serving.delete(id)?;
            out.push(format!("deleted {id}"));
        }
        "stats" => {
            let stats = serving.stats();
            let shard_live: Vec<String> = serving
                .shard_lens()
                .iter()
                .map(|live| live.to_string())
                .collect();
            // Percentiles come from the windowed snapshot — traffic since the
            // previous `stats` — so they describe current behaviour, not the
            // session's lifetime average (the first `stats` covers everything
            // so far).
            let latency = serving.query_latency_window();
            out.push(format!(
                "stats family={} live={} queries={} hits={} inserts={} deletes={} rebuilds={} avg_query_ns={} shards={} shard_live={} connections={} coalesced_batches={} p50_query_ns={} p90_query_ns={} p99_query_ns={} strategy={} drift_score={:.3} migrations={}",
                serving.family(),
                serving.len(),
                stats.queries,
                stats.hits,
                stats.inserts,
                stats.deletes,
                stats.rebuilds,
                stats.avg_query_ns(),
                serving.shard_count(),
                shard_live.join(","),
                stats.connections,
                stats.coalesced_batches,
                latency.percentile(50),
                latency.percentile(90),
                latency.percentile(99),
                serving.family(),
                serving.drift_score(),
                serving.migrations(),
            ));
        }
        "plan" => {
            out.push(format!(
                "plan strategy={} drift_score={:.3} migrations={} live={}",
                serving.family(),
                serving.drift_score(),
                serving.migrations(),
                serving.len(),
            ));
        }
        "metrics" => {
            // The exposition ends with its own `# EOF\n` framing line; the
            // session loop re-appends the final newline per reply, so strip
            // one here to keep the output byte-stable.
            let text = serving.prometheus_metrics();
            out.push(text.trim_end_matches('\n').to_string());
        }
        "trace" => match rest {
            "on" => {
                *trace = true;
                out.push("trace on".to_string());
            }
            "off" => {
                *trace = false;
                out.push("trace off".to_string());
            }
            _ => {
                return Err(CliError::Usage {
                    reason: "trace needs `trace on` or `trace off`".into(),
                })
            }
        },
        "save" => {
            if rest.is_empty() {
                return Err(CliError::Usage {
                    reason: "save needs a path".into(),
                });
            }
            let bytes = serving.save(std::path::Path::new(rest))?;
            out.push(format!("saved {rest} ({bytes} bytes)"));
        }
        "help" => out.push(crate::schema::protocol_help()),
        "shutdown" => {
            out.push("bye".to_string());
            return Ok(Flow::End(SessionEnd::Shutdown));
        }
        "quit" | "exit" => {
            out.push("bye".to_string());
            return Ok(Flow::End(SessionEnd::Closed));
        }
        other => {
            let known: Vec<&str> = crate::schema::SERVE_PROTOCOL
                .iter()
                .map(|c| c.name)
                .collect();
            return Err(CliError::Usage {
                reason: format!(
                    "unknown command `{other}` (try `help`; commands are {})",
                    known.join(", ")
                ),
            });
        }
    }
    Ok(Flow::Continue)
}

/// Drives a whole serve session: reads protocol lines from `input` until EOF,
/// `quit` or `shutdown`, writing replies to `output`. Errors in individual
/// commands are reported as `error: …` lines and the session continues; a line
/// that is not valid UTF-8 is an `error:` line too (the framing is intact, the
/// session keeps going); a line longer than
/// [`SessionOptions::max_line_bytes`] ends the session after an `error:`
/// reply. Only I/O failures — including a connection read timeout — end it
/// early with an `Err`.
pub fn serve_session_with<R: BufRead, W: Write>(
    serving: &ShardedServingIndex,
    options: &SessionOptions<'_>,
    mut input: R,
    mut output: W,
) -> Result<SessionEnd> {
    writeln!(
        output,
        "serving {} index: {} live vectors, dim {}, {} shard(s) (try `help`)",
        serving.family(),
        serving.len(),
        serving.dim(),
        serving.shard_count()
    )?;
    output.flush()?;
    let mut trace = false;
    loop {
        let line = match read_line_capped(&mut input, options.max_line_bytes)? {
            LineRead::Eof => return Ok(SessionEnd::Closed),
            LineRead::Overlong => {
                writeln!(
                    output,
                    "error: line exceeds {} bytes; closing session",
                    options.max_line_bytes
                )?;
                output.flush()?;
                return Ok(SessionEnd::Closed);
            }
            LineRead::Line(bytes) => match String::from_utf8(bytes) {
                Ok(line) => line,
                Err(_) => {
                    writeln!(output, "error: line is not valid UTF-8")?;
                    output.flush()?;
                    continue;
                }
            },
        };
        let mut replies = Vec::new();
        match execute(serving, options.coalescer, &mut trace, &line, &mut replies) {
            Ok(flow) => {
                for reply in replies {
                    writeln!(output, "{reply}")?;
                }
                if let Flow::End(end) = flow {
                    output.flush()?;
                    return Ok(end);
                }
            }
            Err(e) => writeln!(output, "error: {e}")?,
        }
        output.flush()?;
    }
}

/// The classic stdin/stdout session: [`serve_session_with`] under
/// [`SessionOptions::default`] (no coalescing, generous line cap — behaviour
/// unchanged from before the TCP front-end existed).
pub fn serve_session<R: BufRead, W: Write>(
    serving: &ShardedServingIndex,
    input: R,
    output: W,
) -> Result<()> {
    serve_session_with(serving, &SessionOptions::default(), input, output).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_core::problem::{JoinSpec, JoinVariant};
    use ips_store::{CoalesceConfig, IndexConfig, ServingConfig, ShardedConfig};
    use std::sync::Arc;

    fn serving_with_shards(shards: usize) -> ShardedServingIndex {
        let data = vec![
            DenseVector::from(&[0.9, 0.0][..]),
            DenseVector::from(&[0.0, 0.8][..]),
        ];
        let spec = JoinSpec::new(0.5, 0.8, JoinVariant::Signed).unwrap();
        ShardedServingIndex::build(
            data,
            spec,
            IndexConfig::Brute,
            ShardedConfig {
                shards,
                serving: ServingConfig::default(),
            },
        )
        .unwrap()
    }

    fn run_sharded(session: &str, shards: usize) -> String {
        let index = serving_with_shards(shards);
        let mut out = Vec::new();
        serve_session(&index, session.as_bytes(), &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    fn run(session: &str) -> String {
        run_sharded(session, 1)
    }

    #[test]
    fn scripted_session_round_trip() {
        let out = run("query 1.0,0.0\nquery 1,0;0,1;0.1,0.1\ninsert 0.7,0.7\nquery 0.7,0.7\ndelete 2\nquery 0.7,0.7\nstats\nquit\nquery 1,0\n");
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("serving brute index: 2 live vectors, dim 2"));
        assert_eq!(lines[1], "hit 0 +0.900000");
        // Batched queries answer in order.
        assert_eq!(lines[2], "hit 0 +0.900000");
        assert_eq!(lines[3], "hit 1 +0.800000");
        assert_eq!(lines[4], "miss");
        assert_eq!(lines[5], "inserted 2");
        assert!(lines[6].starts_with("hit 2 "));
        assert_eq!(lines[7], "deleted 2");
        // With the insert gone, the best remaining partner (0.63 >= s) answers again.
        assert_eq!(lines[8], "hit 0 +0.630000");
        assert!(lines[9].starts_with("stats family=brute live=2 queries=6 hits=5"));
        assert!(lines[9].contains("inserts=1 deletes=1"));
        // A stdin session never accepted a connection nor coalesced anything.
        assert!(lines[9].contains("connections=0 coalesced_batches=0"));
        // Four query batches ran, so the latency percentiles are live.
        assert!(lines[9].contains(" p50_query_ns="), "{}", lines[9]);
        let p99 = lines[9]
            .split("p99_query_ns=")
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse::<u64>()
            .unwrap();
        assert!(p99 > 0);
        // The adaptive-state keys close the line: the strategy mirrors the
        // family, and an uncontrolled session reports zero drift/migrations.
        assert!(
            lines[9].ends_with("strategy=brute drift_score=0.000 migrations=0"),
            "{}",
            lines[9]
        );
        // quit ends the session: the trailing query is never answered.
        assert_eq!(*lines.last().unwrap(), "bye");
    }

    #[test]
    fn topk_help_comments_and_errors() {
        let out = run("# a comment\n\ntopk 2 1.0,0.0;0.05,0.05\nhelp\ntopk nope\nbogus\ndelete x\ndelete 99\ninsert 1,2,3\nquery 0,oops\n");
        assert!(out.contains("hits 0:+0.900000"), "{out}");
        assert!(out.contains("\nnone\n"), "{out}");
        assert!(out.contains("commands:"), "{out}");
        assert!(out.contains("error: usage error: topk needs"), "{out}");
        assert!(out.contains("error: usage error: unknown command `bogus`"));
        assert!(out.contains("error: usage error: `x` is not an id"));
        assert!(out.contains("error: store error: unknown or deleted vector id 99"));
        assert!(out.contains("dimension 3 != index dimension 2"));
        assert!(out.contains("error: usage error: `oops` is not a number"));
    }

    #[test]
    fn save_from_a_session_is_loadable() {
        let dir = std::env::temp_dir().join("ips-cli-serve-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.snap");
        let script = format!("insert 0.5,0.5\nsave {}\n", path.display());
        let out = run(&script);
        assert!(out.contains("inserted 2"));
        assert!(out.contains("saved "), "{out}");
        // A one-shard session writes the classic single-shard format.
        let reloaded = ips_store::ServingIndex::open(&path, ServingConfig::default()).unwrap();
        assert_eq!(reloaded.len(), 3);
        assert_eq!(reloaded.ids(), vec![0, 1, 2]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sharded_session_reports_per_shard_counts_and_same_answers() {
        let session = "query 1.0,0.0\ninsert 0.7,0.7\nquery 0.7,0.7\nstats\n";
        let sharded = run_sharded(session, 3);
        assert!(
            sharded.starts_with("serving brute index: 2 live vectors, dim 2, 3 shard(s)"),
            "{sharded}"
        );
        assert!(sharded.contains("shards=3"), "{sharded}");
        // Three comma-separated per-shard live counts that sum to the live total.
        let shard_live = sharded
            .lines()
            .find(|l| l.starts_with("stats "))
            .and_then(|l| l.split("shard_live=").nth(1))
            .expect("stats line carries shard_live=");
        let counts: Vec<usize> = shard_live
            .split_whitespace()
            .next()
            .expect("shard_live= counts precede the counter keys")
            .split(',')
            .map(|c| c.parse().unwrap())
            .collect();
        assert_eq!(counts.len(), 3);
        assert_eq!(counts.iter().sum::<usize>(), 3);
        // The answers match the single-shard session line for line (brute
        // decomposes exactly; only the banner and stats tail differ).
        let unsharded = run(session);
        let answer_lines = |out: &str| {
            out.lines()
                .filter(|l| l.starts_with("hit ") || *l == "miss" || l.starts_with("inserted "))
                .map(String::from)
                .collect::<Vec<_>>()
        };
        assert_eq!(answer_lines(&sharded), answer_lines(&unsharded));
    }

    #[test]
    fn shutdown_ends_the_session_with_the_shutdown_marker() {
        let index = serving_with_shards(1);
        let mut out = Vec::new();
        let end = serve_session_with(
            &index,
            &SessionOptions::default(),
            "query 1,0\nshutdown\nquery 1,0\n".as_bytes(),
            &mut out,
        )
        .unwrap();
        assert_eq!(end, SessionEnd::Shutdown);
        let text = String::from_utf8(out).unwrap();
        assert!(text.ends_with("bye\n"), "{text}");
        // The trailing query after shutdown is never answered.
        assert_eq!(text.matches("hit ").count(), 1, "{text}");
    }

    #[test]
    fn overlong_lines_end_the_session_and_non_utf8_lines_do_not() {
        let index = serving_with_shards(1);
        // Non-UTF-8 bytes: an error reply, then the session keeps answering.
        let mut input: Vec<u8> = Vec::new();
        input.extend_from_slice(b"query 1,0\n");
        input.extend_from_slice(&[0xFF, 0xFE, b'\n']);
        input.extend_from_slice(b"query 1,0\n");
        let mut out = Vec::new();
        let end = serve_session_with(
            &index,
            &SessionOptions::default(),
            input.as_slice(),
            &mut out,
        )
        .unwrap();
        assert_eq!(end, SessionEnd::Closed);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("error: line is not valid UTF-8"), "{text}");
        assert_eq!(text.matches("hit 0 ").count(), 2, "{text}");

        // An over-long line errors and closes (no unbounded buffering).
        let options = SessionOptions {
            max_line_bytes: 16,
            ..SessionOptions::default()
        };
        let long = format!("query {}\nquery 1,0\n", "1,0,".repeat(64));
        let mut out = Vec::new();
        let end = serve_session_with(&index, &options, long.as_bytes(), &mut out).unwrap();
        assert_eq!(end, SessionEnd::Closed);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("error: line exceeds 16 bytes"), "{text}");
        assert!(!text.contains("hit "), "{text}");
    }

    #[test]
    fn coalesced_session_answers_match_the_direct_path() {
        let session = "query 1.0,0.0;0.0,1.0\ntopk 2 1.0,0.0\nquery 0.1,0.1\n";
        let direct = run(session);
        let index = Arc::new(serving_with_shards(1));
        let coalescer = ips_store::Coalescer::new(Arc::clone(&index), CoalesceConfig::default());
        let options = SessionOptions {
            coalescer: Some(&coalescer),
            ..SessionOptions::default()
        };
        let mut out = Vec::new();
        serve_session_with(&index, &options, session.as_bytes(), &mut out).unwrap();
        let coalesced = String::from_utf8(out).unwrap();
        assert_eq!(coalesced, direct, "coalesced answers must be bit-identical");
    }
}

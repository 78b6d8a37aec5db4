//! The serving parts: a snapshot built and opened the way `ips build` and
//! `ips serve listen=` do, driven by closed-loop TCP connections whose every
//! reply is checked against an oracle computed at set-up.

use crate::data::{
    insert_pool, join_spec, phases, planted_instance, shape, Op, Phase, RequestLines, Role, Script,
};
use crate::outcome::Outcome;
use crate::protocol::{parse_reply, Reply};
use crate::spec::Part;
use crate::stats::{median, percentile};
use crate::trace::seconds_of;
use ips_cli::args::ParsedArgs;
use ips_cli::commands::{cmd_build, cmd_serve};
use ips_cli::dataset::write_vectors;
use ips_cli::net::{serve_tcp, NetConfig, NetServer};
use ips_cli::serve::{serve_session_with, SessionOptions};
use ips_linalg::DenseVector;
use ips_store::{CoalesceConfig, Coalescer, Index, IndexFamily, ShardedServingIndex};
use std::collections::VecDeque;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Closed loop: the protocol is one reply per request per connection and the
/// callers (batch linkage and recommendation jobs) wait for it. Connections =
/// generator threads = min(2, available parallelism).
pub fn connections() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2)
}

/// `snapshot_load_ms` is the median of this many loads.
const SNAPSHOT_LOADS: usize = 5;

/// The `ips build` settings that differ between the two serving parts.
fn build_arguments(part: Part) -> (&'static str, usize) {
    match part {
        Part::ServeScan => ("brute", 1),
        Part::ServeMixed => ("alsh", 2),
        Part::JoinSquare | Part::JoinSkinny => unreachable!("not a serving part"),
    }
}

/// Expected reply bytes (newline included) of `query` and `topk 10` for each
/// pool vector, from an in-process session over the loaded index.
pub struct Oracle {
    pub query: Vec<String>,
    pub topk: Vec<String>,
}

/// The CLI defaults that were actually in force, for the result stamp.
#[derive(Debug, Clone, Copy)]
pub struct ServeDefaults {
    pub workers: usize,
    pub coalesce: CoalesceConfig,
}

pub struct Served {
    pub part: Part,
    pub data: Vec<DenseVector>,
    pub queries: Vec<DenseVector>,
    pub lines: RequestLines,
    pub snapshot: PathBuf,
    pub coalescer: Arc<Coalescer>,
    pub server: NetServer,
    pub oracle: Oracle,
    pub defaults: ServeDefaults,
    pub seed: u64,
    /// A smoke run: too short to hold its percentiles to their sample counts.
    pub quick: bool,
}

impl Served {
    pub fn index(&self) -> &Arc<ShardedServingIndex> {
        self.coalescer.index()
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }
}

/// One full set-up: generate, write the CSV, `ips build`, `ips serve listen=`.
fn set_up_once(part: Part, seed: u64, quick: bool, dir: &Path) -> Served {
    let instance = planted_instance(seed, part, quick);
    let inserts = insert_pool(seed, part, shape(part, quick).dim);
    let lines = RequestLines::render(instance.queries(), &inserts);
    let csv = dir.join(format!("{}.csv", part.name()));
    let snapshot = dir.join(format!("{}.snap", part.name()));
    write_vectors(&csv, instance.data()).expect("write the data CSV");
    let (algorithm, shards) = build_arguments(part);
    let spec = join_spec();
    let build = ParsedArgs::parse(&[
        format!("data={}", csv.display()),
        format!("snapshot={}", snapshot.display()),
        format!("s={}", spec.threshold),
        format!("c={}", spec.approximation),
        format!("algorithm={algorithm}"),
        format!("shards={shards}"),
    ])
    .expect("key=value arguments");
    cmd_build(&build).expect("ips build");
    let serve = ParsedArgs::parse(&[
        format!("snapshot={}", snapshot.display()),
        "listen=127.0.0.1:0".to_string(),
    ])
    .expect("key=value arguments");
    let setup = cmd_serve(&serve).expect("ips serve");
    // From here on, what the `serve` arm of the `ips` binary does with a ServeSetup.
    let coalescer = Arc::new(Coalescer::new(Arc::new(setup.serving), setup.coalesce));
    let server = serve_tcp(
        Arc::clone(&coalescer),
        NetConfig {
            addr: setup.listen.expect("listen= was given"),
            workers: setup.workers,
            read_timeout: (setup.timeout_secs > 0)
                .then(|| Duration::from_secs(setup.timeout_secs as u64)),
            ..NetConfig::default()
        },
    )
    .expect("listen on loopback");
    Served {
        part,
        data: instance.data().to_vec(),
        queries: instance.queries().to_vec(),
        lines,
        snapshot,
        coalescer,
        server,
        oracle: Oracle {
            query: Vec::new(),
            topk: Vec::new(),
        },
        defaults: ServeDefaults {
            workers: setup.workers,
            coalesce: setup.coalesce,
        },
        seed,
        quick,
    }
}

/// Sets the part up and returns it with the seconds the set-up took. Ageing
/// and the oracle come afterwards and are not set-up time: they are the
/// benchmark's work, not the product's.
pub fn set_up(part: Part, seed: u64, quick: bool, dir: &Path, out: &mut Outcome) -> (Served, f64) {
    let start = Instant::now();
    let mut served = set_up_once(part, seed, quick, dir);
    let seconds = start.elapsed().as_secs_f64();
    age(&served);
    served.oracle = oracle(&served, out);
    (served, seconds)
}

/// The seconds of `repeats` more set-ups, each stopped before the next
/// starts. They run once the part has measured and read its peak memory:
/// what earlier set-ups leave in the heap would raise the high-water mark
/// of the next `ips build` by a fifth.
pub fn set_up_again(part: Part, seed: u64, quick: bool, dir: &Path, repeats: usize) -> Vec<f64> {
    (0..repeats)
        .map(|_| {
            let (served, seconds) = seconds_of(|| set_up_once(part, seed, quick, dir));
            drop(served);
            seconds
        })
        .collect()
}

/// How far towards a rebuild the served index starts the run: this share of
/// the dead slots at which a shard rebuilds itself.
const AGED_SHARE: f64 = 0.8;

/// Leaves the index the dead slots of a server a quarter of a minute into the
/// mixed script. A delete leaves a dead slot, and a shard whose dead slots pass
/// `rebuild_threshold` (a quarter) of its live points rebuilds itself under
/// its write lock. From a fresh build the mixed script gets there after about
/// 50 000 requests, which at today's rate is the very end of the measured
/// window: some runs would hold the rebuilds and others not. Aged four fifths
/// of the way, every run holds exactly one rebuild per shard, early in the
/// window at anything from a quarter of today's rate to a fifth above it.
/// A brute index rebuilds on every write and has nothing to age.
fn age(served: &Served) {
    let index = served.index();
    if index.family() == IndexFamily::Brute {
        return;
    }
    let threshold = index.serving_config().rebuild_threshold;
    let writes = (AGED_SHARE * threshold * index.len() as f64) as usize;
    let pool = insert_pool(served.seed, served.part, index.dim());
    let ids: Vec<u64> = (0..writes)
        .map(|k| index.insert(pool[k % pool.len()].clone()).expect("insert"))
        .collect();
    for id in ids {
        index.delete(id).expect("delete");
    }
    assert_eq!(index.stats().rebuilds, 0, "ageing stops short of a rebuild");
}

/// Runs every pool vector's `query` and `topk` through an in-process session
/// (no socket, no coalescer) and validates each expected hit independently:
/// the inner product recomputed from the server's own stored vector must match
/// the printed one and clear cs.
fn oracle(served: &Served, out: &mut Outcome) -> Oracle {
    let n = served.queries.len();
    let script: String = served
        .lines
        .query
        .iter()
        .chain(served.lines.topk.iter())
        .map(String::as_str)
        .collect();
    let mut replies = Vec::new();
    serve_session_with(
        served.index(),
        &SessionOptions::default(),
        script.as_bytes(),
        &mut replies,
    )
    .expect("in-process session");
    let text = String::from_utf8(replies).expect("replies are UTF-8");
    let mut lines = text.split_inclusive('\n').skip(1).map(str::to_string);
    let query: Vec<String> = lines.by_ref().take(n).collect();
    let topk: Vec<String> = lines.collect();
    assert_eq!(
        (query.len(), topk.len()),
        (n, n),
        "one reply line per request"
    );

    let spec = join_spec();
    let mut hits = 0usize;
    for (command, expected) in [("query", &query), ("topk", &topk)] {
        for (q, line) in served.queries.iter().zip(expected) {
            let found = match parse_reply(command, line.trim_end_matches('\n')) {
                Ok(Reply::Hit { id, ip }) => vec![(id, ip)],
                Ok(Reply::Hits(list)) => list,
                Ok(_) => Vec::new(),
                Err(message) => {
                    out.fail(1, format!("oracle: {message}"));
                    continue;
                }
            };
            hits += found.len();
            for (id, printed) in found {
                let ip = served.index().vector(id).ok().and_then(|v| v.dot(q).ok());
                if !ip.is_some_and(|ip| spec.acceptable(ip) && (ip - printed).abs() <= 1e-6) {
                    out.fail(
                        1,
                        format!(
                            "oracle: `{}` names id {id} whose inner product is {ip:?}",
                            line.trim_end()
                        ),
                    );
                }
            }
        }
    }
    if hits == 0 {
        out.fail(1, "oracle: no planted query found its partner".to_string());
    }
    Oracle { query, topk }
}

/// A connected client: the banner is read, requests go out one at a time.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    reply: String,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = Self {
            reader: BufReader::new(stream.try_clone()?),
            stream,
            reply: String::new(),
        };
        client.read_line()?;
        if !client.reply.starts_with("serving ") {
            return Err(std::io::Error::other(format!(
                "unexpected banner `{}`",
                client.reply.trim_end()
            )));
        }
        Ok(client)
    }

    fn read_line(&mut self) -> std::io::Result<()> {
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(std::io::Error::other("the server closed the connection"));
        }
        Ok(())
    }

    /// One round trip: request written to reply line read (newline included).
    pub fn round_trip(&mut self, line: &str) -> std::io::Result<(&str, Instant, Instant)> {
        let start = Instant::now();
        self.stream.write_all(black_box(line).as_bytes())?;
        self.read_line()?;
        let end = Instant::now();
        Ok((black_box(self.reply.as_str()), start, end))
    }
}

/// Latencies in microseconds of the requests one phase completed, per op
/// (query, topk, insert, delete).
#[derive(Debug, Clone, Default)]
pub struct PhaseLog {
    latencies: [Vec<f64>; 4],
}

impl PhaseLog {
    fn completed(&self) -> usize {
        self.latencies.iter().map(Vec::len).sum()
    }
}

fn op_slot(op: Op) -> usize {
    match op {
        Op::Query(_) => 0,
        Op::TopK(_) => 1,
        Op::Insert(_) => 2,
        Op::Delete => 3,
    }
}

/// Checks one reply; returns the id an `insert` was given.
fn check(served: &Served, op: Op, delete_id: u64, reply: &str) -> Result<Option<u64>, String> {
    let expected = match op {
        Op::Query(i) => &served.oracle.query[i],
        Op::TopK(i) => &served.oracle.topk[i],
        Op::Insert(_) => {
            return match parse_reply("insert", reply.trim_end_matches('\n'))? {
                Reply::Inserted(id) => Ok(Some(id)),
                other => Err(format!("`insert` answered {other:?}")),
            }
        }
        Op::Delete => {
            return match parse_reply("delete", reply.trim_end_matches('\n'))? {
                Reply::Deleted(id) if id == delete_id => Ok(None),
                other => Err(format!("`delete {delete_id}` answered {other:?}")),
            }
        }
    };
    if reply == expected {
        Ok(None)
    } else {
        // Say what kind of failure it is: an error line, a malformed reply, or a wrong answer.
        parse_reply(op.name(), reply.trim_end_matches('\n'))?;
        Err(format!(
            "`{}` answered `{}`, the oracle has `{}`",
            op.name(),
            reply.trim_end(),
            expected.trim_end()
        ))
    }
}

/// One connection's run through the phases: one log per phase (empty for the
/// warm-up) and what it attempted and failed.
fn client(
    served: &Served,
    connection: usize,
    phases: &[Phase],
    start: &Barrier,
) -> (Vec<PhaseLog>, Outcome) {
    let mut logs = vec![PhaseLog::default(); phases.len()];
    let mut outcome = Outcome::default();
    let mut client = Client::connect(served.addr()).expect("connect to the server");
    // Ids of this connection's own inserts that it has not deleted yet. An
    // insert that failed never gets here, so no delete is sent for it.
    let mut live: VecDeque<u64> = VecDeque::new();
    start.wait();
    let mut opens = Instant::now();
    'phases: for (k, phase) in phases.iter().enumerate() {
        let closes = opens + Duration::from_secs_f64(phase.seconds);
        let recorded = phase.role != Role::WarmUp;
        let mut script = Script::new(
            served.seed,
            served.part,
            connection,
            k,
            phase.mix,
            served.queries.len(),
            served.lines.insert.len(),
        );
        loop {
            let op = script.next_op(!live.is_empty());
            let delete_id = match op {
                Op::Delete => live.pop_front().expect("drawn only while deletable"),
                _ => 0,
            };
            let line = served.lines.line(op, delete_id);
            let (reply, sent, received) = match client.round_trip(&line) {
                Ok(trip) => trip,
                Err(e) => {
                    outcome.attempted += 1;
                    outcome.fail(1, format!("connection {connection}: {e}"));
                    break 'phases;
                }
            };
            // A failure counts whenever it happens, the warm-up included.
            let checked = check(served, op, delete_id, reply);
            if recorded || checked.is_err() {
                outcome.attempted += 1;
            }
            let answered = checked.is_ok();
            match checked {
                Ok(inserted) => live.extend(inserted),
                Err(message) => outcome.fail(1, message),
            }
            // The request in flight when a phase closes belongs to neither phase.
            if received >= closes {
                break;
            }
            // A failed request has no latency: it is counted, not timed.
            if recorded && answered {
                logs[k].latencies[op_slot(op)]
                    .push(received.duration_since(sent).as_secs_f64() * 1e6);
            }
        }
        opens = closes;
    }
    (logs, outcome)
}

/// Counters of one closed-loop run.
pub struct LoopCounts {
    pub queries: u64,
    pub passes: u64,
    pub merged_passes: u64,
    /// Shard rebuilds the run's deletes set off (dead slots past the threshold).
    pub rebuilds: u64,
}

/// Runs the closed loop through `phases`. Returns one log per phase, merged
/// over the connections.
fn closed_loop(
    served: &Served,
    phases: &[Phase],
    out: &mut Outcome,
) -> (Vec<PhaseLog>, LoopCounts) {
    let connections = connections();
    let barrier = Barrier::new(connections);
    let passes = || {
        let telemetry = served.index().telemetry();
        telemetry.observable(ips_obs::Observable::BatchSize).count()
    };
    let (stats_before, passes_before) = (served.index().stats(), passes());
    let runs: Vec<(Vec<PhaseLog>, Outcome)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..connections)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || client(served, c, phases, barrier))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    let stats = served.index().stats();
    let counts = LoopCounts {
        queries: stats.queries - stats_before.queries,
        passes: passes() - passes_before,
        merged_passes: stats.coalesced_batches - stats_before.coalesced_batches,
        rebuilds: stats.rebuilds - stats_before.rebuilds,
    };
    let mut merged = vec![PhaseLog::default(); phases.len()];
    for (logs, outcome) in runs {
        for (all, own) in merged.iter_mut().zip(logs) {
            for (a, o) in all.latencies.iter_mut().zip(own.latencies) {
                a.extend(o);
            }
        }
        out.absorb(outcome);
    }
    (merged, counts)
}

pub fn load_snapshot(path: &Path) -> (ShardedServingIndex, f64) {
    let start = Instant::now();
    let index = Index::open(black_box(path))
        .serve_sharded()
        .expect("load the snapshot");
    let seconds = start.elapsed().as_secs_f64();
    (black_box(index), seconds)
}

/// Reports percentile `p` of `latencies` as `name`. With fewer than ten
/// samples beyond it the percentile is not supported: that is a failure of
/// the run (unless it is a smoke run), reported with the median of what there
/// is or, with nothing at all, the length of the phase: no such request
/// completed within it.
fn put_percentile(
    out: &mut Outcome,
    name: &'static str,
    latencies: &[f64],
    p: f64,
    phase_us: f64,
    smoke: bool,
) {
    match percentile(latencies, p) {
        Some(value) => out.put(name, value),
        None => {
            if !smoke {
                out.fail(
                    1,
                    format!(
                        "{name}: {} samples, too few for percentile {p}",
                        latencies.len()
                    ),
                );
            }
            let stand_in = if latencies.is_empty() {
                phase_us
            } else {
                median(latencies)
            };
            out.put(name, stand_in);
        }
    }
}

/// The request metrics of one closed-loop run: throughput and the `query`
/// latencies from the window, the other ops' from every measured phase.
fn put_request_metrics(phases: &[Phase], logs: &[PhaseLog], smoke: bool, out: &mut Outcome) {
    let (mut window_seconds, mut measured_seconds) = (0.0, 0.0);
    let mut completed = 0usize;
    let mut queries = Vec::new();
    let mut others: [Vec<f64>; 3] = Default::default();
    for (phase, log) in phases.iter().zip(logs) {
        if phase.role == Role::WarmUp {
            continue;
        }
        measured_seconds += phase.seconds;
        if phase.role == Role::Window {
            window_seconds += phase.seconds;
            completed += log.completed();
            queries.extend_from_slice(&log.latencies[0]);
        }
        for (all, own) in others.iter_mut().zip(&log.latencies[1..]) {
            all.extend_from_slice(own);
        }
    }
    out.put("ops_per_s", completed as f64 / window_seconds);
    put_percentile(
        out,
        "query_p50_us",
        &queries,
        50.0,
        window_seconds * 1e6,
        smoke,
    );
    put_percentile(
        out,
        "query_p99_us",
        &queries,
        99.0,
        window_seconds * 1e6,
        smoke,
    );
    let names = ["topk_p50_us", "insert_p50_us", "delete_p50_us"];
    for (name, latencies) in names.into_iter().zip(&others) {
        put_percentile(out, name, latencies, 50.0, measured_seconds * 1e6, smoke);
    }
}

/// The end-to-end pass of a serving part.
pub fn measure(served: &Served, seconds: f64, warmup: f64, out: &mut Outcome) -> LoopCounts {
    let loads: Vec<f64> = (0..SNAPSHOT_LOADS)
        .map(|_| load_snapshot(&served.snapshot).1)
        .collect();
    out.put_timing("snapshot_load_ms", &loads, 1e3);
    let phases = phases(served.part, warmup, seconds);
    let (logs, counts) = closed_loop(served, &phases, out);
    put_request_metrics(&phases, &logs, served.quick, out);
    counts
}

/// A closed-loop run inside the traced pass, for the coalescing counters.
pub fn traced_loop(served: &Served, seconds: f64, out: &mut Outcome) -> LoopCounts {
    let phases = &phases(served.part, 0.0, seconds)[1..];
    let (logs, counts) = closed_loop(served, phases, out);
    put_request_metrics(phases, &logs, served.quick, out);
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch directory inside the package's git-ignored `out/`.
    fn scratch(name: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn a_clean_quick_run_fails_nothing_and_a_corrupted_expected_reply_fails_the_run() {
        let dir = scratch("corrupt");
        let mut out = Outcome::default();
        let (mut served, _) = set_up(Part::ServeMixed, 1, true, &dir, &mut out);
        assert_eq!(out.failed, 0, "{:?}", out.failures);

        // The loop itself, not `measure`: whether a short run supports a
        // 99th percentile is not what this test is about.
        let phases = phases(Part::ServeMixed, 0.1, 0.5);
        let mut clean = Outcome::default();
        let (logs, _) = closed_loop(&served, &phases, &mut clean);
        assert!(clean.attempted > 0);
        assert_eq!(clean.failed, 0, "{:?}", clean.failures);
        assert_eq!(logs[0].completed(), 0, "the warm-up is not recorded");
        assert_eq!(logs[1].completed() as u64, clean.attempted - 2);

        // Corrupt what the oracle expects of every request, so whichever the
        // scripts draw first is caught.
        for expected in served
            .oracle
            .query
            .iter_mut()
            .chain(served.oracle.topk.iter_mut())
        {
            *expected = "hit 0 +9.999999\n".to_string();
        }
        let mut corrupted = Outcome::default();
        closed_loop(&served, &phases, &mut corrupted);
        assert!(corrupted.failed > 0);
        assert!(
            corrupted.failures[0].contains("the oracle has"),
            "{:?}",
            corrupted.failures
        );
        assert_ne!(crate::exit_code(&corrupted), 0);
        assert_eq!(crate::exit_code(&clean), 0);
        drop(served);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// Every `insert` is refused, so no connection ever holds an id to
    /// delete: the run counts the refusals, sends no delete, and still
    /// reports every metric instead of stopping without a result.
    #[test]
    fn refused_inserts_are_counted_and_the_run_still_reports() {
        let dir = scratch("refused");
        let mut out = Outcome::default();
        let (mut served, _) = set_up(Part::ServeScan, 1, true, &dir, &mut out);
        for line in &mut served.lines.insert {
            *line = "insert not,a,vector\n".to_string();
        }
        served.quick = false;
        let mut refused = Outcome::default();
        measure(&served, 1.0, 0.1, &mut refused);
        assert!(refused.failed > 0);
        assert!(
            refused.failures[0].contains("`insert` answered `error:"),
            "{:?}",
            refused.failures
        );
        // No insert succeeded and no delete was sent, so neither latency has a
        // sample: each reads as the whole measured second, not as an abort.
        assert_eq!(refused.get("insert_p50_us"), Some(1e6));
        assert_eq!(refused.get("delete_p50_us"), Some(1e6));
        assert!(refused.get("query_p50_us").is_some_and(|v| v < 1e6));
        assert_ne!(crate::exit_code(&refused), 0);
        drop(served);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn throughput_and_query_latencies_come_from_the_window_alone() {
        let phases = phases(Part::ServeScan, 1.0, 10.0);
        let log = |latencies: [Vec<f64>; 4]| PhaseLog { latencies };
        let logs = [
            PhaseLog::default(),
            log([vec![100.0; 4000], vec![], vec![], vec![]]),
            log([
                vec![900.0; 30],
                vec![200.0; 30],
                vec![300.0; 30],
                vec![400.0; 30],
            ]),
        ];
        let mut out = Outcome::default();
        put_request_metrics(&phases, &logs, false, &mut out);
        assert_eq!(out.failed, 0, "{:?}", out.failures);
        // 4000 requests in the 8 s window; the tail's 120 do not count.
        assert_eq!(out.get("ops_per_s"), Some(500.0));
        assert_eq!(out.get("query_p99_us"), Some(100.0));
        assert_eq!(out.get("topk_p50_us"), Some(200.0));
        assert_eq!(out.get("delete_p50_us"), Some(400.0));
    }
}

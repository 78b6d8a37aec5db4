//! The traced pass over a serving part: a pinned sample of `query` requests
//! replayed at each layer boundary in turn, outermost first —
//! net -> session -> coalesce -> sharded -> serving -> engine -> index ->
//! (lsh for ALSH, kernel for brute) — one span per call, plus the per-layer
//! metrics the ladder does not cover. Every layer is driven from outside
//! through its public functions.

use crate::data::{background_vectors, join_spec};
use crate::join::{lsh_index, PRODUCT_SEED};
use crate::outcome::Outcome;
use crate::serve::{load_snapshot, traced_loop, Client, LoopCounts, Served};
use crate::spec::{Part, TOP_K};
use crate::stats::median;
use crate::trace::{seconds_of, self_times, Recorder};
use ips_adapt::{AdaptiveConfig, AdaptiveController};
use ips_cli::serve::{serve_session_with, SessionOptions};
use ips_core::brute::BorrowedBruteIndex;
use ips_core::facade::Strategy;
use ips_core::{JoinEngine, MipsIndex};
use ips_linalg::DenseVector;
use ips_lsh::simple_alsh::SimpleAlshFamily;
use ips_lsh::table::LshIndex;
use ips_obs::{Stage, TraceCapture};
use ips_store::{Index, ServingIndex, ServingView};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::io::{BufRead, Read, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Requests in the pinned sample.
const SAMPLE: usize = 512;
/// Rungs are interleaved round-robin in blocks of this many requests, so
/// machine drift hits all rungs alike.
const BLOCK: usize = 64;
/// Writes timed at the serving and sharded layers.
const WRITES: usize = 64;

/// A reader that hands a session its request lines one at a time and stamps
/// the moment the session first asks for each.
struct StampedLines<'a> {
    lines: Vec<&'a [u8]>,
    next: usize,
    offset: usize,
    asked: Vec<Instant>,
}

impl Read for StampedLines<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for StampedLines<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        let Some(line) = self.lines.get(self.next) else {
            return Ok(&[]);
        };
        if self.offset == 0 && self.asked.len() == self.next {
            self.asked.push(Instant::now());
        }
        Ok(&line[self.offset..])
    }

    fn consume(&mut self, amount: usize) {
        self.offset += amount;
        if self
            .lines
            .get(self.next)
            .is_some_and(|line| self.offset >= line.len())
        {
            self.next += 1;
            self.offset = 0;
        }
    }
}

/// A writer that keeps the session's output and stamps every flush: the
/// session flushes once after the banner and once after each reply.
#[derive(Default)]
struct StampedReplies {
    bytes: Vec<u8>,
    flushed: Vec<Instant>,
}

impl Write for StampedReplies {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.flushed.push(Instant::now());
        Ok(())
    }
}

/// The layers under the socket, built once per traced pass.
struct Rungs {
    /// One unsharded index over all the served data, hashed like the shards.
    single: ServingIndex,
    lsh: Option<LshIndex<SimpleAlshFamily>>,
}

fn strategy_of(part: Part) -> Strategy {
    if part == Part::ServeScan {
        Strategy::Brute
    } else {
        Strategy::Alsh
    }
}

fn build_rungs(served: &Served) -> Rungs {
    let strategy = strategy_of(served.part);
    let single = Index::build(served.data.clone())
        .spec(join_spec())
        .strategy(strategy)
        .seed(PRODUCT_SEED)
        .serve()
        .expect("one-shard index");
    let lsh = (strategy == Strategy::Alsh).then(|| lsh_index(&served.data));
    Rungs { single, lsh }
}

/// The ladder of a part, outermost first.
pub fn ladder(part: Part) -> [&'static str; 8] {
    let innermost = if part == Part::ServeScan {
        "kernel"
    } else {
        "lsh"
    };
    [
        "net", "session", "coalesce", "sharded", "serving", "engine", "index", innermost,
    ]
}

/// Replays requests `block` of the sample at every rung, recording one span
/// per call into `rec` and counting replies that differ from the oracle.
fn replay_block(
    served: &Served,
    rungs: &Rungs,
    client: &mut Client,
    block: std::ops::Range<usize>,
    rec: &mut Recorder,
    out: &mut Outcome,
) {
    let pool = served.queries.len();
    let requests: Vec<(u64, usize)> = block.map(|r| (r as u64, r % pool)).collect();
    let spec = join_spec();
    fn wrong(out: &mut Outcome, layer: &str, request: u64) {
        out.fail(
            1,
            format!("{layer} rung: request {request} differs from the oracle"),
        );
    }

    for &(request, i) in &requests {
        out.attempted += 1;
        match client.round_trip(&served.lines.query[i]) {
            Ok((reply, start, end)) => {
                rec.record("net", "query", request, start, end);
                if reply != served.oracle.query[i] {
                    wrong(out, "net", request);
                }
            }
            Err(e) => out.fail(1, format!("net rung: {e}")),
        }
    }

    let mut reader = StampedLines {
        lines: requests
            .iter()
            .map(|&(_, i)| served.lines.query[i].as_bytes())
            .collect(),
        next: 0,
        offset: 0,
        asked: Vec::new(),
    };
    let mut writer = StampedReplies::default();
    let options = SessionOptions {
        coalescer: Some(&served.coalescer),
        ..SessionOptions::default()
    };
    serve_session_with(served.index(), &options, &mut reader, &mut writer)
        .expect("in-memory session");
    let replies = String::from_utf8(std::mem::take(&mut writer.bytes)).expect("replies are UTF-8");
    let mut reply_lines = replies.split_inclusive('\n').skip(1);
    for (k, &(request, i)) in requests.iter().enumerate() {
        out.attempted += 1;
        // flushed[0] is the banner's flush.
        rec.record(
            "session",
            "query",
            request,
            reader.asked[k],
            writer.flushed[k + 1],
        );
        if reply_lines.next() != Some(served.oracle.query[i].as_str()) {
            wrong(out, "session", request);
        }
    }

    // The in-process rungs return pairs, not bytes: a hit is checked by id.
    let expected_id = |i: usize| {
        served.oracle.query[i]
            .split(' ')
            .nth(1)
            .and_then(|id| id.parse::<usize>().ok())
    };
    let batches: Vec<Vec<DenseVector>> = requests
        .iter()
        .map(|&(_, i)| vec![served.queries[i].clone()])
        .collect();
    for (&(request, i), batch) in requests.iter().zip(batches) {
        out.attempted += 1;
        let pairs = rec.time("coalesce", "query", request, || {
            black_box(served.coalescer.query(black_box(batch)).expect("coalescer"))
        });
        if pairs.first().map(|p| p.data_index) != expected_id(i) {
            wrong(out, "coalesce", request);
        }
    }
    let kernel = BorrowedBruteIndex::new(&served.data, spec);
    for &(request, i) in &requests {
        let q = std::slice::from_ref(&served.queries[i]);
        out.attempted += 2;
        let pairs = rec.time("sharded", "query", request, || {
            black_box(served.index().query(black_box(q)).expect("sharded"))
        });
        if pairs.first().map(|p| p.data_index) != expected_id(i) {
            wrong(out, "sharded", request);
        }
        let pairs = rec.time("serving", "query", request, || {
            black_box(rungs.single.query(black_box(q)).expect("serving"))
        });
        if pairs
            .first()
            .is_some_and(|p| !spec.acceptable(p.inner_product))
        {
            wrong(out, "serving", request);
        }
        let view = ServingView(&rungs.single);
        rec.time("engine", "query", request, || {
            black_box(JoinEngine::new(&view).run(black_box(q)).expect("engine"))
        });
        rec.time("index", "query", request, || {
            black_box(view.search_batch(black_box(q)).expect("index"))
        });
        match &rungs.lsh {
            Some(lsh) => {
                rec.time("lsh", "query", request, || {
                    black_box(lsh.query_candidates(black_box(&q[0])).expect("lsh"))
                });
            }
            None => {
                rec.time("kernel", "query", request, || {
                    black_box(kernel.search_batch(black_box(q)).expect("kernel"))
                });
            }
        }
    }
}

/// Calls `f` on each item, returning the results and each call's seconds.
fn timed_each<T, R>(items: Vec<T>, mut f: impl FnMut(T) -> R) -> (Vec<R>, Vec<f64>) {
    items
        .into_iter()
        .map(|item| seconds_of(|| f(black_box(item))))
        .unzip()
}

/// Vectors for the timed writes: like the scripts' inserts, never a hit.
fn fresh_vectors(dim: usize) -> Vec<DenseVector> {
    background_vectors(&mut StdRng::seed_from_u64(PRODUCT_SEED), WRITES, dim)
}

/// Replays the sample at every rung, links the spans, and reports the rungs'
/// medians and self times.
fn ladder_metrics(
    served: &Served,
    rungs: &Rungs,
    client: &mut Client,
    sample: usize,
    rec: &mut Recorder,
    out: &mut Outcome,
) {
    // Warm-up: one block at every rung, unrecorded.
    rec.enabled = false;
    replay_block(served, rungs, client, 0..BLOCK, rec, out);
    rec.enabled = true;
    for block in 0..sample / BLOCK {
        let requests = block * BLOCK..(block + 1) * BLOCK;
        replay_block(served, rungs, client, requests, rec, out);
    }
    let ladder = ladder(served.part);
    rec.link(|layer| {
        let rung = ladder.iter().position(|l| *l == layer)?;
        Some(ladder[rung.checked_sub(1)?])
    });
    let rung_times = self_times(rec, &ladder);
    let self_us = |layer: &str| {
        let rung = rung_times.iter().find(|r| r.layer == layer);
        rung.expect("a rung of the ladder").self_us
    };
    out.put_timing("net.roundtrip_us", &rec.durations_us("net"), 1.0);
    out.put("net.socket_overhead_us", self_us("net"));
    out.put_timing("session.query_us", &rec.durations_us("session"), 1.0);
    out.put("session.codec_overhead_us", self_us("session"));
    out.put("coalesce.solo_overhead_us", self_us("coalesce"));
    out.put_timing("sharded.query_us", &rec.durations_us("sharded"), 1.0);
    out.put("sharded.fanout_overhead_us", self_us("sharded"));
    out.put_timing("serving.query_us", &rec.durations_us("serving"), 1.0);
    out.put("engine.dispatch_us", self_us("engine"));
    let pool = served.queries.len();
    let mean_bytes = |lines: &[String]| {
        (0..sample).map(|r| lines[r % pool].len()).sum::<usize>() as f64 / sample as f64
    };
    out.put("session.request_bytes", mean_bytes(&served.lines.query));
    out.put("session.reply_bytes", mean_bytes(&served.oracle.query));
}

/// `trace.overhead_pct`: the outermost rung with span recording against the
/// same requests without it, alternating block by block.
fn tracing_overhead(served: &Served, client: &mut Client, sample: usize, out: &mut Outcome) {
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut scratch = Recorder::new();
    for block in 0..2 * (sample / BLOCK) {
        scratch.enabled = block % 2 == 0;
        for r in (block / 2) * BLOCK..(block / 2 + 1) * BLOCK {
            let line = &served.lines.query[r % served.queries.len()];
            let (_, start, end) = client.round_trip(line).expect("round trip");
            scratch.record("net", "query", r as u64, start, end);
            let seconds = start.elapsed().as_secs_f64();
            if scratch.enabled {
                traced.push(seconds)
            } else {
                untraced.push(seconds)
            }
        }
    }
    let overhead = (median(&traced) / median(&untraced) - 1.0) * 100.0;
    out.put("trace.overhead_pct", overhead);
}

/// `serving.*` beside the ladder: top-k and writes on the one-shard index.
fn serving_metrics(served: &Served, single: &mut ServingIndex, sample: usize, out: &mut Outcome) {
    let topk: Vec<f64> = (0..sample.min(256))
        .map(|r| {
            let q = std::slice::from_ref(&served.queries[r % served.queries.len()]);
            seconds_of(|| black_box(single.query_top_k(black_box(q), TOP_K).expect("topk"))).1
        })
        .collect();
    out.put_timing("serving.topk_us", &topk, 1e6);
    let fresh = fresh_vectors(served.data[0].dim());
    let (ids, inserts) = timed_each(fresh, |v| single.insert(v).expect("insert"));
    let (_, deletes) = timed_each(ids, |id| single.delete(id).expect("delete"));
    out.put_timing("serving.insert_us", &inserts, 1e6);
    out.put_timing("serving.delete_us", &deletes, 1e6);
}

/// `sharded.*` beside the ladder — writes and a 64-vector batch on the served
/// index — and `obs.*`: the product's own stage clock against this one, and
/// what a capturing sink costs over the plain call, alternating.
fn sharded_and_obs_metrics(served: &Served, sample: usize, quick: bool, out: &mut Outcome) {
    let index = served.index();
    let fresh = fresh_vectors(served.data[0].dim());
    let (ids, inserts) = timed_each(fresh, |v| index.insert(v).expect("insert"));
    let (_, deletes) = timed_each(ids, |id| index.delete(id).expect("delete"));
    out.put_timing("sharded.insert_us", &inserts, 1e6);
    out.put_timing("sharded.delete_us", &deletes, 1e6);
    let batch = &served.queries[..served.queries.len().min(64)];
    let batches: Vec<f64> = (0..if quick { 3 } else { 8 })
        .map(|_| seconds_of(|| black_box(index.query(black_box(batch)).expect("batch"))).1)
        .collect();
    let per_query = 1e6 / batch.len() as f64;
    out.put_timing("sharded.batch64_us_per_query", &batches, per_query);

    let (mut stage_ns, mut wall_ns, mut lock_wait_ns) = (0u64, 0u64, 0u64);
    let (mut captured, mut plain) = (Vec::new(), Vec::new());
    for r in 0..sample {
        let q = std::slice::from_ref(&served.queries[r % served.queries.len()]);
        let capture = TraceCapture::new();
        let start = Instant::now();
        black_box(index.query_with_sink(black_box(q), &capture)).expect("traced query");
        let wall = start.elapsed();
        wall_ns += wall.as_nanos() as u64;
        stage_ns += Stage::ALL.iter().map(|s| capture.stage(*s)).sum::<u64>();
        lock_wait_ns += capture.stage(Stage::LockWait);
        captured.push(wall.as_secs_f64());
        plain.push(seconds_of(|| black_box(index.query(black_box(q)).expect("query"))).1);
    }
    out.put("obs.stage_sum_over_wall", stage_ns as f64 / wall_ns as f64);
    out.put("sharded.lock_wait_ns", lock_wait_ns as f64 / sample as f64);
    let overhead = (median(&captured) / median(&plain) - 1.0) * 100.0;
    out.put("obs.capture_overhead_pct", overhead);
    let renders: Vec<f64> = (0..50)
        .map(|_| seconds_of(|| black_box(index.prometheus_metrics())).1)
        .collect();
    out.put_timing("obs.metrics_render_us", &renders, 1e6);
}

/// `snapshot.*`: save and load of the served index, and the built file's size.
fn snapshot_metrics(served: &Served, dir: &Path, out: &mut Outcome) {
    let saved = dir.join(format!("{}-resaved.snap", served.part.name()));
    let saves: Vec<f64> = (0..3)
        .map(|_| seconds_of(|| served.index().save(&saved).expect("save")).1)
        .collect();
    out.put_timing("snapshot.save_ms", &saves, 1e3);
    let loads: Vec<f64> = (0..3).map(|_| load_snapshot(&served.snapshot).1).collect();
    out.put_timing("snapshot.load_ms", &loads, 1e3);
    // The same loads under the name the end-to-end pass reports its five as.
    out.put_timing("snapshot_load_ms", &loads, 1e3);
    let built = std::fs::metadata(&served.snapshot).expect("the built snapshot");
    let bytes = built.len() as f64;
    out.put("snapshot.bytes", bytes);
    let data_bytes = (served.data.len() * served.data[0].dim() * 8) as f64;
    out.put("snapshot.bytes_per_data_byte", bytes / data_bytes);
}

/// The traced pass of a serving part.
pub fn trace(
    served: &Served,
    quick: bool,
    seconds: f64,
    dir: &Path,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> LoopCounts {
    let sample = if quick { 2 * BLOCK } else { SAMPLE };
    let mut rungs = build_rungs(served);
    let mut client = Client::connect(served.addr()).expect("connect to the server");
    ladder_metrics(served, &rungs, &mut client, sample, rec, out);
    tracing_overhead(served, &mut client, sample, out);
    drop(client);

    // net.connect_us: connect to banner read.
    let connects: Vec<f64> = (0..if quick { 5 } else { 20 })
        .map(|_| seconds_of(|| Client::connect(served.addr()).expect("connect")).1)
        .collect();
    out.put_timing("net.connect_us", &connects, 1e6);

    serving_metrics(served, &mut rungs.single, sample, out);
    sharded_and_obs_metrics(served, sample, quick, out);
    snapshot_metrics(served, dir, out);

    // coalesce.* from a closed-loop run of a third of the serving phase, then
    // one controller check over it.
    let counts = traced_loop(served, (seconds / 3.0).max(1.0), out);
    let mean_batch = counts.queries as f64 / counts.passes.max(1) as f64;
    out.put("coalesce.mean_batch", mean_batch);
    out.put("coalesce.batches", counts.merged_passes as f64);
    let mut controller =
        AdaptiveController::new(Arc::clone(served.index()), AdaptiveConfig::default());
    let (decision, check) = seconds_of(|| controller.check().expect("controller check"));
    black_box(decision);
    out.put("adapt.check_ms", check * 1e3);
    counts
}

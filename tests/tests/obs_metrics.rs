//! Telemetry-correctness suite for the observability layer (`ips-obs`).
//!
//! Four properties anchor the layer:
//!
//! * **Histogram merges are a commutative monoid** — merge is associative and
//!   commutative with the empty snapshot as identity, so per-shard (or
//!   per-thread) histograms can be aggregated in any order and the result is
//!   the histogram one global recorder would have produced. Property-tested
//!   below over arbitrary value sets and shard splits.
//! * **`metrics` is transport-independent** — the Prometheus exposition the
//!   stdin session renders is byte-identical to the one a TCP session renders
//!   over the same index state (reading metrics records nothing, so two
//!   back-to-back scrapes cannot disturb each other).
//! * **Counters stay consistent under concurrency** — on a threshold workload
//!   every query yields at most one hit, and the consistent-direction tear in
//!   `Counters::snapshot` (see `ips_store::serving`) guarantees a concurrent
//!   reader can never observe `hits > queries`.
//! * **Tracing only observes** — a batch served through an attached
//!   `TraceCapture` (what the protocol's `trace on` does) answers exactly as
//!   the untraced batch does, for every family and shard count.

use ips_cli::net::{serve_tcp, NetConfig};
use ips_cli::serve::{serve_session_with, SessionOptions};
use ips_core::engine::Ask;
use ips_core::problem::{JoinSpec, JoinVariant};
use ips_obs::{Histogram, HistogramSnapshot, Observable, Stage, TraceCapture};
use ips_store::{CoalesceConfig, Coalescer, IndexConfig, ShardedConfig, ShardedServingIndex};
use ips_tests::{families, small_alsh, vectors};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn spec() -> JoinSpec {
    JoinSpec::new(0.4, 0.6, JoinVariant::Signed).unwrap()
}

fn sharded_family(seed: u64, shards: usize, family: IndexConfig) -> ShardedServingIndex {
    ShardedServingIndex::build(
        vectors(seed, 48, 8),
        spec(),
        family,
        ShardedConfig {
            shards,
            ..ShardedConfig::default()
        },
    )
    .unwrap()
}

fn sharded(seed: u64, shards: usize) -> ShardedServingIndex {
    sharded_family(seed, shards, IndexConfig::Brute)
}

/// A small ALSH family, so a served batch runs the gather-and-rescore path.
fn record_all(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn histogram_merge_is_commutative_associative_with_identity(
        a in prop::collection::vec(any::<u64>(), 0..120),
        b in prop::collection::vec(any::<u64>(), 0..120),
        c in prop::collection::vec(any::<u64>(), 0..120),
    ) {
        let (sa, sb, sc) = (record_all(&a), record_all(&b), record_all(&c));
        prop_assert_eq!(sa.merge(&sb), sb.merge(&sa), "merge commutes");
        prop_assert_eq!(
            sa.merge(&sb).merge(&sc),
            sa.merge(&sb.merge(&sc)),
            "merge associates"
        );
        prop_assert_eq!(sa.merge(&HistogramSnapshot::empty()), sa, "empty is identity");
    }

    #[test]
    fn sharded_histograms_merge_to_the_single_global_recording(
        // Realistic magnitudes (latencies in ns fit well under 2^50): `merge`
        // saturates its sums while `Histogram::record` wraps, so the two can
        // only agree when the totals stay inside u64 — 200 × 2^50 does.
        values in prop::collection::vec(0u64..(1 << 50), 1..200),
        shards in 1usize..6,
        p in 0u64..=100,
    ) {
        // Route each value to a shard-local histogram, merge the snapshots...
        let locals: Vec<Histogram> = (0..shards).map(|_| Histogram::new()).collect();
        for (i, &v) in values.iter().enumerate() {
            locals[i % shards].record(v);
        }
        let merged = locals
            .iter()
            .fold(HistogramSnapshot::empty(), |acc, h| acc.merge(&h.snapshot()));
        // ...and the result is exactly the one-global-recorder histogram:
        // same buckets, same count and sum, hence same percentiles.
        let global = record_all(&values);
        prop_assert_eq!(merged, global);
        prop_assert_eq!(merged.percentile(p), global.percentile(p));
        // The percentile is a valid over-estimate: no recorded value above
        // p = 100's answer.
        let max = values.iter().copied().max().unwrap();
        prop_assert!(merged.percentile(100) >= max);
    }
}

/// Collects one `metrics` reply off a line iterator: every line up to and
/// including the `# EOF` frame marker.
fn read_exposition(mut next_line: impl FnMut() -> String) -> String {
    let mut text = String::new();
    loop {
        let line = next_line();
        let done = line == "# EOF";
        text.push_str(&line);
        text.push('\n');
        if done {
            return text;
        }
    }
}

#[test]
fn metrics_are_byte_identical_over_stdin_and_tcp() {
    let index = Arc::new(sharded(0x0B5, 2));
    let coalescer = Arc::new(Coalescer::new(
        Arc::clone(&index),
        CoalesceConfig::default(),
    ));
    let server = serve_tcp(Arc::clone(&coalescer), NetConfig::default()).unwrap();

    // One TCP session: a query (so every counter and histogram is live), then
    // the scrape. The accept already ticked `connections`, so the index state
    // is quiescent from here on.
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut recv = move || {
        let mut line = String::new();
        assert_ne!(reader.read_line(&mut line).unwrap(), 0, "hangup");
        line.trim_end_matches('\n').to_string()
    };
    let mut stream = stream;
    assert!(recv().starts_with("serving "), "banner");
    stream.write_all(b"query 0.9,0,0,0,0,0,0,0\n").unwrap();
    stream.flush().unwrap();
    recv();
    stream.write_all(b"metrics\n").unwrap();
    stream.flush().unwrap();
    let over_tcp = read_exposition(&mut recv);

    // A stdin session over the *same* index: reading metrics records nothing,
    // so the exposition must not have moved a byte.
    let mut out = Vec::new();
    serve_session_with(
        &index,
        &SessionOptions::default(),
        "metrics\n".as_bytes(),
        &mut out,
    )
    .unwrap();
    let text = String::from_utf8(out).unwrap();
    let over_stdin: String = text
        .lines()
        .skip(1) // banner
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(
        over_stdin, over_tcp,
        "transports must render one exposition"
    );
    assert!(over_tcp.contains("\nips_queries_total 1\n"), "{over_tcp}");
    assert!(
        over_tcp.contains("\nips_connections_total 1\n"),
        "{over_tcp}"
    );
    assert!(
        over_tcp.contains("ips_query_latency_ns_count 1\n"),
        "{over_tcp}"
    );

    stream.write_all(b"shutdown\n").unwrap();
    stream.flush().unwrap();
    server.join().unwrap();
}

#[test]
fn a_served_batch_records_one_batch_size_and_one_norm_per_query() {
    let index = sharded_family(0x0B6, 3, IndexConfig::Alsh(small_alsh()));
    let queries = vectors(0x0B7, 6, 8);
    index.query(&queries).unwrap();
    let telemetry = index.telemetry();
    assert_eq!(
        telemetry.observable(Observable::BatchSize).count(),
        1,
        "one batch, one batch-size sample"
    );
    assert_eq!(
        telemetry.observable(Observable::QueryNormMilli).count(),
        queries.len() as u64,
        "one norm sample per query vector"
    );
}

#[test]
fn concurrent_stats_snapshots_never_show_more_hits_than_queries() {
    let index = Arc::new(sharded(0x0B8, 2));
    let queries = vectors(0x0B9, 4, 8);
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let index = Arc::clone(&index);
            let queries = queries.clone();
            scope.spawn(move || {
                for _ in 0..50 {
                    index.query(&queries).unwrap();
                }
            });
        }
        // On a threshold workload each query yields at most one hit; the
        // snapshot's acquire/release ordering makes the tear one-directional,
        // so this holds at *every* intermediate point, not just at the end.
        for _ in 0..200 {
            let stats = index.stats();
            assert!(
                stats.hits <= stats.queries,
                "torn snapshot: hits={} > queries={}",
                stats.hits,
                stats.queries
            );
        }
    });
    let stats = index.stats();
    assert_eq!(
        stats.queries,
        3 * 50 * queries.len() as u64,
        "exact at rest"
    );
}

#[test]
fn a_trace_capture_changes_no_answer() {
    let queries = vectors(0x0BA, 8, 8);
    for family in families() {
        for shards in [1, 3] {
            let index = sharded_family(0x0BB, shards, family);
            let capture = TraceCapture::new();
            assert_eq!(
                index.query_with_sink(&queries, &capture).unwrap(),
                index.query(&queries).unwrap(),
                "{family:?} at {shards} shards"
            );
            assert_eq!(
                index.answer(&queries, Ask::TopK(3), &capture).unwrap(),
                index.query_top_k(&queries, 3).unwrap(),
                "{family:?} at {shards} shards, top-k"
            );
            assert!(
                capture.stage(Stage::Engine) > 0,
                "the capture was not attached: {family:?} at {shards} shards"
            );
        }
    }
}

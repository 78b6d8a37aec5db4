//! The benchmark's fixed vocabulary: workloads, parts, and every metric by
//! name with its unit, direction and bound. `BENCHMARK.json` and the README
//! glossary are checked against these tables by the package's tests.

use crate::json::Json;

/// The (cs, s) contract every workload runs under: s = 0.8, c = 0.6, signed.
pub const THRESHOLD: f64 = 0.8;
pub const APPROXIMATION: f64 = 0.6;
/// Planted-pair generator settings shared by all four parts.
pub const BACKGROUND_SCALE: f64 = 0.05;
pub const PLANTED_IP: f64 = 0.85;
/// `k` of every `topk` request.
pub const TOP_K: usize = 10;

/// One of the four measured shapes. A workload runs one or two of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    JoinSquare,
    JoinSkinny,
    ServeScan,
    ServeMixed,
}

pub const PARTS: [Part; 4] = [
    Part::JoinSquare,
    Part::JoinSkinny,
    Part::ServeScan,
    Part::ServeMixed,
];

impl Part {
    pub fn name(self) -> &'static str {
        match self {
            Part::JoinSquare => "join_square",
            Part::JoinSkinny => "join_skinny",
            Part::ServeScan => "serve_scan",
            Part::ServeMixed => "serve_mixed",
        }
    }

    pub fn is_join(self) -> bool {
        matches!(self, Part::JoinSquare | Part::JoinSkinny)
    }

    /// Why this shape is measured — one sentence, repeated in the README.
    pub fn why(self) -> &'static str {
        match self {
            Part::JoinSquare => {
                "|P| = |Q| join: query-side work (hash, lookup, rescoring; the kernel scan for \
                 brute) is at least half the wall, so lookup path, kernel and engine parallelism \
                 decide it"
            }
            Part::JoinSkinny => {
                "|Q| = 64 join: index build is nearly all the work and kernel and lookup almost \
                 none, the shape behind the 40x ALSH-vs-brute deficit"
            }
            Part::ServeScan => {
                "brute snapshot, 1 shard, ~1 ms of scan per request: kernel and engine dominate, \
                 protocol cost is small, shard fan-out is bypassed, the coalescer can merge scans"
            }
            Part::ServeMixed => {
                "ALSH snapshot, 2 shards, ~45 us of index work per request: session codec, \
                 coalescer, fan-out and socket dominate, and writes run beside reads"
            }
        }
    }
}

/// A named workload of `BENCHMARK.json`: one join part and one serving part.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    pub parts: [Part; 2],
    pub why: &'static str,
}

/// The workloads the driver runs. Every run must report every metric, and a
/// join shape has no request latency while a serving shape has no join wall,
/// so each workload pairs one join part with one serving part: the two that
/// are bound by scanning, and the two that are bound by everything else.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "square_scan",
        parts: [Part::JoinSquare, Part::ServeScan],
        why: "join_square + serve_scan: scoring kernel, LSH lookup and engine parallelism do \
              most of the work; index build and protocol overhead are the minor share",
    },
    Workload {
        name: "skinny_mixed",
        parts: [Part::JoinSkinny, Part::ServeMixed],
        why: "join_skinny + serve_mixed: index build, session codec, coalescer, shard fan-out \
              and socket do most of the work; kernel and lookup almost none; writes beside reads",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Where a metric's value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The workload's join part.
    Join,
    /// The workload's serving part.
    Serve,
    /// Worked out from both parts' values when a workload's parts are merged.
    Pair,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may worsen;
    /// `None` for per-layer metrics, which are reported, not gated.
    pub bound: Option<f64>,
    /// A count that must repeat exactly at a fixed seed.
    pub exact: bool,
    pub source: Source,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    source: Source,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
        source,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
        source,
    }
}

const fn count(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: true,
        source,
    }
}

use Better::{Higher, Lower};
use Source::{Join, Pair, Serve};

/// The gated metrics: the ones whose ten-seed spread on this host stays within
/// a third of a bound the contract allows. No wall-clock metric does (see the
/// README), so every timing is in [`PER_LAYER`]: measured, printed and filed
/// by both passes, compared by `compare`, gated by nothing.
pub const END_TO_END: [MetricDef; 4] = [
    MetricDef {
        exact: true,
        ..e2e("join_recall_mean", "fraction", Higher, 0.20, Join)
    },
    e2e("setup_s", "s", Lower, 0.25, Pair),
    e2e("join_peak_rss_mb", "MB", Lower, 0.05, Join),
    e2e("serve_peak_rss_mb", "MB", Lower, 0.05, Serve),
];

pub const PER_LAYER: [MetricDef; 69] = [
    // The timings a user sees, end to end. Not gated: between identical runs
    // on this host they move by more than any bound the contract allows.
    layer("join_brute_s", "s", Lower, Join),
    layer("join_alsh_s", "s", Lower, Join),
    layer("join_symmetric_s", "s", Lower, Join),
    layer("join_sketch_s", "s", Lower, Join),
    layer("join_auto_s", "s", Lower, Join),
    layer("ops_per_s", "1/s", Higher, Serve),
    layer("query_p50_us", "us", Lower, Serve),
    layer("query_p99_us", "us", Lower, Serve),
    layer("topk_p50_us", "us", Lower, Serve),
    layer("insert_p50_us", "us", Lower, Serve),
    layer("delete_p50_us", "us", Lower, Serve),
    layer("snapshot_load_ms", "ms", Lower, Serve),
    layer("join_setup_s", "s", Lower, Join),
    layer("serve_setup_s", "s", Lower, Serve),
    // kernel: BorrowedBruteIndex::with_options + search_batch, chunks of 32.
    layer("kernel.f64_ns_per_pair", "ns", Lower, Join),
    layer("kernel.f32_ns_per_pair", "ns", Lower, Join),
    // lsh: SimpleAlshFamily + LshIndex at k = 12, L = 32.
    layer("lsh.build_ns_per_point", "ns", Lower, Join),
    layer("lsh.lookup_us", "us", Lower, Join),
    layer("lsh.probe8_lookup_us", "us", Lower, Join),
    layer("lsh.insert_us", "us", Lower, Join),
    layer("lsh.remove_us", "us", Lower, Join),
    count("lsh.candidates_per_query", "count", Lower, Join),
    count("lsh.stored_entries", "count", Lower, Join),
    count("lsh.useful_candidate_ratio", "ratio", Higher, Join),
    // index: Index::build(..).strategy(f).serve() and ServingView::search_batch.
    layer("index.alsh_build_ms", "ms", Lower, Join),
    layer("index.symmetric_build_ms", "ms", Lower, Join),
    layer("index.sketch_build_ms", "ms", Lower, Join),
    layer("index.brute_search_us", "us", Lower, Join),
    layer("index.alsh_search_us", "us", Lower, Join),
    layer("index.symmetric_search_us", "us", Lower, Join),
    layer("index.sketch_search_us", "us", Lower, Join),
    count("index.alsh_recall", "fraction", Higher, Join),
    count("index.symmetric_recall", "fraction", Higher, Join),
    count("index.sketch_recall", "fraction", Higher, Join),
    // engine: JoinEngine over ServingView.
    layer("engine.dispatch_us", "us", Lower, Serve),
    layer("engine.parallel_speedup", "ratio", Higher, Join),
    // planner.
    layer("planner.plan_ms", "ms", Lower, Join),
    layer("planner.regret", "ratio", Lower, Join),
    count("planner.auto_recall", "fraction", Higher, Join),
    // cli.
    layer("cli.join_overhead_ms", "ms", Lower, Join),
    // snapshot.
    layer("snapshot.save_ms", "ms", Lower, Serve),
    layer("snapshot.load_ms", "ms", Lower, Serve),
    count("snapshot.bytes", "bytes", Lower, Serve),
    count("snapshot.bytes_per_data_byte", "ratio", Lower, Serve),
    // serving: one ServingIndex over all the data.
    layer("serving.query_us", "us", Lower, Serve),
    layer("serving.topk_us", "us", Lower, Serve),
    layer("serving.insert_us", "us", Lower, Serve),
    layer("serving.delete_us", "us", Lower, Serve),
    // sharded.
    layer("sharded.query_us", "us", Lower, Serve),
    layer("sharded.fanout_overhead_us", "us", Lower, Serve),
    layer("sharded.insert_us", "us", Lower, Serve),
    layer("sharded.delete_us", "us", Lower, Serve),
    layer("sharded.batch64_us_per_query", "us", Lower, Serve),
    layer("sharded.lock_wait_ns", "ns", Lower, Serve),
    // coalesce.
    layer("coalesce.solo_overhead_us", "us", Lower, Serve),
    layer("coalesce.mean_batch", "count", Higher, Serve),
    layer("coalesce.batches", "count", Higher, Serve),
    // session: serve_session_with over an in-memory reader/writer pair.
    layer("session.query_us", "us", Lower, Serve),
    layer("session.codec_overhead_us", "us", Lower, Serve),
    count("session.request_bytes", "bytes", Lower, Serve),
    count("session.reply_bytes", "bytes", Lower, Serve),
    // net: serve_tcp + loopback TcpStream.
    layer("net.roundtrip_us", "us", Lower, Serve),
    layer("net.socket_overhead_us", "us", Lower, Serve),
    layer("net.connect_us", "us", Lower, Serve),
    // obs.
    layer("obs.stage_sum_over_wall", "ratio", Higher, Serve),
    layer("obs.capture_overhead_pct", "%", Lower, Serve),
    layer("obs.metrics_render_us", "us", Lower, Serve),
    // adapt.
    layer("adapt.check_ms", "ms", Lower, Serve),
    // trace.
    layer("trace.overhead_pct", "%", Lower, Serve),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// Seconds one driver run measures: three fifths in the workload's join part,
/// two fifths in its serving part.
pub const RUN_SECONDS: u64 = 38;

/// The `BENCHMARK.json` this package answers to, rendered from the tables.
pub fn manifest() -> Json {
    let metric = |m: &MetricDef| {
        let mut pairs = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.name())),
        ];
        if let Some(bound) = m.bound {
            pairs.push(("bound", Json::Num(bound)));
        }
        Json::obj(pairs)
    };
    Json::obj(vec![
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .iter()
                .map(|s| Json::str(*s))
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.name)
            .collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for name in &names {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
        for w in WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}",
                w.why.len()
            );
        }
    }

    #[test]
    fn setup_has_the_largest_bound_and_none_exceeds_the_cap() {
        let setup = find("setup_s").unwrap().bound.unwrap();
        for m in &END_TO_END {
            let bound = m.bound.expect("end-to-end metrics are bounded");
            assert!(bound <= 0.25 && bound <= setup, "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn every_workload_is_a_join_part_and_a_serving_part_and_every_part_is_in_one() {
        for w in WORKLOADS {
            assert!(w.parts[0].is_join() && !w.parts[1].is_join());
        }
        for p in PARTS {
            assert_eq!(WORKLOADS.iter().filter(|w| w.parts.contains(&p)).count(), 1);
        }
    }

    #[test]
    fn benchmark_json_at_the_repository_root_is_the_rendered_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        assert!(
            Json::parse(&text).unwrap() == manifest(),
            "BENCHMARK.json differs from the tables: render it again with `-- manifest`"
        );
    }
}

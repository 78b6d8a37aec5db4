//! Serving-layer throughput: queries/second against a prebuilt snapshot vs
//! rebuilding the index for every query.
//!
//! This is the measurement the `ips-store` subsystem exists for: the paper's index
//! structures spend almost all their time in *construction* (hash tables, recovery
//! trees), and a batch process that rebuilds per invocation throws that work away.
//! The binary builds a 10k-point ALSH workload once, snapshots it, then measures
//!
//! 1. **serve** — load the snapshot once and answer a query batch through
//!    [`ips_store::ServingIndex::query`] (the `ips serve` path), amortising the load;
//! 2. **rebuild-per-query** — build a fresh `LshMips` index for every single query
//!    (the pre-`ips-store` workflow), extrapolated from a few queries because it is
//!    as slow as it sounds.
//!
//! The acceptance bar for the subsystem is serve ≥ 5× rebuild-per-query; the measured
//! ratio here is orders of magnitude beyond that, and the snapshot load itself is
//! reported separately so the break-even point (a handful of queries) can be read off.
//!
//! A third mode compares **sharded vs unsharded serving**: the same workload behind a
//! 4-shard [`ips_store::ShardedServingIndex`] (hash-of-id partitions, per-shard read
//! locks, exact merge) against the single [`ips_store::ServingIndex`]. The answers are
//! asserted bit-identical (ALSH decomposes under the shared structure seed); the
//! wall-clock columns show what the merge layer costs — on a single-CPU container the
//! sharded path pays a small merge overhead, and on multicore hardware the per-shard
//! engines are where the parallel headroom lives.
//!
//! A fourth mode measures the **TCP front-end with query coalescing**
//! (`ips serve listen=…`, [`ips_cli::net::serve_tcp`]): one serial client with
//! coalescing off against `--clients N` (default 4) concurrent clients whose
//! single-query requests merge into batched engine passes. Every TCP reply is
//! asserted byte-identical to the direct in-process answer, per-request p50/p99
//! latencies are printed, and the acceptance bar is coalesced aggregate QPS at
//! least matching the one-client serial QPS.

use ips_bench::{fmt, render_table, JsonReporter, Timer};
use ips_cli::net::{serve_tcp, NetConfig};
use ips_core::asymmetric::{AlshParams, SphereTransform};
use ips_core::lsh_mips::{LshMips, BUILD_BLOCK};
use ips_core::mips::MipsIndex;
use ips_core::problem::{JoinSpec, JoinVariant};
use ips_datagen::planted::{PlantedConfig, PlantedInstance};
use ips_linalg::par::Schedule;
use ips_linalg::DenseVector;
use ips_store::{CoalesceConfig, Coalescer, Index, ServingConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};

/// One TCP client sweeping `queries` one request at a time, `repeats` times
/// over one connection: returns the reply lines of the last sweep and the
/// round-trip nanoseconds of every request, in order.
fn tcp_client_sweep(
    addr: SocketAddr,
    queries: &[DenseVector],
    repeats: usize,
) -> (Vec<String>, Vec<u128>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut banner = String::new();
    reader.read_line(&mut banner).expect("read banner");
    let mut replies = Vec::with_capacity(queries.len());
    let mut latencies = Vec::with_capacity(queries.len() * repeats);
    for sweep in 0..repeats {
        replies.clear();
        for q in queries {
            let coords: Vec<String> = q.as_slice().iter().map(|c| c.to_string()).collect();
            let request = format!("query {}\n", coords.join(","));
            let timer = Timer::start();
            writer.write_all(request.as_bytes()).expect("send query");
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("read reply");
            latencies.push(timer.elapsed_ns());
            replies.push(reply.trim_end().to_string());
        }
        let _ = sweep;
    }
    let _ = writer.write_all(b"quit\n");
    (replies, latencies)
}

/// The `q`-th percentile (in [0, 100]) of an unsorted latency sample.
fn percentile_ns(latencies: &mut [u128], q: usize) -> u128 {
    latencies.sort_unstable();
    latencies[(latencies.len() - 1) * q / 100]
}

fn main() {
    // `--clients N` is specific to this binary, so the argv handling is local
    // (the shared `JsonReporter::from_env_args` only knows `--json <path>`).
    let mut json_path: Option<std::path::PathBuf> = None;
    let mut clients: usize = 4;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let value = |argv: &mut dyn Iterator<Item = String>| {
            argv.next().unwrap_or_else(|| {
                eprintln!("usage: serve_throughput [--json <path>] [--clients <n>]");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--json" => json_path = Some(std::path::PathBuf::from(value(&mut argv))),
            "--clients" => {
                clients = value(&mut argv).parse().unwrap_or(0);
                if clients == 0 {
                    eprintln!("--clients needs a positive integer");
                    std::process::exit(2);
                }
            }
            other => {
                eprintln!("unknown argument `{other}`; usage: serve_throughput [--json <path>] [--clients <n>]");
                std::process::exit(2);
            }
        }
    }
    let mut json = JsonReporter::new(json_path);
    let mut rng = StdRng::seed_from_u64(0x5E17E);
    let n = 10_000;
    let query_count = 64;
    let dim = 32;
    println!("== serve_throughput: snapshot serving vs rebuild-per-query ({n} points) ==\n");

    let inst = PlantedInstance::generate(
        &mut rng,
        PlantedConfig {
            data: n,
            queries: query_count,
            dim,
            background_scale: 0.05,
            planted_ip: 0.85,
            planted: 16,
        },
    )
    .expect("valid config");
    let spec = JoinSpec::new(0.8, 0.6, JoinVariant::Signed).unwrap();
    let params = AlshParams::default();
    let serving_config = ServingConfig {
        seed: 0xB11D,
        ..ServingConfig::default()
    };

    // Build once and snapshot — the `ips build` step, via the fluent facade.
    let build_timer = Timer::start();
    let mut built = Index::build(inst.data().to_vec())
        .spec(spec)
        .strategy(ips_core::facade::Strategy::Alsh)
        .alsh_params(params)
        .seed(serving_config.seed)
        .serve()
        .expect("build");
    let build_ns = build_timer.elapsed_ns();
    let dir = std::env::temp_dir().join("ips-serve-throughput");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let snapshot_path = dir.join("alsh-10k.snap");
    let bytes = built.save(&snapshot_path).expect("save snapshot");

    // Path 1: load the snapshot once, answer the whole batch.
    let load_timer = Timer::start();
    let serving = Index::open(&snapshot_path)
        .seed(serving_config.seed)
        .serve()
        .expect("open snapshot");
    let load_ns = load_timer.elapsed_ns();
    let query_timer = Timer::start();
    let pairs = serving.query(inst.queries()).expect("serve batch");
    let serve_batch_ns = query_timer.elapsed_ns();
    let serve_per_query_ns = serve_batch_ns / query_count as u128;

    // Path 2: rebuild the index for every query (extrapolated from 3 queries).
    let rebuild_queries = 3;
    let rebuild_timer = Timer::start();
    let mut rebuild_hits = 0usize;
    for q in inst.queries().iter().take(rebuild_queries) {
        let mut fresh_rng = StdRng::seed_from_u64(0xB11D);
        let (schedule, data) = (Schedule::new(BUILD_BLOCK), inst.data().to_vec());
        let index: LshMips<'_, SphereTransform> =
            LshMips::build(schedule, &mut fresh_rng, data, spec, params).expect("rebuild");
        if index.search(q).expect("search").is_some() {
            rebuild_hits += 1;
        }
    }
    let rebuild_per_query_ns = rebuild_timer.elapsed_ns() / rebuild_queries as u128;

    let speedup = rebuild_per_query_ns as f64 / serve_per_query_ns.max(1) as f64;
    let serve_qps = 1e9 / serve_per_query_ns.max(1) as f64;
    let rebuild_qps = 1e9 / rebuild_per_query_ns.max(1) as f64;
    println!(
        "{}",
        render_table(
            &["path", "ns / query", "queries / s"],
            &[
                vec![
                    "serve (snapshot loaded once)".to_string(),
                    serve_per_query_ns.to_string(),
                    fmt(serve_qps, 0),
                ],
                vec![
                    "rebuild per query".to_string(),
                    rebuild_per_query_ns.to_string(),
                    fmt(rebuild_qps, 2),
                ],
            ]
        )
    );
    println!(
        "\nsnapshot: {} bytes; build {} ms; load {} ms; batch of {query_count} answered in {} ms \
         ({} hits, {rebuild_hits}/{rebuild_queries} rebuild-path hits)",
        bytes,
        fmt(build_ns as f64 / 1e6, 1),
        fmt(load_ns as f64 / 1e6, 1),
        fmt(serve_batch_ns as f64 / 1e6, 1),
        pairs.len(),
    );
    println!(
        "speedup serving vs rebuild-per-query: {}x ({})",
        fmt(speedup, 1),
        if speedup >= 5.0 {
            "PASS: >= 5x acceptance bar"
        } else {
            "FAIL: below the 5x acceptance bar"
        }
    );
    println!(
        "break-even: the one-time load pays for itself after ~{} queries",
        fmt(
            load_ns as f64 / (rebuild_per_query_ns - serve_per_query_ns).max(1) as f64,
            1
        )
    );

    // Mode 3: sharded vs unsharded serving over the same data and seed.
    let shards = 4;
    let sharded_build_timer = Timer::start();
    let sharded = Index::build(inst.data().to_vec())
        .spec(spec)
        .strategy(ips_core::facade::Strategy::Alsh)
        .alsh_params(params)
        .seed(serving_config.seed)
        .shards(shards)
        .serve_sharded()
        .expect("sharded build");
    let sharded_build_ns = sharded_build_timer.elapsed_ns();
    let sharded_timer = Timer::start();
    let sharded_pairs = sharded.query(inst.queries()).expect("sharded batch");
    let sharded_batch_ns = sharded_timer.elapsed_ns();
    let sharded_per_query_ns = sharded_batch_ns / query_count as u128;
    assert_eq!(
        sharded_pairs, pairs,
        "sharded ALSH must answer bit-identically to unsharded under one seed"
    );
    println!(
        "\n== sharded vs unsharded serving ({shards} shards, shard sizes {:?}) ==\n",
        sharded.shard_lens()
    );
    println!(
        "{}",
        render_table(
            &["path", "build ms", "ns / query", "queries / s"],
            &[
                vec![
                    "unsharded serve".to_string(),
                    fmt(build_ns as f64 / 1e6, 1),
                    serve_per_query_ns.to_string(),
                    fmt(serve_qps, 0),
                ],
                vec![
                    format!("sharded serve ({shards} shards)"),
                    fmt(sharded_build_ns as f64 / 1e6, 1),
                    sharded_per_query_ns.to_string(),
                    fmt(1e9 / sharded_per_query_ns.max(1) as f64, 0),
                ],
            ]
        )
    );
    println!(
        "sharded answers verified bit-identical to unsharded ({} pairs); relative cost {}x",
        sharded_pairs.len(),
        fmt(
            sharded_per_query_ns as f64 / serve_per_query_ns.max(1) as f64,
            2
        ),
    );

    // Mode 4: the TCP front-end under concurrent load — the same `clients`
    // connections with coalescing off (every request is its own engine pass,
    // "serial per-connection" service) and on (concurrent requests merge into
    // batched passes), plus a lone serial client for scale. Coalescing
    // amortises the fixed cost of an engine pass (shard locks, merge, kernel
    // setup) and consolidates the scheduler churn of interleaved passes, which
    // shows up as both aggregate QPS and a much tighter p99 tail. Served
    // brute: one pass over the data scores the whole merged batch, whereas
    // ALSH hashes per query and gives batching nothing to amortise.
    let tcp_n = n;
    println!("\n== TCP serving: {clients} concurrent clients, coalescing off vs on (brute, n={tcp_n}) ==\n");
    let index = Arc::new(
        Index::build(inst.data()[..tcp_n].to_vec())
            .spec(spec)
            .strategy(ips_core::facade::Strategy::Brute)
            .seed(serving_config.seed)
            .shards(shards)
            .serve_sharded()
            .expect("brute sharded build"),
    );
    // Every reply the protocol will print for query i, computed in-process —
    // the bit-identity oracle for both TCP paths.
    let expected: Vec<String> = inst
        .queries()
        .iter()
        .map(|q| {
            match index
                .query(std::slice::from_ref(q))
                .expect("direct query")
                .first()
            {
                Some(p) => format!("hit {} {:+.6}", p.data_index, p.inner_product),
                None => "miss".to_string(),
            }
        })
        .collect();

    // One measured configuration: `n_clients` concurrent connections against a
    // fresh server with the given coalescing settings, each client sweeping a
    // round-robin slice of the queries one request at a time. Returns (total
    // wall ns, per-request latencies); every reply is checked against the
    // in-process oracle.
    let repeats = 3;
    let run_config = |n_clients: usize, coalesce: CoalesceConfig| -> (u128, Vec<u128>) {
        let server = serve_tcp(
            Arc::new(Coalescer::new(Arc::clone(&index), coalesce)),
            NetConfig {
                workers: n_clients,
                ..NetConfig::default()
            },
        )
        .expect("tcp server");
        let addr = server.local_addr();
        let barrier = Barrier::new(n_clients);
        let timer = Timer::start();
        let per_client: Vec<(usize, Vec<String>, Vec<u128>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n_clients)
                .map(|t| {
                    let barrier = &barrier;
                    let queries: Vec<DenseVector> = inst
                        .queries()
                        .iter()
                        .skip(t)
                        .step_by(n_clients)
                        .cloned()
                        .collect();
                    scope.spawn(move || {
                        barrier.wait();
                        let (replies, latencies) = tcp_client_sweep(addr, &queries, repeats);
                        (t, replies, latencies)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let wall_ns = timer.elapsed_ns();
        server.stop();
        server.join().expect("server drains");
        let mut all_latencies = Vec::new();
        for (t, replies, latencies) in per_client {
            let want: Vec<String> = expected
                .iter()
                .skip(t)
                .step_by(n_clients)
                .cloned()
                .collect();
            assert_eq!(
                replies, want,
                "TCP replies for client {t} must be byte-identical to the direct path"
            );
            all_latencies.extend(latencies);
        }
        (wall_ns, all_latencies)
    };

    let off = CoalesceConfig {
        window_micros: 0,
        ..CoalesceConfig::default()
    };
    // `max_batch = clients` dispatches a batch the moment every in-flight
    // client has arrived instead of always sleeping out the window (the
    // tuning `ips serve coalesce-max=` exists for).
    let coalesce = CoalesceConfig {
        window_micros: 200,
        max_batch: clients,
    };
    // Warm the sockets, allocator and branch predictors once, untimed.
    let _ = run_config(clients, off);
    // One trial per configuration is at the mercy of the scheduler (these
    // walls are tens of milliseconds); the minimum wall over interleaved
    // trials is a stable estimate of what each path can sustain, and is what
    // the regression gate pins. Latencies pool every trial so the tails keep
    // all their samples.
    let trials = 5;
    let mut serial_wall_ns = u128::MAX;
    let mut concurrent_wall_ns = u128::MAX;
    let mut coalesced_wall_ns = u128::MAX;
    let mut serial_latencies = Vec::new();
    let mut concurrent_latencies = Vec::new();
    let mut coalesced_latencies = Vec::new();
    let before = index.stats();
    for _ in 0..trials {
        let (wall, lat) = run_config(1, off);
        serial_wall_ns = serial_wall_ns.min(wall);
        serial_latencies.extend(lat);
        let (wall, lat) = run_config(clients, off);
        concurrent_wall_ns = concurrent_wall_ns.min(wall);
        concurrent_latencies.extend(lat);
        let (wall, lat) = run_config(clients, coalesce);
        coalesced_wall_ns = coalesced_wall_ns.min(wall);
        coalesced_latencies.extend(lat);
    }
    let after = index.stats();
    let coalesced_batches = after.coalesced_batches - before.coalesced_batches;
    // Every server has been joined, so the counters are quiescent and the
    // query delta is exact: three measured configurations per trial, each
    // sweeping all `query_count` queries `repeats` times (the coalescer
    // counts query vectors, not batches, so merging changes nothing here).
    // `hits` is only bounded, not pinned — the tearing model in
    // `ips_store::serving` guarantees a snapshot never shows more hits than
    // queries, which is the strongest claim that survives concurrency.
    assert_eq!(
        after.queries - before.queries,
        (3 * trials * query_count * repeats) as u64,
        "measured sweeps must push exactly their queries through the engine"
    );
    assert!(
        after.hits <= after.queries,
        "hit counter can never outrun the query counter"
    );
    assert_eq!(
        after.connections - before.connections,
        (trials * (1 + 2 * clients)) as u64,
        "each trial accepts one serial and two groups of concurrent clients"
    );

    let total_requests = (query_count * repeats) as f64;
    let serial_qps = total_requests * 1e9 / serial_wall_ns.max(1) as f64;
    let concurrent_qps = total_requests * 1e9 / concurrent_wall_ns.max(1) as f64;
    let coalesced_qps = total_requests * 1e9 / coalesced_wall_ns.max(1) as f64;
    println!(
        "{}",
        render_table(
            &[
                "path",
                "clients",
                "wall ms",
                "queries / s",
                "p50 us",
                "p99 us"
            ],
            &[
                vec![
                    "tcp serial (1 client)".to_string(),
                    "1".to_string(),
                    fmt(serial_wall_ns as f64 / 1e6, 2),
                    fmt(serial_qps, 0),
                    fmt(percentile_ns(&mut serial_latencies, 50) as f64 / 1e3, 1),
                    fmt(percentile_ns(&mut serial_latencies, 99) as f64 / 1e3, 1),
                ],
                vec![
                    "tcp concurrent, coalescing off".to_string(),
                    clients.to_string(),
                    fmt(concurrent_wall_ns as f64 / 1e6, 2),
                    fmt(concurrent_qps, 0),
                    fmt(percentile_ns(&mut concurrent_latencies, 50) as f64 / 1e3, 1),
                    fmt(percentile_ns(&mut concurrent_latencies, 99) as f64 / 1e3, 1),
                ],
                vec![
                    "tcp concurrent, coalescing on".to_string(),
                    clients.to_string(),
                    fmt(coalesced_wall_ns as f64 / 1e6, 2),
                    fmt(coalesced_qps, 0),
                    fmt(percentile_ns(&mut coalesced_latencies, 50) as f64 / 1e3, 1),
                    fmt(percentile_ns(&mut coalesced_latencies, 99) as f64 / 1e3, 1),
                ],
            ]
        )
    );
    println!(
        "all {} TCP replies byte-identical to the direct path across {trials} trials; \
         {coalesced_batches} coalesced batch(es) formed",
        (1 + 3 * trials) * query_count,
    );
    println!(
        "coalescing under the {clients}-client load: {}x over serial per-connection service ({})",
        fmt(coalesced_qps / concurrent_qps.max(f64::MIN_POSITIVE), 2),
        if coalesced_qps >= concurrent_qps {
            "PASS: coalesced >= serial per-connection QPS"
        } else {
            "FAIL: coalescing costs throughput under this load"
        }
    );

    for (name, tcp_clients, ns) in [
        ("tcp_serial", 1usize, serial_wall_ns),
        ("tcp_concurrent", clients, concurrent_wall_ns),
        ("tcp_coalesced", clients, coalesced_wall_ns),
    ] {
        json.record(
            "serve_throughput",
            &[
                ("path", name.to_string()),
                ("n", tcp_n.to_string()),
                ("dim", dim.to_string()),
                ("shards", shards.to_string()),
                ("clients", tcp_clients.to_string()),
            ],
            ns,
            0.0,
        );
    }

    for (name, ns, flops) in [
        ("serve_build", build_ns, 0.0),
        ("serve_load", load_ns, 0.0),
        ("serve_query", serve_per_query_ns, 0.0),
        ("rebuild_query", rebuild_per_query_ns, 0.0),
        ("sharded_build", sharded_build_ns, 0.0),
        ("sharded_query", sharded_per_query_ns, 0.0),
    ] {
        json.record(
            "serve_throughput",
            &[
                ("path", name.to_string()),
                ("n", n.to_string()),
                ("dim", dim.to_string()),
                (
                    "shards",
                    if name.starts_with("sharded") {
                        shards.to_string()
                    } else {
                        "1".to_string()
                    },
                ),
                ("speedup", fmt(speedup, 1)),
            ],
            ns,
            flops,
        );
    }
    json.finish().expect("write --json report");
    let _ = std::fs::remove_file(&snapshot_path);
}

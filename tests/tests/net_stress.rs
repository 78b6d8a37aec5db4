//! Multi-client stress test against the live TCP serving front-end.
//!
//! The `sharded_stress.rs` storm, moved onto real sockets: four client
//! threads, each with its own TCP connection to one [`ips_cli::net::serve_tcp`]
//! listener (coalescing **on**), interleave `query` / `topk` / `insert` /
//! `delete` protocol commands and parse the reply lines. Afterwards the shared
//! index must be exactly what the surviving operations describe:
//!
//! * every `hit`/`hits` reply served mid-storm clears the relaxed threshold
//!   and names an id the allocator really handed out;
//! * the final live set — ids and vectors — matches the sequential oracle, and
//!   a compacted index answers bit-identically to a fresh sharded build from
//!   that oracle (the determinism invariant, surviving TCP framing, session
//!   threads and the coalescer all at once);
//! * counters are exact: every connection, query vector, insert and delete is
//!   accounted for, with nothing double-ticked by the transport.
//!
//! Threads own disjoint slices of the initial ids and otherwise delete only
//! their own inserts, so the final state is interleaving-independent.
//!
//! A read-only companion pins the replies themselves: concurrent clients, with
//! coalescing off and on, get byte for byte the lines the stdin path prints.

use ips_cli::net::{serve_tcp, NetConfig, NetServer};
use ips_cli::serve::{serve_session_with, SessionOptions};
use ips_core::problem::{JoinSpec, JoinVariant};
use ips_linalg::random::random_ball_vector;
use ips_linalg::DenseVector;
use ips_store::{
    CoalesceConfig, Coalescer, IndexConfig, ServingConfig, ShardedConfig, ShardedServingIndex,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const THREADS: usize = 4;
const OPS_PER_THREAD: usize = 24;
const N: usize = 64;
const DIM: usize = 8;
const SHARDS: usize = 4;

fn vectors(seed: u64, n: usize) -> Vec<DenseVector> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| random_ball_vector(&mut rng, DIM, 1.0).unwrap().scaled(0.95))
        .collect()
}

fn spec() -> JoinSpec {
    JoinSpec::new(0.2, 0.6, JoinVariant::Signed).unwrap()
}

/// `v1,v2,…` for one vector — `f64::to_string` is the shortest round-trip
/// representation, so the server parses back the exact bits we hold.
fn wire(v: &DenseVector) -> String {
    let coords: Vec<String> = v.as_slice().iter().map(|c| c.to_string()).collect();
    coords.join(",")
}

/// `query`/`topk` payload for a batch of vectors.
fn wire_batch(vs: &[DenseVector]) -> String {
    let batch: Vec<String> = vs.iter().map(wire).collect();
    batch.join(";")
}

/// A protocol client over one TCP connection, banner consumed.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(server: &NetServer) -> Self {
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        let mut client = Client { stream, reader };
        let banner = client.recv();
        assert!(banner.starts_with("serving "), "{banner}");
        client
    }

    fn send(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).unwrap();
        self.stream.write_all(b"\n").unwrap();
        self.stream.flush().unwrap();
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        assert_ne!(self.reader.read_line(&mut line).unwrap(), 0, "hangup");
        line.trim_end_matches('\n').to_string()
    }

    /// Sends one command and collects `replies` reply lines.
    fn exchange(&mut self, line: &str, replies: usize) -> Vec<String> {
        self.send(line);
        (0..replies).map(|_| self.recv()).collect()
    }
}

/// A `hit <id> <ip>` / `hits <id>:<ip>,…` fragment parsed back into numbers.
fn parse_pair(id: &str, ip: &str) -> (u64, f64) {
    (id.parse().unwrap(), ip.parse().unwrap())
}

/// What one client did, for the sequential oracle.
#[derive(Default)]
struct ThreadLog {
    inserted_live: Vec<(u64, DenseVector)>,
    deleted_initial: Vec<u64>,
    inserts: u64,
    deletes: u64,
}

fn stress_over_tcp(index_config: IndexConfig, seed: u64) {
    let data = vectors(seed, N);
    let queries = vectors(seed ^ 0xBEEF, 8);
    let sharded = Arc::new(
        ShardedServingIndex::build(
            data.clone(),
            spec(),
            index_config,
            ShardedConfig {
                shards: SHARDS,
                serving: ServingConfig::default(),
            },
        )
        .unwrap(),
    );
    let coalescer = Arc::new(Coalescer::new(
        Arc::clone(&sharded),
        CoalesceConfig::default(),
    ));
    let server = serve_tcp(Arc::clone(&coalescer), NetConfig::default()).unwrap();

    // (id, rounded ip) pairs served mid-storm, for validity checking.
    let observed: Mutex<Vec<(u64, f64)>> = Mutex::new(Vec::new());

    let logs: Vec<ThreadLog> = std::thread::scope(|scope| {
        let server = &server;
        let queries = &queries;
        let observed = &observed;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let mut client = Client::connect(server);
                    let mut log = ThreadLog::default();
                    let mut rng = StdRng::seed_from_u64(seed ^ (t as u64) << 32);
                    // This thread may delete initial ids t, t+THREADS, …
                    let mut own_initial: Vec<u64> = (t as u64..N as u64).step_by(THREADS).collect();
                    for op in 0..OPS_PER_THREAD {
                        match op % 4 {
                            0 => {
                                let replies = client.exchange(
                                    &format!("query {}", wire_batch(queries)),
                                    queries.len(),
                                );
                                let mut seen = observed.lock().unwrap();
                                for reply in replies {
                                    if let Some(rest) = reply.strip_prefix("hit ") {
                                        let (id, ip) = rest.split_once(' ').unwrap();
                                        seen.push(parse_pair(id, ip));
                                    } else {
                                        assert_eq!(reply, "miss");
                                    }
                                }
                            }
                            1 => {
                                let replies = client.exchange(
                                    &format!("topk 3 {}", wire_batch(queries)),
                                    queries.len(),
                                );
                                let mut seen = observed.lock().unwrap();
                                for reply in replies {
                                    if let Some(rest) = reply.strip_prefix("hits ") {
                                        for hit in rest.split(',') {
                                            let (id, ip) = hit.split_once(':').unwrap();
                                            seen.push(parse_pair(id, ip));
                                        }
                                    } else {
                                        assert_eq!(reply, "none");
                                    }
                                }
                            }
                            2 => {
                                let v =
                                    random_ball_vector(&mut rng, DIM, 1.0).unwrap().scaled(0.95);
                                let reply = client
                                    .exchange(&format!("insert {}", wire(&v)), 1)
                                    .remove(0);
                                let id = reply
                                    .strip_prefix("inserted ")
                                    .unwrap_or_else(|| panic!("insert reply: {reply}"))
                                    .parse()
                                    .unwrap();
                                log.inserts += 1;
                                log.inserted_live.push((id, v));
                            }
                            _ => {
                                // Alternate deleting an owned initial id and one
                                // of this client's own inserts (when any remain).
                                let id = if op % 8 == 3 && !own_initial.is_empty() {
                                    let id = own_initial.pop().unwrap();
                                    log.deleted_initial.push(id);
                                    Some(id)
                                } else {
                                    log.inserted_live.pop().map(|(id, _)| id)
                                };
                                if let Some(id) = id {
                                    let reply =
                                        client.exchange(&format!("delete {id}"), 1).remove(0);
                                    assert_eq!(reply, format!("deleted {id}"));
                                    log.deletes += 1;
                                }
                            }
                        }
                    }
                    client.send("quit");
                    assert_eq!(client.recv(), "bye");
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    server.stop();
    server.join().unwrap();

    // Validity of everything served mid-storm: replies print inner products
    // rounded to 6 decimals, so the threshold check carries that slack.
    let total_inserts: u64 = logs.iter().map(|l| l.inserts).sum();
    let total_deletes: u64 = logs.iter().map(|l| l.deletes).sum();
    let max_id = N as u64 + total_inserts;
    for (id, ip) in observed.into_inner().unwrap() {
        assert!(
            ip >= spec().relaxed_threshold() - 1e-5,
            "{index_config:?}: invalid pair served mid-storm: id {id} ip {ip}"
        );
        assert!(
            id < max_id,
            "{index_config:?}: unallocated id {id} answered"
        );
    }

    // The sequential oracle: initial ids minus deleted-initial, plus surviving
    // inserts — interleaving-independent because deletions are thread-owned.
    let mut live: Vec<(u64, DenseVector)> = data
        .into_iter()
        .enumerate()
        .map(|(i, v)| (i as u64, v))
        .filter(|(id, _)| !logs.iter().any(|l| l.deleted_initial.contains(id)))
        .collect();
    for log in &logs {
        live.extend(log.inserted_live.iter().cloned());
    }
    live.sort_unstable_by_key(|(id, _)| *id);

    let expected_ids: Vec<u64> = live.iter().map(|(id, _)| *id).collect();
    assert_eq!(sharded.ids(), expected_ids, "{index_config:?}: live set");
    assert_eq!(sharded.len(), live.len());
    for (id, v) in &live {
        assert_eq!(
            &sharded.vector(*id).unwrap(),
            v,
            "{index_config:?}: id {id}"
        );
    }

    // Counters are exact across the TCP transport: one connection per client,
    // one query tick per vector, nothing double-counted by the coalescer.
    let stats = sharded.stats();
    assert_eq!(stats.connections, THREADS as u64, "{index_config:?}");
    assert_eq!(stats.inserts, total_inserts, "{index_config:?}");
    assert_eq!(stats.deletes, total_deletes, "{index_config:?}");
    assert_eq!(
        stats.queries,
        (THREADS * OPS_PER_THREAD / 2 * queries.len()) as u64,
        "{index_config:?}: every vector of every command is counted once"
    );

    // The allocator never reuses an id, even after all those deletes.
    let fresh_id = sharded
        .insert(vectors(seed ^ 0xA11, 1).pop().unwrap())
        .unwrap();
    assert_eq!(fresh_id, max_id, "{index_config:?}: allocator regressed");
    sharded.delete(fresh_id).unwrap();

    // Determinism through the storm: compacted ≡ fresh sharded build from the
    // oracle's live set, bit for bit, for both query modes.
    sharded.compact().unwrap();
    let fresh = ShardedServingIndex::from_entries(
        live,
        max_id + 1,
        spec(),
        index_config,
        ShardedConfig {
            shards: SHARDS,
            serving: ServingConfig::default(),
        },
    )
    .unwrap();
    let probes = vectors(seed ^ 0xD00D, 10);
    assert_eq!(
        sharded.query(&probes).unwrap(),
        fresh.query(&probes).unwrap(),
        "{index_config:?}: compacted state diverged from the sequential oracle"
    );
    assert_eq!(
        sharded.query_top_k(&probes, 3).unwrap(),
        fresh.query_top_k(&probes, 3).unwrap(),
        "{index_config:?}: top-k diverged from the sequential oracle"
    );
}

#[test]
fn tcp_storm_brute() {
    stress_over_tcp(IndexConfig::Brute, 0x7C_01);
}

#[test]
fn tcp_storm_alsh() {
    stress_over_tcp(
        IndexConfig::Alsh(ips_core::asymmetric::AlshParams {
            bits_per_table: 4,
            tables: 8,
            ..Default::default()
        }),
        0x7C_02,
    );
}

#[test]
fn concurrent_tcp_replies_are_the_stdin_replies() {
    let index = Arc::new(
        ShardedServingIndex::build(
            vectors(0x7C_03, N),
            spec(),
            IndexConfig::Brute,
            ShardedConfig {
                shards: SHARDS,
                serving: ServingConfig::default(),
            },
        )
        .unwrap(),
    );
    let queries = vectors(0x7C_04, 4 * THREADS);
    let script: String = queries
        .iter()
        .map(|q| format!("query {}\n", wire(q)))
        .collect();
    let mut out = Vec::new();
    serve_session_with(
        &index,
        &SessionOptions::default(),
        script.as_bytes(),
        &mut out,
    )
    .unwrap();
    let expected: Vec<String> = String::from_utf8(out)
        .unwrap()
        .lines()
        .skip(1) // banner
        .take(queries.len())
        .map(str::to_string)
        .collect();

    let before = index.stats();
    let off = CoalesceConfig {
        window_micros: 0,
        ..CoalesceConfig::default()
    };
    let on = CoalesceConfig {
        window_micros: 2_000,
        max_batch: THREADS,
    };
    for coalesce in [off, on] {
        let coalescer = Arc::new(Coalescer::new(Arc::clone(&index), coalesce));
        let server = serve_tcp(coalescer, NetConfig::default()).unwrap();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (server, queries, expected) = (&server, &queries, &expected);
                scope.spawn(move || {
                    let mut client = Client::connect(server);
                    for i in (t..queries.len()).step_by(THREADS) {
                        let reply = client
                            .exchange(&format!("query {}", wire(&queries[i])), 1)
                            .remove(0);
                        assert_eq!(reply, expected[i], "{coalesce:?}: query {i}");
                    }
                    client.send("quit");
                    assert_eq!(client.recv(), "bye");
                });
            }
        });
        server.stop();
        server.join().unwrap();
    }

    // Every server is joined, so the counters are at rest and the deltas exact.
    let after = index.stats();
    assert_eq!(after.connections - before.connections, 2 * THREADS as u64);
    assert_eq!(after.queries - before.queries, 2 * queries.len() as u64);
    assert!(after.hits <= after.queries);
}

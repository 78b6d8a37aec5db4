//! Query coalescing: merging concurrent single-query requests into one batched
//! [`ips_core::JoinEngine`] pass.
//!
//! The engine answers every vector of a batch **independently** — results are
//! keyed by `query_index` and no vector's answer depends on its batch-mates —
//! so concatenating concurrent requests, running one engine pass, and slicing
//! the results back apart is *bit-identical* to answering each request
//! serially. What changes is throughput: the batched scoring kernels (PR 1/6)
//! amortise per-pass setup and win 1.5x+ over a serial loop, which is exactly
//! the shape concurrent single-query network traffic has.
//!
//! # Protocol (leader-collects)
//!
//! Requests that can merge (same *lane*: one [`Ask`] — above-threshold, or
//! top-`k` with the same `k`) land in a shared pending list:
//!
//! * the **first** arrival becomes the lane *leader*: it enqueues itself and
//!   waits — up to [`CoalesceConfig::window_micros`], or until the pending
//!   vectors reach [`CoalesceConfig::max_batch`] — for company;
//! * **followers** enqueue themselves with a result channel and block on it;
//! * when the window closes the leader drains the lane (clearing the leader
//!   flag in the same critical section, so the next arrival starts a fresh
//!   round over an empty list), releases the lock, runs **one** engine pass
//!   over the concatenated vectors, and demultiplexes: each request gets the
//!   slice of results covering its offset range with `query_index` rebased to
//!   its own numbering.
//!
//! A lane lives in the lane map only while it is in use: the leader that finishes
//! a round over an idle lane takes it out, so a client sending ever new `k`s
//! leaves nothing behind. A request that picked the lane up just before leads it
//! alone; that costs a merge, never an answer.
//!
//! The engine pass runs *outside* the lane lock, so a panicking engine cannot
//! poison the lane; a follower whose leader died observes the closed channel
//! and reports the failure instead of hanging. An engine **error** is
//! broadcast to every merged request. Requests are dimension-checked *before*
//! enqueueing, so one client's malformed vector fails alone and can never
//! error a batch it shares with well-formed requests.
//!
//! Counter accounting is unchanged by coalescing: the single pass ticks the
//! query/hit/latency counters once per *vector*, the same totals the serial
//! path would have produced. A pass that merged two or more requests also
//! ticks the `coalesced_batches` counter.

use crate::error::{Result, StoreError};
use crate::sharded::ShardedServingIndex;
use ips_core::engine::Ask;
use ips_core::problem::MatchPair;
use ips_linalg::DenseVector;
use ips_obs::{Stage, TraceSink, NOOP_SINK};
use std::collections::HashMap;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Tuning of a [`Coalescer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalesceConfig {
    /// How long a lane leader waits for company, in microseconds. `0` disables
    /// coalescing (every request runs its own engine pass immediately).
    pub window_micros: u64,
    /// Maximum query vectors merged into one engine pass; reaching it closes
    /// the window early. Values below 2 disable coalescing.
    pub max_batch: usize,
}

impl Default for CoalesceConfig {
    fn default() -> Self {
        Self {
            window_micros: 200,
            max_batch: 32,
        }
    }
}

impl CoalesceConfig {
    /// Whether these settings can ever merge two requests.
    pub fn enabled(&self) -> bool {
        self.window_micros > 0 && self.max_batch > 1
    }

    /// The collection window as a [`Duration`].
    pub fn window(&self) -> Duration {
        Duration::from_micros(self.window_micros)
    }
}

/// A follower's answer: the demuxed pairs, or the engine error as text (the
/// error type is not cloneable, the broadcast needs one copy per request).
type LaneReply = std::result::Result<Vec<MatchPair>, String>;

/// One enqueued request awaiting the lane's next engine pass.
struct Pending {
    queries: Vec<DenseVector>,
    /// `None` for the leader (it demuxes in place and keeps its own slice).
    reply: Option<mpsc::Sender<LaneReply>>,
}

#[derive(Default)]
struct LaneState {
    pending: Vec<Pending>,
    /// Whether a leader is currently collecting. Cleared in the same critical
    /// section that drains `pending`, so a new leader always starts over an
    /// empty list.
    leader: bool,
}

#[derive(Default)]
struct Lane {
    state: Mutex<LaneState>,
    wake: Condvar,
}

/// The short-window request batcher in front of a [`ShardedServingIndex`]; see
/// the [module docs](self) for the merging protocol and its bit-identity
/// argument.
pub struct Coalescer {
    index: Arc<ShardedServingIndex>,
    config: CoalesceConfig,
    /// One lane per [`Ask`] in use: requests merge into one pass only under equal
    /// asks (a pass has one `k`).
    lanes: Mutex<HashMap<Ask, Arc<Lane>>>,
}

impl Coalescer {
    /// Wraps `index` with the given coalescing settings.
    pub fn new(index: Arc<ShardedServingIndex>, config: CoalesceConfig) -> Self {
        Self {
            index,
            config,
            lanes: Mutex::new(HashMap::new()),
        }
    }

    /// The wrapped serving index (mutations and stats bypass the batcher).
    pub fn index(&self) -> &Arc<ShardedServingIndex> {
        &self.index
    }

    /// The active coalescing settings.
    pub fn config(&self) -> CoalesceConfig {
        self.config
    }

    /// Answers an above-threshold request through the batcher — bit-identical
    /// to [`ShardedServingIndex::query`] on the same vectors.
    pub fn query(&self, queries: Vec<DenseVector>) -> Result<Vec<MatchPair>> {
        self.answer(queries, Ask::Threshold)
    }

    /// Answers a request as `ask` asks through the batcher — bit-identical to
    /// [`ShardedServingIndex::answer`] on the same vectors.
    pub fn answer(&self, queries: Vec<DenseVector>, ask: Ask) -> Result<Vec<MatchPair>> {
        // Reject malformed requests before they can join (and fail) a batch.
        for q in &queries {
            if q.dim() != self.index.dim() {
                return Err(StoreError::InvalidParameter {
                    name: "queries",
                    reason: format!(
                        "dimension {} != index dimension {}",
                        q.dim(),
                        self.index.dim()
                    ),
                });
            }
        }
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        if !self.config.enabled() {
            return self.index.answer(&queries, ask, &NOOP_SINK);
        }
        let lane = {
            let mut lanes = self.lanes.lock().expect("lane map poisoned");
            Arc::clone(lanes.entry(ask).or_default())
        };
        let mut state = lane.state.lock().expect("lane poisoned");
        if state.leader {
            // A leader is collecting: enqueue, wake it (the batch may now be
            // full), and wait for the demuxed slice.
            let (tx, rx) = mpsc::channel();
            state.pending.push(Pending {
                queries,
                reply: Some(tx),
            });
            lane.wake.notify_all();
            drop(state);
            return match rx.recv() {
                Ok(Ok(pairs)) => Ok(pairs),
                Ok(Err(reason)) => Err(StoreError::InvalidParameter {
                    name: "coalesced batch",
                    reason,
                }),
                Err(_) => Err(StoreError::InvalidParameter {
                    name: "coalesced batch",
                    reason: "batch leader failed before answering".into(),
                }),
            };
        }
        // No leader: become one. `pending` is empty here (the previous leader
        // drained it in the critical section that cleared the flag).
        debug_assert!(state.pending.is_empty());
        let collect_start = Instant::now();
        state.leader = true;
        state.pending.push(Pending {
            queries,
            reply: None,
        });
        let deadline = Instant::now() + self.config.window();
        loop {
            let total: usize = state.pending.iter().map(|p| p.queries.len()).sum();
            if total >= self.config.max_batch {
                break;
            }
            let Some(remaining) = deadline
                .checked_duration_since(Instant::now())
                .filter(|d| !d.is_zero())
            else {
                break;
            };
            let (next, timeout) = lane
                .wake
                .wait_timeout(state, remaining)
                .expect("lane poisoned");
            state = next;
            if timeout.timed_out() {
                break;
            }
        }
        let batch = std::mem::take(&mut state.pending);
        state.leader = false;
        drop(state);
        // One sample per batch, leader-recorded: how long the collection
        // window actually stayed open (followers wait at most this long too).
        self.index.telemetry().stage_ns(
            Stage::CoalesceWait,
            collect_start.elapsed().as_nanos() as u64,
        );

        let merged: Vec<DenseVector> = batch
            .iter()
            .flat_map(|p| p.queries.iter().cloned())
            .collect();
        if batch.len() > 1 {
            self.index.note_coalesced_batch();
        }
        let answered = match self.index.answer(&merged, ask, &NOOP_SINK) {
            Ok(pairs) => {
                let demux_start = Instant::now();
                let mut slices = demux(&batch, pairs);
                // `batch[0]` is the leader; deliver the followers, keep ours.
                let own = slices.remove(0);
                for (p, slice) in batch.iter().skip(1).zip(slices) {
                    let reply = p.reply.as_ref().expect("followers carry a channel");
                    // A follower that gave up (disconnected) just drops its slice.
                    let _ = reply.send(Ok(slice));
                }
                self.index
                    .telemetry()
                    .stage_ns(Stage::Demux, demux_start.elapsed().as_nanos() as u64);
                Ok(own)
            }
            Err(e) => {
                let reason = e.to_string();
                for p in batch.iter().skip(1) {
                    let reply = p.reply.as_ref().expect("followers carry a channel");
                    let _ = reply.send(Err(reason.clone()));
                }
                Err(e)
            }
        };
        self.retire(ask, &lane);
        answered
    }

    /// Takes `lane` out of the map if it is still the lane of `ask` and idle: no
    /// leader collecting, nothing pending (see the [module docs](self)).
    fn retire(&self, ask: Ask, lane: &Arc<Lane>) {
        let mut lanes = self.lanes.lock().expect("lane map poisoned");
        let state = lane.state.lock().expect("lane poisoned");
        let idle = !state.leader && state.pending.is_empty();
        if idle && lanes.get(&ask).is_some_and(|held| Arc::ptr_eq(held, lane)) {
            lanes.remove(&ask);
        }
    }
}

/// Splits one merged pass's results back into per-request answers: request `i`
/// owns the pairs whose `query_index` falls in its offset range, rebased to
/// its own vector numbering. Order within each request is preserved.
fn demux(batch: &[Pending], pairs: Vec<MatchPair>) -> Vec<Vec<MatchPair>> {
    let mut offsets = Vec::with_capacity(batch.len() + 1);
    let mut total = 0usize;
    for p in batch {
        offsets.push(total);
        total += p.queries.len();
    }
    offsets.push(total);
    let mut out: Vec<Vec<MatchPair>> = batch.iter().map(|_| Vec::new()).collect();
    for pair in pairs {
        // partition_point: number of offsets <= query_index, minus one = owner.
        let owner = offsets.partition_point(|&o| o <= pair.query_index) - 1;
        out[owner].push(MatchPair {
            query_index: pair.query_index - offsets[owner],
            ..pair
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::IndexConfig;
    use crate::sharded::ShardedConfig;
    use ips_core::problem::{JoinSpec, JoinVariant};
    use ips_linalg::random::random_ball_vector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Barrier;

    fn vectors(seed: u64, n: usize, dim: usize, scale: f64) -> Vec<DenseVector> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                random_ball_vector(&mut rng, dim, 1.0)
                    .unwrap()
                    .scaled(scale)
            })
            .collect()
    }

    fn serving(shards: usize) -> Arc<ShardedServingIndex> {
        let data = vectors(0xC0, 48, 8, 0.9);
        let spec = JoinSpec::new(0.4, 0.6, JoinVariant::Signed).unwrap();
        Arc::new(
            ShardedServingIndex::build(
                data,
                spec,
                IndexConfig::Brute,
                ShardedConfig::with_shards(shards),
            )
            .unwrap(),
        )
    }

    #[test]
    fn disabled_coalescer_is_a_passthrough() {
        let index = serving(2);
        let queries = vectors(0xC1, 4, 8, 1.0);
        let expected = index.query(&queries).unwrap();
        for config in [
            CoalesceConfig {
                window_micros: 0,
                max_batch: 32,
            },
            CoalesceConfig {
                window_micros: 200,
                max_batch: 1,
            },
        ] {
            assert!(!config.enabled());
            let coalescer = Coalescer::new(Arc::clone(&index), config);
            assert_eq!(coalescer.query(queries.clone()).unwrap(), expected);
        }
        assert_eq!(index.stats().coalesced_batches, 0);
    }

    #[test]
    fn concurrent_queries_merge_and_match_serial_answers() {
        let index = serving(3);
        let queries = vectors(0xC2, 8, 8, 1.0);
        let expected: Vec<Vec<MatchPair>> = queries
            .iter()
            .map(|q| index.query(std::slice::from_ref(q)).unwrap())
            .collect();
        // A long window + a max_batch equal to the request count makes the
        // merge deterministic: the leader waits until everyone arrived.
        let coalescer = Arc::new(Coalescer::new(
            Arc::clone(&index),
            CoalesceConfig {
                window_micros: 2_000_000,
                max_batch: queries.len(),
            },
        ));
        let barrier = Arc::new(Barrier::new(queries.len()));
        let got: Vec<(usize, Vec<MatchPair>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = queries
                .iter()
                .enumerate()
                .map(|(i, q)| {
                    let coalescer = Arc::clone(&coalescer);
                    let barrier = Arc::clone(&barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        (i, coalescer.query(vec![q.clone()]).unwrap())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, pairs) in got {
            assert_eq!(pairs, expected[i], "request {i} diverged");
        }
        assert!(index.stats().coalesced_batches >= 1, "nothing coalesced");
    }

    #[test]
    fn bad_dimension_fails_alone_without_poisoning_the_lane() {
        let index = serving(1);
        let coalescer = Coalescer::new(Arc::clone(&index), CoalesceConfig::default());
        assert!(coalescer.query(vec![DenseVector::zeros(9)]).is_err());
        // The lane still works afterwards.
        let q = vectors(0xC3, 1, 8, 1.0);
        let direct = index.query(&q).unwrap();
        assert_eq!(coalescer.query(q).unwrap(), direct);
    }

    #[test]
    fn topk_lanes_key_on_k() {
        let index = serving(2);
        let q = vectors(0xC4, 2, 8, 1.0);
        let coalescer = Coalescer::new(Arc::clone(&index), CoalesceConfig::default());
        for k in [1usize, 3] {
            assert_eq!(
                coalescer.answer(q.clone(), Ask::TopK(k)).unwrap(),
                index.query_top_k(&q, k).unwrap()
            );
        }
    }

    #[test]
    fn a_lane_leaves_the_map_when_its_round_ends_idle() {
        let index = serving(1);
        // Two vectors a request fill a batch of two, so every round closes at once.
        let coalescer = Coalescer::new(
            Arc::clone(&index),
            CoalesceConfig {
                window_micros: 2_000_000,
                max_batch: 2,
            },
        );
        let q = vectors(0xC5, 2, 8, 1.0);
        for k in 1..=1000 {
            coalescer.answer(q.clone(), Ask::TopK(k)).unwrap();
        }
        coalescer.query(q).unwrap();
        let lanes = coalescer.lanes.lock().unwrap();
        assert!(lanes.is_empty(), "{} idle lanes left", lanes.len());
    }
}

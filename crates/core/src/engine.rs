//! The unified join engine: one parallel, chunk-batched driver behind every join.
//!
//! A `(cs, s)` join is "build an index over `P`, query it with every `q ∈ Q`" — the
//! reduction the paper uses throughout. The seed implementation ran that reduction as a
//! serial one-query-at-a-time loop in four separate places; [`JoinEngine`] is the single
//! replacement. It owns (or borrows) any [`MipsIndex`], splits the query set into
//! chunks, and hands each chunk to [`MipsIndex::answer`] — the index's one query
//! method — on a pool of scoped worker threads with work-stealing chunk claims, so:
//!
//! * every index gets query parallelism for free (answers take `&self`; all the
//!   workspace's indexes are plain data and therefore [`Sync`]);
//! * an index that answers a *batch* faster than query-at-a-time (the brute-force
//!   scan's data-major loop, and the serving layers over it) accelerates every join
//!   and every served request, since a batch is all an index is ever asked;
//! * the output is byte-for-byte what the serial loop produces — the workers only
//!   partition the query set, and the chunks' pair lists are concatenated in order.
//!
//! This is the seam sharding plugs into: anything that can answer a batch — a
//! serving index with pending writes, a set of shards — joins through the same
//! driver. It is also the execution core of the fluent
//! [`crate::facade::JoinBuilder`]: the brute-force and sketch strategies reach their
//! index through `JoinEngine::run`, and the ALSH and symmetric joins, which ask each
//! query of one group of tables at a time, run every pass in the engine's chunks on the
//! engine's threads.

use crate::error::Result;
use crate::mips::MipsIndex;
use crate::problem::{JoinSpec, MatchPair};
use ips_linalg::par::{available_threads, map_blocks};
use ips_linalg::DenseVector;

/// What a request asks of an index: Definition 1's one partner per query, or the
/// footnote-1 variant's up to `k`. A request of either kind runs the same path from the
/// socket to [`MipsIndex::answer`], which is the one place the two are told apart, and
/// requests merge into one pass only under equal asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ask {
    /// The `(cs, s)` join: at most one partner per query. Every partner clears `cs`;
    /// Definition 1 promises one whenever some data vector clears `s`, which the exact
    /// scan keeps and approximate indexes may miss.
    Threshold,
    /// Up to `k` partners per query, each clearing `cs`, best first (footnote 1).
    /// Approximate indexes may return fewer than `k` even when `k` exist.
    TopK(usize),
}

/// How a [`JoinEngine`] schedules its work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads; `0` means one per available CPU.
    pub threads: usize,
    /// Queries per batched work unit handed to [`MipsIndex::answer`].
    pub chunk_size: usize,
}

impl EngineConfig {
    /// Serial execution (one thread), primarily for baselines and tests.
    pub fn serial() -> Self {
        Self {
            threads: 1,
            ..Self::default()
        }
    }

    /// Exactly `threads` workers with the default chunk size.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            ..Self::default()
        }
    }

    pub(crate) fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            available_threads()
        }
    }

    pub(crate) fn resolved_chunk_size(&self) -> usize {
        self.chunk_size.max(1)
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            // Large enough that a batch amortises scheduling and lets data-major
            // batch kernels reuse each loaded data vector; small enough that a
            // typical query set still splits across every core.
            chunk_size: 32,
        }
    }
}

/// The unified parallel join driver over any [`MipsIndex`].
///
/// `I` may be an owned index (`JoinEngine<LshMips<_>>`) or a borrowed one
/// (`JoinEngine<&LshMips<_>>`), since `&I` implements [`MipsIndex`] too.
///
/// ```
/// use ips_core::engine::{EngineConfig, JoinEngine};
/// use ips_core::mips::BruteForceMipsIndex;
/// use ips_core::problem::{JoinSpec, JoinVariant};
/// use ips_linalg::DenseVector;
///
/// let data = vec![
///     DenseVector::from(&[1.0, 0.0][..]),
///     DenseVector::from(&[0.0, 1.0][..]),
/// ];
/// let spec = JoinSpec::new(0.5, 1.0, JoinVariant::Signed).unwrap();
/// let engine = JoinEngine::with_config(
///     BruteForceMipsIndex::new(data, spec),
///     EngineConfig::with_threads(2),
/// );
/// let queries = vec![DenseVector::from(&[0.9, 0.1][..])];
/// let pairs = engine.run(&queries).unwrap();
/// assert_eq!(pairs.len(), 1);
/// assert_eq!(pairs[0].data_index, 0);
/// // An empty query set joins to an empty result (workspace-wide contract).
/// assert!(engine.run(&[]).unwrap().is_empty());
/// ```
pub struct JoinEngine<I: MipsIndex> {
    index: I,
    config: EngineConfig,
}

impl<I: MipsIndex> JoinEngine<I> {
    /// An engine over `index` with the default configuration.
    pub fn new(index: I) -> Self {
        Self::with_config(index, EngineConfig::default())
    }

    /// An engine over `index` with an explicit schedule.
    pub fn with_config(index: I, config: EngineConfig) -> Self {
        Self { index, config }
    }

    /// The wrapped index.
    pub fn index(&self) -> &I {
        &self.index
    }

    /// The engine's schedule.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// The `(cs, s)` spec of the underlying index.
    pub fn spec(&self) -> JoinSpec {
        self.index.spec()
    }

    /// Runs the join serially on the calling thread, still a chunk at a time. This
    /// is the reference semantics [`JoinEngine::run`] must reproduce.
    pub fn run_serial(&self, queries: &[DenseVector]) -> Result<Vec<MatchPair>> {
        let chunk_size = self.config.resolved_chunk_size();
        let mut out = Vec::new();
        for (k, chunk) in queries.chunks(chunk_size).enumerate() {
            out.extend(self.chunk(chunk, k * chunk_size, Ask::Threshold)?);
        }
        Ok(out)
    }

    /// Runs the `(cs, s)` join of the index's data set against `queries`:
    /// [`JoinEngine::answer`] under [`Ask::Threshold`], identical to
    /// [`JoinEngine::run_serial`].
    pub fn run(&self, queries: &[DenseVector]) -> Result<Vec<MatchPair>>
    where
        I: Sync,
    {
        self.answer(queries, Ask::Threshold)
    }

    /// Answers `queries` as `ask` asks — the one entry point of the joins and of the
    /// serving layers, which carry the request kind from the socket to here.
    ///
    /// Chunks of `config.chunk_size` queries are claimed by `config.threads` scoped
    /// workers through the workspace's block driver ([`ips_linalg::par::map_blocks`]):
    /// work stealing, so uneven per-query cost — common for LSH probing — cannot idle
    /// a worker; the first failure stops the pass. Each chunk is one
    /// [`MipsIndex::answer`], and chunk order is query order with pairs already
    /// ordered within a chunk, so concatenating the lists reproduces the serial output
    /// exactly — even when a query contributes several pairs (top-`k`).
    pub fn answer(&self, queries: &[DenseVector], ask: Ask) -> Result<Vec<MatchPair>>
    where
        I: Sync,
    {
        let chunk_size = self.config.resolved_chunk_size();
        let mut chunks: Vec<&[DenseVector]> = queries.chunks(chunk_size).collect();
        let lists = map_blocks(self.config.resolved_threads(), &mut chunks, |k, chunk| {
            self.chunk(chunk, k * chunk_size, ask)
        })?;
        Ok(lists.into_iter().flatten().collect())
    }

    /// One chunk's answer, its query indices counted from the start of the whole set.
    fn chunk(&self, chunk: &[DenseVector], base: usize, ask: Ask) -> Result<Vec<MatchPair>> {
        let mut pairs = self.index.answer(chunk, ask)?;
        for pair in &mut pairs {
            pair.query_index += base;
        }
        Ok(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mips::BruteForceMipsIndex;
    use crate::problem::JoinVariant;
    use ips_linalg::random::random_unit_vector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn workload(seed: u64, n: usize, q: usize, dim: usize) -> (Vec<DenseVector>, Vec<DenseVector>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..n)
            .map(|_| random_unit_vector(&mut rng, dim).unwrap())
            .collect();
        let queries = (0..q)
            .map(|_| random_unit_vector(&mut rng, dim).unwrap())
            .collect();
        (data, queries)
    }

    #[test]
    fn parallel_run_matches_serial_for_every_schedule() {
        let (data, queries) = workload(0xE46, 80, 37, 12);
        let spec = JoinSpec::exact(0.2, JoinVariant::Unsigned).unwrap();
        let index = BruteForceMipsIndex::new(data, spec);
        let reference = JoinEngine::with_config(&index, EngineConfig::serial())
            .run_serial(&queries)
            .unwrap();
        for threads in [1, 2, 3, 8] {
            for chunk_size in [1, 5, 32, 64] {
                let engine = JoinEngine::with_config(
                    &index,
                    EngineConfig {
                        threads,
                        chunk_size,
                    },
                );
                assert_eq!(
                    engine.run(&queries).unwrap(),
                    reference,
                    "threads={threads} chunk_size={chunk_size}"
                );
            }
        }
    }

    #[test]
    fn parallel_top_k_matches_the_serial_per_query_loop() {
        let (data, queries) = workload(0xE50, 90, 41, 10);
        let spec = JoinSpec::new(0.1, 0.5, JoinVariant::Signed).unwrap();
        let index = BruteForceMipsIndex::new(data, spec);
        for k in [1usize, 3, 5] {
            // Reference: the plain per-query loop.
            let mut expected = Vec::new();
            for (j, q) in queries.iter().enumerate() {
                for hit in index.search_top_k(q, k).unwrap() {
                    expected.push(MatchPair {
                        data_index: hit.data_index,
                        query_index: j,
                        inner_product: hit.inner_product,
                    });
                }
            }
            for threads in [1, 3, 8] {
                for chunk_size in [1, 7, 64] {
                    let engine = JoinEngine::with_config(
                        &index,
                        EngineConfig {
                            threads,
                            chunk_size,
                        },
                    );
                    assert_eq!(
                        engine.answer(&queries, Ask::TopK(k)).unwrap(),
                        expected,
                        "k={k} threads={threads} chunk_size={chunk_size}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_query_set_yields_empty_join() {
        let (data, _) = workload(0xE47, 10, 0, 8);
        let spec = JoinSpec::exact(0.2, JoinVariant::Signed).unwrap();
        let engine = JoinEngine::new(BruteForceMipsIndex::new(data, spec));
        assert!(engine.run(&[]).unwrap().is_empty());
        assert!(engine.run_serial(&[]).unwrap().is_empty());
    }

    #[test]
    fn engine_exposes_index_spec_and_config() {
        let (data, _) = workload(0xE48, 4, 0, 8);
        let spec = JoinSpec::exact(0.5, JoinVariant::Signed).unwrap();
        let engine = JoinEngine::with_config(
            BruteForceMipsIndex::new(data, spec),
            EngineConfig::with_threads(3),
        );
        assert_eq!(engine.spec(), spec);
        assert_eq!(engine.config().threads, 3);
        assert_eq!(engine.index().len(), 4);
    }

    #[test]
    fn errors_from_workers_propagate() {
        let (data, _) = workload(0xE49, 20, 0, 8);
        let spec = JoinSpec::exact(0.2, JoinVariant::Signed).unwrap();
        let engine = JoinEngine::with_config(
            BruteForceMipsIndex::new(data, spec),
            EngineConfig {
                threads: 4,
                chunk_size: 2,
            },
        );
        // Dimension-mismatched queries must surface the underlying error.
        let bad: Vec<DenseVector> = (0..16).map(|_| DenseVector::from(&[1.0][..])).collect();
        assert!(engine.run(&bad).is_err());
        assert!(engine.run_serial(&bad).is_err());
    }
}

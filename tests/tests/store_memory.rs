//! How much memory the serving life-cycle and a one-shot join hold: save, open,
//! compaction and a join each work with **one** index worth of it, and a join with
//! **one** copy of the data set — the caller's.
//!
//! The binary installs a counting [`GlobalAlloc`] and every test reads the counters of
//! its own thread only, so the tests do not disturb one another whatever
//! `--test-threads` says (CI runs the binary once more with `--test-threads=1`, where
//! the per-thread numbers are the process's). What is pinned:
//!
//! 1. [`ShardedServingIndex::save`] and [`ShardedServingIndex::open`] peak at the live
//!    index plus a constant that does not grow with the number of vectors — for the
//!    four families, at one shard and at three. (The constant is a block of the codec
//!    and one copy of the sampled functions, which a save scatters out of the plane
//!    bank and a load gathers into it.)
//! 2. A file that fails its envelope check is refused with nothing decoded: the
//!    refusal allocates a block, not a structure.
//! 3. An LSH shard compacts in place: crossing the rebuild threshold allocates less
//!    than one of its hash tables occupies, where a rebuild allocated all of them.
//! 4. What is streamed to a file is byte for byte what `snapshot_bytes()` encodes in
//!    memory, and every fixture under `crates/store/fixtures/` — written by earlier
//!    builds — loads and re-saves to the same bytes; the LSH ones also answer as the
//!    build that wrote them did.
//! 5. A facade join of the three index strategies borrows the caller's vectors: it
//!    peaks within a fraction of the data set of what building the same index over
//!    vectors *handed over* peaks at.
//! 6. The Section 4.2 index is built from sparse sphere images: sampling its planes
//!    peaks at the plane bank (not at a bank and the functions it was gathered from),
//!    its exact-match table costs a few dozen bytes a point, and a search allocates
//!    nothing of the image's dimension.
//! 7. A block-parallel LSH build holds, beyond the index it returns, the key buffer and
//!    one scratch per thread — and the *calling* thread's counters see all of it and
//!    all of the index: the workers allocate nothing (the arena rule of
//!    `docs/ARCHITECTURE.md`), so these per-thread numbers are the build's.
//! 8. Reading a CSV file holds the vectors and a fixed number of block buffers, never
//!    the file.
//! 9. Generating a batch of unit vectors holds the vectors and the ring of sample
//!    blocks, and the calling thread's counters see every vector: the threads that
//!    compute the Gaussians allocate none of the data set.

use ips_core::asymmetric::{AlshParams, SphereTransform};
use ips_core::facade::{Join, Strategy};
use ips_core::mips::{MipsIndex, SketchMipsAdapter};
use ips_core::problem::{JoinSpec, JoinVariant, MatchPair};
use ips_core::symmetric::{SymmetricParams, SymmetricSphereMap};
use ips_core::LshMips;
use ips_linalg::par::Schedule;
use ips_linalg::random::{random_ball_vector, random_unit_vectors};
use ips_linalg::DenseVector;
use ips_lsh::hyperplane::HyperplaneFamily;
use ips_lsh::table::{IndexParams, LshIndex, Table, BUILD_BLOCK};
use ips_lsh::SymmetricAsAsymmetric;
use ips_sketch::linf_mips::MaxIpConfig;
use ips_store::{
    IndexConfig, ServingConfig, ServingIndex, ShardedConfig, ShardedServingIndex, StoreError,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::path::PathBuf;

/// The system allocator, with the calling thread's live bytes, their high-water mark,
/// the bytes it ever asked for and the largest block among them counted on the side.
struct Counting;

thread_local! {
    // `const` and without a destructor: reading them never allocates and never
    // touches a torn-down slot, so the allocator may use them.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn grew(bytes: usize) {
    let live = LIVE.get() + bytes;
    LIVE.set(live);
    PEAK.set(PEAK.get().max(live));
    REQUESTED.set(REQUESTED.get() + bytes);
    LARGEST.set(LARGEST.get().max(bytes));
}

fn shrank(bytes: usize) {
    // Saturating: a block may be freed by another thread than the one that asked
    // for it (not in these tests' measured spans).
    LIVE.set(LIVE.get().saturating_sub(bytes));
}

// SAFETY: every call is forwarded to `System` with the caller's own arguments, and
// the result is returned untouched; the counters are plain thread-local integers.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc` is `System::alloc`'s.
        let block = unsafe { System.alloc(layout) };
        if !block.is_null() {
            grew(layout.size());
        }
        block
    }

    unsafe fn dealloc(&self, block: *mut u8, layout: Layout) {
        // SAFETY: `block` came from `System` through this allocator, with `layout`.
        unsafe { System.dealloc(block, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, block: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        let moved = unsafe { System.realloc(block, layout, new_size) };
        if !moved.is_null() {
            // Counted as the new block beside the old one, which is what a
            // reallocation that has to move holds while it copies.
            grew(new_size);
            shrank(layout.size());
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A stretch of this thread's allocator traffic, from [`Span::begin`] to whenever it
/// is asked: how far the live bytes rose, and how many bytes were asked for in all.
struct Span {
    live_before: usize,
    requested_before: usize,
}

impl Span {
    fn begin() -> Self {
        PEAK.set(LIVE.get());
        LARGEST.set(0);
        Self {
            live_before: LIVE.get(),
            requested_before: REQUESTED.get(),
        }
    }

    /// Highest live bytes since `begin`, above the larger of the live bytes at
    /// `begin` and now: what the span held beyond what it started with or kept.
    fn transient(&self) -> usize {
        PEAK.get() - self.live_before.max(LIVE.get())
    }

    fn requested(&self) -> usize {
        REQUESTED.get() - self.requested_before
    }

    /// Highest live bytes since `begin`, above those at `begin`: everything the span
    /// held at once, kept or not.
    fn held(&self) -> usize {
        PEAK.get() - self.live_before
    }

    /// Live bytes now, above those at `begin`.
    fn kept(&self) -> usize {
        LIVE.get() - self.live_before
    }

    /// The largest single block asked for since `begin`.
    fn largest(&self) -> usize {
        LARGEST.get()
    }
}

const DIM: usize = 24;
const KIB: usize = 1024;

fn vectors(seed: u64, n: usize) -> Vec<DenseVector> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| random_ball_vector(&mut rng, DIM, 1.0).unwrap().scaled(0.9))
        .collect()
}

fn spec() -> JoinSpec {
    JoinSpec::new(0.5, 0.6, JoinVariant::Signed).unwrap()
}

/// The four families, each with the bound on what its save and its open may hold
/// beyond the index: a few codec blocks everywhere, plus one copy of the sampled
/// functions for the LSH families (3 KiB a plane for the symmetric family's
/// 400-odd-dimensional sphere images) and of the widest estimator for sketch.
fn families() -> [(&'static str, IndexConfig, usize); 4] {
    [
        ("brute", IndexConfig::Brute, 128 * KIB),
        ("alsh", IndexConfig::Alsh(AlshParams::default()), 256 * KIB),
        (
            "symmetric",
            IndexConfig::Symmetric(SymmetricParams {
                epsilon: 0.5,
                precision_bits: 8,
                bits_per_table: 6,
                tables: 8,
                probes: 0,
            }),
            512 * KIB,
        ),
        (
            "sketch",
            IndexConfig::Sketch {
                config: MaxIpConfig {
                    kappa: 2.0,
                    copies: 3,
                    rows: Some(2),
                },
                leaf_size: 16,
            },
            128 * KIB,
        ),
    ]
}

fn scratch_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ips-store-memory-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn save_and_open_hold_one_index_and_a_constant() {
    for (name, index_config, bound) in families() {
        for shards in [1usize, 3] {
            // The same bound at both sizes: it does not scale with the index. At the
            // larger size the file alone is several times the bound, so holding the
            // encoding (let alone two or three copies of it, as the buffered codec
            // did) could not pass.
            for n in [1000usize, 4000] {
                let config = ShardedConfig {
                    shards,
                    serving: ServingConfig::default(),
                };
                let index =
                    ShardedServingIndex::build(vectors(n as u64, n), spec(), index_config, config)
                        .unwrap();
                let path = scratch_file(&format!("{name}-{shards}-{n}.snap"));

                let span = Span::begin();
                let bytes = index.save(&path).unwrap() as usize;
                let (kept, transient) = (LIVE.get() - span.live_before, span.transient());
                assert_eq!(
                    kept, 0,
                    "{name} shards={shards} n={n}: a save keeps nothing"
                );
                assert!(
                    transient <= bound,
                    "{name} shards={shards} n={n}: save held {transient} bytes beyond the index"
                );

                let span = Span::begin();
                let reopened = ShardedServingIndex::open(&path, ServingConfig::default()).unwrap();
                let transient = span.transient();
                assert!(
                    transient <= bound,
                    "{name} shards={shards} n={n}: open held {transient} bytes beyond the index"
                );
                assert_eq!(reopened.len(), n);
                if n == 4000 {
                    assert!(
                        bytes > 2 * bound,
                        "{name}: a {bytes}-byte file proves nothing"
                    );
                }
                std::fs::remove_file(&path).unwrap();
            }
        }
    }
}

#[test]
fn a_file_that_fails_its_checksum_is_refused_with_nothing_decoded() {
    let n = 4000;
    let index = ShardedServingIndex::build(
        vectors(0xBAD, n),
        spec(),
        IndexConfig::Alsh(AlshParams::default()),
        ShardedConfig::with_shards(3),
    )
    .unwrap();
    let path = scratch_file("defective.snap");
    index.save(&path).unwrap();
    let good = std::fs::read(&path).unwrap();
    let mut flipped = good.clone();
    flipped[good.len() / 2] ^= 1;
    for (what, bytes) in [
        ("a flipped byte", &flipped[..]),
        ("a truncation", &good[..good.len() * 3 / 4]),
    ] {
        std::fs::write(&path, bytes).unwrap();
        let span = Span::begin();
        let refused = ShardedServingIndex::open(&path, ServingConfig::default());
        assert!(
            matches!(
                refused,
                Err(StoreError::Corrupt {
                    context: "checksum",
                    ..
                })
            ),
            "{what}"
        );
        drop(refused);
        // The reader's block and an error message; the vectors alone are 750 KiB.
        assert!(
            span.requested() <= 160 * KIB,
            "{what}: {} bytes allocated on the way to the refusal",
            span.requested()
        );
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn an_lsh_shard_compacts_without_allocating_a_table() {
    let n = 4000usize;
    let data = vectors(0xC0, n);
    for index_config in [
        IndexConfig::Alsh(AlshParams::default()),
        IndexConfig::Symmetric(SymmetricParams {
            epsilon: 0.5,
            precision_bits: 8,
            ..Default::default()
        }),
    ] {
        let mut serving =
            ServingIndex::build(data.clone(), spec(), index_config, ServingConfig::default())
                .unwrap();
        // Deletes up to the brink of the threshold (a quarter of the live points),
        // the last of them measured: what a delete allocates when nothing compacts.
        let threshold = ServingConfig::default().rebuild_threshold;
        let crosses = |dead: usize| dead as f64 / (n - dead) as f64 > threshold;
        let mut dead = 0usize;
        let mut plain_delete = 0;
        while !crosses(dead + 1) {
            let span = Span::begin();
            serving.delete(dead as u64).unwrap();
            plain_delete = span.requested();
            dead += 1;
        }
        assert_eq!(serving.stats().rebuilds, 0);
        // ...and the one that crosses it, compaction included.
        let span = Span::begin();
        serving.delete(dead as u64).unwrap();
        let compaction = span.requested() - plain_delete;
        dead += 1;
        assert_eq!(serving.stats().rebuilds, 1);
        // One `u32` per slot, the renumbering map: what a single table spends on its
        // ids alone, before bucket headers and spare capacity. The rebuild this
        // replaces allocated all L tables and hashed every vector into them.
        assert!(
            compaction <= 4 * n,
            "{:?}: compacting allocated {compaction} bytes; the ids of one table are {}",
            serving.family(),
            4 * n
        );
        assert_eq!(serving.len(), n - dead);
    }
}

#[test]
fn streamed_files_equal_the_bytes_encoded_in_memory() {
    let n = 3000;
    for (name, index_config, _) in families() {
        let mut serving = ServingIndex::build(
            vectors(7, n),
            spec(),
            index_config,
            ServingConfig::default(),
        )
        .unwrap();
        // Pending state on top, so that the save has something to compact.
        for id in 0..40 {
            serving.delete(id * 3).unwrap();
        }
        for v in vectors(8, 25) {
            serving.insert(v).unwrap();
        }
        let path = scratch_file(&format!("{name}-streamed.snap"));
        let written = serving.save(&path).unwrap();
        let streamed = std::fs::read(&path).unwrap();
        assert_eq!(written as usize, streamed.len(), "{name}");
        assert!(streamed.len() > 3 * 64 * KIB, "{name}: several blocks long");
        assert!(streamed == serving.snapshot_bytes().unwrap(), "{name}");
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn every_fixture_loads_and_saves_back_to_the_same_bytes() {
    let fixtures = concat!(env!("CARGO_MANIFEST_DIR"), "/../crates/store/fixtures");
    let mut seen = 0;
    for entry in std::fs::read_dir(fixtures).unwrap() {
        let fixture = entry.unwrap().path();
        let name = fixture.file_name().unwrap().to_string_lossy().into_owned();
        let index = ShardedServingIndex::open(&fixture, ServingConfig::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let shards = if name.contains("_3shard_") { 3 } else { 1 };
        assert_eq!(index.shard_count(), shards, "{name}");
        assert!(name.starts_with(index.family().name()), "{name}");
        let path = scratch_file(&name);
        index.save(&path).unwrap();
        assert!(
            std::fs::read(&path).unwrap() == std::fs::read(&fixture).unwrap(),
            "{name} re-saved differently"
        );
        std::fs::remove_file(&path).unwrap();
        seen += 1;
    }
    assert!(
        seen >= 9,
        "four families at one and three shards, and the PR 13 tree"
    );
}

/// The LSH fixtures' answers, recorded with the build of PR 16 (the parent of the
/// sparse-image change): per file, the number of stored vectors, of best-partner
/// pairs and of top-3 pairs for the queries of [`fixture_queries`], and an FNV-1a
/// fold of every pair's data index, query index and inner-product bits.
const LSH_FIXTURE_ANSWERS: [(&str, usize, usize, usize, u64); 4] = [
    ("alsh_1shard_pr15.snap", 23, 42, 116, 0xf3d3f994d4ab6db1),
    ("alsh_3shard_pr15.snap", 23, 42, 116, 0xf3d3f994d4ab6db1),
    (
        "symmetric_1shard_pr15.snap",
        23,
        43,
        117,
        0xcff920473d020b84,
    ),
    (
        "symmetric_3shard_pr15.snap",
        23,
        43,
        117,
        0xcff920473d020b84,
    ),
];

/// Every stored vector in ascending id order, first shrunk (an LSH lookup), then as it
/// is (for the symmetric family, the diagonal probe).
fn fixture_queries(index: &ShardedServingIndex) -> Vec<DenseVector> {
    let mut ids = index.ids();
    ids.sort_unstable();
    ids.iter()
        .flat_map(|&id| {
            let v = index.vector(id).unwrap();
            [v.scaled(0.95), v]
        })
        .collect()
}

fn fold_pairs<'a>(pairs: impl Iterator<Item = &'a MatchPair>) -> u64 {
    let mut digest: u64 = 0xcbf29ce484222325;
    for pair in pairs {
        let words = [
            pair.data_index as u64,
            pair.query_index as u64,
            pair.inner_product.to_bits(),
        ];
        for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x100000001b3);
        }
    }
    digest
}

#[test]
fn lsh_fixtures_answer_as_the_build_that_wrote_them_did() {
    let fixtures = concat!(env!("CARGO_MANIFEST_DIR"), "/../crates/store/fixtures");
    for (name, stored, best_pairs, top_pairs, digest) in LSH_FIXTURE_ANSWERS {
        let path = PathBuf::from(fixtures).join(name);
        let index = ShardedServingIndex::open(&path, ServingConfig::default()).unwrap();
        assert_eq!(index.len(), stored, "{name}");
        let queries = fixture_queries(&index);
        let best = index.query(&queries).unwrap();
        let top = index.query_top_k(&queries, 3).unwrap();
        assert_eq!((best.len(), top.len()), (best_pairs, top_pairs), "{name}");
        assert_eq!(fold_pairs(best.iter().chain(&top)), digest, "{name}");
    }
}

/// The join shapes of the bounds below: `n` vectors of dimension 48, 32 queries.
const JOIN_DIM: usize = 48;

fn join_vectors(seed: u64, n: usize) -> Vec<DenseVector> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            random_ball_vector(&mut rng, JOIN_DIM, 1.0)
                .unwrap()
                .scaled(0.9)
        })
        .collect()
}

/// What building `strategy`'s index over vectors it is *given* holds at its peak: the
/// structure and the build's own temporaries, no vector.
fn owning_build_peak(strategy: Strategy, owned: Vec<DenseVector>, seed: u64) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let (n, schedule) = (owned.len(), Schedule::new(BUILD_BLOCK));
    let span = Span::begin();
    let len = match strategy {
        Strategy::Alsh => {
            let params = AlshParams::default();
            LshMips::<SphereTransform>::build(schedule, &mut rng, owned, spec(), params)
                .unwrap()
                .len()
        }
        Strategy::Symmetric => {
            let params = SymmetricParams::default();
            LshMips::<SymmetricSphereMap>::build(schedule, &mut rng, owned, spec(), params)
                .unwrap()
                .len()
        }
        Strategy::Sketch => {
            let (config, leaf_size) = (MaxIpConfig::default(), ips_sketch::DEFAULT_LEAF_SIZE);
            SketchMipsAdapter::build(&mut rng, owned, spec(), config, leaf_size)
                .unwrap()
                .len()
        }
        Strategy::Auto | Strategy::Brute => unreachable!("not an index strategy"),
    };
    assert_eq!(len, n);
    span.held()
}

#[test]
fn a_facade_join_holds_its_index_and_no_copy_of_the_data() {
    let seed = 0x10B5;
    for n in [2000usize, 8000] {
        let data = join_vectors(n as u64, n);
        let queries = join_vectors(7, 32);
        let data_bytes = n * JOIN_DIM * std::mem::size_of::<f64>();
        for strategy in [Strategy::Alsh, Strategy::Symmetric, Strategy::Sketch] {
            let structures = owning_build_peak(strategy, data.clone(), seed);
            let span = Span::begin();
            let report = Join::data(&data)
                .queries(&queries)
                .spec(spec())
                .strategy(strategy)
                .seed(seed)
                .run()
                .unwrap();
            let join = span.held();
            drop(report);
            assert!(
                join < structures + data_bytes,
                "{strategy} n={n}: the join held {join} bytes, its index {structures}, \
                 the data set is {data_bytes}"
            );
        }
    }
}

#[test]
fn the_symmetric_index_is_built_from_sparse_images() {
    let params = SymmetricParams::default();
    let map = SymmetricSphereMap::new(JOIN_DIM, params.epsilon, params.precision_bits).unwrap();

    // Sampling the planes of an empty index: one bank, filled a table at a time.
    let family = SymmetricAsAsymmetric(HyperplaneFamily::single_bit(map.output_dim()).unwrap());
    let index_params = IndexParams {
        k: params.bits_per_table,
        l: params.tables,
    };
    let bank = map.output_dim() * index_params.k * index_params.l * std::mem::size_of::<f64>();
    let span = Span::begin();
    let empty = LshIndex::build(&family, index_params, &[], &mut StdRng::seed_from_u64(3)).unwrap();
    assert!(
        span.held() * 10 < bank * 11,
        "an empty index peaked at {} bytes over a {bank}-byte bank",
        span.held()
    );
    assert!(span.kept() >= bank);
    drop(empty);

    for n in [2000usize, 8000] {
        let data = join_vectors(n as u64 + 1, n);
        let index = LshMips::<SymmetricSphereMap>::build(
            Schedule::new(BUILD_BLOCK),
            &mut StdRng::seed_from_u64(3),
            &data[..],
            spec(),
            params,
        )
        .unwrap();

        // The exact-match table alone: reassembling an index from its parts adds
        // nothing else (the vectors and the LSH state are moved in).
        let lsh = LshIndex::from_raw_parts(
            index.lsh_index().functions(),
            index.lsh_index().tables().to_vec(),
            index.lsh_index().params(),
            index.lsh_index().len(),
        )
        .unwrap();
        let (owned, live) = (data.clone(), vec![true; n]);
        let span = Span::begin();
        let reassembled =
            LshMips::<SymmetricSphereMap>::from_raw_parts(owned, live, lsh, spec(), params)
                .unwrap();
        assert!(
            span.kept() <= 40 * n + 4 * KIB,
            "n={n}: the diagonal (and the map's power table) keeps {} bytes",
            span.kept()
        );
        drop(reassembled);

        // A search: one warm-up (this thread's hashing buffers), then nothing as
        // large as a dense image, whether the diagonal or the tables answer.
        let image_bytes = map.output_dim() * std::mem::size_of::<f64>();
        index.search(&data[0]).unwrap();
        for q in [data[1].clone(), data[2].scaled(0.9), data[3].scaled(-1.0)] {
            let span = Span::begin();
            index.search(&q).unwrap();
            assert!(
                span.largest() < image_bytes,
                "n={n}: a search allocated a block of {} bytes; an image is {image_bytes}",
                span.largest()
            );
        }
    }
}

#[test]
fn a_block_build_holds_its_index_a_key_buffer_and_a_scratch_per_thread() {
    let n = 6000;
    // Concentrated, as the benchmark's data is: a few buckets a table, so that what a
    // growing hash table holds while it moves does not blur the build's own buffers.
    let data: Vec<DenseVector> = join_vectors(0xB10C, n)
        .iter()
        .map(|v| v.scaled(0.05))
        .collect();
    let word = std::mem::size_of::<f64>();
    for threads in [1usize, 2, 3, 7] {
        let schedule = Schedule {
            threads,
            block: BUILD_BLOCK,
        };
        // The key buffer is a ring of `threads × DEPTH` blocks of `L` keys a point.
        // Section 4.1: `d + 2` rows of `L·k` planes; a scratch is four embedded points
        // and their margins.
        let params = AlshParams::default();
        let (rows, width) = (JOIN_DIM + 2, params.tables * params.bits_per_table);
        let key_buffer = schedule.ring() * BUILD_BLOCK * params.tables * word;
        let scratches = threads * 4 * (rows + width) * word;
        let span = Span::begin();
        let index = LshMips::<SphereTransform>::build(
            schedule,
            &mut StdRng::seed_from_u64(5),
            &data[..],
            spec(),
            params,
        )
        .unwrap();
        let (transient, kept) = (span.transient(), span.kept());
        // Laying the tables out adds the key maps and the counting scratch (see
        // `lsh_tables_hold_their_ids_and_a_few_words_per_bucket`); the key buffer and
        // the scratches are gone by then, so only where they outgrow them shows.
        let filing = filing_transient(index.lsh_index().tables(), n);
        assert!(
            transient <= key_buffer + scratches + filing + 16 * KIB,
            "alsh, {threads} threads: the build held {transient} bytes beyond its index; \
             the key buffer is {key_buffer}, the scratches {scratches}, filing {filing}"
        );
        // Every stored id and the bank were allocated by this thread.
        let entries = index.lsh_index().stored_entries();
        assert_eq!(entries, n * params.tables);
        assert!(
            kept >= rows * width * word + entries * 4,
            "alsh, {threads} threads: this thread kept {kept} bytes of the index"
        );
        drop(index);

        // Section 4.2: a thread's scratch is also a block's images, 44 tag entries a
        // point; the margins are of `L·k` planes again, nothing is embedded.
        let params = SymmetricParams::default();
        let map = SymmetricSphereMap::new(JOIN_DIM, params.epsilon, params.precision_bits).unwrap();
        let width = params.tables * params.bits_per_table;
        let image = 32 + map.tag_nonzeros() * 2 * word;
        let scratches = threads * (4 * width * word + BUILD_BLOCK * image);
        let span = Span::begin();
        let index = LshMips::<SymmetricSphereMap>::build(
            schedule,
            &mut StdRng::seed_from_u64(5),
            &data[..],
            spec(),
            params,
        )
        .unwrap();
        let (transient, kept) = (span.transient(), span.kept());
        // Sampling holds one table's functions beside the bank: k planes of the
        // image's dimension. The images are not concentrated — a sphere image's tag
        // depends on the whole vector — so its tables have ~1000 buckets each, and
        // their key maps show.
        let sampling = 2 * params.bits_per_table * map.output_dim() * word;
        let filing = filing_transient(index.lsh_index().tables(), n);
        assert!(
            transient <= key_buffer + scratches + sampling + filing + 16 * KIB,
            "symmetric, {threads} threads: the build held {transient} bytes beyond its \
             index; the key buffer is {key_buffer}, the scratches {scratches}, filing \
             {filing}"
        );
        let entries = index.lsh_index().stored_entries();
        assert!(
            kept >= map.output_dim() * width * word + entries * 4 + 16 * n,
            "symmetric, {threads} threads: this thread kept {kept} bytes of the index"
        );
    }
}

/// What laying out a build's tables holds beyond them. Until its table is laid out,
/// a map from each key to a bucket number: a 16-byte entry and a control byte per
/// slot, fewer than 16/7 slots per bucket, and a small table's minimum — the one map
/// that is growing holds its old slots beside the new. While a table is laid out, its
/// buckets' order and sizes, 20 bytes a bucket. And the counting sort's scratch, a
/// `u32` per point.
fn filing_transient(tables: &[Table], points: usize) -> usize {
    let buckets: Vec<usize> = tables.iter().map(|t| t.buckets().count()).collect();
    let widest = buckets.iter().copied().max().unwrap_or(0);
    let maps: usize = buckets.iter().map(|&b| 40 * b + 128).sum();
    maps + 20 * widest + 4 * points
}

#[test]
fn lsh_tables_hold_their_ids_and_a_few_words_per_bucket() {
    let n = 8000;
    let data = join_vectors(0x7AB1E, n);
    let params = SymmetricParams::default();
    let schedule = Schedule::new(BUILD_BLOCK);
    let span = Span::begin();
    let index = LshMips::<SymmetricSphereMap>::build(
        schedule,
        &mut StdRng::seed_from_u64(11),
        &data[..],
        spec(),
        params,
    )
    .unwrap();
    let transient = span.transient();
    let tables = index.lsh_index().tables();
    let entries = index.lsh_index().stored_entries();
    let buckets: usize = tables.iter().map(|t| t.buckets().count()).sum();
    assert_eq!(entries, n * params.tables);
    assert!(
        buckets > 500 * params.tables,
        "spread points: {buckets} buckets"
    );

    // A table is its ids, a key and an offset a bucket, and a constant.
    let bound = 4 * entries + 16 * buckets + 256 * tables.len();
    let span = Span::begin();
    let copy = tables.to_vec();
    let held = span.kept();
    assert!(
        held <= bound,
        "{entries} ids in {buckets} buckets take {held} bytes, more than {bound}"
    );
    assert!(copy == tables);
    drop(copy);
    // What a `HashMap<u64, Vec<u32>>` a table holds for the same buckets.
    let span = Span::begin();
    let maps: Vec<HashMap<u64, Vec<u32>>> = tables
        .iter()
        .map(|t| {
            t.buckets()
                .map(|(key, ids)| (key, ids.iter().collect()))
                .collect()
        })
        .collect();
    let mapped = span.kept();
    assert!(
        mapped > 2 * held,
        "the map form takes {mapped} bytes, the tables {held}"
    );
    drop(maps);

    // Beyond the index it keeps, the build held its key buffer and scratches while
    // hashing, then the key maps and the counting scratch while laying the tables
    // out — never the map form.
    let map = SymmetricSphereMap::new(JOIN_DIM, params.epsilon, params.precision_bits).unwrap();
    let word = std::mem::size_of::<f64>();
    let width = params.tables * params.bits_per_table;
    let key_buffer = schedule.ring() * BUILD_BLOCK * params.tables * word;
    let image = 32 + map.tag_nonzeros() * 2 * word;
    let scratches = schedule.threads * (4 * width * word + BUILD_BLOCK * image);
    let sampling = 2 * params.bits_per_table * map.output_dim() * word;
    let filing = filing_transient(tables, n);
    assert!(
        transient <= key_buffer + scratches + sampling + filing + 16 * KIB,
        "the build held {transient} bytes beyond its index: the key buffer is \
         {key_buffer}, the scratches {scratches}, sampling {sampling}, filing {filing}"
    );
    assert!(filing < mapped, "filing {filing}, the map form {mapped}");
}

#[test]
fn reading_a_csv_file_holds_the_vectors_and_a_few_blocks() {
    use ips_cli::dataset::{read_vectors_scheduled, write_vectors, READ_BLOCK};
    let n = 40_000;
    let data = vectors(0xC5, n);
    let path = scratch_file("vectors.csv");
    write_vectors(&path, &data).unwrap();
    let file_bytes = std::fs::metadata(&path).unwrap().len() as usize;
    let payload = n * DIM * std::mem::size_of::<f64>();
    // The list of vectors itself, at the worst moment of a doubling.
    let spine = 3 * n * std::mem::size_of::<DenseVector>();
    for threads in [1usize, 3] {
        let schedule = Schedule {
            threads,
            block: READ_BLOCK,
        };
        // The ring: `threads × DEPTH` blocks, each its text (a block and the line
        // carried into it) and room for its numbers, four bytes of `f64` per byte of
        // text at most.
        let blocks = schedule.ring() * 6 * READ_BLOCK;
        let span = Span::begin();
        let file = std::fs::File::open(&path).unwrap();
        let read = read_vectors_scheduled(file, "vectors.csv", schedule).unwrap();
        let held = span.held();
        assert!(read == data);
        assert!(
            held <= payload + spine + blocks,
            "{threads} threads: reading held {held} bytes; the vectors are {payload}, \
             the ring {blocks}, the file {file_bytes}"
        );
        assert!(
            file_bytes > 2 * (spine + blocks),
            "a {file_bytes}-byte file proves nothing"
        );
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn a_batch_of_unit_vectors_is_allocated_by_the_thread_that_asked_for_it() {
    let (n, dim) = (20_000, 64);
    let payload = n * dim * std::mem::size_of::<f64>();
    let spine = n * std::mem::size_of::<DenseVector>();
    // The ring: `threads × DEPTH` blocks of 4096 pairs of uniforms.
    let ring = Schedule::new(4096).ring() * 2 * 4096 * std::mem::size_of::<f64>();
    let span = Span::begin();
    let batch = random_unit_vectors(&mut StdRng::seed_from_u64(9), n, dim).unwrap();
    let (held, kept) = (span.held(), span.kept());
    assert_eq!(batch.len(), n);
    assert!(
        held <= payload + spine + ring + 16 * KIB,
        "generating held {held} bytes; the vectors are {payload} + {spine}, the ring {ring}"
    );
    // Whatever another thread had allocated would be missing here.
    assert!(
        kept >= payload + spine,
        "this thread kept {kept} bytes of {payload} + {spine}"
    );
}

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
//!    four families, at one shard and at three — the same constant for all four: a
//!    block of the codec. A save walks the planes out of the plane bank and the
//!    sketches out of the estimators' blocks, and a load fills them in place.
//! 2. A file that fails its envelope check is refused with nothing decoded: the
//!    refusal allocates a block, not a structure. A file whose plane section announces
//!    more coefficients than it holds is refused before a bank of that size is
//!    allocated.
//! 3. An LSH shard compacts in place: crossing the rebuild threshold allocates less
//!    than one of its hash tables occupies, where a rebuild allocated all of them.
//! 4. What is streamed to a file is byte for byte what `snapshot_bytes()` encodes in
//!    memory, and every fixture under `crates/store/fixtures/` — written by earlier
//!    builds — loads and re-saves to the same bytes; the LSH ones also answer as the
//!    build that wrote them did.
//! 5. A facade join of the three index strategies borrows the caller's vectors: it
//!    peaks within a fraction of the data set of what building the same index over
//!    vectors *handed over* peaks at. A symmetric join holds one group of tables at a
//!    time: less than half the plane bank beyond a few hundred bytes a point. A sketch
//!    join holds one node of its tree at a time: less than the root's pair of
//!    estimators, one draw's temporaries and a hundred-odd bytes a query.
//! 6. The Section 4.2 index is built from sparse sphere images: sampling its planes
//!    peaks at the plane bank, which the Gaussians are drawn straight into, its
//!    exact-match table costs a few dozen bytes a point, and a search allocates
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
//! 10. A brute shard writes and ranks in place: a delete, an insert that lands
//!     between held ids and a top-`k` query each allocate a constant plus a few
//!     words per result, at any number of vectors — no rebuild, no list of every
//!     slot.

use ips_core::asymmetric::{AlshParams, SphereTransform};
use ips_core::engine::EngineConfig;
use ips_core::facade::{Join, JoinBuilder, JoinReport, Strategy};
use ips_core::mips::{BruteForceMipsIndex, MipsIndex, SketchMipsAdapter};
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
    AnyIndex, IndexConfig, IndexFamily, ServingConfig, ServingIndex, ShardedConfig,
    ShardedServingIndex, Snapshot, StoreError,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
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

/// What a save and an open may hold beyond the index, for every family: a few codec
/// blocks, and one plane or one sketched copy at a time.
const CODEC_BOUND: usize = 128 * KIB;

/// The four families.
fn families() -> [(&'static str, IndexConfig); 4] {
    [
        ("brute", IndexConfig::Brute),
        ("alsh", IndexConfig::Alsh(AlshParams::default())),
        (
            "symmetric",
            IndexConfig::Symmetric(SymmetricParams {
                epsilon: 0.5,
                precision_bits: 8,
                bits_per_table: 6,
                tables: 8,
                probes: 0,
            }),
        ),
        (
            "sketch",
            IndexConfig::Sketch(MaxIpConfig {
                kappa: 2.0,
                copies: 3,
                rows: Some(2),
            }),
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
    let bound = CODEC_BOUND;
    for (name, index_config) in families() {
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
fn a_plane_section_that_outnumbers_its_file_is_refused_before_a_bank_is_allocated() {
    let mut serving = ServingIndex::build(
        vectors(0xBA7C, 200),
        spec(),
        IndexConfig::Alsh(AlshParams::default()),
        ServingConfig::default(),
    )
    .unwrap();
    let mut bytes = serving.snapshot_bytes().unwrap();
    // The plane section opens with the table count, then table 0's component count
    // and its first component's header: the transform's dimension and query radius,
    // one plane, of dimension d + 2.
    let params = AlshParams::default();
    let words = [params.tables, params.bits_per_table, DIM]
        .map(|word| word as u64)
        .into_iter()
        .chain([params.query_radius.to_bits(), 1, DIM as u64 + 2]);
    let header: Vec<u8> = words.flat_map(u64::to_le_bytes).collect();
    let at = bytes
        .windows(header.len())
        .position(|window| window == header)
        .expect("the plane section's header");
    // 16 384 tables announce a 41 MB bank in a file of some 150 KB. The checksum is
    // made to match, so the decoder has to see it.
    let tables = 16_384usize;
    let announced = tables * params.bits_per_table * (DIM + 2) * std::mem::size_of::<f64>();
    assert!(announced > 100 * bytes.len());
    bytes[at..at + 8].copy_from_slice(&(tables as u64).to_le_bytes());
    let end = bytes.len() - 8;
    let checksum = ips_store::format::fnv1a64(&bytes[12..end]);
    bytes[end..].copy_from_slice(&checksum.to_le_bytes());
    let span = Span::begin();
    let refused = Snapshot::from_bytes(&bytes).map(|_| ());
    assert!(
        matches!(
            refused,
            Err(StoreError::Corrupt {
                context: "planes",
                ..
            })
        ),
        "{refused:?}"
    );
    drop(refused);
    assert!(
        span.largest() < 4 * bytes.len(),
        "a block of {} bytes for a {}-byte file",
        span.largest(),
        bytes.len()
    );
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
fn a_brute_shard_writes_and_ranks_in_place() {
    const K: usize = 10;
    // What one write or one ranking may hold at any `n`: the engine's lists for one
    // query's chunk, plus the best-`k` list and the reply (a few words a result).
    let bound = KIB + 64 * K;
    // A rebuild moved every vector into an `(id, vector)` list and refilled the id
    // map (~50 B a vector); a ranking listed every slot and scored it (24 B a
    // vector): at n = 2000 both are far above the bound, and they grow with n where
    // the bound does not. (Measured: 0 B a delete, 0 B an insert, under 1 KiB a
    // ranking at both sizes.)
    assert!(bound < 24 * 2000);
    // A low threshold, so that about half the vectors are acceptable to a query and
    // the selection has hundreds of results to rank.
    let spec = JoinSpec::new(0.05, 0.5, JoinVariant::Signed).unwrap();
    let config = ServingConfig {
        engine: EngineConfig::serial(),
        ..ServingConfig::default()
    };
    for n in [2000usize, 8000] {
        // Even ids, with room for more above them.
        let index = AnyIndex::Brute(BruteForceMipsIndex::new(vectors(0xB7, n), spec));
        let ids = (0..n as u64).map(|i| 2 * i).collect();
        let snapshot = Snapshot::with_ids(index, ids, 2 * n as u64).unwrap();
        let mut serving = ServingIndex::from_snapshot(snapshot, config).unwrap();
        let middle = n as u64;
        let span = Span::begin();
        serving.delete(middle).unwrap();
        let delete = span.held();
        // Its vector is the caller's; the insert, above every held id, moves it in and
        // allocates nothing (the slot the delete freed leaves room in every list).
        let v = vectors(0xB8, 1).pop().unwrap();
        let expected = v.clone();
        let above = 2 * n as u64 + 1;
        let span = Span::begin();
        serving.insert_with_id(above, v).unwrap();
        let insert = span.held();
        assert_eq!(serving.vector(above).unwrap(), &expected);
        let queries = vectors(0xB9, 1);
        let span = Span::begin();
        let top = serving.query_top_k(&queries, K).unwrap();
        let ranking = span.held();
        assert_eq!(top.len(), K);
        assert_eq!(serving.stats().rebuilds, 0);
        for (what, bytes) in [("delete", delete), ("insert", insert), ("top-k", ranking)] {
            assert!(
                bytes <= bound,
                "n = {n}: a brute {what} held {bytes} bytes, above {bound}"
            );
        }
    }
}

#[test]
fn streamed_files_equal_the_bytes_encoded_in_memory() {
    let n = 3000;
    for (name, index_config) in families() {
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
        // An LSH file whose tables were keyed by the hash-combine chain re-saves as
        // its sign-word twin; every other file as itself.
        let lsh = matches!(index.family(), IndexFamily::Alsh | IndexFamily::Symmetric);
        let expected = match name.strip_suffix("_pr15.snap") {
            Some(stem) if lsh => fixture.with_file_name(format!("{stem}_signs.snap")),
            _ => fixture.clone(),
        };
        let path = scratch_file(&name);
        index.save(&path).unwrap();
        assert!(
            std::fs::read(&path).unwrap() == std::fs::read(&expected).unwrap(),
            "{name} re-saved differently"
        );
        std::fs::remove_file(&path).unwrap();
        seen += 1;
    }
    assert!(
        seen >= 13,
        "four families at one and three shards, the sketch tree file, and the LSH files' sign-word twins"
    );
}

/// The LSH fixtures' answers, recorded with the build of PR 16 (the parent of the
/// sparse-image change): per file, the number of stored vectors, of best-partner
/// pairs and of top-3 pairs for the queries of [`fixture_queries`], and an FNV-1a
/// fold of every pair's data index, query index and inner-product bits.
/// The `_signs` files, the first four re-saved with their tables keyed by sign words,
/// answer the same.
const LSH_FIXTURE_ANSWERS: [(&str, usize, usize, usize, u64); 8] = [
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
    ("alsh_1shard_signs.snap", 23, 42, 116, 0xf3d3f994d4ab6db1),
    ("alsh_3shard_signs.snap", 23, 42, 116, 0xf3d3f994d4ab6db1),
    (
        "symmetric_1shard_signs.snap",
        23,
        43,
        117,
        0xcff920473d020b84,
    ),
    (
        "symmetric_3shard_signs.snap",
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

/// The queries of the LSH joins below. Under 885 of them a symmetric join of 2000
/// points (under 501 an ALSH one) is an exact scan by the scan rule, which holds no
/// table at all; at 1024 both hash, and their group bounds are what they measure.
const LSH_JOIN_QUERIES: usize = 1024;

/// `join` run from an RNG seeded with `seed`, and whether it drew from it: for ALSH and
/// symmetric LSH, whether the scan rule let it hash.
fn run_drawing(join: JoinBuilder<'_>, seed: u64) -> (JoinReport, bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let report = join.run_with_rng(&mut rng).unwrap();
    (
        report,
        rng.next_u64() != StdRng::seed_from_u64(seed).next_u64(),
    )
}

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
            SketchMipsAdapter::build(&mut rng, owned, spec(), MaxIpConfig::default())
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
        let data_bytes = n * JOIN_DIM * std::mem::size_of::<f64>();
        for strategy in [Strategy::Alsh, Strategy::Symmetric, Strategy::Sketch] {
            let queries = match strategy {
                Strategy::Sketch => join_vectors(7, 32),
                _ => join_vectors(7, LSH_JOIN_QUERIES),
            };
            let structures = owning_build_peak(strategy, data.clone(), seed);
            let span = Span::begin();
            let (report, drew) = run_drawing(
                Join::data(&data)
                    .queries(&queries)
                    .spec(spec())
                    .strategy(strategy),
                seed,
            );
            let join = span.held();
            drop(report);
            assert!(drew, "{strategy} n={n}: the join scanned");
            assert!(
                join < structures + data_bytes,
                "{strategy} n={n}: the join held {join} bytes, its index {structures}, \
                 the data set is {data_bytes}"
            );
        }
    }
}

/// What a symmetric join holds a point beyond one group's planes and filing maps: its
/// image as the join keeps it (96 B at the defaults), its diagonal entry (≤ 40 B, see
/// `the_symmetric_index_is_built_from_sparse_images`), and one group's share of the
/// tables — six tables' ids and the build's bucket number and counting slot for each,
/// 6 × 8 + 4 B; a query's kept image and its parts are less than that.
const JOIN_BYTES_PER_POINT: usize = 256;

#[test]
fn a_symmetric_join_holds_a_group_of_tables_and_not_the_bank() {
    let params = SymmetricParams::default();
    let map = SymmetricSphereMap::new(JOIN_DIM, params.epsilon, params.precision_bits).unwrap();
    let bank =
        map.output_dim() * params.bits_per_table * params.tables * std::mem::size_of::<f64>();
    for n in [2000usize, 8000] {
        let data = join_vectors(n as u64 + 2, n);
        let queries = join_vectors(7, LSH_JOIN_QUERIES);
        // One thread: every block the join allocates is this thread's to count.
        let span = Span::begin();
        let (report, drew) = run_drawing(
            Join::data(&data)
                .queries(&queries)
                .spec(spec())
                .strategy(Strategy::Symmetric)
                .threads(1),
            42,
        );
        let held = span.held();
        drop(report);
        assert!(drew, "n={n}: the join scanned");
        let allowance = JOIN_BYTES_PER_POINT * (n + queries.len());
        assert!(
            held < bank / 2 + allowance,
            "n={n}: the join held {held} bytes; half the bank is {}, the allowance {allowance}",
            bank / 2
        );
    }
}

/// What a sketch join holds a query beyond its node's estimators: its place in the walk's
/// order and the partition's room for it (4 B each), its turn at a node (1 B) and its
/// leaf's answer, by place and then by query (16 B each); after the walk, its answer and
/// its pair (24 B, twice while the list grows). 25 B a query are held at the peak, while
/// the root's second estimator is drawn.
const SKETCH_JOIN_BYTES_PER_QUERY: usize = 128;

#[test]
fn a_sketch_join_holds_one_node_and_not_the_tree() {
    let config = MaxIpConfig::default();
    let f64_bytes = std::mem::size_of::<f64>();
    for n in [2000usize, 8000] {
        let data = join_vectors(n as u64 + 3, n);
        let queries = join_vectors(7, 32);
        // The root's pair of estimators over n/2 vectors each, and the temporaries of
        // drawing one of them: a bucket and a scale a summarised vector, and one copy's
        // rows before they are scattered into the estimator.
        let rows = ips_sketch::cost::resolved_rows(n / 2, &config);
        let root_pair = 2 * config.copies * rows * JOIN_DIM * f64_bytes;
        let draw = 16 * (n / 2) + rows * JOIN_DIM * f64_bytes;
        let bound = root_pair + draw + SKETCH_JOIN_BYTES_PER_QUERY * queries.len();
        if n == 8000 {
            let tree =
                SketchMipsAdapter::build(&mut StdRng::seed_from_u64(0), &data[..], spec(), config)
                    .unwrap();
            let tree_bytes = tree.inner().stored_coefficients() * f64_bytes;
            assert!(
                bound < tree_bytes,
                "the bound ({bound} bytes) must not admit the whole tree ({tree_bytes} bytes)"
            );
        }
        // One thread: every block the join allocates is this thread's to count.
        let span = Span::begin();
        let report = Join::data(&data)
            .queries(&queries)
            .spec(spec())
            .strategy(Strategy::Sketch)
            .threads(1)
            .run()
            .unwrap();
        let held = span.held();
        drop(report);
        assert!(
            held < bound,
            "n={n}: the join held {held} bytes; the root's pair is {root_pair}, a draw {draw}"
        );
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
            index.lsh_index().bank().clone(),
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
        // Sampling holds one plane beside the bank, of the image's dimension. The
        // images are not concentrated — a sphere image's tag depends on the whole
        // vector — so its tables have ~1000 buckets each, and their key maps show.
        let sampling = map.output_dim() * word;
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

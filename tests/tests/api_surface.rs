//! Public-API surface snapshot: pins the facade's exported item list so a PR
//! that renames, drops or widens the typed entry points fails a test instead
//! of silently breaking downstream callers.
//!
//! Two layers of pinning:
//!
//! * **compile-time** — the `use` lists and signature assertions below stop
//!   compiling when an item disappears or changes shape;
//! * **snapshot** — the facade *source files* are scanned for top-level `pub`
//!   items and compared against a literal expectation, so *additions* to the
//!   deliberately-small surface fail here too (append consciously, with the
//!   matching MIGRATION.md note).

use ips_core::facade::{Join, JoinBuilder, JoinReport, Strategy};
use ips_linalg::DenseVector;
use ips_store::{Index, IndexBuilder};

/// The top-level `pub` type items `ips_core::facade` exports, sorted.
const CORE_FACADE_SURFACE: &[&str] = &["Join", "JoinBuilder", "JoinReport", "Strategy"];

/// The top-level `pub` type items `ips_store::builder` exports, sorted.
const STORE_FACADE_SURFACE: &[&str] = &["Index", "IndexBuilder"];

/// Top-level (column-0) `pub struct` / `pub enum` / `pub fn` / `pub trait`
/// names of a module source, sorted — the actual snapshot the literal lists
/// above are compared against, so a *new* export fails this test instead of
/// shipping silently.
fn top_level_pub_items(source: &str) -> Vec<String> {
    let mut items: Vec<String> = source
        .lines()
        .filter_map(|line| {
            let rest = line.strip_prefix("pub ")?; // column 0 only
            let rest = rest
                .strip_prefix("struct ")
                .or_else(|| rest.strip_prefix("enum "))
                .or_else(|| rest.strip_prefix("fn "))
                .or_else(|| rest.strip_prefix("trait "))?;
            Some(
                rest.chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect(),
            )
        })
        .collect();
    items.sort_unstable();
    items
}

#[test]
fn core_facade_surface_is_pinned() {
    // Entry-point shape: Join::data takes a slice and returns the builder.
    let _entry: fn(&[DenseVector]) -> JoinBuilder<'_> = Join::data;
    // Terminal shape: run consumes the builder and yields a JoinReport.
    fn _run_shape(b: JoinBuilder<'_>) -> ips_core::Result<JoinReport> {
        b.run()
    }
    // The selector covers exactly Auto + the four families; adding a variant
    // breaks this match (and must come with planner + CLI schema support).
    for s in Strategy::ALL {
        match s {
            Strategy::Auto
            | Strategy::Brute
            | Strategy::Alsh
            | Strategy::Symmetric
            | Strategy::Sketch => {}
        }
    }
    assert_eq!(Strategy::ALL.len(), 5);
    // The crate root re-exports the same four names.
    let _: ips_core::Strategy = ips_core::facade::Strategy::Auto;
    // Source-scan snapshot: an item *added* to the facade fails here.
    assert_eq!(
        top_level_pub_items(include_str!("../../crates/core/src/facade.rs")),
        CORE_FACADE_SURFACE
    );
}

#[test]
fn core_facade_report_fields_are_pinned() {
    // Destructuring pins the exact field set of JoinReport: a new or renamed
    // field fails to compile here before it surprises a caller.
    let data = [DenseVector::from(&[0.5, 0.5][..])];
    let report = Join::data(&data)
        .queries(&data)
        .threshold(0.4)
        .strategy(Strategy::Brute)
        .run()
        .unwrap();
    let JoinReport {
        matches,
        strategy,
        plan,
        stats,
        wall_ns,
    } = report;
    assert_eq!(matches.len(), 1);
    assert_eq!(strategy, ips_core::planner::Strategy::BruteForce);
    assert!(plan.is_none() && stats.is_none());
    let _: u128 = wall_ns;
}

#[test]
fn store_facade_surface_is_pinned() {
    // Both entry points end in the same terminal.
    let _build: fn(Vec<DenseVector>) -> IndexBuilder = Index::build;
    let _open: fn(std::path::PathBuf) -> IndexBuilder = Index::open::<std::path::PathBuf>;
    let _serve: fn(IndexBuilder) -> ips_store::Result<ips_store::ServingIndex> =
        IndexBuilder::serve;
    // ...and the sharded terminal alongside it (PR 5).
    let _serve_sharded: fn(IndexBuilder) -> ips_store::Result<ips_store::ShardedServingIndex> =
        IndexBuilder::serve_sharded;
    // ...and the coalescing terminal behind the TCP front-end (PR 7).
    let _serve_coalescing: fn(IndexBuilder) -> ips_store::Result<ips_store::Coalescer> =
        IndexBuilder::serve_coalescing;
    // The builder speaks the core facade's Strategy vocabulary, not its own.
    let _ = Index::build(vec![DenseVector::from(&[1.0][..])]).strategy(Strategy::Alsh);
    // Source-scan snapshot: an item *added* to the builder module fails here.
    assert_eq!(
        top_level_pub_items(include_str!("../../crates/store/src/builder.rs")),
        STORE_FACADE_SURFACE
    );
}

#[test]
fn lsh_index_surface_is_pinned() {
    // What the benchmark and the persistence layer compile against. Since the
    // plane bank (PR 13) `functions()` hands out owned functions — a banked
    // family's live only as the bank. A table is a `Table` (MIGRATION.md,
    // "Sorted-key tables"), not a `HashMap<u64, Vec<u32>>`: read through
    // `buckets()` / `ids()` / `entries()`, built by `from_parts`.
    use ips_lsh::amplify::AndFunction;
    use ips_lsh::simple_alsh::{SimpleAlshFamily, SimpleAlshFunction};
    use ips_lsh::table::{Bucket, IndexParams, LshIndex, Table};
    use rand::rngs::StdRng;
    type Alsh = LshIndex<SimpleAlshFamily>;
    type Functions = Vec<AndFunction<SimpleAlshFunction>>;
    let _parts: fn(Vec<u64>, Vec<u32>, Vec<u32>) -> ips_lsh::Result<Table> = Table::from_parts;
    let _entries: fn(&Table) -> usize = Table::entries;
    let table = Table::from_parts(vec![3, 8], vec![0, 2], vec![4, 1, 5]).unwrap();
    let listed: Vec<(u64, usize, Vec<u32>)> = table
        .buckets()
        .map(|(key, bucket): (u64, Bucket<'_>)| (key, bucket.len(), bucket.iter().collect()))
        .collect();
    assert_eq!(listed, [(3, 2, vec![4, 1]), (8, 1, vec![5])]);
    assert_eq!(table.ids().collect::<Vec<u32>>(), [4, 1, 5]);
    let _build: fn(
        &SimpleAlshFamily,
        IndexParams,
        &[DenseVector],
        &mut StdRng,
    ) -> ips_lsh::Result<Alsh> = LshIndex::build::<StdRng>;
    let _query: fn(&Alsh, &DenseVector) -> ips_lsh::Result<Vec<usize>> = Alsh::query_candidates;
    let _entries: fn(&Alsh) -> usize = Alsh::stored_entries;
    let _functions: fn(&Alsh) -> Functions = Alsh::functions;
    let _tables: fn(&Alsh) -> &[Table] = Alsh::tables;
    let _raw: fn(Functions, Vec<Table>, IndexParams, usize) -> ips_lsh::Result<Alsh> =
        Alsh::from_raw_parts;
    // In-place compaction (PR 16): ids are renamed where they are stored.
    let _renumber: fn(&mut Alsh, &[u32]) -> ips_lsh::Result<()> = Alsh::renumber;
    // A point is a `&DenseVector` or — at a banked index, since PR 17 — a
    // `SparseImage` of its non-zeros. PR 21 folded the `*_image` twins into the three
    // point-taking methods (`impl Into<Point>`, so pinned by use): the dense calls the
    // benchmark makes compile as they always did.
    use ips_lsh::bank::SparseImage;
    use rand::SeedableRng;
    let v = DenseVector::from(&[0.6, 0.0][..]);
    let family = SimpleAlshFamily::new(2, 1.0, 1).unwrap();
    let params = IndexParams { k: 2, l: 3 };
    let mut index = LshIndex::build(&family, params, &[], &mut StdRng::seed_from_u64(1)).unwrap();
    let inserted: ips_lsh::Result<()> = index.insert(0, &v);
    inserted.unwrap();
    let probed: ips_lsh::Result<Vec<usize>> = index.probe_lookup(&v, 2);
    assert_eq!(probed.unwrap(), index.query_candidates(&v).unwrap());
    let removed: ips_lsh::Result<bool> = index.remove(0, &v);
    assert!(removed.unwrap());
    // ...and each takes a sparse image by value (this bank embeds, so it refuses one).
    let image = SparseImage {
        dim: 2,
        head: v.as_slice(),
        tail: &[],
    };
    assert!(index.insert(0, image).is_err() && index.remove(0, image).is_err());
    assert!(index.probe_lookup(image, 0).is_err());
}

#[test]
fn block_parallel_set_up_surface_is_pinned() {
    // PR 18 (MIGRATION.md, "Block-parallel set-up"): one driver in `ips_linalg::par`,
    // and a `*_scheduled` form beside the `LshIndex` and CSV entry points that run on
    // it; the unscheduled forms keep the signatures pinned above (the benchmark
    // compiles against `LshIndex::build`, `write_vectors` and `write_vectors_to`).
    // Since PR 21 the MIPS index has the one `LshMips::build`, which takes the
    // schedule.
    use ips_cli::dataset::{self, READ_BLOCK, WRITE_BLOCK};
    use ips_core::asymmetric::{AlshParams, SphereTransform};
    use ips_core::problem::{JoinSpec, JoinVariant};
    use ips_core::symmetric::{SymmetricParams, SymmetricSphereMap};
    use ips_core::{LshMips, LshOps};
    use ips_linalg::par::{self, Schedule};
    use ips_lsh::bank::Point;
    use ips_lsh::simple_alsh::SimpleAlshFamily;
    use ips_lsh::table::{IndexParams, LshIndex, BUILD_BLOCK};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let _threads: fn() -> usize = par::available_threads;
    let schedule: Schedule = Schedule::new(BUILD_BLOCK).with_threads(2);
    assert_eq!((schedule.threads, schedule.block), (2, BUILD_BLOCK));
    assert_eq!(schedule.ring(), 2 * par::DEPTH);
    // The driver: an ordered pass, and the same for a list known up front.
    let mut doubled = Vec::new();
    let passed: Result<(), ()> = par::pipeline(
        &mut [(), ()],
        &mut [0u32; 3],
        |k, slot| {
            *slot = k as u32;
            Ok(k < 5)
        },
        |(), _, slot| {
            *slot *= 2;
            Ok(())
        },
        |_, slot| {
            doubled.push(*slot);
            Ok(())
        },
    );
    assert_eq!((passed, doubled), (Ok(()), vec![0, 2, 4, 6, 8]));
    let squares: Result<Vec<usize>, ()> =
        par::map_blocks(2, &mut [1usize, 2, 3], |_, x| Ok(*x * *x));
    assert_eq!(squares, Ok(vec![1, 4, 9]));
    // Builds under a schedule.
    let data = vec![DenseVector::from(&[0.6, 0.0][..]); 5];
    let spec = JoinSpec::new(0.5, 0.6, JoinVariant::Signed).unwrap();
    let family = SimpleAlshFamily::new(2, 1.0, 1).unwrap();
    let params = IndexParams { k: 2, l: 3 };
    type Alsh = LshIndex<SimpleAlshFamily>;
    type Data<'a> = &'a [DenseVector];
    let _build: fn(
        Schedule,
        &SimpleAlshFamily,
        IndexParams,
        Data<'_>,
        &mut StdRng,
    ) -> ips_lsh::Result<Alsh> = LshIndex::build_scheduled::<StdRng>;
    let mut rng = StdRng::seed_from_u64(1);
    let mut index = LshIndex::build_scheduled(schedule, &family, params, &[], &mut rng).unwrap();
    let mut filed = Vec::new();
    let extended: ips_lsh::Result<()> = index.extend_blocks(
        schedule.with_threads(1),
        0,
        data.len(),
        |_points| (),
        |hasher, positions, (), keys| {
            hasher.data_keys(data[positions].iter().map(Point::from), keys)
        },
        |positions| filed.extend(positions),
    );
    assert_eq!(
        (extended, index.len(), filed),
        (Ok(()), 5, vec![0, 1, 2, 3, 4])
    );
    let alsh: LshMips<'_, SphereTransform> =
        LshMips::build(schedule, &mut rng, &data[..], spec, AlshParams::default()).unwrap();
    let symmetric: LshMips<'_, SymmetricSphereMap> = LshMips::build(
        schedule,
        &mut rng,
        &data[..],
        spec,
        SymmetricParams::default(),
    )
    .unwrap();
    assert_eq!((alsh.slots(), symmetric.slots()), (5, 5));
    // The CSV codec under a schedule (`block` in coordinates, then in bytes of text).
    let mut text = Vec::new();
    let written: ips_cli::Result<()> =
        dataset::write_vectors_scheduled(&mut text, &data, Schedule::new(WRITE_BLOCK));
    written.unwrap();
    let read: ips_cli::Result<Vec<DenseVector>> =
        dataset::read_vectors_scheduled(&text[..], "text", Schedule::new(READ_BLOCK));
    assert_eq!(read.unwrap(), data);
    // PR 24 (MIGRATION.md, "Batch samplers"): the two batch forms of the Gaussian
    // sampler, on the same driver; the scalar forms keep their signatures (the
    // benchmark compiles against `random_unit_vector`).
    use ips_linalg::random;
    let _fill: fn(&mut StdRng, &mut [f64]) = random::fill_standard_gaussians::<StdRng>;
    let _batch: fn(&mut StdRng, usize, usize) -> ips_linalg::Result<Vec<DenseVector>> =
        random::random_unit_vectors::<StdRng>;
    let _one: fn(&mut StdRng, usize) -> ips_linalg::Result<DenseVector> =
        random::random_unit_vector::<StdRng>;
    let batch = random::random_unit_vectors(&mut StdRng::seed_from_u64(2), 3, 4).unwrap();
    let mut one_by_one = StdRng::seed_from_u64(2);
    for v in &batch {
        assert_eq!(v, &random::random_unit_vector(&mut one_by_one, 4).unwrap());
    }
}

#[test]
fn join_indexes_borrow_or_own_their_vectors() {
    // PR 17 (MIGRATION.md, "Borrowing join indexes"): the LSH and sketch indexes hold
    // a `Cow` of their vectors and carry its lifetime. `build` takes a `Vec` to own or
    // a slice to borrow; a facade join borrows the caller's slice.
    use ips_core::asymmetric::{AlshParams, SphereTransform};
    use ips_core::lsh_mips::BUILD_BLOCK;
    use ips_core::problem::{JoinSpec, JoinVariant};
    use ips_core::symmetric::{SymmetricParams, SymmetricSphereMap};
    use ips_core::{JoinEngine, LshMips, LshOps};
    use ips_linalg::par::Schedule;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let spec = JoinSpec::new(0.5, 0.6, JoinVariant::Signed).unwrap();
    let data = vec![DenseVector::from(&[0.6, 0.0][..]); 4];
    let mut rng = StdRng::seed_from_u64(1);
    let schedule = Schedule::new(BUILD_BLOCK);
    let borrowing: LshMips<'_, SphereTransform> =
        LshMips::build(schedule, &mut rng, &data[..], spec, AlshParams::default()).unwrap();
    assert_eq!(borrowing.data().as_ptr(), data.as_ptr());
    // The engine owns the index, the index borrows the data: PR 21's spelling of
    // what `ips_core::join::alsh_engine` returned.
    let engine: JoinEngine<LshMips<'_, SphereTransform>> = JoinEngine::new(borrowing);
    drop(engine);
    let owning: LshMips<'static, SphereTransform> = LshMips::build(
        schedule,
        &mut rng,
        data.clone(),
        spec,
        AlshParams::default(),
    )
    .unwrap();
    assert_eq!(owning.into_data(), data);
    let mut borrowing: LshMips<'_, SymmetricSphereMap> = LshMips::build(
        schedule,
        &mut rng,
        &data[..],
        spec,
        SymmetricParams::default(),
    )
    .unwrap();
    assert_eq!(borrowing.data().as_ptr(), data.as_ptr());
    // The first mutation of a borrowing index takes its own copy.
    borrowing
        .insert(DenseVector::from(&[0.0, 0.6][..]))
        .unwrap();
    assert_ne!(borrowing.data().as_ptr(), data.as_ptr());
    assert_eq!((borrowing.slots(), data.len()), (5, 4));
    // The exact scan is one struct too, under its two names (MIGRATION.md, "Serving
    // knobs"): a slice borrows, a `Vec` owns, a push onto a borrowing index copies.
    use ips_core::brute::BorrowedBruteIndex;
    use ips_core::mips::BruteForceMipsIndex;
    let mut borrowing: BruteForceMipsIndex<'_> = BorrowedBruteIndex::new(&data, spec);
    assert_eq!(borrowing.data().as_ptr(), data.as_ptr());
    borrowing.push(DenseVector::from(&[0.0, 0.6][..]));
    assert_ne!(borrowing.data().as_ptr(), data.as_ptr());
    let owning: BorrowedBruteIndex<'static> = BruteForceMipsIndex::new(data.clone(), spec);
    assert_eq!(owning.into_data(), data);
}

#[test]
fn streaming_codec_and_compaction_surface_is_pinned() {
    // PR 16 moved these deliberately (MIGRATION.md, "Streaming snapshot codec and
    // in-place compaction"): one encoder over three sinks, one decoder over any
    // seekable source with section limits in place of sub-slices, snapshots lent to
    // the encoder instead of pre-encoded, and compaction as a method of the index.
    use ips_core::asymmetric::SphereTransform;
    use ips_core::mips::BruteForceMipsIndex;
    use ips_core::problem::{JoinSpec, JoinVariant};
    use ips_core::symmetric::SymmetricSphereMap;
    use ips_core::{LshMips, LshOps};
    use ips_store::format::{ByteReader, ByteWriter};
    use ips_store::snapshot::{self, SnapshotRef};
    use std::path::Path;
    let _memory: fn() -> ByteWriter = ByteWriter::new;
    let _counting: fn() -> ByteWriter = ByteWriter::counting;
    let _len: fn(&ByteWriter) -> u64 = ByteWriter::len;
    let _finish: fn(ByteWriter) -> ips_store::Result<u64> = ByteWriter::finish;
    let _bytes: fn(ByteWriter) -> Vec<u8> = ByteWriter::into_bytes;
    let _begin: fn(&mut ByteWriter) = ByteWriter::begin_checksum;
    let _end: fn(&mut ByteWriter) -> u64 = ByteWriter::end_checksum;
    let _file: fn(&Path) -> ips_store::Result<ByteReader<'static>> = ByteReader::open;
    let _sharded: fn(&mut ByteWriter, &[Option<SnapshotRef<'_>>], u64) = snapshot::write_sharded;
    let _any: fn(&Path) -> ips_store::Result<snapshot::LoadedSnapshot> = snapshot::load_any;
    // Signatures generic over a lifetime or an `impl Trait` do not coerce to a
    // function pointer; these are pinned by use.
    let path = std::env::temp_dir().join(format!("ips-api-surface-{}.bin", std::process::id()));
    let written: ips_store::Result<u64> = snapshot::save_atomically(&path, |w: &mut ByteWriter| {
        w.put_bytes(b"magic...");
        w.put_u64(7);
    });
    assert_eq!(written.unwrap(), 16);
    let streaming: ByteWriter = ByteWriter::streaming(std::fs::File::create(&path).unwrap());
    assert_eq!(streaming.finish().unwrap(), 0);
    std::fs::remove_file(&path).unwrap();
    let mut r: ByteReader<'_> = ByteReader::new(b"magic...\x07\0\0\0\0\0\0\0");
    let entered: ips_store::Result<()> = r.enter(8u64);
    entered.unwrap();
    let magic: [u8; 8] = r.take_array().unwrap();
    assert_eq!(&magic, b"magic...");
    let left: ips_store::Result<()> = r.leave("magic");
    left.unwrap();
    let (remaining, position): (u64, u64) = (r.remaining(), r.position());
    assert_eq!((remaining, position), (8, 8));
    let skipped: ips_store::Result<()> = r.skip(8u64);
    skipped.unwrap();
    let snapshot = ips_store::Snapshot::new(ips_store::AnyIndex::Brute(BruteForceMipsIndex::new(
        vec![DenseVector::from(&[1.0][..])],
        JoinSpec::new(0.5, 1.0, JoinVariant::Signed).unwrap(),
    )));
    let lent: SnapshotRef<'_> = snapshot.as_ref();
    let mut w = ByteWriter::new();
    lent.write(&mut w);
    assert_eq!(w.into_bytes(), snapshot.to_bytes());
    // Since PR 17 the LSH and sketch indexes hold their vectors as a `Cow` and carry
    // its lifetime; `'static` is the owning form the serving layer stores. Since PR 21
    // both LSH families are the one `LshMips`, under their maps.
    type Alsh = LshMips<'static, SphereTransform>;
    type Symmetric = LshMips<'static, SymmetricSphereMap>;
    let _alsh: fn(&mut Alsh, &[u64]) -> ips_core::Result<()> = <Alsh as LshOps>::compact;
    let _symmetric: fn(&mut Symmetric, &[u64]) -> ips_core::Result<()> =
        <Symmetric as LshOps>::compact;
    // ...`compact` and the other operations that do not name the map being methods
    // of one object-safe trait, which is how the serving layers reach either family.
    let _view: fn(&ips_store::AnyIndex) -> Option<&dyn LshOps> = ips_store::AnyIndex::as_lsh;
    let _push: fn(&mut BruteForceMipsIndex<'static>, DenseVector) = BruteForceMipsIndex::push;
}

#[test]
fn scoring_and_trace_surface_is_pinned() {
    // PR 22 (MIGRATION.md, "Exact or f32"): the i8 `quantized` path and the
    // counters only it fed are gone. What is left, and what the benchmark
    // compiles against: one scoring field, six stages, two observables, with
    // dense discriminants (they index fixed histogram arrays).
    use ips_core::brute::BorrowedBruteIndex;
    use ips_core::problem::{JoinSpec, JoinVariant};
    use ips_core::{Dtype, MipsIndex, ScoringOptions};
    use ips_obs::{Observable, Stage};
    let ScoringOptions { dtype } = ScoringOptions::default();
    assert_eq!(dtype, Dtype::F64);
    let data = [DenseVector::from(&[0.5, 0.5][..])];
    let spec = JoinSpec::new(0.4, 1.0, JoinVariant::Signed).unwrap();
    #[allow(clippy::needless_update)] // the benchmark's spelling must keep compiling
    let options = ScoringOptions {
        dtype: Dtype::F32,
        ..ScoringOptions::default()
    };
    let index = BorrowedBruteIndex::with_options(&data, spec, options).unwrap();
    assert_eq!(index.search_batch(&data).unwrap()[0].unwrap().data_index, 0);
    assert_eq!(
        Stage::ALL.map(|s| (s as usize, s.name())),
        [
            (0, "parse"),
            (1, "coalesce_wait"),
            (2, "lock_wait"),
            (3, "engine"),
            (4, "merge"),
            (5, "demux"),
        ]
    );
    assert_eq!(
        Observable::ALL.map(|o| (o as usize, o.name())),
        [(0, "query_norm_milli"), (1, "batch_size")]
    );
}

#[test]
fn sketch_index_surface_is_pinned() {
    // What the persistence layer, the adapter and the benchmark compile against.
    // Since the cost cut-off (PR 15) a leaf is a range, an estimator is one
    // coordinate-major block — `sketched()` scatters owned matrices out of it, as
    // `LshIndex::functions()` does for the plane bank — and the tree reports how
    // many coefficients it holds; `leaf_size` keeps its name and type throughout.
    use ips_linalg::Matrix;
    use ips_sketch::linf_mips::{MaxIpConfig, MaxIpEstimator};
    use ips_sketch::recovery::{MipsCandidate, Node, SketchMipsIndex};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    // Since PR 17 the index holds its vectors as a `Cow` and carries its lifetime:
    // `build` takes a `Vec` to own or a slice to borrow (an `impl Into<Cow<..>>`, so
    // pinned by use, not by coercion); what loads from a snapshot owns.
    type Sketch = SketchMipsIndex<'static>;
    let data = vec![DenseVector::from(&[1.0, 0.0][..]); 3];
    let mut rng = StdRng::seed_from_u64(1);
    let borrowing: ips_sketch::Result<SketchMipsIndex<'_>> =
        SketchMipsIndex::build(&mut rng, &data[..], MaxIpConfig::default(), 4);
    assert_eq!(borrowing.unwrap().data().as_ptr(), data.as_ptr());
    let owning: ips_sketch::Result<Sketch> =
        SketchMipsIndex::build(&mut rng, data.clone(), MaxIpConfig::default(), 4);
    assert_eq!(owning.unwrap().into_data(), data);
    let _query: fn(&Sketch, &DenseVector) -> ips_sketch::Result<MipsCandidate> = Sketch::query;
    let _raw: fn(Vec<DenseVector>, Node, MaxIpConfig, usize) -> ips_sketch::Result<Sketch> =
        Sketch::from_raw_parts;
    let _root: fn(&Sketch) -> &Node = Sketch::root;
    let _leaf_size: fn(&Sketch) -> usize = Sketch::leaf_size;
    let _stored: fn(&Sketch) -> usize = Sketch::stored_coefficients;
    let _leaf = Node::Leaf { range: 0..1 };
    let _estimate: fn(&MaxIpEstimator, &DenseVector) -> ips_sketch::Result<f64> =
        MaxIpEstimator::estimate;
    let _sketched: fn(&MaxIpEstimator) -> Vec<Matrix> = MaxIpEstimator::sketched;
    let _estimator_raw: fn(f64, usize, usize, Vec<Matrix>) -> ips_sketch::Result<MaxIpEstimator> =
        MaxIpEstimator::from_raw_parts;
    let _default_floor: usize = ips_sketch::DEFAULT_LEAF_SIZE;
}

#[test]
fn builder_setters_are_pinned() {
    // One chain through every JoinBuilder setter (compile-time surface pin).
    let data = [DenseVector::from(&[0.5, 0.5][..])];
    let report = Join::data(&data)
        .queries(&data)
        .threshold(0.2)
        .approximation(0.9)
        .variant(ips_core::JoinVariant::Signed)
        .spec(ips_core::JoinSpec::new(0.2, 0.9, ips_core::JoinVariant::Signed).unwrap())
        .strategy(Strategy::Brute)
        .alsh_params(ips_core::asymmetric::AlshParams::default())
        .symmetric_params(ips_core::symmetric::SymmetricParams::default())
        .sketch_config(ips_sketch::linf_mips::MaxIpConfig::default())
        .sketch_leaf_size(8)
        .threads(1)
        .chunk_size(4)
        .engine(ips_core::EngineConfig::serial())
        .cost_model(ips_core::CostModel::default())
        .seed(1)
        .run()
        .unwrap();
    assert!(!report.matches.is_empty());
    // ...and every IndexBuilder setter.
    let serving = Index::build(vec![DenseVector::from(&[0.9, 0.0][..])])
        .spec(ips_core::JoinSpec::new(0.5, 0.8, ips_core::JoinVariant::Signed).unwrap())
        .strategy(Strategy::Brute)
        .queries(vec![])
        .alsh_params(ips_core::asymmetric::AlshParams::default())
        .symmetric_params(ips_core::symmetric::SymmetricParams::default())
        .sketch_config(ips_sketch::linf_mips::MaxIpConfig::default())
        .sketch_leaf_size(8)
        .threads(1)
        .chunk_size(4)
        .engine(ips_core::EngineConfig::serial())
        .rebuild_threshold(0.5)
        .coalesce_window_micros(200)
        .coalesce_max(8)
        .seed(1)
        .probes(0)
        .serve()
        .unwrap();
    assert_eq!(serving.len(), 1);
    // The shards setter routes to the sharded terminal.
    let sharded = Index::build(vec![DenseVector::from(&[0.9, 0.0][..])])
        .spec(ips_core::JoinSpec::new(0.5, 0.8, ips_core::JoinVariant::Signed).unwrap())
        .strategy(Strategy::Brute)
        .shards(2)
        .serve_sharded()
        .unwrap();
    assert_eq!(sharded.shard_count(), 2);
    assert_eq!(sharded.len(), 1);
    // The coalescing knobs route to the coalescer terminal (the TCP
    // front-end's entry point).
    let coalescer = Index::build(vec![DenseVector::from(&[0.9, 0.0][..])])
        .spec(ips_core::JoinSpec::new(0.5, 0.8, ips_core::JoinVariant::Signed).unwrap())
        .strategy(Strategy::Brute)
        .shards(2)
        .coalesce_window_micros(150)
        .coalesce_max(8)
        .serve_coalescing()
        .unwrap();
    assert_eq!(
        coalescer.config(),
        ips_store::CoalesceConfig {
            window_micros: 150,
            max_batch: 8,
        }
    );
    assert_eq!(coalescer.index().len(), 1);
}

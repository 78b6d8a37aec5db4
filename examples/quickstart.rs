//! Quickstart: build a `(cs, s)` inner product search index and run a join.
//!
//! This example walks through the core workflow of the library in ~60 lines,
//! using the fluent facades (`Join` from ips-core, `Index` from ips-store):
//!
//! 1. generate a synthetic data set (unit-ball vectors) and some queries;
//! 2. pick a `(cs, s)` specification (Definition 1 of the paper);
//! 3. build the Section 4.1 asymmetric-LSH MIPS index and answer a single query;
//! 4. run the same spec as a join over all queries with the `Join` builder and
//!    compare with the exact brute-force join;
//! 5. hand the whole decision to the cost-based planner (`Strategy::Auto`) and
//!    print its reasoning — what `ips join algo=auto explain=true` shows;
//! 6. persist the index with the `Index` builder and serve the snapshot — the
//!    library-level `ips build` → `ips query` flow.
//!
//! Run with `cargo run --release -p ips-examples --example quickstart`.

use ips_core::asymmetric::{AlshParams, SphereTransform};
use ips_core::brute::brute_force_join;
use ips_core::facade::{Join, Strategy};
use ips_core::lsh_mips::{LshMips, BUILD_BLOCK};
use ips_core::mips::MipsIndex;
use ips_core::problem::{JoinSpec, JoinVariant};
use ips_datagen::planted::{PlantedConfig, PlantedInstance};
use ips_examples::{example_rng, f3, section};
use ips_linalg::par::Schedule;
use ips_store::Index;

fn main() {
    let mut rng = example_rng(42);

    section("1. synthetic workload");
    let instance = PlantedInstance::generate(
        &mut rng,
        PlantedConfig {
            data: 2000,
            queries: 50,
            dim: 64,
            background_scale: 0.1,
            planted_ip: 0.85,
            planted: 10,
        },
    )
    .expect("valid configuration");
    println!(
        "{} data vectors, {} queries, dimension {}",
        instance.data().len(),
        instance.queries().len(),
        64
    );

    section("2. the (cs, s) specification");
    let spec = JoinSpec::new(0.8, 0.6, JoinVariant::Signed).expect("valid spec");
    println!(
        "threshold s = {}, approximation c = {}, report pairs above cs = {}",
        spec.threshold,
        spec.approximation,
        f3(spec.relaxed_threshold())
    );

    section("3. single query against the ALSH index (Section 4.1)");
    let index = LshMips::<SphereTransform>::build(
        Schedule::new(BUILD_BLOCK),
        &mut rng,
        instance.data().to_vec(),
        spec,
        AlshParams::default(),
    )
    .expect("index construction");
    println!(
        "index over {} vectors; ideal rho (eq. 3) = {}, hyperplane rho = {}",
        index.len(),
        f3(index.rho_data_dependent().unwrap()),
        f3(index.rho_simple().unwrap())
    );
    let (_, planted_query) = instance.planted_pairs()[0];
    let query = &instance.queries()[planted_query];
    match index.search(query).expect("search runs") {
        Some(hit) => println!(
            "query {planted_query}: found data vector {} with inner product {}",
            hit.data_index,
            f3(hit.inner_product)
        ),
        None => println!("query {planted_query}: no vector above cs found"),
    }

    section("4. the full join, approximate vs exact");
    // The fluent builder is the one entry point over every join strategy: the
    // same spec, an explicit strategy, and a seed for reproducibility. The norm
    // bound keeps little more than the planted points here, and hashing them and 50
    // queries into 32 tables would cost more than scanning every pair, so the ALSH
    // join answers by the exact scan (its scan rule; see `ips_core::facade`).
    let approx = Join::data(instance.data())
        .queries(instance.queries())
        .spec(spec)
        .strategy(Strategy::Alsh)
        .seed(42)
        .run()
        .expect("join runs")
        .matches;
    let exact = brute_force_join(instance.data(), instance.queries(), &spec).expect("join runs");
    let reported: Vec<(usize, usize)> = approx
        .iter()
        .map(|p| (p.data_index, p.query_index))
        .collect();
    println!(
        "exact join answered {} queries; ALSH join answered {} queries; planted-pair recall = {}",
        exact.len(),
        approx.len(),
        f3(instance.recall(&reported, spec.relaxed_threshold()))
    );

    section("5. the adaptive join (cost-based planner)");
    // Strategy::Auto samples the workload, predicts each strategy's cost and
    // dispatches the winner — the CLI's `join algo=auto explain=true`.
    let report = Join::data(instance.data())
        .queries(instance.queries())
        .spec(spec)
        .strategy(Strategy::Auto)
        .run_with_rng(&mut rng)
        .expect("planning runs");
    let plan = report.plan.as_ref().expect("auto attaches a plan");
    print!("{}", plan.explain());
    println!(
        "auto join ({}) answered {} queries in {:.1} ms",
        plan.choice.family(),
        report.matches.len(),
        report.wall_ns as f64 / 1e6,
    );

    section("6. persist and serve (the ips build → ips query flow)");
    // The Index builder is the persistent sibling of the Join builder: build
    // once, snapshot to disk, reopen and serve arbitrarily many batches.
    let mut built = Index::build(instance.data().to_vec())
        .spec(spec)
        .strategy(Strategy::Alsh)
        .seed(42)
        .serve()
        .expect("index builds");
    let dir = std::env::temp_dir().join("ips-quickstart");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let snapshot = dir.join("quickstart.snap");
    let bytes = built.save(&snapshot).expect("snapshot saves");
    let serving = Index::open(&snapshot).serve().expect("snapshot reopens");
    let served = serving.query(instance.queries()).expect("batch serves");
    println!(
        "saved {} snapshot ({bytes} bytes), reopened with {} live vectors; \
         served {} answers — bit-identical to the pre-save index",
        serving.family(),
        serving.len(),
        served.len(),
    );
    assert_eq!(served, built.query(instance.queries()).expect("query runs"));
    std::fs::remove_file(&snapshot).ok();
}

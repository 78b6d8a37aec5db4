//! Binary inner products as set intersections: the `{0,1}` domain.
//!
//! For set data the inner product is the intersection size, and the paper's Table 1
//! shows this domain has the weakest hardness (only `c = 1 − o(1)` is ruled out) and a
//! dedicated ALSH — asymmetric minwise hashing. This example indexes a Zipfian corpus of
//! sets in MH-ALSH tables (the family lives in `ips-bench` with the other comparison
//! schemes; the tables are a plain map per composite function, the OR-construction
//! spelled out), runs containment-style queries with a controlled overlap, and compares
//! the collision behaviour with the theoretical `a/(M + |q| − a)` curve.
//!
//! Run with `cargo run --release -p ips-examples --example set_containment`.

use ips_bench::mhalsh::MhAlshFamily;
use ips_datagen::binary_sets::{containment_pairs, zipfian_sets};
use ips_examples::{example_rng, f3, section};
use ips_lsh::amplify::AndConstruction;
use ips_lsh::{AsymmetricHashFunction, AsymmetricLshFamily};
use std::collections::HashMap;

fn main() {
    let mut rng = example_rng(77);
    let universe = 2000;
    let set_size = 60;
    let n_sets = 1500;

    section("corpus");
    let corpus = zipfian_sets(&mut rng, n_sets, universe, set_size, 1.1).expect("valid parameters");
    println!(
        "{n_sets} sets of size {set_size} over a universe of {universe} Zipf-distributed elements"
    );

    section("MH-ALSH index");
    let family = MhAlshFamily::new(universe, set_size).expect("valid family");
    let (k, l) = (4, 24);
    // One composite of `k` minhashes per table, drawn in table order.
    let composite = AndConstruction::new(family, k).expect("k is positive");
    let functions: Vec<_> = (0..l)
        .map(|_| composite.sample(&mut rng).expect("sampling"))
        .collect();
    // Each table files every set under its composite's data-side key.
    let tables: Vec<HashMap<u64, Vec<usize>>> = functions
        .iter()
        .map(|f| {
            let mut table: HashMap<u64, Vec<usize>> = HashMap::new();
            for (id, set) in corpus.iter().enumerate() {
                let key = f.hash_data(&set.to_dense()).expect("sets fit the capacity");
                table.entry(key).or_default().push(id);
            }
            table
        })
        .collect();
    let stored: usize = tables.iter().flat_map(|t| t.values()).map(Vec::len).sum();
    println!("{l} tables x {k} minhashes each, {stored} stored entries");

    section("containment queries with controlled overlap");
    let target = 123usize;
    for &overlap in &[10usize, 30, 50, 60] {
        let query = containment_pairs(&mut rng, &corpus[target], set_size, overlap)
            .expect("feasible request");
        let jaccard_like =
            MhAlshFamily::collision_probability(overlap, query.count_ones(), set_size);
        // The union of the query's buckets over the tables.
        let dense_query = query.to_dense();
        let mut candidates: Vec<usize> = functions
            .iter()
            .zip(&tables)
            .filter_map(|(f, table)| table.get(&f.hash_query(&dense_query).expect("query runs")))
            .flatten()
            .copied()
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        let found = candidates.contains(&target);
        println!(
            "overlap {overlap}/{set_size}: transformed collision prob = {}, candidates = {}, target retrieved = {found}",
            f3(jaccard_like),
            candidates.len()
        );
    }

    section("interpretation");
    println!("Larger intersections collide more often, so the target set surfaces among the");
    println!("candidates exactly when the overlap (the binary inner product) is large — the");
    println!("`(cs, s)` search behaviour MH-ALSH provides, and the regime where the paper's");
    println!("Section 4.1 construction sometimes improves on it (cf. Figure 2).");
}

//! Recommender-system MIPS: the paper's motivating application (Section 1).
//!
//! In a latent-factor recommender, users and items are embedded in `R^d` and the
//! predicted preference is their inner product; retrieving the best item for a user is
//! maximum inner product search, and the batch "find every user with a strongly
//! recommended item" task is the IPS join. This example:
//!
//! 1. generates a latent-factor model with popularity-skewed item norms (what makes
//!    MIPS genuinely different from cosine search);
//! 2. answers top-1 queries with the Section 4.1 ALSH index and the Section 4.3
//!    sketch index, and measures recall@1 against the exact scan;
//! 3. picks the join threshold from the best-inner-product distribution and runs the
//!    `(cs, s)` join.
//!
//! Run with `cargo run --release -p ips-examples --example recommender`.

use ips_core::asymmetric::{AlshParams, SphereTransform};
use ips_core::brute::brute_force_join;
use ips_core::engine::JoinEngine;
use ips_core::lsh_mips::{LshMips, BUILD_BLOCK};
use ips_core::mips::MipsIndex;
use ips_core::problem::{JoinSpec, JoinVariant};
use ips_datagen::latent::{LatentFactorConfig, LatentFactorModel};
use ips_examples::{example_rng, f3, section};
use ips_linalg::par::Schedule;
use ips_sketch::linf_mips::MaxIpConfig;
use ips_sketch::recovery::SketchMipsIndex;

fn main() {
    let mut rng = example_rng(2016);

    section("latent-factor model");
    let model = LatentFactorModel::generate(
        &mut rng,
        LatentFactorConfig {
            items: 5000,
            users: 200,
            dim: 48,
            popularity_sigma: 0.7,
        },
    )
    .expect("valid configuration");
    println!(
        "{} items, {} users, d = 48",
        model.items().len(),
        model.users().len()
    );

    // Pick s at the 25th percentile of the best-inner-product distribution so roughly
    // three quarters of the users have a partner above the promise threshold.
    let s = model.best_ip_quantile(0.25).expect("non-empty model");
    let spec = JoinSpec::new(s, 0.8, JoinVariant::Signed).expect("valid spec");
    println!(
        "join threshold s = {} (25th percentile of best inner products), c = 0.8",
        f3(s)
    );

    section("top-1 retrieval: recall against the exact scan");
    let alsh = LshMips::<SphereTransform>::build(
        Schedule::new(BUILD_BLOCK),
        &mut rng,
        model.items().to_vec(),
        spec,
        AlshParams {
            bits_per_table: 14,
            tables: 48,
            ..Default::default()
        },
    )
    .expect("index construction");
    let sketch = SketchMipsIndex::build(
        &mut rng,
        model.items().to_vec(),
        MaxIpConfig {
            kappa: 2.0,
            copies: 11,
            rows: None,
        },
        32,
    )
    .expect("index construction");

    let mut alsh_hits = 0usize;
    let mut alsh_answers = 0usize;
    let mut sketch_hits = 0usize;
    for (u, user) in model.users().iter().enumerate() {
        let (best_item, _) = model.best_item(u).expect("non-empty model");
        if let Some(hit) = alsh.search(user).expect("search runs") {
            alsh_answers += 1;
            if hit.data_index == best_item {
                alsh_hits += 1;
            }
        }
        if sketch.query(user).expect("query runs").index == best_item {
            sketch_hits += 1;
        }
    }
    let users = model.users().len() as f64;
    println!(
        "ALSH (Section 4.1):   answered {} / {} users, exact top-1 recovered for {}",
        alsh_answers,
        model.users().len(),
        f3(alsh_hits as f64 / users)
    );
    println!(
        "sketch (Section 4.3): exact top-1 recovered for {}",
        f3(sketch_hits as f64 / users)
    );

    section("the batch join");
    let exact = brute_force_join(model.items(), model.users(), &spec).expect("join runs");
    // The engine borrows the prebuilt index.
    let approx = JoinEngine::new(&alsh)
        .run(model.users())
        .expect("join runs");
    println!(
        "exact join: {} users above s; ALSH join reported {} users (all above cs by construction)",
        exact.len(),
        approx.len()
    );
}

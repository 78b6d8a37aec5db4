//! Consistency of every MIPS index (Sections 4.1–4.3) against the exact scan, on the
//! recommender workload the paper's introduction motivates.

use ips_core::asymmetric::{AlshParams, SphereTransform};
use ips_core::lsh_mips::{LshMips, BUILD_BLOCK};
use ips_core::mips::{BruteForceMipsIndex, MipsIndex};
use ips_core::problem::{JoinSpec, JoinVariant};
use ips_core::symmetric::{SymmetricParams, SymmetricSphereMap};
use ips_datagen::latent::{LatentFactorConfig, LatentFactorModel};
use ips_linalg::par::Schedule;
use ips_sketch::linf_mips::MaxIpConfig;
use ips_sketch::recovery::SketchMipsIndex;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng() -> StdRng {
    StdRng::seed_from_u64(0x815)
}

fn model(rng: &mut StdRng, items: usize, users: usize) -> LatentFactorModel {
    LatentFactorModel::generate(
        rng,
        LatentFactorConfig {
            items,
            users,
            dim: 24,
            popularity_sigma: 0.5,
        },
    )
    .unwrap()
}

#[test]
fn every_index_reports_only_pairs_above_cs() {
    let mut rng = rng();
    let model = model(&mut rng, 300, 30);
    let s = model.best_ip_quantile(0.3).unwrap();
    let spec = JoinSpec::new(s, 0.7, JoinVariant::Signed).unwrap();

    let brute = BruteForceMipsIndex::new(model.items().to_vec(), spec);
    let alsh = LshMips::<SphereTransform>::build(
        Schedule::new(BUILD_BLOCK),
        &mut rng,
        model.items().to_vec(),
        spec,
        AlshParams::default(),
    )
    .unwrap();
    let symmetric = LshMips::<SymmetricSphereMap>::build(
        Schedule::new(BUILD_BLOCK),
        &mut rng,
        model.items().to_vec(),
        spec,
        SymmetricParams {
            bits_per_table: 8,
            tables: 16,
            ..Default::default()
        },
    )
    .unwrap();

    for (u, user) in model.users().iter().enumerate() {
        // The exact (promise-gated) index never reports below s …
        if let Some(exact) = brute.search(user).unwrap() {
            assert!(spec.satisfies_promise(exact.inner_product));
        }
        // … while the true maximum over all items bounds every approximate answer,
        // whether or not the promise holds for this user.
        let true_best = model
            .items()
            .iter()
            .map(|p| p.dot(user).unwrap())
            .fold(f64::NEG_INFINITY, f64::max);
        for (name, result) in [
            ("alsh", alsh.search(user).unwrap()),
            ("symmetric", symmetric.search(user).unwrap()),
        ] {
            if let Some(hit) = result {
                assert!(
                    spec.acceptable(hit.inner_product),
                    "{name} returned a pair below cs for user {u}"
                );
                // No approximate index can beat the exact maximum.
                assert!(
                    hit.inner_product <= true_best + 1e-9,
                    "{name} reported an inner product above the exact maximum"
                );
            }
        }
    }
}

#[test]
fn alsh_recall_is_high_on_easy_instances() {
    // When the best item clears the promise threshold by a wide margin, the ALSH index
    // should almost always find *some* acceptable item.
    let mut rng = rng();
    let model = model(&mut rng, 400, 40);
    let s = model.best_ip_quantile(0.1).unwrap();
    let spec = JoinSpec::new(s, 0.5, JoinVariant::Signed).unwrap();
    let alsh = LshMips::<SphereTransform>::build(
        Schedule::new(BUILD_BLOCK),
        &mut rng,
        model.items().to_vec(),
        spec,
        AlshParams {
            bits_per_table: 6,
            tables: 64,
            ..Default::default()
        },
    )
    .unwrap();
    let brute = BruteForceMipsIndex::new(model.items().to_vec(), spec);
    let mut promised = 0usize;
    let mut answered = 0usize;
    for user in model.users() {
        if brute.search(user).unwrap().is_some() {
            promised += 1;
            if alsh.search(user).unwrap().is_some() {
                answered += 1;
            }
        }
    }
    assert!(promised > 0);
    let recall = answered as f64 / promised as f64;
    assert!(
        recall >= 0.8,
        "ALSH answered only {recall} of promised queries"
    );
}

#[test]
fn sketch_recovery_matches_exact_argmax_when_gap_is_large() {
    let mut rng = rng();
    let dim = 24;
    // Items with tiny norms except a few "blockbusters" that dominate every query.
    let mut items: Vec<_> = (0..256)
        .map(|_| {
            ips_linalg::random::random_unit_vector(&mut rng, dim)
                .unwrap()
                .scaled(0.05)
        })
        .collect();
    let users: Vec<_> = (0..10)
        .map(|_| ips_linalg::random::random_unit_vector(&mut rng, dim).unwrap())
        .collect();
    for (slot, user) in users.iter().enumerate() {
        items[slot * 20] = user.scaled(3.0);
    }
    let index = SketchMipsIndex::build(
        &mut rng,
        items.clone(),
        // Few enough rows that the cost rule keeps splitting (2·5·4 < 256, 128, 64):
        // three levels of estimators above leaves of 32, so this is a walk.
        MaxIpConfig {
            kappa: 2.0,
            copies: 5,
            rows: Some(4),
        },
    )
    .unwrap();
    assert!(index.stored_coefficients() >= 3 * 2 * 5 * 4 * dim);
    let mut hits = 0;
    for (slot, user) in users.iter().enumerate() {
        let recovered = index.query(user).unwrap();
        if recovered.index == slot * 20 {
            hits += 1;
        }
    }
    assert!(
        hits >= 8,
        "sketch recovery found only {hits}/10 dominant items"
    );
}

//! Integration tests for the top-`k` variants (the paper's footnote-1 join semantics)
//! on recommender-style data.

use ips_core::asymmetric::{AlshParams, SphereTransform};
use ips_core::lsh_mips::{LshMips, BUILD_BLOCK};
use ips_core::mips::BruteForceMipsIndex;
use ips_core::problem::{JoinSpec, JoinVariant};
use ips_core::topk::{top_k_join, top_k_recall, TopKMipsIndex};
use ips_datagen::latent::{LatentFactorConfig, LatentFactorModel};
use ips_linalg::par::Schedule;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng() -> StdRng {
    StdRng::seed_from_u64(0x70CB5)
}

#[test]
fn top_k_join_on_recommender_data_respects_definition1_per_pair() {
    let mut rng = rng();
    let model = LatentFactorModel::generate(
        &mut rng,
        LatentFactorConfig {
            items: 300,
            users: 25,
            dim: 24,
            popularity_sigma: 0.5,
        },
    )
    .unwrap();
    let s = model.best_ip_quantile(0.3).unwrap();
    let spec = JoinSpec::new(s, 0.7, JoinVariant::Signed).unwrap();
    let exact = BruteForceMipsIndex::new(model.items().to_vec(), spec);
    let k = 5;
    let pairs = top_k_join(&exact, model.users(), k).unwrap();
    let mut per_query = std::collections::HashMap::new();
    for p in &pairs {
        assert!(spec.acceptable(p.inner_product));
        let ip = model.items()[p.data_index]
            .dot(&model.users()[p.query_index])
            .unwrap();
        assert!((ip - p.inner_product).abs() < 1e-9);
        *per_query.entry(p.query_index).or_insert(0usize) += 1;
    }
    assert!(per_query.values().all(|&c| c <= k));
    // Every query with at least one acceptable item gets at least one pair from the
    // exact index.
    for (j, user) in model.users().iter().enumerate() {
        let has_acceptable = model
            .items()
            .iter()
            .any(|p| spec.acceptable(p.dot(user).unwrap()));
        if has_acceptable {
            assert!(
                per_query.contains_key(&j),
                "query {j} unanswered by exact top-k"
            );
        }
    }
}

#[test]
fn alsh_top_k_recall_improves_with_more_tables() {
    let mut rng = rng();
    let model = LatentFactorModel::generate(
        &mut rng,
        LatentFactorConfig {
            items: 400,
            users: 30,
            dim: 24,
            popularity_sigma: 0.5,
        },
    )
    .unwrap();
    let s = model.best_ip_quantile(0.2).unwrap();
    let spec = JoinSpec::new(s, 0.6, JoinVariant::Signed).unwrap();
    let exact = BruteForceMipsIndex::new(model.items().to_vec(), spec);
    let mut recalls = Vec::new();
    for tables in [4usize, 64] {
        let index = LshMips::<SphereTransform>::build(
            Schedule::new(BUILD_BLOCK),
            &mut rng,
            model.items().to_vec(),
            spec,
            AlshParams {
                bits_per_table: 6,
                tables,
                ..Default::default()
            },
        )
        .unwrap();
        let mut total = 0.0;
        for user in model.users() {
            let exact_top = exact.search_top_k(user, 3).unwrap();
            let approx_top = index.search_top_k(user, 3).unwrap();
            total += top_k_recall(&exact_top, &approx_top);
        }
        recalls.push(total / model.users().len() as f64);
    }
    assert!(
        recalls[1] >= recalls[0],
        "recall did not improve with more tables: {recalls:?}"
    );
    assert!(
        recalls[1] >= 0.6,
        "64-table top-3 recall too low: {recalls:?}"
    );
}

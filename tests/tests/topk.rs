//! Integration tests for the top-`k` variants (the paper's footnote-1 join semantics)
//! on recommender-style data, and the bounded selection every top-`k` search ranks
//! with held to the score-everything-then-sort ranking it replaced.

use ips_core::asymmetric::{AlshParams, SphereTransform};
use ips_core::engine::{Ask, JoinEngine};
use ips_core::lsh_mips::{LshMips, BUILD_BLOCK};
use ips_core::mips::{BruteForceMipsIndex, MipsIndex, SearchResult};
use ips_core::problem::{JoinSpec, JoinVariant};
use ips_core::symmetric::{SymmetricParams, SymmetricSphereMap};
use ips_core::topk::top_k_recall;
use ips_core::CoreError;
use ips_datagen::latent::{LatentFactorConfig, LatentFactorModel};
use ips_linalg::par::Schedule;
use ips_linalg::random::random_ball_vector;
use ips_linalg::DenseVector;
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
    let pairs = JoinEngine::new(&exact)
        .answer(model.users(), Ask::TopK(k))
        .unwrap();
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

/// The ranking every top-`k` search made before the bounded selection: score every
/// candidate, keep the acceptable ones, sort best first (ties toward the lower data
/// index) and truncate — the reference the selection must reproduce bit for bit.
fn sort_then_truncate(
    data: &[DenseVector],
    candidates: impl IntoIterator<Item = usize>,
    query: &DenseVector,
    spec: &JoinSpec,
    k: usize,
) -> Result<Vec<SearchResult>, CoreError> {
    let mut hits = Vec::new();
    for i in candidates {
        hits.push(SearchResult {
            data_index: i,
            inner_product: data[i].dot(query)?,
        });
    }
    hits.retain(|h| spec.acceptable(h.inner_product));
    hits.sort_by(|a, b| {
        spec.variant
            .value(b.inner_product)
            .partial_cmp(&spec.variant.value(a.inner_product))
            .expect("inner products are finite")
            .then(a.data_index.cmp(&b.data_index))
    });
    hits.truncate(k);
    Ok(hits)
}

fn bits(hits: &[SearchResult]) -> Vec<(usize, u64)> {
    hits.iter()
        .map(|h| (h.data_index, h.inner_product.to_bits()))
        .collect()
}

/// Data full of ties: every base vector four times over, twice negated (equal
/// absolute values under Unsigned, equal values under Signed).
fn tied_data(rng: &mut StdRng, base: usize, dim: usize) -> Vec<DenseVector> {
    let mut data = Vec::new();
    for _ in 0..base {
        let v = random_ball_vector(rng, dim, 1.0).unwrap().scaled(0.9);
        data.extend([v.clone(), v.scaled(-1.0), v.clone(), v.scaled(-1.0)]);
    }
    data
}

#[test]
fn bounded_selection_ranks_exactly_as_sorting_every_candidate() {
    let mut rng = rng();
    let dim = 6;
    let data = tied_data(&mut rng, 10, dim);
    let n = data.len();
    // Queries off the data and on it (the symmetric family's diagonal answers those).
    let mut queries: Vec<DenseVector> = (0..6)
        .map(|_| random_ball_vector(&mut rng, dim, 1.0).unwrap())
        .collect();
    queries.extend([data[0].clone(), data[13].clone()]);
    for variant in [JoinVariant::Signed, JoinVariant::Unsigned] {
        let spec = JoinSpec::new(0.2, 0.5, variant).unwrap();
        let brute = BruteForceMipsIndex::new(data.clone(), spec);
        let alsh = LshMips::<SphereTransform>::build(
            Schedule::new(BUILD_BLOCK),
            &mut rng,
            data.clone(),
            spec,
            AlshParams {
                bits_per_table: 3,
                tables: 6,
                ..Default::default()
            },
        )
        .unwrap();
        let symmetric = LshMips::<SymmetricSphereMap>::build(
            Schedule::new(BUILD_BLOCK),
            &mut rng,
            data.clone(),
            spec,
            SymmetricParams {
                epsilon: 0.5,
                precision_bits: 8,
                bits_per_table: 3,
                tables: 6,
                probes: 0,
            },
        )
        .unwrap();
        for q in &queries {
            for k in [0, 1, 3, n, n + 5] {
                let expected = sort_then_truncate(&data, 0..n, q, &spec, k).unwrap();
                let got = brute.search_top_k(q, k).unwrap();
                assert_eq!(bits(&got), bits(&expected), "brute {variant:?} k={k}");
                let candidates = alsh.candidate_indices(q).unwrap();
                let expected = sort_then_truncate(&data, candidates, q, &spec, k).unwrap();
                let got = alsh.search_top_k(q, k).unwrap();
                assert_eq!(bits(&got), bits(&expected), "alsh {variant:?} k={k}");
                let candidates = symmetric.candidate_indices(q).unwrap();
                let expected = sort_then_truncate(&data, candidates, q, &spec, k).unwrap();
                let got = symmetric.search_top_k(q, k).unwrap();
                assert_eq!(bits(&got), bits(&expected), "symmetric {variant:?} k={k}");
            }
        }
        // The ties are real: some query ranks equal values side by side.
        let full = brute.search_top_k(&queries[0], n).unwrap();
        assert!(full
            .windows(2)
            .any(|w| variant.value(w[0].inner_product) == variant.value(w[1].inner_product)));
    }
}

#[test]
fn a_dimension_mismatch_fails_even_a_k_of_zero() {
    let mut rng = rng();
    let data = tied_data(&mut rng, 3, 4);
    let spec = JoinSpec::new(0.2, 0.5, JoinVariant::Signed).unwrap();
    let brute = BruteForceMipsIndex::new(data.clone(), spec);
    let wrong = DenseVector::zeros(5);
    let expected = sort_then_truncate(&data, 0..data.len(), &wrong, &spec, 0).unwrap_err();
    for k in [0, 2] {
        let got = brute.search_top_k(&wrong, k).unwrap_err();
        assert_eq!(got.to_string(), expected.to_string(), "k={k}");
    }
}

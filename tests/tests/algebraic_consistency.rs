//! Cross-crate checks of the exact join and the algebraic join: the brute-force scan —
//! the one exact join — must give the same pairs, bit for bit, under every schedule on
//! recommender data, and the amplify-and-multiply join must respect the `(cs, s)`
//! contract on `{−1,1}` data.

use ips_core::algebraic::amplified_sign_join;
use ips_core::brute::{brute_force_join, brute_force_join_parallel};
use ips_core::facade::{Join, Strategy};
use ips_core::problem::{evaluate_join, JoinSpec, JoinVariant, MatchPair};
use ips_datagen::latent::{LatentFactorConfig, LatentFactorModel};
use ips_linalg::random::random_sign_vector;
use ips_linalg::SignVector;
use ips_matmul::AmplifiedJoinConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng() -> StdRng {
    StdRng::seed_from_u64(0xA16EB)
}

fn latent_model(rng: &mut StdRng) -> LatentFactorModel {
    LatentFactorModel::generate(
        rng,
        LatentFactorConfig {
            items: 250,
            users: 30,
            dim: 20,
            popularity_sigma: 0.4,
        },
    )
    .unwrap()
}

/// A pair listing with each inner product as its bit pattern.
fn bits(pairs: &[MatchPair]) -> Vec<(usize, usize, u64)> {
    pairs
        .iter()
        .map(|p| (p.data_index, p.query_index, p.inner_product.to_bits()))
        .collect()
}

#[test]
fn exact_scan_is_schedule_invariant_on_recommender_data() {
    let mut rng = rng();
    let model = latent_model(&mut rng);
    let (items, users) = (model.items(), model.users());
    for variant in [JoinVariant::Signed, JoinVariant::Unsigned] {
        let s = model.best_ip_quantile(0.4).unwrap();
        let spec = JoinSpec::new(s, 0.8, variant).unwrap();
        let expected = brute_force_join(items, users, &spec).unwrap();
        assert!(!expected.is_empty(), "workload must promise some queries");
        for threads in [1usize, 3, 8] {
            let got = brute_force_join_parallel(items, users, &spec, threads).unwrap();
            assert_eq!(
                bits(&got),
                bits(&expected),
                "threads = {threads}, variant {variant:?}"
            );
        }
        let facade = Join::data(items)
            .queries(users)
            .spec(spec)
            .strategy(Strategy::Brute)
            .threads(3)
            .chunk_size(7)
            .run()
            .unwrap()
            .matches;
        assert_eq!(
            bits(&facade),
            bits(&expected),
            "facade, variant {variant:?}"
        );
        let (recall, valid) = evaluate_join(items, users, &spec, &expected).unwrap();
        assert_eq!(recall, 1.0);
        assert!(valid);
    }
}

/// Builds a `{−1,1}` workload with planted high-correlation pairs: for each planted
/// query, a data vector agreeing on `agree` of `dim` coordinates.
fn planted_sign_workload(
    rng: &mut StdRng,
    data_count: usize,
    query_count: usize,
    dim: usize,
    agree: usize,
    planted: usize,
) -> (Vec<SignVector>, Vec<SignVector>, Vec<(usize, usize)>) {
    let queries: Vec<SignVector> = (0..query_count)
        .map(|_| random_sign_vector(rng, dim))
        .collect();
    let mut data: Vec<SignVector> = (0..data_count)
        .map(|_| random_sign_vector(rng, dim))
        .collect();
    let mut pairs = Vec::new();
    for qi in 0..planted.min(query_count) {
        let mut partner = queries[qi].clone();
        for i in agree..dim {
            partner.set(i, -partner.get(i));
        }
        let di = qi * (data_count / planted.max(1));
        data[di] = partner;
        pairs.push((di, qi));
    }
    (data, queries, pairs)
}

#[test]
fn amplified_join_recovers_planted_sign_pairs() {
    let mut rng = rng();
    let dim = 64;
    let agree = 58; // planted inner product 2·58 − 64 = 52
    let (data, queries, planted) = planted_sign_workload(&mut rng, 120, 20, dim, agree, 5);
    let spec = JoinSpec::new(52.0, 0.5, JoinVariant::Unsigned).unwrap();
    let pairs = amplified_sign_join(
        &mut rng,
        &data,
        &queries,
        &spec,
        AmplifiedJoinConfig {
            degree: 2,
            projection_dim: 4096,
            detection_fraction: 0.5,
        },
    )
    .unwrap();
    // Validity: every reported pair clears cs = 26 in absolute value.
    for pair in &pairs {
        let exact = data[pair.data_index]
            .dot(&queries[pair.query_index])
            .unwrap() as f64;
        assert!(exact.abs() >= spec.relaxed_threshold());
        assert!((exact - pair.inner_product).abs() < 1e-9);
    }
    // Recall: the planted queries are answered (the amplified estimate for ip = 52/64
    // stands far above the 1/√m noise floor at m = 4096).
    let answered: std::collections::HashSet<usize> = pairs.iter().map(|p| p.query_index).collect();
    let mut hit = 0usize;
    for &(_, qi) in &planted {
        if answered.contains(&qi) {
            hit += 1;
        }
    }
    assert!(
        hit >= 4,
        "amplified join answered only {hit}/5 planted queries: {pairs:?}"
    );
}

#[test]
fn amplified_join_reports_nothing_on_uncorrelated_data() {
    let mut rng = rng();
    let dim = 64;
    let data: Vec<SignVector> = (0..100)
        .map(|_| random_sign_vector(&mut rng, dim))
        .collect();
    let queries: Vec<SignVector> = (0..20).map(|_| random_sign_vector(&mut rng, dim)).collect();
    // Random ±1 vectors have |ip| concentrated around √d = 8; demanding cs = 28 means
    // essentially nothing should be reported, and anything that is must truly clear 28.
    let spec = JoinSpec::new(56.0, 0.5, JoinVariant::Unsigned).unwrap();
    let pairs = amplified_sign_join(
        &mut rng,
        &data,
        &queries,
        &spec,
        AmplifiedJoinConfig {
            degree: 3,
            projection_dim: 1024,
            detection_fraction: 0.25,
        },
    )
    .unwrap();
    for pair in &pairs {
        let exact = data[pair.data_index]
            .dot(&queries[pair.query_index])
            .unwrap() as f64;
        assert!(exact.abs() >= spec.relaxed_threshold());
    }
}

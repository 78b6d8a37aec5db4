//! The algebraic join: amplify the gap, then one product.
//!
//! Section 1.2 of the paper ("Algebraic techniques") credits Valiant \[51\] and
//! Karppa et al. \[29\] with the only truly subquadratic algorithms for unsigned join in
//! the *permissible* ranges of Table 1: they *amplify* the gap between inner products
//! above `s` and below `cs`, then detect the survivors with one large matrix product
//! rather than by hashing. The laptop-scale version here follows the same recipe, so the
//! benchmarks can compare it with the brute-force, LSH and sketch joins:
//!
//! 1. **Amplify.** A degree-`t` tensor power maps a normalised inner product
//!    `u = xᵀy/d` to `u^t`, stretching the ratio `s/cs` to `(s/cs)^t`. Materialising the
//!    `d^t`-dimensional tensor power is hopeless, so each of the `m` embedded
//!    coordinates is a *random* degree-`t` coordinate product
//!    `x[i₁]·x[i₂]⋯x[i_t]` (the same index tuple on both sides); its product over the
//!    pair has expectation exactly `u^t`, so the embedded inner product (scaled by
//!    `1/m`) concentrates around `u^t` with standard deviation at most `1/√m`.
//! 2. **Multiply.** Every embedded data vector is scored against every embedded query
//!    by the one exact scan, [`ips_linalg::score_block`]: the product `P·Qᵀ`, an entry
//!    at a time.
//! 3. **Verify.** Entries above the amplified detection threshold are candidate pairs;
//!    each candidate's *exact* inner product is checked, so reported pairs always
//!    satisfy `|xᵀy| ≥ cs` (the validity half of Definition 1). Recall is what the
//!    experiments measure, exactly as for the LSH joins.
//!
//! The paper's point — that these algebraic methods need approximation ratios bounded
//! away from 1 (or enormous inputs) before they win — shows up here as the requirement
//! `m ≳ (d/s)^{2t}` for the planted pair to stand out from the noise floor. The exact
//! join is the brute-force scan of [`crate::brute`].

use crate::error::{CoreError, Result};
use crate::problem::{JoinSpec, JoinVariant, MatchPair};
use ips_linalg::{score_block, DenseVector, SignVector};
use rand::Rng;

/// Tuning parameters of [`amplified_sign_join`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmplifiedJoinConfig {
    /// Amplification degree `t` (the tensor-power exponent).
    pub degree: u32,
    /// Number of random coordinate products per embedded vector (`m`).
    pub projection_dim: usize,
    /// Detection threshold as a fraction of the amplified promise `(s/d)^t`; candidates
    /// are embedded inner products whose absolute value is at least
    /// `detection_fraction · (s/d)^t`.
    pub detection_fraction: f64,
}

impl Default for AmplifiedJoinConfig {
    fn default() -> Self {
        Self {
            degree: 3,
            projection_dim: 2048,
            detection_fraction: 0.5,
        }
    }
}

/// The outcome of an amplified join: verified pairs plus the candidate count the
/// benchmarks report.
#[derive(Debug, Clone, PartialEq)]
pub struct AmplifiedJoinReport {
    /// Verified pairs, at most one per query, each with `|xᵀy| ≥ cs`.
    pub pairs: Vec<MatchPair>,
    /// Number of embedded inner products that crossed the detection threshold (before
    /// exact verification).
    pub candidates: usize,
}

/// The amplified value `(u)^t` of a normalised inner product `u = ip/d` — the quantity
/// the random coordinate products estimate.
fn amplified_value(ip: f64, dim: usize, degree: u32) -> f64 {
    (ip / dim as f64).powi(degree as i32)
}

fn invalid(name: &'static str, reason: String) -> CoreError {
    CoreError::InvalidParameter { name, reason }
}

/// The checks `JoinSpec::new` does not make, in the order they fail; returns the shared
/// dimension.
fn validate(
    data: &[SignVector],
    queries: &[SignVector],
    spec: &JoinSpec,
    config: &AmplifiedJoinConfig,
) -> Result<usize> {
    if spec.variant != JoinVariant::Unsigned {
        return Err(invalid(
            "spec.variant",
            "the amplified algebraic join only answers the unsigned variant".into(),
        ));
    }
    if !(spec.approximation < 1.0) {
        return Err(invalid(
            "spec.approximation",
            "the amplified join needs a strict approximation factor c < 1".into(),
        ));
    }
    let first = data.first().ok_or(CoreError::EmptyDataSet)?;
    if queries.is_empty() {
        return Err(invalid(
            "queries",
            "the amplified join needs at least one query".into(),
        ));
    }
    let dim = first.dim();
    if dim == 0 {
        return Err(invalid(
            "data",
            "vectors must have positive dimension".into(),
        ));
    }
    // The data set's shape is fixed by its first vector; a stray vector is reported
    // with the collection it came from.
    for (name, vectors) in [("data", data), ("queries", queries)] {
        if let Some((i, v)) = vectors.iter().enumerate().find(|(_, v)| v.dim() != dim) {
            return Err(invalid(
                name,
                format!("vector {i} has dimension {}, expected {dim}", v.dim()),
            ));
        }
    }
    if !(spec.threshold <= dim as f64) {
        return Err(invalid(
            "spec.threshold",
            format!(
                "threshold must satisfy s <= d, got {} with d = {dim}",
                spec.threshold
            ),
        ));
    }
    if config.degree == 0 {
        return Err(invalid(
            "config.degree",
            "amplification degree must be at least 1".into(),
        ));
    }
    if config.projection_dim == 0 {
        return Err(invalid(
            "config.projection_dim",
            "projection dimension must be positive".into(),
        ));
    }
    if !(config.detection_fraction > 0.0 && config.detection_fraction <= 1.0) {
        return Err(invalid(
            "config.detection_fraction",
            format!(
                "detection fraction must lie in (0,1], got {}",
                config.detection_fraction
            ),
        ));
    }
    Ok(dim)
}

/// Embeds one sign vector under the sampled index tuples: coordinate `r` is the product
/// of the vector's entries at `tuples[r]`, scaled by `1/√m` so that embedded inner
/// products estimate `(xᵀy/d)^t` directly (with standard deviation at most `1/√m`).
/// No coordinate is zero.
fn embed(v: &SignVector, tuples: &[Vec<usize>]) -> DenseVector {
    let scale = 1.0 / (tuples.len() as f64).sqrt();
    let mut out = Vec::with_capacity(tuples.len());
    for tuple in tuples {
        let mut prod = 1i8;
        for &i in tuple {
            prod *= v.get(i);
        }
        out.push(f64::from(prod) * scale);
    }
    DenseVector::new(out)
}

/// The amplify-and-multiply unsigned `(cs, s)` join for `{−1,1}` data (Valiant/Karppa
/// style). Reports, for each query with at least one verified candidate, the candidate
/// with the largest absolute inner product (the lowest data index among equals), which
/// always satisfies `|pᵀq| ≥ cs`; recall is probabilistic, exactly as for the LSH joins.
///
/// Only the unsigned variant is supported — the algebraic amplification squares away
/// signs — so a [`JoinVariant::Signed`] spec is rejected, and so is an exact one
/// (`c = 1`). The spec also needs `s ≤ d`, both sides must be non-empty and of one
/// positive dimension, and the config needs `t ≥ 1`, `m ≥ 1` and a detection fraction
/// in `(0, 1]`.
pub fn amplified_sign_join<R: Rng + ?Sized>(
    rng: &mut R,
    data: &[SignVector],
    queries: &[SignVector],
    spec: &JoinSpec,
    config: AmplifiedJoinConfig,
) -> Result<AmplifiedJoinReport> {
    let dim = validate(data, queries, spec, &config)?;
    // Shared index tuples: the same random degree-t coordinate products on both sides.
    let tuples: Vec<Vec<usize>> = (0..config.projection_dim)
        .map(|_| (0..config.degree).map(|_| rng.gen_range(0..dim)).collect())
        .collect();
    let embedded_data: Vec<DenseVector> = data.iter().map(|v| embed(v, &tuples)).collect();
    let embedded_queries: Vec<DenseVector> = queries.iter().map(|v| embed(v, &tuples)).collect();

    let detection_threshold =
        config.detection_fraction * amplified_value(spec.threshold, dim, config.degree);
    let relaxed = spec.relaxed_threshold();

    // Each estimate (pᵢᵀqⱼ/d)^t ± 1/√m arrives with the rows of its query in ascending
    // order, so the first strict `>` keeps the lowest index among equal products.
    let mut candidates = 0usize;
    let mut best: Vec<Option<MatchPair>> = vec![None; queries.len()];
    score_block(
        embedded_data.iter().enumerate(),
        &embedded_queries,
        |i, j, estimate| {
            if estimate.abs() < detection_threshold {
                return;
            }
            candidates += 1;
            let exact = data[i]
                .dot(&queries[j])
                .expect("validate checked the dimensions") as f64;
            if exact.abs() < relaxed {
                return;
            }
            if best[j].is_none_or(|b| exact.abs() > b.inner_product.abs()) {
                best[j] = Some(MatchPair {
                    data_index: i,
                    query_index: j,
                    inner_product: exact,
                });
            }
        },
    )?;
    Ok(AmplifiedJoinReport {
        pairs: best.into_iter().flatten().collect(),
        candidates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_linalg::random::random_sign_vector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn unsigned(s: f64, c: f64) -> JoinSpec {
        JoinSpec::new(s, c, JoinVariant::Unsigned).unwrap()
    }

    fn config(degree: u32, projection_dim: usize, detection_fraction: f64) -> AmplifiedJoinConfig {
        AmplifiedJoinConfig {
            degree,
            projection_dim,
            detection_fraction,
        }
    }

    /// Builds a data set of random ±1 vectors with one planted vector that agrees with
    /// the query on `agree` coordinates (inner product `2·agree − d`).
    fn planted(
        rng: &mut StdRng,
        n: usize,
        dim: usize,
        agree: usize,
    ) -> (Vec<SignVector>, SignVector, usize) {
        let query = random_sign_vector(rng, dim);
        let mut data: Vec<SignVector> = (0..n).map(|_| random_sign_vector(rng, dim)).collect();
        let mut partner = query.clone();
        for i in agree..dim {
            partner.set(i, -query.get(i));
        }
        let slot = n / 2;
        data[slot] = partner;
        (data, query, slot)
    }

    #[test]
    fn amplified_join_rejects_signed_and_exact_specs() {
        let mut r = rng(0xA1_6E);
        let data = vec![random_sign_vector(&mut r, 16)];
        let queries = vec![random_sign_vector(&mut r, 16)];
        let cfg = AmplifiedJoinConfig::default();
        let signed = JoinSpec::new(8.0, 0.5, JoinVariant::Signed).unwrap();
        assert!(amplified_sign_join(&mut r, &data, &queries, &signed, cfg).is_err());
        let exact = JoinSpec::exact(8.0, JoinVariant::Unsigned).unwrap();
        assert!(amplified_sign_join(&mut r, &data, &queries, &exact, cfg).is_err());
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let mut r = rng(0xA117);
        let v = [random_sign_vector(&mut r, 8)];
        let q = [random_sign_vector(&mut r, 8)];
        let cfg = AmplifiedJoinConfig::default();
        let spec = unsigned(4.0, 0.5);
        assert_eq!(
            amplified_sign_join(&mut r, &[], &q, &spec, cfg).unwrap_err(),
            CoreError::EmptyDataSet
        );
        assert!(amplified_sign_join(&mut r, &v, &[], &spec, cfg).is_err());
        // s > d: only the join knows d.
        assert!(amplified_sign_join(&mut r, &v, &q, &unsigned(20.0, 0.5), cfg).is_err());
        for bad in [
            config(0, 2048, 0.5),
            config(3, 0, 0.5),
            config(3, 2048, 0.0),
            config(3, 2048, 1.5),
        ] {
            assert!(
                amplified_sign_join(&mut r, &v, &q, &spec, bad).is_err(),
                "{bad:?}"
            );
        }
        let mismatched = [random_sign_vector(&mut r, 9)];
        assert!(
            amplified_sign_join(&mut r, &v, &mismatched, &spec, cfg).is_err(),
            "dimension mismatch must be rejected"
        );
    }

    #[test]
    fn dimension_mismatch_names_the_collection_it_came_from() {
        let mut r = rng(0xA117);
        let cfg = AmplifiedJoinConfig::default();
        let spec = unsigned(4.0, 0.5);
        let vectors = |r: &mut StdRng, dims: &[usize]| -> Vec<SignVector> {
            dims.iter().map(|&d| random_sign_vector(r, d)).collect()
        };
        let (data, queries) = (vectors(&mut r, &[8, 8, 9]), vectors(&mut r, &[8]));
        let err = amplified_sign_join(&mut r, &data, &queries, &spec, cfg).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid parameter `data`: vector 2 has dimension 9, expected 8"
        );
        let (data, queries) = (vectors(&mut r, &[8]), vectors(&mut r, &[8, 9]));
        let err = amplified_sign_join(&mut r, &data, &queries, &spec, cfg).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid parameter `queries`: vector 1 has dimension 9, expected 8"
        );
    }

    #[test]
    fn amplified_value_monotone_in_degree() {
        // Amplification shrinks sub-threshold correlations faster than the promise.
        let dim = 64;
        let s = 32.0;
        let cs = 8.0;
        for degree in 1..=4 {
            let promise = amplified_value(s, dim, degree);
            let relaxed = amplified_value(cs, dim, degree);
            assert!(promise > relaxed);
            assert!(
                promise / relaxed >= (s / cs).powi(degree as i32) - 1e-9,
                "gap must amplify geometrically"
            );
        }
    }

    #[test]
    fn amplified_join_finds_a_planted_sign_pair() {
        let mut r = rng(0xA1_6E);
        let dim = 64;
        let query = random_sign_vector(&mut r, dim);
        let mut data: Vec<SignVector> = (0..80).map(|_| random_sign_vector(&mut r, dim)).collect();
        // Planted partner agrees with the query on 60 of 64 coordinates: ip = 56.
        let mut partner = query.clone();
        for i in 60..dim {
            partner.set(i, -query.get(i));
        }
        data[17] = partner;
        let spec = unsigned(56.0, 0.5);
        let report =
            amplified_sign_join(&mut r, &data, &[query], &spec, config(2, 4096, 0.5)).unwrap();
        assert_eq!(report.pairs.len(), 1);
        assert_eq!(report.pairs[0].data_index, 17);
        assert!(spec.acceptable(report.pairs[0].inner_product));
    }

    #[test]
    fn planted_pair_is_found() {
        let mut r = rng(0xA117);
        // Planted pair agrees on 56 of 64 coordinates: inner product 48, i.e. s = 48.
        let (data, query, slot) = planted(&mut r, 60, 64, 56);
        let report = amplified_sign_join(
            &mut r,
            &data,
            std::slice::from_ref(&query),
            &unsigned(48.0, 0.5),
            config(2, 4096, 0.5),
        )
        .unwrap();
        assert_eq!(report.pairs.len(), 1, "planted pair missed: {report:?}");
        assert_eq!(report.pairs[0].data_index, slot);
        assert!(report.pairs[0].inner_product.abs() >= 24.0);
    }

    #[test]
    fn negatively_correlated_pairs_are_found_by_the_unsigned_join() {
        let mut r = rng(0xA117);
        let (mut data, query, slot) = planted(&mut r, 40, 64, 60);
        // Flip the planted partner entirely: inner product becomes −56.
        data[slot] = data[slot].negated();
        let report = amplified_sign_join(
            &mut r,
            &data,
            &[query],
            &unsigned(56.0, 0.5),
            config(2, 4096, 0.5),
        )
        .unwrap();
        assert_eq!(report.pairs.len(), 1);
        assert_eq!(report.pairs[0].data_index, slot);
        assert!(report.pairs[0].inner_product < 0.0);
    }

    #[test]
    fn reported_pairs_always_clear_cs_and_candidates_are_counted() {
        let mut r = rng(0xA117);
        let dim = 32;
        let data: Vec<SignVector> = (0..50).map(|_| random_sign_vector(&mut r, dim)).collect();
        let queries: Vec<SignVector> = (0..20).map(|_| random_sign_vector(&mut r, dim)).collect();
        let spec = unsigned(24.0, 0.5);
        let report =
            amplified_sign_join(&mut r, &data, &queries, &spec, config(2, 1024, 0.25)).unwrap();
        for pair in &report.pairs {
            let exact = data[pair.data_index]
                .dot(&queries[pair.query_index])
                .unwrap() as f64;
            assert!((exact - pair.inner_product).abs() < 1e-9);
            assert!(spec.acceptable(exact));
        }
        assert!(report.candidates >= report.pairs.len());
    }
}

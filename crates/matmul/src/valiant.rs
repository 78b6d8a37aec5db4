//! Amplify-and-multiply unsigned join for `{−1,1}` data.
//!
//! Valiant \[51\] and Karppa–Kaski–Kohonen \[29\] beat LSH for unsigned join over `{−1,1}`
//! in the "permissible" parameter ranges of Table 1 by *amplifying* the gap between
//! inner products above `s` and below `cs`, then detecting the survivors with one large
//! matrix product. The laptop-scale version implemented here follows the same recipe:
//!
//! 1. **Amplify.** A degree-`t` tensor power maps a normalised inner product
//!    `u = xᵀy/d` to `u^t`, stretching the ratio `s/cs` to `(s/cs)^t`. Materialising the
//!    `d^t`-dimensional tensor power is hopeless, so each of the `m` embedded
//!    coordinates is a *random* degree-`t` coordinate product
//!    `x[i₁]·x[i₂]⋯x[i_t]` (the same index tuple on both sides); its product over the
//!    pair has expectation exactly `u^t`, so the embedded inner product (scaled by
//!    `1/m`) concentrates around `u^t` with standard deviation at most `1/√m`.
//! 2. **Multiply.** All embedded inner products are computed as one Gram product using
//!    the blocked kernel of [`crate::dense`].
//! 3. **Verify.** Entries above the amplified detection threshold are candidate pairs;
//!    each candidate's *exact* inner product is checked, so reported pairs always
//!    satisfy `|xᵀy| ≥ cs` (the validity half of Definition 1). Recall is what the
//!    experiments measure, exactly as for the LSH joins.
//!
//! The paper's point — that these algebraic methods need approximation ratios bounded
//! away from 1 (or enormous inputs) before they win — shows up here as the requirement
//! `m ≳ (d/s)^{2t}` for the planted pair to stand out from the noise floor.

use crate::dense::{multiply_blocked, DEFAULT_BLOCK};
use crate::error::{MatmulError, Result};
use ips_linalg::{DenseVector, Matrix, SignVector};
use rand::Rng;

/// One pair reported by the amplified join.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlgebraicPair {
    /// Index into the data set `P`.
    pub data_index: usize,
    /// Index into the query set `Q`.
    pub query_index: usize,
    /// The exact inner product `pᵀq`.
    pub inner_product: f64,
}

/// Tuning parameters of [`amplified_unsigned_join`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmplifiedJoinConfig {
    /// Amplification degree `t` (the tensor-power exponent).
    pub degree: u32,
    /// Number of random coordinate products per embedded vector (`m`).
    pub projection_dim: usize,
    /// Detection threshold as a fraction of the amplified promise `(s/d)^t`; candidates
    /// are Gram entries whose absolute value is at least `detection_fraction · (s/d)^t`.
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

/// The outcome of an amplified join: verified pairs plus the bookkeeping the benchmarks
/// report (candidate counts and embedded dimension).
#[derive(Debug, Clone, PartialEq)]
pub struct AmplifiedJoinReport {
    /// Verified pairs, at most one per query, each with `|xᵀy| ≥ cs`.
    pub pairs: Vec<AlgebraicPair>,
    /// Number of Gram entries that crossed the detection threshold (before exact
    /// verification).
    pub candidates: usize,
    /// The embedded dimension `m` actually used.
    pub embedded_dim: usize,
    /// The detection threshold applied to the (scaled) Gram entries.
    pub detection_threshold: f64,
}

/// The amplified value `(u)^t` of a normalised inner product `u = ip/d` — the quantity
/// the random coordinate products estimate. Exposed for the benchmarks and docs.
pub fn amplified_value(ip: f64, dim: usize, degree: u32) -> f64 {
    (ip / dim as f64).powi(degree as i32)
}

fn validate(
    data: &[SignVector],
    queries: &[SignVector],
    s: f64,
    c: f64,
    config: &AmplifiedJoinConfig,
) -> Result<usize> {
    let first = data.first().ok_or(MatmulError::Empty {
        op: "amplified_unsigned_join",
    })?;
    if queries.is_empty() {
        return Err(MatmulError::Empty {
            op: "amplified_unsigned_join",
        });
    }
    let dim = first.dim();
    if dim == 0 {
        return Err(MatmulError::InvalidParameter {
            name: "data",
            reason: "vectors must have positive dimension".into(),
        });
    }
    // The data set's shape is fixed by its first vector; a stray vector is reported
    // with the length of the collection it came from.
    for (op, vectors) in [
        ("amplified_unsigned_join (data)", data),
        ("amplified_unsigned_join (queries)", queries),
    ] {
        if let Some(v) = vectors.iter().find(|v| v.dim() != dim) {
            return Err(MatmulError::ShapeMismatch {
                left: (data.len(), dim),
                right: (vectors.len(), v.dim()),
                op,
            });
        }
    }
    if !(s > 0.0 && s <= dim as f64) {
        return Err(MatmulError::InvalidParameter {
            name: "s",
            reason: format!("threshold must satisfy 0 < s <= d, got {s} with d = {dim}"),
        });
    }
    if !(c > 0.0 && c < 1.0) {
        return Err(MatmulError::InvalidParameter {
            name: "c",
            reason: format!("approximation must lie in (0,1), got {c}"),
        });
    }
    if config.degree == 0 {
        return Err(MatmulError::InvalidParameter {
            name: "degree",
            reason: "amplification degree must be at least 1".into(),
        });
    }
    if config.projection_dim == 0 {
        return Err(MatmulError::InvalidParameter {
            name: "projection_dim",
            reason: "projection dimension must be positive".into(),
        });
    }
    if !(config.detection_fraction > 0.0 && config.detection_fraction <= 1.0) {
        return Err(MatmulError::InvalidParameter {
            name: "detection_fraction",
            reason: format!(
                "detection fraction must lie in (0,1], got {}",
                config.detection_fraction
            ),
        });
    }
    Ok(dim)
}

/// Embeds one sign vector under the sampled index tuples: coordinate `r` is the product
/// of the vector's entries at `tuples[r]`, scaled by `1/√m` so that embedded inner
/// products estimate `(xᵀy/d)^t` directly (with standard deviation at most `1/√m`).
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

/// The unsigned `(cs, s)` join for `{−1,1}` data via amplification and one Gram
/// product. Reports, for each query with at least one verified candidate, the candidate
/// with the largest absolute inner product (which always satisfies `|xᵀy| ≥ cs`).
pub fn amplified_unsigned_join<R: Rng + ?Sized>(
    rng: &mut R,
    data: &[SignVector],
    queries: &[SignVector],
    s: f64,
    c: f64,
    config: AmplifiedJoinConfig,
) -> Result<AmplifiedJoinReport> {
    let dim = validate(data, queries, s, c, &config)?;
    // Shared index tuples: the same random degree-t coordinate products on both sides.
    let tuples: Vec<Vec<usize>> = (0..config.projection_dim)
        .map(|_| (0..config.degree).map(|_| rng.gen_range(0..dim)).collect())
        .collect();
    let embedded_data: Vec<DenseVector> = data.iter().map(|v| embed(v, &tuples)).collect();
    let embedded_queries: Vec<DenseVector> = queries.iter().map(|v| embed(v, &tuples)).collect();

    // Gram of the embedded collections. Entry (i, j) estimates (pᵢᵀqⱼ/d)^t with
    // standard deviation at most 1/√m.
    let p = Matrix::from_rows(&embedded_data)?;
    let q = Matrix::from_rows(&embedded_queries)?;
    let gram = multiply_blocked(&p, &q.transpose(), DEFAULT_BLOCK)?;

    let amplified_promise = amplified_value(s, dim, config.degree);
    let detection_threshold = config.detection_fraction * amplified_promise;
    let relaxed = c * s;

    let mut candidates = 0usize;
    let mut pairs = Vec::new();
    for (j, query) in queries.iter().enumerate() {
        let mut best: Option<AlgebraicPair> = None;
        for (i, point) in data.iter().enumerate() {
            let estimate = gram.get(i, j);
            if estimate.abs() < detection_threshold {
                continue;
            }
            candidates += 1;
            let exact = point.dot(query)? as f64;
            if exact.abs() < relaxed {
                continue;
            }
            let better = best
                .map(|b| exact.abs() > b.inner_product.abs())
                .unwrap_or(true);
            if better {
                best = Some(AlgebraicPair {
                    data_index: i,
                    query_index: j,
                    inner_product: exact,
                });
            }
        }
        if let Some(b) = best {
            pairs.push(b);
        }
    }
    Ok(AmplifiedJoinReport {
        pairs,
        candidates,
        embedded_dim: config.projection_dim,
        detection_threshold,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_linalg::random::random_sign_vector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xA117)
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
    fn validation_rejects_bad_parameters() {
        let mut r = rng();
        let v = random_sign_vector(&mut r, 8);
        let q = random_sign_vector(&mut r, 8);
        let cfg = AmplifiedJoinConfig::default();
        assert!(
            amplified_unsigned_join(&mut r, &[], std::slice::from_ref(&q), 4.0, 0.5, cfg).is_err()
        );
        assert!(
            amplified_unsigned_join(&mut r, std::slice::from_ref(&v), &[], 4.0, 0.5, cfg).is_err()
        );
        assert!(amplified_unsigned_join(
            &mut r,
            std::slice::from_ref(&v),
            std::slice::from_ref(&q),
            0.0,
            0.5,
            cfg
        )
        .is_err());
        assert!(amplified_unsigned_join(
            &mut r,
            std::slice::from_ref(&v),
            std::slice::from_ref(&q),
            20.0,
            0.5,
            cfg
        )
        .is_err());
        assert!(amplified_unsigned_join(
            &mut r,
            std::slice::from_ref(&v),
            std::slice::from_ref(&q),
            4.0,
            1.5,
            cfg
        )
        .is_err());
        let bad = AmplifiedJoinConfig {
            degree: 0,
            ..Default::default()
        };
        assert!(amplified_unsigned_join(
            &mut r,
            std::slice::from_ref(&v),
            std::slice::from_ref(&q),
            4.0,
            0.5,
            bad
        )
        .is_err());
        let bad = AmplifiedJoinConfig {
            projection_dim: 0,
            ..Default::default()
        };
        assert!(amplified_unsigned_join(
            &mut r,
            std::slice::from_ref(&v),
            std::slice::from_ref(&q),
            4.0,
            0.5,
            bad
        )
        .is_err());
        let bad = AmplifiedJoinConfig {
            detection_fraction: 0.0,
            ..Default::default()
        };
        assert!(amplified_unsigned_join(
            &mut r,
            std::slice::from_ref(&v),
            std::slice::from_ref(&q),
            4.0,
            0.5,
            bad
        )
        .is_err());
        let mismatched = random_sign_vector(&mut r, 9);
        assert!(
            amplified_unsigned_join(&mut r, &[v], &[mismatched], 4.0, 0.5, cfg).is_err(),
            "dimension mismatch must be rejected"
        );
    }

    #[test]
    fn dimension_mismatch_names_the_collection_it_came_from() {
        let mut r = rng();
        let cfg = AmplifiedJoinConfig::default();
        let vectors = |r: &mut StdRng, dims: &[usize]| -> Vec<SignVector> {
            dims.iter().map(|&d| random_sign_vector(r, d)).collect()
        };
        let (data, queries) = (vectors(&mut r, &[8, 8, 9]), vectors(&mut r, &[8]));
        let err = amplified_unsigned_join(&mut r, &data, &queries, 4.0, 0.5, cfg).unwrap_err();
        assert_eq!(
            err.to_string(),
            "shape mismatch in amplified_unsigned_join (data): 3x8 vs 3x9"
        );
        let (data, queries) = (vectors(&mut r, &[8]), vectors(&mut r, &[8, 9]));
        let err = amplified_unsigned_join(&mut r, &data, &queries, 4.0, 0.5, cfg).unwrap_err();
        assert_eq!(
            err.to_string(),
            "shape mismatch in amplified_unsigned_join (queries): 1x8 vs 2x9"
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
    fn planted_pair_is_found() {
        let mut r = rng();
        let dim = 64;
        // Planted pair agrees on 56 of 64 coordinates: inner product 48, i.e. s = 48.
        let (data, query, slot) = planted(&mut r, 60, dim, 56);
        let report = amplified_unsigned_join(
            &mut r,
            &data,
            std::slice::from_ref(&query),
            48.0,
            0.5,
            AmplifiedJoinConfig {
                degree: 2,
                projection_dim: 4096,
                detection_fraction: 0.5,
            },
        )
        .unwrap();
        assert_eq!(report.embedded_dim, 4096);
        assert_eq!(report.pairs.len(), 1, "planted pair missed: {report:?}");
        assert_eq!(report.pairs[0].data_index, slot);
        assert!(report.pairs[0].inner_product.abs() >= 24.0);
    }

    #[test]
    fn negatively_correlated_pairs_are_found_by_the_unsigned_join() {
        let mut r = rng();
        let dim = 64;
        let (mut data, query, slot) = planted(&mut r, 40, dim, 60);
        // Flip the planted partner entirely: inner product becomes −56.
        data[slot] = data[slot].negated();
        let report = amplified_unsigned_join(
            &mut r,
            &data,
            &[query],
            56.0,
            0.5,
            AmplifiedJoinConfig {
                degree: 2,
                projection_dim: 4096,
                detection_fraction: 0.5,
            },
        )
        .unwrap();
        assert_eq!(report.pairs.len(), 1);
        assert_eq!(report.pairs[0].data_index, slot);
        assert!(report.pairs[0].inner_product < 0.0);
    }

    #[test]
    fn reported_pairs_always_clear_cs_and_candidates_are_counted() {
        let mut r = rng();
        let dim = 32;
        let data: Vec<SignVector> = (0..50).map(|_| random_sign_vector(&mut r, dim)).collect();
        let queries: Vec<SignVector> = (0..20).map(|_| random_sign_vector(&mut r, dim)).collect();
        let s = 24.0;
        let c = 0.5;
        let report = amplified_unsigned_join(
            &mut r,
            &data,
            &queries,
            s,
            c,
            AmplifiedJoinConfig {
                degree: 2,
                projection_dim: 1024,
                detection_fraction: 0.25,
            },
        )
        .unwrap();
        for pair in &report.pairs {
            let exact = data[pair.data_index]
                .dot(&queries[pair.query_index])
                .unwrap() as f64;
            assert!((exact - pair.inner_product).abs() < 1e-9);
            assert!(exact.abs() >= c * s);
        }
        assert!(report.candidates >= report.pairs.len());
        assert!(report.detection_threshold > 0.0);
    }
}

//! Planner-adversarial workloads: one generator per cost-model failure mode.
//!
//! The adaptive join planner in `ips-core` decides between the exact scan, the
//! two LSH reductions and the sketch structure from sampled statistics. Each
//! workload here is built to sit in (or right at the edge of) a regime where a
//! *specific* strategy wins, so the planner's calibration binary and the
//! decision tests can check the choice against measured runtimes rather than
//! against the model's own assumptions:
//!
//! * **tiny** — so small that any index build is pure overhead; the scan must
//!   win;
//! * **sparse needles** — near-orthogonal background with a few planted pairs:
//!   tiny candidate sets, the home turf of the Section 4.1 ALSH index;
//! * **dense correlated** — every pair strongly correlated, so LSH candidate
//!   sets degenerate to the whole data set and hashing is wasted work;
//! * **unnormalised** — latent-factor vectors far outside the unit ball:
//!   both LSH reductions are *ineligible* (their domain preconditions fail)
//!   and the planner must fall back to the scan or the sketch;
//! * **anti-correlated** — the planted pairs have large *negative* inner
//!   products under an unsigned spec, the case the natively unsigned sketch
//!   structure handles and signed-leaning reductions miss;
//! * **crossover** — a medium-density workload deliberately close to the
//!   brute/ALSH cost crossing, where a miscalibrated model flips to the
//!   wrong side.

use crate::error::{DatagenError, Result};
use crate::planted::{PlantedConfig, PlantedInstance};
use crate::sphere::unit_vectors;
use ips_linalg::random::{fill_standard_gaussians, gaussian_vector};
use ips_linalg::DenseVector;
use rand::Rng;

/// One named planner workload: vectors plus the `(cs, s)` parameters the join
/// should run with (this crate does not depend on `ips-core`, so the spec is
/// carried as raw numbers).
#[derive(Debug, Clone)]
pub struct PlannerWorkload {
    /// Generator name, stable across runs (used as a row label by the
    /// calibration binary).
    pub name: &'static str,
    /// The data set `P`.
    pub data: Vec<DenseVector>,
    /// The query set `Q`.
    pub queries: Vec<DenseVector>,
    /// The promise threshold `s`.
    pub threshold: f64,
    /// The approximation factor `c`.
    pub approximation: f64,
    /// Whether the join is unsigned (`|pᵀq| ≥ s`) rather than signed.
    pub unsigned: bool,
}

/// Relative size of the generated workloads; the shapes stay the same, only
/// `n`/`m` scale, so the suite can be sized to the machine running it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdversarialScale {
    /// Data vectors in the large workloads.
    pub n: usize,
    /// Queries in the large workloads.
    pub m: usize,
    /// Dimensionality of every workload.
    pub dim: usize,
}

impl Default for AdversarialScale {
    fn default() -> Self {
        Self {
            n: 2000,
            m: 400,
            dim: 32,
        }
    }
}

fn validated(scale: AdversarialScale) -> Result<AdversarialScale> {
    if scale.n < 64 || scale.m < 16 || scale.dim < 4 {
        return Err(DatagenError::InvalidParameter {
            name: "scale",
            reason: format!(
                "adversarial suite needs n ≥ 64, m ≥ 16, dim ≥ 4, got n={} m={} dim={}",
                scale.n, scale.m, scale.dim
            ),
        });
    }
    Ok(scale)
}

/// A workload so small every index build is wasted effort.
pub fn tiny<R: Rng + ?Sized>(rng: &mut R, dim: usize) -> Result<PlannerWorkload> {
    let inst = PlantedInstance::generate(
        rng,
        PlantedConfig {
            data: 48,
            queries: 8,
            dim,
            background_scale: 0.1,
            planted_ip: 0.85,
            planted: 3,
        },
    )?;
    Ok(PlannerWorkload {
        name: "tiny",
        data: inst.data().to_vec(),
        queries: inst.queries().to_vec(),
        threshold: 0.8,
        approximation: 0.6,
        unsigned: false,
    })
}

/// Near-orthogonal background plus a few planted needles: sparse candidate
/// sets, the regime the Section 4.1 ALSH reduction is built for.
pub fn sparse_needles<R: Rng + ?Sized>(
    rng: &mut R,
    scale: AdversarialScale,
) -> Result<PlannerWorkload> {
    let scale = validated(scale)?;
    let inst = PlantedInstance::generate(
        rng,
        PlantedConfig {
            data: scale.n,
            queries: scale.m,
            dim: scale.dim,
            background_scale: 0.05,
            planted_ip: 0.85,
            planted: scale.m / 8,
        },
    )?;
    Ok(PlannerWorkload {
        name: "sparse-needles",
        data: inst.data().to_vec(),
        queries: inst.queries().to_vec(),
        threshold: 0.8,
        approximation: 0.6,
        unsigned: false,
    })
}

/// Every pair strongly correlated: all vectors cluster around one direction,
/// so LSH buckets degenerate and candidate sets approach the whole data set.
pub fn dense_correlated<R: Rng + ?Sized>(
    rng: &mut R,
    scale: AdversarialScale,
) -> Result<PlannerWorkload> {
    let scale = validated(scale)?;
    let centre = unit_vectors(rng, 1, scale.dim)?.pop().expect("one vector");
    let cluster = |count: usize, rng: &mut R| -> Result<Vec<DenseVector>> {
        (0..count)
            .map(|_| {
                // centre + small gaussian jitter, renormalised into the ball:
                // pairwise inner products stay ≈ 0.9.
                let mut v = gaussian_vector(rng, scale.dim).scaled(0.1);
                v.axpy(1.0, &centre)?;
                Ok(v.normalized()?.scaled(0.95))
            })
            .collect()
    };
    Ok(PlannerWorkload {
        name: "dense-correlated",
        data: cluster(scale.n, rng)?,
        queries: cluster(scale.m, rng)?,
        threshold: 0.5,
        approximation: 0.8,
        unsigned: false,
    })
}

/// Latent-factor-style gaussian vectors far outside the unit ball: the
/// ball-to-sphere reductions are ineligible and the planner must choose
/// between the scan and the sketch.
pub fn unnormalised<R: Rng + ?Sized>(
    rng: &mut R,
    scale: AdversarialScale,
) -> Result<PlannerWorkload> {
    let scale = validated(scale)?;
    let gaussian_vectors = |count: usize, rng: &mut R| -> Vec<DenseVector> {
        let mut flat = vec![0.0; count * scale.dim];
        fill_standard_gaussians(rng, &mut flat);
        flat.chunks_exact(scale.dim)
            .map(DenseVector::from)
            .collect()
    };
    Ok(PlannerWorkload {
        name: "unnormalised",
        data: gaussian_vectors(scale.n, rng),
        queries: gaussian_vectors(scale.m, rng),
        // Gaussian inner products concentrate around ±√d; threshold well into
        // the tail so the output stays sparse.
        threshold: 3.0 * (scale.dim as f64).sqrt(),
        approximation: 0.5,
        unsigned: true,
    })
}

/// Planted pairs with large *negative* inner products under an unsigned spec:
/// exactly the correlation structure the natively unsigned sketch structure
/// recovers and a signed-only view misses.
pub fn anti_correlated<R: Rng + ?Sized>(
    rng: &mut R,
    scale: AdversarialScale,
) -> Result<PlannerWorkload> {
    let scale = validated(scale)?;
    let inst = PlantedInstance::generate(
        rng,
        PlantedConfig {
            data: scale.n,
            queries: scale.m,
            dim: scale.dim,
            background_scale: 0.05,
            planted_ip: 0.85,
            planted: scale.m / 8,
        },
    )?;
    // Negate the planted partners' data vectors: |pᵀq| stays 0.85 but the
    // signed inner product flips to −0.85.
    let mut data = inst.data().to_vec();
    for &(pi, _) in inst.planted_pairs() {
        data[pi] = data[pi].negated();
    }
    Ok(PlannerWorkload {
        name: "anti-correlated",
        data,
        queries: inst.queries().to_vec(),
        threshold: 0.8,
        approximation: 0.6,
        unsigned: true,
    })
}

/// A medium-density workload parked near the brute/ALSH cost crossover:
/// background inner products are high enough that candidate sets are a
/// substantial fraction of `n`, so small calibration errors flip the choice.
pub fn crossover<R: Rng + ?Sized>(rng: &mut R, scale: AdversarialScale) -> Result<PlannerWorkload> {
    let scale = validated(scale)?;
    let inst = PlantedInstance::generate(
        rng,
        PlantedConfig {
            data: scale.n,
            queries: scale.m,
            dim: scale.dim,
            background_scale: 0.45,
            planted_ip: 0.85,
            planted: scale.m / 4,
        },
    )?;
    Ok(PlannerWorkload {
        name: "crossover",
        data: inst.data().to_vec(),
        queries: inst.queries().to_vec(),
        threshold: 0.8,
        approximation: 0.6,
        unsigned: false,
    })
}

/// The full suite at the given scale, in a stable order. This is what the
/// `calibrate_planner` binary in `ips-bench` iterates over.
pub fn planner_suite<R: Rng + ?Sized>(
    rng: &mut R,
    scale: AdversarialScale,
) -> Result<Vec<PlannerWorkload>> {
    Ok(vec![
        tiny(rng, scale.dim)?,
        sparse_needles(rng, scale)?,
        dense_correlated(rng, scale)?,
        unnormalised(rng, scale)?,
        anti_correlated(rng, scale)?,
        crossover(rng, scale)?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xADE7)
    }

    fn small() -> AdversarialScale {
        AdversarialScale {
            n: 128,
            m: 16,
            dim: 8,
        }
    }

    #[test]
    fn suite_has_stable_names_and_consistent_shapes() {
        let suite = planner_suite(&mut rng(), small()).unwrap();
        let names: Vec<&str> = suite.iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            vec![
                "tiny",
                "sparse-needles",
                "dense-correlated",
                "unnormalised",
                "anti-correlated",
                "crossover"
            ]
        );
        for w in &suite {
            assert!(!w.data.is_empty() && !w.queries.is_empty(), "{}", w.name);
            let dim = w.data[0].dim();
            assert!(
                w.data.iter().chain(&w.queries).all(|v| v.dim() == dim),
                "{} has mixed dimensions",
                w.name
            );
            assert!(w.threshold > 0.0, "{}", w.name);
            assert!(
                w.approximation > 0.0 && w.approximation <= 1.0,
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn scale_is_validated() {
        let bad = AdversarialScale { n: 8, m: 4, dim: 2 };
        assert!(sparse_needles(&mut rng(), bad).is_err());
        assert!(planner_suite(&mut rng(), bad).is_err());
    }

    #[test]
    fn dense_correlated_really_is_dense() {
        let w = dense_correlated(&mut rng(), small()).unwrap();
        let mut high = 0usize;
        let mut total = 0usize;
        for p in w.data.iter().take(20) {
            for q in w.queries.iter().take(10) {
                total += 1;
                if p.dot(q).unwrap() >= w.approximation * w.threshold {
                    high += 1;
                }
            }
        }
        assert!(
            high * 2 >= total,
            "only {high}/{total} sampled pairs clear cs"
        );
        // ... and stays inside the unit ball so LSH remains *eligible*.
        assert!(w.data.iter().all(|v| v.norm() <= 1.0 + 1e-9));
    }

    #[test]
    fn unnormalised_leaves_the_unit_ball() {
        let w = unnormalised(&mut rng(), small()).unwrap();
        assert!(w.data.iter().any(|v| v.norm() > 1.0));
        assert!(w.unsigned);
    }

    #[test]
    fn anti_correlated_pairs_flip_sign_but_keep_magnitude() {
        let w = anti_correlated(&mut rng(), small()).unwrap();
        let mut negatives = 0usize;
        for (p, q) in w
            .data
            .iter()
            .flat_map(|p| w.queries.iter().map(move |q| (p, q)))
        {
            let ip = p.dot(q).unwrap();
            if ip <= -w.approximation * w.threshold {
                negatives += 1;
            }
        }
        assert!(
            negatives >= 1,
            "no strongly negative pair survived the negation"
        );
    }
}

//! Planted-pair workloads: a near-orthogonal haystack plus needles of prescribed inner
//! product.
//!
//! The hardness discussion of the paper ("the hard case … is when we have to distinguish
//! nearly orthogonal vectors from very nearly orthogonal vectors") motivates this
//! generator: background data and query vectors are drawn so that typical inner products
//! concentrate around `±background_scale/√d`, and for a chosen subset of queries a data
//! vector is planted whose inner product with that query is exactly `planted_ip`. The
//! join experiments (E5) then measure recall of the planted pairs and the runtime
//! scaling of each algorithm.

use crate::error::{DatagenError, Result};
use ips_linalg::random::{random_unit_vector, random_unit_vectors};
use ips_linalg::DenseVector;
use rand::Rng;

/// Configuration of a planted-pair instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlantedConfig {
    /// Number of data vectors.
    pub data: usize,
    /// Number of query vectors.
    pub queries: usize,
    /// Dimension.
    pub dim: usize,
    /// Scale of the background data vectors (their norm).
    pub background_scale: f64,
    /// Inner product of each planted pair.
    pub planted_ip: f64,
    /// Number of queries that receive a planted partner (the first `planted` queries).
    pub planted: usize,
}

impl Default for PlantedConfig {
    fn default() -> Self {
        Self {
            data: 1000,
            queries: 100,
            dim: 64,
            background_scale: 0.1,
            planted_ip: 0.8,
            planted: 10,
        }
    }
}

/// A generated planted-pair instance.
#[derive(Debug, Clone)]
pub struct PlantedInstance {
    data: Vec<DenseVector>,
    queries: Vec<DenseVector>,
    planted_pairs: Vec<(usize, usize)>,
    config: PlantedConfig,
}

impl PlantedInstance {
    /// Generates an instance. Returns an error if the configuration is degenerate
    /// (zero sizes, more planted pairs than queries or data, non-positive scales, or a
    /// planted inner product that does not fit in the unit ball).
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, config: PlantedConfig) -> Result<Self> {
        if config.data == 0 || config.queries == 0 || config.dim < 2 {
            return Err(DatagenError::InvalidParameter {
                name: "config",
                reason: "data, queries must be positive and dim >= 2".into(),
            });
        }
        if config.planted > config.queries || config.planted > config.data {
            return Err(DatagenError::InvalidParameter {
                name: "planted",
                reason: "cannot plant more pairs than queries or data vectors".into(),
            });
        }
        if !(config.background_scale > 0.0) || !(config.planted_ip.abs() <= 1.0) {
            return Err(DatagenError::InvalidParameter {
                name: "scales",
                reason: "background scale must be positive and |planted_ip| <= 1".into(),
            });
        }
        // Queries, then the background data: two plain runs of unit vectors, drawn in
        // batches (the stream, and so the instance of a seed, is the scalar loop's).
        let queries = random_unit_vectors(rng, config.queries, config.dim)?;
        let mut data = random_unit_vectors(rng, config.data, config.dim)?;
        for v in &mut data {
            v.scale_in_place(config.background_scale);
        }
        // Plant pair i: data vector at a random index gets inner product planted_ip with
        // query i while staying inside the unit ball (norm <= 1). Planted data indices
        // are chosen *distinct* (partial Fisher–Yates) so later pairs never overwrite
        // earlier ones.
        let mut candidate_indices: Vec<usize> = (0..config.data).collect();
        let mut planted_pairs = Vec::with_capacity(config.planted);
        for qi in 0..config.planted {
            let q = &queries[qi];
            // Construct p = planted_ip * q + orthogonal noise of norm sqrt(1 - ip²)·0.5
            // so that ‖p‖ <= 1 and pᵀq = planted_ip exactly.
            let noise = loop {
                let candidate = random_unit_vector(rng, config.dim)?;
                let proj = candidate.dot(q)?;
                let residual = candidate.sub(&q.scaled(proj))?;
                if residual.norm() > 1e-9 {
                    break residual.normalized()?;
                }
            };
            let ortho_mass = (1.0 - config.planted_ip * config.planted_ip)
                .max(0.0)
                .sqrt()
                * 0.5;
            let p = q.scaled(config.planted_ip).add(&noise.scaled(ortho_mass))?;
            let pick = rng.gen_range(qi..candidate_indices.len());
            candidate_indices.swap(qi, pick);
            let di = candidate_indices[qi];
            data[di] = p;
            planted_pairs.push((di, qi));
        }
        Ok(Self {
            data,
            queries,
            planted_pairs,
            config,
        })
    }

    /// The data (`P`) side.
    pub fn data(&self) -> &[DenseVector] {
        &self.data
    }

    /// The query (`Q`) side.
    pub fn queries(&self) -> &[DenseVector] {
        &self.queries
    }

    /// The planted `(data_index, query_index)` pairs.
    pub fn planted_pairs(&self) -> &[(usize, usize)] {
        &self.planted_pairs
    }

    /// The configuration the instance was generated from.
    pub fn config(&self) -> PlantedConfig {
        self.config
    }

    /// Recall of a reported pair list against the planted pairs: the fraction of planted
    /// *queries* for which some reported pair has that query index and an inner product
    /// of at least `threshold` (any data partner above the threshold counts, matching
    /// the join's "at least one pair per query" semantics).
    pub fn recall(&self, reported: &[(usize, usize)], threshold: f64) -> f64 {
        if self.planted_pairs.is_empty() {
            return 1.0;
        }
        let mut hit = 0usize;
        for &(_, qi) in &self.planted_pairs {
            let found = reported.iter().any(|&(di, rq)| {
                rq == qi
                    && self
                        .data
                        .get(di)
                        .and_then(|p| p.dot(&self.queries[qi]).ok())
                        .map(|ip| ip.abs() >= threshold)
                        .unwrap_or(false)
            });
            if found {
                hit += 1;
            }
        }
        hit as f64 / self.planted_pairs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x9A9A)
    }

    #[test]
    fn generation_guards() {
        let mut r = rng();
        let bad = PlantedConfig {
            data: 0,
            ..Default::default()
        };
        assert!(PlantedInstance::generate(&mut r, bad).is_err());
        let bad = PlantedConfig {
            planted: 1000,
            queries: 10,
            ..Default::default()
        };
        assert!(PlantedInstance::generate(&mut r, bad).is_err());
        let bad = PlantedConfig {
            planted_ip: 1.5,
            ..Default::default()
        };
        assert!(PlantedInstance::generate(&mut r, bad).is_err());
        let bad = PlantedConfig {
            background_scale: 0.0,
            ..Default::default()
        };
        assert!(PlantedInstance::generate(&mut r, bad).is_err());
    }

    #[test]
    fn a_seeds_instance_is_the_one_the_scalar_loops_drew() {
        // FNV-1a over every coordinate's bits, then the planted pairs. The recorded
        // values are the parent build's — one `random_unit_vector` call per vector —
        // for seed 7, scale 0.05, planted product 0.85; the larger shapes run the
        // batch on several threads where there are several CPUs.
        fn digest(instance: &PlantedInstance) -> u64 {
            let vectors = instance.data().iter().chain(instance.queries());
            let coordinates = vectors.flat_map(|v| v.iter().map(|x| x.to_bits()));
            let pairs = instance.planted_pairs().iter();
            let words = coordinates.chain(pairs.flat_map(|&(d, q)| [d as u64, q as u64]));
            words
                .flat_map(u64::to_le_bytes)
                .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
                    (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
                })
        }
        for (data, queries, dim, planted, recorded) in [
            (300, 40, 48, 8, 0x192f_3374_1b86_af4f_u64),
            (129, 64, 64, 64, 0x8ce5_4a0e_2031_820c),
            (2000, 40, 48, 8, 0x0e10_4e2a_ba5e_74d5),
            (20_000, 70, 2, 8, 0x79f6_f0ab_15c0_fd92),
        ] {
            let config = PlantedConfig {
                data,
                queries,
                dim,
                background_scale: 0.05,
                planted_ip: 0.85,
                planted,
            };
            let mut r = StdRng::seed_from_u64(7);
            let inst = PlantedInstance::generate(&mut r, config).unwrap();
            assert_eq!(digest(&inst), recorded, "{config:?}");
            // The plain runs once more against the scalar code itself: every query,
            // and every data vector no pair was planted over, bit for bit.
            let mut r = StdRng::seed_from_u64(7);
            let mut unit = || random_unit_vector(&mut r, dim).unwrap();
            let bits = |v: &DenseVector| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for q in inst.queries() {
                assert_eq!(bits(q), bits(&unit()));
            }
            for (di, p) in inst.data().iter().enumerate() {
                let background = unit().scaled(0.05);
                let planted_over = inst.planted_pairs().iter().any(|&(d, _)| d == di);
                assert!(
                    planted_over || bits(p) == bits(&background),
                    "data vector {di}"
                );
            }
        }
    }

    #[test]
    fn planted_pairs_have_exact_inner_product() {
        let mut r = rng();
        let config = PlantedConfig {
            data: 300,
            queries: 40,
            dim: 32,
            background_scale: 0.1,
            planted_ip: 0.7,
            planted: 8,
        };
        let inst = PlantedInstance::generate(&mut r, config).unwrap();
        assert_eq!(inst.planted_pairs().len(), 8);
        assert_eq!(inst.data().len(), 300);
        assert_eq!(inst.queries().len(), 40);
        assert_eq!(inst.config(), config);
        for &(di, qi) in inst.planted_pairs() {
            let ip = inst.data()[di].dot(&inst.queries()[qi]).unwrap();
            assert!((ip - 0.7).abs() < 1e-9, "planted ip {ip}");
            assert!(inst.data()[di].norm() <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn background_inner_products_are_small() {
        let mut r = rng();
        let config = PlantedConfig {
            data: 200,
            queries: 20,
            dim: 64,
            background_scale: 0.1,
            planted_ip: 0.9,
            planted: 0,
        };
        let inst = PlantedInstance::generate(&mut r, config).unwrap();
        let mut max_ip: f64 = 0.0;
        for q in inst.queries() {
            for p in inst.data() {
                max_ip = max_ip.max(p.dot(q).unwrap().abs());
            }
        }
        assert!(
            max_ip < 0.1,
            "background inner products too large: {max_ip}"
        );
    }

    #[test]
    fn recall_counts_planted_queries() {
        let mut r = rng();
        let config = PlantedConfig {
            data: 100,
            queries: 10,
            dim: 16,
            background_scale: 0.05,
            planted_ip: 0.8,
            planted: 4,
        };
        let inst = PlantedInstance::generate(&mut r, config).unwrap();
        // Perfect report: the planted pairs themselves.
        assert_eq!(inst.recall(inst.planted_pairs(), 0.5), 1.0);
        // Empty report: zero recall.
        assert_eq!(inst.recall(&[], 0.5), 0.0);
        // Reporting an unrelated background pair for a planted query does not count,
        // because its inner product is below the threshold.
        let (_, planted_q) = inst.planted_pairs()[0];
        let bogus_data = (0..inst.data().len())
            .find(|di| !inst.planted_pairs().iter().any(|&(pd, _)| pd == *di))
            .unwrap();
        let partial = vec![(bogus_data, planted_q)];
        assert!(inst.recall(&partial, 0.5) < 1.0);
    }

    #[test]
    fn zero_planted_pairs_gives_full_recall() {
        let mut r = rng();
        let config = PlantedConfig {
            planted: 0,
            ..Default::default()
        };
        let inst = PlantedInstance::generate(&mut r, config).unwrap();
        assert_eq!(inst.recall(&[], 0.9), 1.0);
    }
}

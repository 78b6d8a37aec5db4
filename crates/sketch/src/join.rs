//! Unsigned `(cs, s)` join and `c`-MIPS reductions built on the sketch structures.
//!
//! Two reductions from Section 4.3 are implemented:
//!
//! * [`sketch_unsigned_join`]: the unsigned `(cs, s)` join between `P` and `Q` computed
//!   by building one [`SketchMipsIndex`] over `P` and querying it with every `q ∈ Q`;
//!   each reported pair is verified exactly against `cs`, so false positives are
//!   impossible (the approximation only affects recall, exactly as in Definition 1).
//! * [`c_mips_via_threshold_search`]: the paper's observation that unsigned `c`-MIPS can
//!   be solved by a data structure for unsigned `(cs, s)` *search* by scaling the query
//!   up (`q/cⁱ`) until the threshold fires — "intuitively, we are scaling up the query
//!   until the largest inner product becomes larger than the threshold s".

use crate::error::{Result, SketchError};
use crate::linf_mips::MaxIpConfig;
use crate::recovery::{MipsCandidate, SketchMipsIndex};
use ips_linalg::DenseVector;
use rand::Rng;

/// One pair reported by the sketch-based join.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinPair {
    /// Index into the data set `P`.
    pub data_index: usize,
    /// Index into the query set `Q`.
    pub query_index: usize,
    /// The exact inner product of the pair.
    pub inner_product: f64,
}

/// Computes the unsigned `(cs, s)` join: for every query, the sketch index proposes a
/// candidate maximiser which is kept when its *exact* absolute inner product reaches
/// `cs`.
pub fn sketch_unsigned_join<R: Rng + ?Sized>(
    rng: &mut R,
    data: &[DenseVector],
    queries: &[DenseVector],
    cs: f64,
    config: MaxIpConfig,
    leaf_size: usize,
) -> Result<Vec<JoinPair>> {
    if queries.is_empty() {
        return Err(SketchError::EmptyDataSet);
    }
    if cs < 0.0 {
        return Err(SketchError::InvalidParameter {
            name: "cs",
            reason: format!("approximate threshold must be nonnegative, got {cs}"),
        });
    }
    let index = SketchMipsIndex::build(rng, data, config, leaf_size)?;
    let mut out = Vec::new();
    for (j, q) in queries.iter().enumerate() {
        let candidate = index.query(q)?;
        if candidate.inner_product.abs() >= cs {
            out.push(JoinPair {
                data_index: candidate.index,
                query_index: j,
                inner_product: candidate.inner_product,
            });
        }
    }
    Ok(out)
}

/// A data structure answering unsigned `(cs, s)` *search* queries: given a query `q`, it
/// returns some index whose absolute inner product with `q` is at least `cs`, under the
/// promise that some point reaches `s`; otherwise it may return `None`.
pub trait ThresholdSearch {
    /// The threshold `s` the structure was built for.
    fn threshold(&self) -> f64;

    /// The approximation factor `c ∈ (0, 1)`.
    fn approximation(&self) -> f64;

    /// Answers one search query.
    fn search(&self, q: &DenseVector) -> Result<Option<MipsCandidate>>;
}

/// Solves unsigned `c`-MIPS through a [`ThresholdSearch`] structure by query scaling:
/// the query is repeatedly divided by `c` (i.e. effectively scaled up) until the
/// structure reports a point, following the reduction described in Section 4.3. `gamma`
/// is the smallest inner product that should still be recovered (the paper's numerical
/// precision floor); the number of probes is `⌈log_{1/c}(s/γ)⌉ + 1`.
pub fn c_mips_via_threshold_search<T: ThresholdSearch>(
    structure: &T,
    query: &DenseVector,
    gamma: f64,
) -> Result<Option<MipsCandidate>> {
    let c = structure.approximation();
    if !(c > 0.0 && c < 1.0) {
        return Err(SketchError::InvalidParameter {
            name: "approximation",
            reason: format!("approximation factor must be in (0,1), got {c}"),
        });
    }
    if !(gamma > 0.0) {
        return Err(SketchError::InvalidParameter {
            name: "gamma",
            reason: format!("precision floor must be positive, got {gamma}"),
        });
    }
    let s = structure.threshold();
    let max_probes = ((s / gamma).ln() / (1.0 / c).ln()).ceil().max(0.0) as usize + 1;
    let mut best: Option<MipsCandidate> = None;
    for i in 0..max_probes {
        let scaled = query.scaled(1.0 / c.powi(i as i32));
        if let Some(candidate) = structure.search(&scaled)? {
            // Recompute the inner product against the *original* query.
            let better = best
                .as_ref()
                .map(|b| candidate.inner_product.abs() / c.powi(i as i32) > b.inner_product.abs())
                .unwrap_or(true);
            if better {
                best = Some(MipsCandidate {
                    index: candidate.index,
                    inner_product: candidate.inner_product / (1.0 / c.powi(i as i32)),
                });
            }
            // The first probe that fires already gives a c-approximation; keep going is
            // unnecessary, mirroring the paper's argument.
            break;
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_linalg::random::random_unit_vector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x30AF)
    }

    fn config() -> MaxIpConfig {
        MaxIpConfig {
            kappa: 2.0,
            copies: 15,
            rows: None,
        }
    }

    #[test]
    fn join_rejects_bad_inputs() {
        let mut r = rng();
        let data = vec![DenseVector::from(&[1.0, 0.0][..])];
        assert!(sketch_unsigned_join(&mut r, &data, &[], 0.5, config(), 4).is_err());
        let queries = vec![DenseVector::from(&[1.0, 0.0][..])];
        assert!(sketch_unsigned_join(&mut r, &data, &queries, -1.0, config(), 4).is_err());
        assert!(sketch_unsigned_join(&mut r, &[], &queries, 0.5, config(), 4).is_err());
    }

    #[test]
    fn join_finds_planted_pairs_and_rejects_low_ones() {
        let mut r = rng();
        let dim = 16;
        let n = 96;
        // Background with tiny inner products; two planted partners for queries 0 and 2.
        let mut data: Vec<DenseVector> = (0..n)
            .map(|_| random_unit_vector(&mut r, dim).unwrap().scaled(0.05))
            .collect();
        let queries: Vec<DenseVector> = (0..4)
            .map(|_| random_unit_vector(&mut r, dim).unwrap())
            .collect();
        data[10] = queries[0].scaled(6.0);
        data[40] = queries[2].scaled(-5.0);
        let pairs = sketch_unsigned_join(&mut r, &data, &queries, 2.0, config(), 8).unwrap();
        let found: Vec<(usize, usize)> = pairs
            .iter()
            .map(|p| (p.data_index, p.query_index))
            .collect();
        assert!(
            found.contains(&(10, 0)),
            "missing planted pair for query 0: {found:?}"
        );
        assert!(
            found.contains(&(40, 2)),
            "missing planted pair for query 2: {found:?}"
        );
        // Queries 1 and 3 have no partner above the threshold; every reported pair must
        // genuinely clear cs (no false positives by construction).
        for p in &pairs {
            assert!(p.inner_product.abs() >= 2.0);
            assert!(p.query_index != 1 && p.query_index != 3);
        }
    }

    /// A trivially correct threshold-search structure used to exercise the query-scaling
    /// reduction.
    struct ExactThresholdSearch {
        data: Vec<DenseVector>,
        s: f64,
        c: f64,
    }

    impl ThresholdSearch for ExactThresholdSearch {
        fn threshold(&self) -> f64 {
            self.s
        }

        fn approximation(&self) -> f64 {
            self.c
        }

        fn search(&self, q: &DenseVector) -> Result<Option<MipsCandidate>> {
            for (i, p) in self.data.iter().enumerate() {
                let ip = p.dot(q)?;
                if ip.abs() >= self.c * self.s {
                    return Ok(Some(MipsCandidate {
                        index: i,
                        inner_product: ip,
                    }));
                }
            }
            Ok(None)
        }
    }

    #[test]
    fn query_scaling_recovers_small_maxima() {
        let mut r = rng();
        let dim = 8;
        let q = random_unit_vector(&mut r, dim).unwrap();
        // The best inner product (0.3) is far below the structure's threshold s = 4, so
        // only the scaling loop can find it.
        let data = vec![
            random_unit_vector(&mut r, dim).unwrap().scaled(0.01),
            q.scaled(0.3),
            random_unit_vector(&mut r, dim).unwrap().scaled(0.02),
        ];
        let structure = ExactThresholdSearch {
            data,
            s: 4.0,
            c: 0.5,
        };
        let result = c_mips_via_threshold_search(&structure, &q, 1e-3)
            .unwrap()
            .expect("the scaled query must eventually fire");
        assert_eq!(result.index, 1);
        assert!((result.inner_product - 0.3).abs() < 1e-9);
    }

    #[test]
    fn query_scaling_validates_parameters() {
        let structure = ExactThresholdSearch {
            data: vec![DenseVector::from(&[1.0][..])],
            s: 1.0,
            c: 1.5,
        };
        let q = DenseVector::from(&[1.0][..]);
        assert!(c_mips_via_threshold_search(&structure, &q, 1e-3).is_err());
        let structure = ExactThresholdSearch {
            data: vec![DenseVector::from(&[1.0][..])],
            s: 1.0,
            c: 0.5,
        };
        assert!(c_mips_via_threshold_search(&structure, &q, 0.0).is_err());
    }
}

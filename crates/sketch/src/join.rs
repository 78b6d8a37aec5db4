//! The query-scaling reduction of Section 4.3: unsigned `c`-MIPS from unsigned
//! `(cs, s)` search, compiled for the tests only.
//!
//! [`c_mips_via_threshold_search`] implements the paper's observation that unsigned
//! `c`-MIPS can be solved by any data structure for unsigned `(cs, s)` *search*
//! ([`ThresholdSearch`]) by scaling the query up (`q/cⁱ`) until the threshold fires —
//! "intuitively, we are scaling up the query until the largest inner product becomes
//! larger than the threshold s".

use crate::error::{Result, SketchError};
use crate::recovery::MipsCandidate;
use ips_linalg::DenseVector;

/// A data structure answering unsigned `(cs, s)` *search* queries: given a query `q`, it
/// returns some index whose absolute inner product with `q` is at least `cs`, under the
/// promise that some point reaches `s`; otherwise it may return `None`.
trait ThresholdSearch {
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
fn c_mips_via_threshold_search<T: ThresholdSearch>(
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
    for i in 0..max_probes {
        let factor = 1.0 / c.powi(i as i32);
        if let Some(candidate) = structure.search(&query.scaled(factor))? {
            // The first probe that fires already gives a c-approximation (the paper's
            // argument); its inner product is rescaled to the original query.
            return Ok(Some(MipsCandidate {
                index: candidate.index,
                inner_product: candidate.inner_product / factor,
            }));
        }
    }
    Ok(None)
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

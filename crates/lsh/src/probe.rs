//! Query-directed probe sequences — multi-probe LSH over sign words.
//!
//! The classical OR-construction needs `L ≈ n^ρ` independent tables for constant
//! recall, and table memory is usually the binding constraint in practice
//! (see ROADMAP: million-user memory scale). Multi-probe LSH trades tables for
//! extra bucket lookups: in each table the query also visits the buckets it was
//! *closest* to landing in, in decreasing order of estimated collision
//! probability.
//!
//! A table's bucket key is the **sign word** of its planes: bit `f` is set when the
//! query's margin `⟨g_f, x⟩` on plane `f` is non-negative (`sign_bucket`). A
//! perturbation is therefore a mask of flipped bits, and a probe is `home ^ mask`.
//! Flipping bit `f` costs its squared margin `⟨g_f, x⟩²` — the bits with the smallest
//! margins are the ones a small perturbation of the query would flip first, which is
//! why probe order tracks collision-probability order (see `docs/ARCHITECTURE.md`,
//! "The probing layer"). The enumeration (`sign_probes`) offers every single-bit
//! flip in bit order, then every two-bit flip `f < g` in `(f, g)` order, costing the
//! sum of the two, and keeps the `extra` cheapest, ties in that order. It is shared by
//! [`crate::bank::PlaneBank::probe_keys`], which feeds it each table's margins from its
//! single pass, and by [`HyperplaneFunction::probe_query`], the per-function form the
//! tests hold the bank to.
//!
//! Throughout this module `extra` / `probes` counts **additional buckets beyond
//! the home bucket**: `0` means the classical single-bucket lookup, bit-identical
//! to [`crate::table::LshIndex::query_candidates`].
//!
//! ```
//! use ips_linalg::DenseVector;
//! use ips_lsh::hyperplane::HyperplaneFunction;
//!
//! // Two axis-aligned hyperplanes: bucket bits are the coordinate signs.
//! let f = HyperplaneFunction::from_planes(vec![
//!     DenseVector::from(&[1.0, 0.0][..]),
//!     DenseVector::from(&[0.0, 1.0][..]),
//! ])?;
//! // The query is barely on the positive side of plane 0, firmly positive on
//! // plane 1 — so the cheapest probe flips bit 0.
//! let q = DenseVector::from(&[0.05, 0.9][..]);
//! let probes = f.probe_query(&q, 2)?;
//! assert_eq!(probes[0], 0b11); // home bucket first
//! assert_eq!(probes[1], 0b10); // flip of the low-margin bit 0
//! assert_eq!(probes[2], 0b01); // then the high-margin bit 1
//! # Ok::<(), ips_lsh::LshError>(())
//! ```

use crate::error::{LshError, Result};
use crate::hyperplane::HyperplaneFunction;
use ips_linalg::DenseVector;

/// The `limit` cheapest flip masks offered so far, cheapest first. Masks are offered in
/// the enumeration order the probe sequence is defined by, and among equal costs the
/// earlier offer wins — what a stable sort by cost of the whole enumeration, cut at
/// `limit`, keeps, without holding more than `limit` masks at a time.
struct Cheapest {
    limit: usize,
    kept: Vec<(f64, u64)>,
}

impl Cheapest {
    fn offer(&mut self, cost: f64, mask: u64) {
        if self.kept.len() == self.limit {
            match self.kept.last() {
                Some(worst) if cost.total_cmp(&worst.0).is_lt() => self.kept.pop(),
                _ => return,
            };
        }
        let at = self
            .kept
            .partition_point(|kept| kept.0.total_cmp(&cost).is_le());
        self.kept.insert(at, (cost, mask));
    }
}

/// The sign word of a hyperplane hash given its margins `gᵢᵀv`: bit `i` is set when
/// margin `i` is non-negative.
pub(crate) fn sign_bucket(margins: &[f64]) -> u64 {
    margins
        .iter()
        .enumerate()
        .fold(0u64, |bucket, (i, &m)| bucket | (u64::from(m >= 0.0) << i))
}

/// The probe sequence of the sign word of `margins` (at most 64): the home bucket, then
/// up to `extra` perturbed buckets in increasing cost order, as the module docs define
/// it. Distinct masks give distinct words, so no bucket is named twice.
pub(crate) fn sign_probes(margins: &[f64], extra: usize) -> Vec<u64> {
    let home = sign_bucket(margins);
    if extra == 0 {
        return vec![home];
    }
    let mut cheapest = Cheapest {
        limit: extra,
        kept: Vec::new(),
    };
    let costs: Vec<f64> = margins.iter().map(|m| m * m).collect();
    for (i, &cost) in costs.iter().enumerate() {
        cheapest.offer(cost, 1 << i);
    }
    for (i, &a) in costs.iter().enumerate() {
        for (j, &b) in costs.iter().enumerate().skip(i + 1) {
            cheapest.offer(a + b, (1 << i) | (1 << j));
        }
    }
    let mut out = Vec::with_capacity(1 + cheapest.kept.len());
    out.push(home);
    out.extend(cheapest.kept.iter().map(|&(_, mask)| home ^ mask));
    out
}

impl HyperplaneFunction {
    /// The buckets to visit for `q`: the home bucket ([`HashFunction::hash`]) first,
    /// then up to `extra` perturbed buckets in increasing cost order (decreasing
    /// estimated collision probability; see the module docs). `extra = 0` returns
    /// exactly `[home]`, making the probed lookup bit-identical to the classical one.
    ///
    /// ```
    /// use ips_linalg::DenseVector;
    /// use ips_lsh::hyperplane::HyperplaneFunction;
    ///
    /// let f = HyperplaneFunction::from_planes(vec![
    ///     DenseVector::from(&[1.0, 0.0][..]),
    ///     DenseVector::from(&[0.0, 1.0][..]),
    /// ])?;
    /// let q = DenseVector::from(&[0.5, 0.5][..]);
    /// assert_eq!(f.probe_query(&q, 0)?.len(), 1); // home only
    /// assert_eq!(f.probe_query(&q, 3)?.len(), 4); // home + both flips + pair
    /// assert_eq!(f.probe_query(&q, 99)?.len(), 4); // capped at the flip space
    /// # Ok::<(), ips_lsh::LshError>(())
    /// ```
    ///
    /// [`HashFunction::hash`]: crate::traits::HashFunction::hash
    pub fn probe_query(&self, q: &DenseVector, extra: usize) -> Result<Vec<u64>> {
        let mut margins = Vec::with_capacity(self.planes().len());
        for plane in self.planes() {
            if plane.dim() != q.dim() {
                return Err(LshError::DimensionMismatch {
                    expected: plane.dim(),
                    actual: q.dim(),
                });
            }
            margins.push(plane.dot(q)?);
        }
        Ok(sign_probes(&margins, extra))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hyperplane::HyperplaneFamily;
    use crate::simple_alsh::SimpleAlshFamily;
    use crate::traits::{AsymmetricHashFunction, AsymmetricLshFamily, HashFunction, LshFamily};
    use ips_linalg::random::{random_ball_vector, random_unit_vector};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn axis_planes() -> HyperplaneFunction {
        HyperplaneFunction::from_planes(vec![
            DenseVector::from(&[1.0, 0.0, 0.0][..]),
            DenseVector::from(&[0.0, 1.0, 0.0][..]),
            DenseVector::from(&[0.0, 0.0, 1.0][..]),
        ])
        .unwrap()
    }

    #[test]
    fn home_bucket_matches_hash_and_leads_the_sequence() {
        let f = axis_planes();
        let q = DenseVector::from(&[0.1, -0.7, 0.3][..]);
        let home = f.hash(&q).unwrap();
        for extra in [0usize, 1, 3, 6, 100] {
            let probes = f.probe_query(&q, extra).unwrap();
            assert_eq!(probes[0], home);
            assert!(probes.len() <= 1 + extra);
            // 3 bits → home + 3 singles + 3 pairs = 7 distinct buckets at most.
            assert!(probes.len() <= 7);
        }
        assert!(f.probe_query(&DenseVector::zeros(2), 1).is_err());
    }

    #[test]
    fn probe_order_follows_margins() {
        let f = axis_planes();
        // Margins 0.1 < 0.3 < 0.7 in coordinates 0, 2, 1.
        let q = DenseVector::from(&[0.1, -0.7, 0.3][..]);
        let probes = f.probe_query(&q, 6).unwrap();
        let home = 0b101u64; // signs +, −, +
        assert_eq!(
            probes,
            vec![
                home,
                home ^ 0b001, // flip bit 0: cost 0.01
                home ^ 0b100, // flip bit 2: cost 0.09
                home ^ 0b101, // bits 0+2: cost 0.10
                home ^ 0b010, // bit 1: cost 0.49
                home ^ 0b011, // bits 0+1: cost 0.50
                home ^ 0b110, // bits 1+2: cost 0.58
            ]
        );
    }

    #[test]
    fn zero_extra_is_exactly_the_home_bucket() {
        let mut rng = StdRng::seed_from_u64(7);
        let fam = HyperplaneFamily::new(12, 9).unwrap();
        let f = fam.sample(&mut rng).unwrap();
        for _ in 0..10 {
            let q = random_unit_vector(&mut rng, 12).unwrap();
            assert_eq!(f.probe_query(&q, 0).unwrap(), vec![f.hash(&q).unwrap()]);
        }
    }

    #[test]
    fn simple_alsh_probes_match_the_query_side_hash() {
        let mut rng = StdRng::seed_from_u64(8);
        let fam = SimpleAlshFamily::new(6, 1.0, 4).unwrap();
        let f = fam.sample(&mut rng).unwrap();
        let q = random_ball_vector(&mut rng, 6, 1.0).unwrap();
        let embedded = f.transform().transform_query(&q).unwrap();
        let probes = f.hyperplane().probe_query(&embedded, 3).unwrap();
        assert_eq!(probes[0], f.hash_query(&q).unwrap());
        assert_eq!(probes.len(), 4);
    }

    /// The enumeration as first written: every single and every pair, stable-sorted by
    /// cost, cut at `extra`.
    fn exhaustive_probes(margins: &[f64], extra: usize) -> Vec<u64> {
        let home = sign_bucket(margins);
        let cost = |i: usize| margins[i] * margins[i];
        let mut candidates: Vec<(f64, u64)> = (0..margins.len())
            .map(|i| (cost(i), home ^ (1 << i)))
            .collect();
        for i in 0..margins.len() {
            for j in (i + 1)..margins.len() {
                candidates.push((cost(i) + cost(j), home ^ (1 << i) ^ (1 << j)));
            }
        }
        candidates.sort_by(|a, b| a.0.total_cmp(&b.0));
        candidates.truncate(extra);
        let mut out = vec![home];
        out.extend(candidates.into_iter().map(|(_, word)| word));
        out
    }

    #[test]
    fn pruned_lazy_enumeration_matches_the_exhaustive_one() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(12);
        for case in 0..300 {
            let planes = rng.gen_range(1..=30);
            // A few distinct magnitudes, so ties (and all-zero margins) are common and
            // the generation-order tie-break is what decides; signs at random.
            let margins: Vec<f64> = (0..planes)
                .map(|_| {
                    let magnitude = match case % 3 {
                        0 => 0.0,
                        1 => f64::from(rng.gen_range(0..3u8)),
                        _ => rng.gen_range(0.0..1.0),
                    };
                    if rng.gen() {
                        magnitude
                    } else {
                        -magnitude
                    }
                })
                .collect();
            for extra in [0usize, 1, 2, 5, 8, 40, usize::MAX] {
                let probes = sign_probes(&margins, extra);
                assert_eq!(
                    probes,
                    exhaustive_probes(&margins, extra),
                    "case {case}, extra {extra}"
                );
                let mut distinct = probes.clone();
                distinct.sort_unstable();
                distinct.dedup();
                assert_eq!(distinct.len(), probes.len(), "case {case}, extra {extra}");
            }
        }
    }

    #[test]
    fn probe_sequence_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(11);
        let fam = HyperplaneFamily::new(8, 5).unwrap();
        let f = fam.sample(&mut rng).unwrap();
        let q = random_ball_vector(&mut rng, 8, 1.0).unwrap();
        let a = f.probe_query(&q, 12).unwrap();
        let b = f.probe_query(&q, 12).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 13);
    }
}

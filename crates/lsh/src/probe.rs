//! Query-directed probe sequences — multi-probe LSH as a hash-trait extension.
//!
//! The classical OR-construction needs `L ≈ n^ρ` independent tables for constant
//! recall, and table memory is usually the binding constraint in practice
//! (see ROADMAP: million-user memory scale). Multi-probe LSH trades tables for
//! extra bucket lookups: in each table the query also visits the buckets it was
//! *closest* to landing in, in decreasing order of estimated collision
//! probability. This module makes the idea *compositional*, so the production
//! indexes ([`crate::table::LshIndex`] under both the SIMPLE-ALSH and symmetric
//! hyperplane families) can probe without changing their structure:
//!
//! * [`ProbeSequence`] extends a hash function with a query-directed probe
//!   generator. For a hyperplane hash the perturbations are sign flips of the
//!   bits with the smallest squared margins `|gᵀq|²` — exactly the bits a small
//!   perturbation of `q` would flip first, which is why probe order tracks
//!   collision-probability order (see `docs/ARCHITECTURE.md`, "Probing layer").
//! * The implementation for [`AndFunction`] composes component sequences through
//!   the order-sensitive bucket-key chain ([`combine_hashes`]), substituting one
//!   (or two, across distinct components) perturbed component hashes and
//!   re-chaining.
//! * The enumeration itself is one function over component home hashes and atoms
//!   (`compose_probes`), shared with [`crate::bank::PlaneBank::probe_keys`], which
//!   feeds it the margins of its single pass — so an index hashed through the bank
//!   visits exactly the buckets the trait implementations here name.
//!
//! Throughout this module `extra` / `probes` counts **additional buckets beyond
//! the home bucket**: `0` means the classical single-bucket lookup, bit-identical
//! to [`crate::table::LshIndex::query_candidates`].

use crate::amplify::{combine_hashes, AndFunction};
use crate::error::Result;
use crate::hyperplane::HyperplaneFunction;
use crate::simple_alsh::SimpleAlshFunction;
use crate::traits::SymmetricFunctionPair;
use ips_linalg::DenseVector;

/// One candidate perturbation: a complete alternate hash value for the function,
/// together with the cost (total squared margin of the flipped signs) used to
/// order probes from most to least promising.
///
/// ```
/// use ips_lsh::probe::ProbeFlip;
///
/// let near = ProbeFlip { hash: 0b0111, cost: 0.01 };
/// let far = ProbeFlip { hash: 0b1101, cost: 0.81 };
/// // Lower cost ⇒ higher estimated collision probability ⇒ probed earlier.
/// assert!(near.cost < far.cost);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeFlip {
    /// The alternate bucket key this perturbation hashes the query to.
    pub hash: u64,
    /// Sum of squared hyperplane margins of the flipped signs; `0` is the home
    /// bucket, larger means less likely to collide.
    pub cost: f64,
}

/// Extension trait for hash functions that can enumerate query-directed probes.
///
/// Implementations must be **deterministic**: the same function and query always
/// produce the same probe order (ties in cost are broken by generation order,
/// via a stable sort). This is what keeps probed lookups bit-identical across
/// processes and across shard counts that share structure seeds.
///
/// ```
/// use ips_linalg::DenseVector;
/// use ips_lsh::hyperplane::HyperplaneFunction;
/// use ips_lsh::probe::ProbeSequence;
///
/// // Two axis-aligned hyperplanes: bucket bits are the coordinate signs.
/// let f = HyperplaneFunction::from_planes(vec![
///     DenseVector::from(&[1.0, 0.0][..]),
///     DenseVector::from(&[0.0, 1.0][..]),
/// ])?;
/// // The query is barely on the positive side of plane 0, firmly positive on
/// // plane 1 — so the cheapest probe flips bit 0.
/// let q = DenseVector::from(&[0.05, 0.9][..]);
/// let probes = f.probe_query(&q, 2)?;
/// assert_eq!(probes[0], 0b11); // home bucket first
/// assert_eq!(probes[1], 0b10); // flip of the low-margin bit 0
/// assert_eq!(probes[2], 0b01); // then the high-margin bit 1
/// # Ok::<(), ips_lsh::LshError>(())
/// ```
pub trait ProbeSequence {
    /// The query's home hash plus every *single*-perturbation alternate, each a
    /// complete replacement hash value with its cost. This is the composition
    /// primitive: [`AndFunction`] builds its own probe set out of its
    /// components' atoms.
    ///
    /// ```
    /// use ips_linalg::DenseVector;
    /// use ips_lsh::hyperplane::HyperplaneFunction;
    /// use ips_lsh::probe::ProbeSequence;
    ///
    /// let f = HyperplaneFunction::from_planes(vec![
    ///     DenseVector::from(&[1.0, 0.0][..]),
    ///     DenseVector::from(&[0.0, 1.0][..]),
    /// ])?;
    /// let (home, atoms) = f.probe_atoms(&DenseVector::from(&[0.3, -0.4][..]))?;
    /// assert_eq!(home, 0b01);
    /// assert_eq!(atoms.len(), 2); // one single-bit flip per plane
    /// assert_eq!(atoms[0].hash, 0b00);
    /// assert!((atoms[0].cost - 0.09).abs() < 1e-12); // margin 0.3 squared
    /// # Ok::<(), ips_lsh::LshError>(())
    /// ```
    fn probe_atoms(&self, q: &DenseVector) -> Result<(u64, Vec<ProbeFlip>)>;

    /// The buckets to visit for `q`: the home bucket first, then up to `extra`
    /// perturbed buckets in increasing cost order (decreasing estimated
    /// collision probability). `extra = 0` returns exactly `[home]`, making the
    /// probed lookup bit-identical to the classical one.
    ///
    /// ```
    /// use ips_linalg::DenseVector;
    /// use ips_lsh::hyperplane::HyperplaneFunction;
    /// use ips_lsh::probe::ProbeSequence;
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
    fn probe_query(&self, q: &DenseVector, extra: usize) -> Result<Vec<u64>>;
}

/// The `limit` cheapest of the candidate perturbations offered so far, cheapest
/// first. Candidates are offered in the enumeration order the probe sequence is
/// defined by, and among equal costs the earlier offer wins — what a stable sort by
/// cost of the whole enumeration, cut at `limit`, keeps, without holding (or keying)
/// more than `limit` candidates at a time.
struct Cheapest<C> {
    limit: usize,
    kept: Vec<(f64, C)>,
}

impl<C> Cheapest<C> {
    fn new(limit: usize) -> Self {
        Self {
            limit,
            kept: Vec::new(),
        }
    }

    fn offer(&mut self, cost: f64, candidate: C) {
        if self.kept.len() == self.limit {
            match self.kept.last() {
                Some(worst) if cost.total_cmp(&worst.0).is_lt() => self.kept.pop(),
                _ => return,
            };
        }
        let at = self
            .kept
            .partition_point(|kept| kept.0.total_cmp(&cost).is_le());
        self.kept.insert(at, (cost, candidate));
    }

    /// The probe sequence: the home bucket, then the kept candidates' bucket keys.
    fn into_probes(self, home: u64, key: impl Fn(C) -> u64) -> Vec<u64> {
        let mut out = Vec::with_capacity(1 + self.kept.len());
        out.push(home);
        for (_, candidate) in self.kept {
            // Distinct perturbations can in principle chain to the same bucket key;
            // visiting a bucket twice would only waste a lookup, so drop repeats.
            let key = key(candidate);
            if !out.contains(&key) {
                out.push(key);
            }
        }
        out
    }
}

/// The bucket of a hyperplane hash given its margins `gᵢᵀv`: bit `i` is set when
/// margin `i` is non-negative.
pub(crate) fn sign_bucket(margins: &[f64]) -> u64 {
    margins
        .iter()
        .enumerate()
        .fold(0u64, |bucket, (i, &m)| bucket | (u64::from(m >= 0.0) << i))
}

/// Appends the single-bit perturbations of a hyperplane hash to `atoms`, in bit
/// order: flipping bit `i` costs its squared margin.
pub(crate) fn push_flips(home: u64, margins: &[f64], atoms: &mut Vec<ProbeFlip>) {
    atoms.extend(margins.iter().enumerate().map(|(i, m)| ProbeFlip {
        hash: home ^ (1u64 << i),
        cost: m * m,
    }));
}

impl ProbeSequence for HyperplaneFunction {
    fn probe_atoms(&self, q: &DenseVector) -> Result<(u64, Vec<ProbeFlip>)> {
        let mut margins = Vec::with_capacity(self.planes().len());
        for plane in self.planes() {
            if plane.dim() != q.dim() {
                return Err(crate::error::LshError::DimensionMismatch {
                    expected: plane.dim(),
                    actual: q.dim(),
                });
            }
            margins.push(plane.dot(q)?);
        }
        let home = sign_bucket(&margins);
        let mut atoms = Vec::with_capacity(margins.len());
        push_flips(home, &margins, &mut atoms);
        Ok((home, atoms))
    }

    fn probe_query(&self, q: &DenseVector, extra: usize) -> Result<Vec<u64>> {
        let (home, atoms) = self.probe_atoms(q)?;
        if extra == 0 {
            return Ok(vec![home]);
        }
        // Singles, then all two-bit flips (XOR composes flips exactly for a
        // hyperplane bucket), in ascending bit order for determinism.
        let mut cheapest = Cheapest::new(extra);
        for a in &atoms {
            cheapest.offer(a.cost, a.hash);
        }
        for (i, a) in atoms.iter().enumerate() {
            for b in &atoms[i + 1..] {
                cheapest.offer(a.cost + b.cost, a.hash ^ b.hash ^ home);
            }
        }
        Ok(cheapest.into_probes(home, |hash| hash))
    }
}

impl ProbeSequence for SimpleAlshFunction {
    fn probe_atoms(&self, q: &DenseVector) -> Result<(u64, Vec<ProbeFlip>)> {
        let embedded = self.transform().transform_query(q)?;
        self.hyperplane().probe_atoms(&embedded)
    }

    fn probe_query(&self, q: &DenseVector, extra: usize) -> Result<Vec<u64>> {
        let embedded = self.transform().transform_query(q)?;
        self.hyperplane().probe_query(&embedded, extra)
    }
}

impl<H: ProbeSequence + Send + Sync> ProbeSequence for SymmetricFunctionPair<H> {
    fn probe_atoms(&self, q: &DenseVector) -> Result<(u64, Vec<ProbeFlip>)> {
        self.0.probe_atoms(q)
    }

    fn probe_query(&self, q: &DenseVector, extra: usize) -> Result<Vec<u64>> {
        self.0.probe_query(q, extra)
    }
}

/// The probe sequence of a `k`-component AND-function from its components' home
/// hashes and single-perturbation atoms (`atoms[starts[i]..starts[i + 1]]` belong to
/// component `i`): the home key, then the `extra` cheapest of
///
/// * every atom substituted for its component's hash, in component then atom order;
/// * every pair of atoms from two *distinct* components `i < j`, in `(i, j)` then
///   atom order, costing the sum of the two;
///
/// cheapest first, ties in that enumeration order, repeated keys dropped.
///
/// Only the survivors are chained into bucket keys, each from the chain's prefix up
/// to its first substituted component (the chain is order-sensitive, see
/// [`combine_hashes`], so everything after a substitution is re-chained).
pub(crate) fn compose_probes(
    homes: &[u64],
    atoms: &[ProbeFlip],
    starts: &[usize],
    extra: usize,
) -> Vec<u64> {
    // prefix[i] chains homes[..i]; prefix[k] is the home key.
    let mut prefix = Vec::with_capacity(homes.len() + 1);
    prefix.push(0u64);
    for &h in homes {
        prefix.push(combine_hashes(prefix[prefix.len() - 1], h));
    }
    let home = prefix[homes.len()];
    if extra == 0 {
        return vec![home];
    }
    let of = |i: usize| &atoms[starts[i]..starts[i + 1]];
    type Substitution = (usize, u64);
    let mut cheapest: Cheapest<(Substitution, Option<Substitution>)> = Cheapest::new(extra);
    for i in 0..homes.len() {
        for a in of(i) {
            cheapest.offer(a.cost, ((i, a.hash), None));
        }
    }
    for i in 0..homes.len() {
        for j in (i + 1)..homes.len() {
            for a in of(i) {
                for b in of(j) {
                    cheapest.offer(a.cost + b.cost, ((i, a.hash), Some((j, b.hash))));
                }
            }
        }
    }
    cheapest.into_probes(home, |((i, first), second)| {
        let mut key = combine_hashes(prefix[i], first);
        for (offset, &h) in homes[i + 1..].iter().enumerate() {
            let substituted = second.filter(|&(j, _)| j == i + 1 + offset);
            key = combine_hashes(key, substituted.map_or(h, |(_, hash)| hash));
        }
        key
    })
}

/// Home hashes, flattened atoms and per-component atom offsets of an AND-function's
/// components — the inputs of [`compose_probes`].
fn component_atoms<H: ProbeSequence>(
    functions: &[H],
    q: &DenseVector,
) -> Result<(Vec<u64>, Vec<ProbeFlip>, Vec<usize>)> {
    let mut homes = Vec::with_capacity(functions.len());
    let mut atoms = Vec::new();
    let mut starts = Vec::with_capacity(functions.len() + 1);
    for f in functions {
        let (home, component) = f.probe_atoms(q)?;
        homes.push(home);
        starts.push(atoms.len());
        atoms.extend(component);
    }
    starts.push(atoms.len());
    Ok((homes, atoms, starts))
}

/// Probing composes through the AND-construction by perturbing one component at
/// a time (atoms) or two *distinct* components (pairs in [`probe_query`]).
///
/// Perturbing two atoms *within* one component is not enumerated — that would
/// require structure knowledge the component hash does not expose. Both
/// production families (`SimpleAlshFamily` and the symmetric hyperplane family)
/// use single-sign components, where every multi-sign perturbation *is* a
/// cross-component pair, so the enumeration is exact for them.
///
/// [`probe_query`]: ProbeSequence::probe_query
impl<H: ProbeSequence + Send + Sync> ProbeSequence for AndFunction<H> {
    fn probe_atoms(&self, q: &DenseVector) -> Result<(u64, Vec<ProbeFlip>)> {
        let (homes, atoms, starts) = component_atoms(self.functions(), q)?;
        let chain = |substituted: Option<(usize, u64)>| {
            homes.iter().enumerate().fold(0u64, |key, (i, &h)| {
                let value = substituted.filter(|&(j, _)| j == i).map_or(h, |(_, s)| s);
                combine_hashes(key, value)
            })
        };
        let mut out = Vec::with_capacity(atoms.len());
        for i in 0..homes.len() {
            for a in &atoms[starts[i]..starts[i + 1]] {
                out.push(ProbeFlip {
                    hash: chain(Some((i, a.hash))),
                    cost: a.cost,
                });
            }
        }
        Ok((chain(None), out))
    }

    fn probe_query(&self, q: &DenseVector, extra: usize) -> Result<Vec<u64>> {
        let (homes, atoms, starts) = component_atoms(self.functions(), q)?;
        Ok(compose_probes(&homes, &atoms, &starts, extra))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hyperplane::HyperplaneFamily;
    use crate::simple_alsh::SimpleAlshFamily;
    use crate::traits::{
        AsymmetricHashFunction, AsymmetricLshFamily, HashFunction, LshFamily, SymmetricAsAsymmetric,
    };
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
        let (home, atoms) = f.probe_atoms(&q).unwrap();
        assert_eq!(home, f.hash(&q).unwrap());
        assert_eq!(atoms.len(), 3);
        for extra in [0usize, 1, 3, 6, 100] {
            let probes = f.probe_query(&q, extra).unwrap();
            assert_eq!(probes[0], home);
            assert!(probes.len() <= 1 + extra);
            // 3 bits → home + 3 singles + 3 pairs = 7 distinct buckets at most.
            assert!(probes.len() <= 7);
        }
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
        let probes = f.probe_query(&q, 3).unwrap();
        assert_eq!(probes[0], f.hash_query(&q).unwrap());
        assert_eq!(probes.len(), 4);
    }

    #[test]
    fn and_function_home_matches_composite_query_hash() {
        let mut rng = StdRng::seed_from_u64(9);
        // Symmetric single-bit components — the production shape.
        let base = SymmetricAsAsymmetric(HyperplaneFamily::single_bit(10).unwrap());
        let composite = crate::amplify::AndConstruction::new(base, 6).unwrap();
        let f = composite.sample(&mut rng).unwrap();
        let q = random_unit_vector(&mut rng, 10).unwrap();
        let (home, atoms) = f.probe_atoms(&q).unwrap();
        assert_eq!(home, f.hash_query(&q).unwrap());
        // One atom per single-bit component.
        assert_eq!(atoms.len(), 6);
        let probes = f.probe_query(&q, 10).unwrap();
        assert_eq!(probes[0], home);
        assert_eq!(probes.len(), 11);
        // All distinct.
        let unique: std::collections::HashSet<u64> = probes.iter().copied().collect();
        assert_eq!(unique.len(), probes.len());
    }

    #[test]
    fn and_function_single_substitution_rechains_correctly() {
        let mut rng = StdRng::seed_from_u64(10);
        let base = SymmetricAsAsymmetric(HyperplaneFamily::single_bit(8).unwrap());
        let composite = crate::amplify::AndConstruction::new(base, 4).unwrap();
        let f = composite.sample(&mut rng).unwrap();
        let q = random_unit_vector(&mut rng, 8).unwrap();
        let (_, atoms) = f.probe_atoms(&q).unwrap();
        // Each atom must equal the chain with exactly that component's hash
        // replaced by its (single-bit) flip.
        let homes: Vec<u64> = f
            .functions()
            .iter()
            .map(|c| c.hash_query(&q).unwrap())
            .collect();
        for (i, atom) in atoms.iter().enumerate() {
            let mut perturbed = homes.clone();
            perturbed[i] ^= 1; // single-bit component: the flip is bit 0
            let mut acc = 0u64;
            for h in &perturbed {
                acc = combine_hashes(acc, *h);
            }
            assert_eq!(atom.hash, acc);
        }
    }

    /// Folds component hashes into the composite bucket key, substituting up to two
    /// components.
    fn chain_with(homes: &[u64], subs: &[(usize, u64)]) -> u64 {
        let mut acc = 0u64;
        for (i, &h) in homes.iter().enumerate() {
            let value = subs
                .iter()
                .find(|&&(j, _)| j == i)
                .map(|&(_, s)| s)
                .unwrap_or(h);
            acc = combine_hashes(acc, value);
        }
        acc
    }

    /// The enumeration as first written: chain every single and every
    /// cross-component pair, stable-sort by cost, cut, drop repeated keys.
    fn exhaustive_probes(
        homes: &[u64],
        atoms: &[ProbeFlip],
        starts: &[usize],
        extra: usize,
    ) -> Vec<u64> {
        let of = |i: usize| &atoms[starts[i]..starts[i + 1]];
        let mut candidates = Vec::new();
        for i in 0..homes.len() {
            for a in of(i) {
                candidates.push((a.cost, chain_with(homes, &[(i, a.hash)])));
            }
        }
        for i in 0..homes.len() {
            for j in (i + 1)..homes.len() {
                for a in of(i) {
                    for b in of(j) {
                        let key = chain_with(homes, &[(i, a.hash), (j, b.hash)]);
                        candidates.push((a.cost + b.cost, key));
                    }
                }
            }
        }
        candidates.sort_by(|a, b| a.0.total_cmp(&b.0));
        candidates.truncate(extra);
        let mut out = vec![chain_with(homes, &[])];
        for (_, key) in candidates {
            if !out.contains(&key) {
                out.push(key);
            }
        }
        out
    }

    #[test]
    fn pruned_lazy_enumeration_matches_the_exhaustive_one() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(12);
        for case in 0..300 {
            let components = rng.gen_range(1..=10);
            let mut homes = Vec::new();
            let mut atoms = Vec::new();
            let mut starts = vec![0];
            for _ in 0..components {
                let home: u64 = rng.gen_range(0..8);
                homes.push(home);
                for bit in 0..rng.gen_range(0..=3) {
                    // A few distinct costs, so ties (and all-zero margins) are common
                    // and the generation-order tie-break is what decides.
                    let cost = match case % 3 {
                        0 => 0.0,
                        1 => f64::from(rng.gen_range(0..3u8)),
                        _ => rng.gen_range(0.0..1.0),
                    };
                    atoms.push(ProbeFlip {
                        hash: home ^ (1 << bit),
                        cost,
                    });
                }
                starts.push(atoms.len());
            }
            for extra in [0usize, 1, 2, 5, 8, 40, usize::MAX] {
                assert_eq!(
                    compose_probes(&homes, &atoms, &starts, extra),
                    exhaustive_probes(&homes, &atoms, &starts, extra),
                    "case {case}, extra {extra}"
                );
            }
        }
    }

    #[test]
    fn probe_sequence_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(11);
        let fam = SimpleAlshFamily::new(8, 1.0, 1).unwrap();
        let composite = crate::amplify::AndConstruction::new(fam, 5).unwrap();
        let f = composite.sample(&mut rng).unwrap();
        let q = random_ball_vector(&mut rng, 8, 1.0).unwrap();
        let a = f.probe_query(&q, 12).unwrap();
        let b = f.probe_query(&q, 12).unwrap();
        assert_eq!(a, b);
    }
}

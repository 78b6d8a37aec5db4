//! Explicit incoherent vector collections.
//!
//! Section 4.2 of the paper ("Symmetric LSH for almost all vectors") needs a collection
//! of `N = 2^{O(dk)}` unit vectors `v_1, …, v_N` such that `|v_iᵀv_j| ≤ ε` for all
//! `i ≠ j`, and — crucially — the collection must be *strongly explicit*: given an index
//! `u` (the bit pattern of a data/query vector) we must be able to compute `v_u`
//! directly, without materialising the whole collection. The paper cites the
//! Reed–Solomon construction of Nelson, Nguyễn and Woodruff \[38\].
//!
//! [`ReedSolomonCollection`] is that construction. A codeword of a Reed–Solomon code
//! over `GF(p)` of length `t` and degree `< k` is mapped to the unit vector in
//! `R^{t·p}` that places mass `1/√t` on the symbol chosen in each position. Two
//! distinct degree-`< k` polynomials agree on at most `k − 1` evaluation points, so the
//! pairwise inner products are at most `(k − 1)/t ≤ ε`. The collection indexes
//! `p^k ≥ N` vectors.
//!
//! **Two forms of one vector.** A Reed–Solomon vector has `t` non-zero coordinates
//! out of `t·p`, all equal to `1/√t`, so it is fully described by its `t` *symbols*:
//! the coordinate `x·p + f(x)` chosen inside block `x`. [`ReedSolomonCollection::symbols`]
//! produces exactly those, in ascending order, with no vector; the Section 4.2 index
//! hashes from them (selected by a [`Fingerprint`] of the vector's encoding) and never
//! builds the dense form. [`ReedSolomonCollection::vector`] is kept as the definition
//! the symbols are tested against. The polynomial is evaluated from a table of
//! `x^i mod p` with one reduction per point: every term is below `p²` and the
//! constructors refuse parameters whose `k` terms could overflow a `u64`.

use crate::error::{LinalgError, Result};
use crate::vector::DenseVector;

/// Returns `true` when `n` is prime (trial division; inputs here are tiny).
fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    if n.is_multiple_of(2) {
        return n == 2;
    }
    let mut d = 3u64;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 2;
    }
    true
}

/// Smallest prime `≥ n`.
fn next_prime(mut n: u64) -> u64 {
    if n <= 2 {
        return 2;
    }
    if n.is_multiple_of(2) {
        n += 1;
    }
    while !is_prime(n) {
        n += 2;
    }
    n
}

/// A deterministic, strongly explicit collection of pairwise ε-incoherent unit vectors
/// built from Reed–Solomon codes over `GF(p)`.
#[derive(Debug, Clone)]
pub struct ReedSolomonCollection {
    /// Field size (prime).
    p: u64,
    /// Code length: number of evaluation points, `t ≤ p`.
    t: u64,
    /// Message length: polynomials of degree `< k`.
    k: u32,
    /// Number of vectors the collection can index (`p^k`, saturating).
    capacity: u128,
    /// `powers[x·k + i] = x^i mod p` for every evaluation point `x < t`.
    powers: Vec<u32>,
}

/// The 128-bit FNV-1a fold that turns a byte string into a collection index, fed one
/// chunk at a time so a caller can hash an encoding it never materialises.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u128);

impl Fingerprint {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;

    /// The fold of the empty string.
    pub fn new() -> Self {
        Self(Self::OFFSET)
    }

    /// Folds `bytes` in, in order.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// The fold of everything fed so far.
    pub fn value(self) -> u128 {
        self.0
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl ReedSolomonCollection {
    /// Builds a collection able to index at least `min_vectors` vectors with pairwise
    /// coherence at most `epsilon`.
    ///
    /// Returns an error when `epsilon` is not in `(0, 1)` or `min_vectors == 0`.
    pub fn with_capacity(min_vectors: u128, epsilon: f64) -> Result<Self> {
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(LinalgError::InvalidParameter {
                name: "epsilon",
                reason: format!("coherence bound must be in (0,1), got {epsilon}"),
            });
        }
        if min_vectors == 0 {
            return Err(LinalgError::InvalidParameter {
                name: "min_vectors",
                reason: "collection must index at least one vector".to_string(),
            });
        }
        // Start with k = 2 (degree-1 polynomials) and grow until p^k >= min_vectors,
        // keeping t >= (k-1)/epsilon so that coherence (k-1)/t <= epsilon.
        let mut k: u32 = 2;
        loop {
            let t_needed = (((k - 1) as f64) / epsilon).ceil() as u64;
            let t = t_needed.max(2);
            let p = next_prime(t);
            let capacity = (p as u128).checked_pow(k).unwrap_or(u128::MAX);
            if capacity >= min_vectors {
                return Self::assemble(p, t, k);
            }
            k += 1;
            if k > 64 {
                return Err(LinalgError::InvalidParameter {
                    name: "min_vectors",
                    reason: "requested capacity too large for this construction".to_string(),
                });
            }
        }
    }

    /// Builds a collection with explicit Reed–Solomon parameters (mostly for tests).
    pub fn from_parameters(p: u64, t: u64, k: u32) -> Result<Self> {
        if !is_prime(p) {
            return Err(LinalgError::InvalidParameter {
                name: "p",
                reason: format!("{p} is not prime"),
            });
        }
        if t < 1 || t > p {
            return Err(LinalgError::InvalidParameter {
                name: "t",
                reason: format!("code length must satisfy 1 <= t <= p, got t={t}, p={p}"),
            });
        }
        if k < 1 {
            return Err(LinalgError::InvalidParameter {
                name: "k",
                reason: "message length must be at least 1".to_string(),
            });
        }
        Self::assemble(p, t, k)
    }

    /// Fills the power table of already-validated Reed–Solomon parameters.
    ///
    /// Refuses collections nothing could use: vectors of `2^32` coordinates or more,
    /// and fields so large that the `k` terms of one evaluation could overflow a
    /// `u64`. (Both bound the table: `t ≤ p` and `t·p < 2^32` leave it under
    /// `2^16·k` entries.)
    fn assemble(p: u64, t: u64, k: u32) -> Result<Self> {
        let representable = t.checked_mul(p).is_some_and(|dim| dim <= u32::MAX as u64)
            && (p - 1)
                .checked_mul(p - 1)
                .and_then(|square| square.checked_mul(k as u64))
                .is_some();
        if !representable {
            return Err(LinalgError::InvalidParameter {
                name: "p",
                reason: format!("a code of length {t} over GF({p}) with {k} symbols is too large"),
            });
        }
        let mut powers = Vec::with_capacity((t * k as u64) as usize);
        for x in 0..t {
            let mut power = 1;
            for _ in 0..k {
                powers.push(power as u32);
                power = power * x % p;
            }
        }
        let capacity = (p as u128).checked_pow(k).unwrap_or(u128::MAX);
        Ok(Self {
            p,
            t,
            k,
            capacity,
            powers,
        })
    }

    /// Number of vectors the collection can index.
    pub fn capacity(&self) -> u128 {
        self.capacity
    }

    /// Dimension of the produced vectors (`t · p`).
    pub fn dim(&self) -> usize {
        (self.t * self.p) as usize
    }

    /// Number of non-zero coordinates of every produced vector: the code length `t`
    /// (one coordinate of weight `1/√t` per block of size `p`).
    pub fn nonzeros(&self) -> usize {
        self.t as usize
    }

    /// The guaranteed upper bound on `|v_iᵀv_j|` for `i ≠ j`: `(k − 1)/t`.
    pub fn coherence(&self) -> f64 {
        (self.k as f64 - 1.0) / self.t as f64
    }

    /// Returns the `index`-th vector of the collection.
    ///
    /// The index is interpreted base-`p` as the coefficient vector of a polynomial of
    /// degree `< k` which is then evaluated at the points `0, 1, …, t−1`; each evaluation
    /// selects one coordinate of weight `1/√t` inside a block of size `p`.
    pub fn vector(&self, index: u128) -> Result<DenseVector> {
        if index >= self.capacity {
            return Err(LinalgError::InvalidParameter {
                name: "index",
                reason: format!("index {index} exceeds capacity {}", self.capacity),
            });
        }
        // Decode the base-p digits (coefficients a_0 .. a_{k-1}).
        let mut coeffs = Vec::with_capacity(self.k as usize);
        let mut rest = index;
        for _ in 0..self.k {
            coeffs.push((rest % self.p as u128) as u64);
            rest /= self.p as u128;
        }
        let mut v = DenseVector::zeros(self.dim());
        let weight = self.weight();
        for x in 0..self.t {
            // Horner evaluation of the polynomial at point x, mod p.
            let mut val: u64 = 0;
            for &a in coeffs.iter().rev() {
                val = (val * x + a) % self.p;
            }
            let coord = (x * self.p + val) as usize;
            v[coord] = weight;
        }
        Ok(v)
    }

    /// The `t` non-zero coordinates of the `index`-th vector, ascending: `x·p + f(x)`
    /// for `x = 0, …, t−1`, where `f` is the polynomial
    /// [`ReedSolomonCollection::vector`] evaluates. Every one of them holds
    /// [`ReedSolomonCollection::weight`].
    pub fn symbols(&self, index: u128) -> Result<impl Iterator<Item = usize> + '_> {
        if index >= self.capacity {
            return Err(LinalgError::InvalidParameter {
                name: "index",
                reason: format!("index {index} exceeds capacity {}", self.capacity),
            });
        }
        // The base-p digits a_0, a_1, … of the index. A u128 has at most 128 of them
        // (p ≥ 2), so coefficients beyond are zero and their terms are left out.
        let k = self.k as usize;
        let mut coeffs = [0u64; 128];
        let digits = k.min(coeffs.len());
        let mut rest = index;
        for a in &mut coeffs[..digits] {
            // 128-bit division is a library call; all but the first digit or two of a
            // 2^64-capacity index come from the 64-bit branch.
            if let Ok(small) = u64::try_from(rest) {
                *a = small % self.p;
                rest = (small / self.p) as u128;
            } else {
                *a = (rest % self.p as u128) as u64;
                rest /= self.p as u128;
            }
        }
        let symbol = move |(x, powers): (usize, &[u32])| {
            // Each term is below p² and `assemble` checked that k of them fit.
            let sum: u64 = coeffs[..digits]
                .iter()
                .zip(powers)
                .map(|(&a, &power)| a * power as u64)
                .sum();
            x * self.p as usize + (sum % self.p) as usize
        };
        Ok(self.powers.chunks_exact(k).enumerate().map(symbol))
    }

    /// The value of every non-zero coordinate: `1/√t`.
    pub fn weight(&self) -> f64 {
        1.0 / (self.t as f64).sqrt()
    }

    /// The index a byte string's [`Fingerprint`] selects. Distinct strings may share a
    /// vector only when their folds agree modulo the capacity.
    pub fn index_for_fingerprint(&self, fingerprint: Fingerprint) -> u128 {
        fingerprint.value() % self.capacity
    }

    /// Returns the vector associated with an arbitrary byte string (e.g. the encoded
    /// coordinates of a data vector): the one its [`Fingerprint`] selects.
    pub fn vector_for_bytes(&self, bytes: &[u8]) -> Result<DenseVector> {
        let mut fingerprint = Fingerprint::new();
        fingerprint.update(bytes);
        self.vector(self.index_for_fingerprint(fingerprint))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primes() {
        assert!(is_prime(2) && is_prime(3) && is_prime(97));
        assert!(!is_prime(1) && !is_prime(91) && !is_prime(100));
        assert_eq!(next_prime(90), 97);
        assert_eq!(next_prime(2), 2);
        assert_eq!(next_prime(14), 17);
    }

    #[test]
    fn rs_vectors_are_unit_norm() {
        let coll = ReedSolomonCollection::from_parameters(7, 5, 2).unwrap();
        for i in 0..10u128 {
            let v = coll.vector(i).unwrap();
            assert!((v.norm() - 1.0).abs() < 1e-12);
            assert_eq!(v.dim(), coll.dim());
        }
    }

    #[test]
    fn rs_pairwise_coherence_bound_holds() {
        let coll = ReedSolomonCollection::from_parameters(11, 8, 2).unwrap();
        let bound = coll.coherence();
        let n = 40u128.min(coll.capacity());
        let vecs: Vec<DenseVector> = (0..n).map(|i| coll.vector(i).unwrap()).collect();
        for i in 0..vecs.len() {
            for j in (i + 1)..vecs.len() {
                let ip = vecs[i].dot(&vecs[j]).unwrap().abs();
                assert!(
                    ip <= bound + 1e-12,
                    "|v_{i}ᵀv_{j}| = {ip} exceeds bound {bound}"
                );
            }
        }
    }

    #[test]
    fn rs_capacity_construction() {
        let coll = ReedSolomonCollection::with_capacity(10_000, 0.25).unwrap();
        assert!(coll.capacity() >= 10_000);
        assert!(coll.coherence() <= 0.25 + 1e-12);
        assert!(ReedSolomonCollection::with_capacity(0, 0.25).is_err());
        assert!(ReedSolomonCollection::with_capacity(10, 1.5).is_err());
    }

    #[test]
    fn rs_invalid_parameters_rejected() {
        assert!(ReedSolomonCollection::from_parameters(10, 5, 2).is_err()); // not prime
        assert!(ReedSolomonCollection::from_parameters(7, 9, 2).is_err()); // t > p
        assert!(ReedSolomonCollection::from_parameters(7, 5, 0).is_err());
        let coll = ReedSolomonCollection::from_parameters(7, 5, 2).unwrap();
        assert!(coll.vector(coll.capacity()).is_err());
    }

    #[test]
    fn rs_symbols_are_the_non_zeros_of_the_vector_for_every_index() {
        // Small enough to enumerate, varied enough to cover t < p, t = p, k = 1, an
        // index of more digits than a u64 holds and more symbols than a u128 has digits.
        for (p, t, k) in [
            (2, 2, 5),
            (3, 3, 4),
            (5, 4, 3),
            (7, 5, 2),
            (11, 8, 2),
            (13, 13, 1),
        ] {
            let coll = ReedSolomonCollection::from_parameters(p, t, k).unwrap();
            for index in 0..coll.capacity() {
                let symbols: Vec<usize> = coll.symbols(index).unwrap().collect();
                let v = coll.vector(index).unwrap();
                let non_zeros: Vec<usize> = (0..v.dim()).filter(|&j| v[j] != 0.0).collect();
                assert_eq!(symbols, non_zeros, "({p}, {t}, {k}) index {index}");
                assert!(symbols.iter().all(|&j| v[j] == coll.weight()));
            }
            assert!(coll.symbols(coll.capacity()).is_err());
        }
        let wide = ReedSolomonCollection::with_capacity(1u128 << 64, 0.25).unwrap();
        let saturated = ReedSolomonCollection::from_parameters(2, 2, 200).unwrap();
        for (coll, index) in [
            (&wide, wide.capacity() - 1),
            (&wide, (1u128 << 64) + 12345),
            (&saturated, u128::MAX - 1),
        ] {
            let symbols: Vec<usize> = coll.symbols(index).unwrap().collect();
            let v = coll.vector(index).unwrap();
            let non_zeros: Vec<usize> = (0..v.dim()).filter(|&j| v[j] != 0.0).collect();
            assert_eq!(symbols, non_zeros);
        }
    }

    #[test]
    fn rs_refuses_parameters_nothing_could_use() {
        // 2^32 coordinates or more per vector.
        assert!(ReedSolomonCollection::from_parameters(65537, 65537, 2).is_err());
        assert!(ReedSolomonCollection::with_capacity(1u128 << 64, 1e-6).is_err());
        // k terms below p² that no longer fit a u64.
        assert!(ReedSolomonCollection::from_parameters(4294967291, 1, 3).is_err());
        assert!(ReedSolomonCollection::from_parameters(4294967291, 1, 1).is_ok());
    }

    #[test]
    fn rs_bytes_lookup_is_deterministic() {
        let coll = ReedSolomonCollection::with_capacity(1 << 20, 0.2).unwrap();
        let a = coll.vector_for_bytes(b"hello world").unwrap();
        let b = coll.vector_for_bytes(b"hello world").unwrap();
        let c = coll.vector_for_bytes(b"hello worle").unwrap();
        assert_eq!(a, b);
        assert!(a.dot(&c).unwrap().abs() <= coll.coherence() + 1e-12 || a == c);
    }

    #[test]
    fn gaussian_collection_coherence() {
        // The randomised alternative to the explicit collection (Johnson–Lindenstrauss):
        // i.i.d. unit vectors in dimension ⌈4 ε⁻² ln(N + 1)⌉ are pairwise ε-incoherent
        // with high probability.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let (eps, count) = (0.5_f64, 50);
        let dim = ((4.0 / (eps * eps)) * (count as f64 + 1.0).ln()).ceil() as usize;
        let vectors = crate::random::random_unit_vectors(&mut rng, count, dim).unwrap();
        for (i, a) in vectors.iter().enumerate() {
            for b in &vectors[i + 1..] {
                assert!(a.dot(b).unwrap().abs() <= eps, "coherence too large");
            }
        }
    }
}

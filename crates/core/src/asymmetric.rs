//! The Section 4.1 asymmetric LSH index for signed IPS.
//!
//! Construction (paper, Section 4.1): data vectors (unit ball) and query vectors (ball
//! of radius `U`) are mapped to the `(d+2)`-dimensional unit sphere with the asymmetric
//! map of \[39\] — `p ↦ (p, √(1−‖p‖²), 0)`, `q ↦ (q/U, 0, √(1−‖q‖²/U²))` — after which
//! signed inner product search *is* approximate near-neighbour search on the sphere
//! with distance threshold `r = √(2(1 − s/U))` and approximation
//! `c' = √((1 − cs/U)/(1 − s/U))`. Plugging in the optimal data-dependent sphere LSH \[9\]
//! gives the exponent of equation 3,
//!
//! ```text
//! ρ = (1 − s/U) / (1 + (1 − 2c)·s/U),
//! ```
//!
//! the DATA-DEP curve of Figure 2. The runnable index here uses hyperplane (SimHash)
//! hashing as the sphere substrate — the same reduction with the SIMP exponent — because
//! the data-dependent scheme of \[9\] is a theoretical construction; the ρ *formulas* for
//! both are exposed so the benchmarks can compare predicted exponents with measured
//! candidate-set sizes.

use crate::error::{CoreError, Result};
use crate::mips::{MipsIndex, SearchResult};
use crate::problem::JoinSpec;
use crate::slots::Renumbering;
use ips_linalg::par::Schedule;
use ips_linalg::DenseVector;
use ips_lsh::rho::{rho_data_dependent, rho_simple_alsh};
use ips_lsh::simple_alsh::SimpleAlshFamily;
use ips_lsh::table::{IndexParams, LshIndex, BUILD_BLOCK};
use rand::Rng;
use std::borrow::Cow;

/// Tuning parameters of the [`AlshMipsIndex`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlshParams {
    /// Radius `U` of the query domain (data vectors must lie in the unit ball).
    pub query_radius: f64,
    /// Number of hyperplane bits per table (the AND-construction width `k`).
    pub bits_per_table: usize,
    /// Number of hash tables (the OR-construction width `L`).
    pub tables: usize,
    /// Cap on the number of candidates that are exactly re-scored per query; `None`
    /// re-scores every candidate.
    pub rescore_limit: Option<usize>,
    /// Extra query-directed probe buckets visited per table (see `ips_lsh::probe`).
    /// `0` (the default) is the classical single-bucket lookup, bit-identical to the
    /// pre-probing behaviour; larger values trade lookups for fewer tables.
    pub probes: usize,
}

impl Default for AlshParams {
    fn default() -> Self {
        Self {
            query_radius: 1.0,
            bits_per_table: 12,
            tables: 32,
            rescore_limit: None,
            probes: 0,
        }
    }
}

/// The Section 4.1 MIPS index: ball-to-sphere reduction + multi-table sphere LSH +
/// exact re-scoring of candidates.
///
/// The index is *dynamic*: [`AlshMipsIndex::insert`] and [`AlshMipsIndex::delete`]
/// maintain the hash tables incrementally using the functions sampled at build time, so
/// a serving process can mutate a loaded index without rebuilding it. Deleted slots are
/// tombstoned (their vector stays in `data` to keep slot ids stable) but are removed
/// from every hash table, so they can never appear as candidates again.
///
/// The vectors are held as a [`Cow`]: a one-shot join builds over the caller's slice
/// and borrows it, the serving path hands over a `Vec` (`AlshMipsIndex<'static>`). The
/// first mutation of a borrowing index takes its own copy.
pub struct AlshMipsIndex<'a> {
    data: Cow<'a, [DenseVector]>,
    live: Vec<bool>,
    live_count: usize,
    index: LshIndex<SimpleAlshFamily>,
    spec: JoinSpec,
    params: AlshParams,
    /// Quantized mirror of `data` for the cheap candidate-scoring kernel
    /// ([`AlshMipsIndex::set_scoring`]); cleared by insert/delete, which fall
    /// back to exact scoring (correctness never depends on this tile).
    quant: Option<ips_linalg::QuantTile>,
    /// Lifetime tallies of the quantized candidate kernel's activity
    /// (scored/pruned/rescored) — the serving telemetry reads deltas of this.
    kernel_counters: crate::kernel::KernelCounters,
}

impl<'a> AlshMipsIndex<'a> {
    /// Builds the index over `data` — a `Vec` to own, a slice to borrow — for the
    /// given `(cs, s)` spec, hashing on every available CPU.
    ///
    /// Every data vector must lie in the unit ball; queries must lie in the ball of
    /// radius `params.query_radius`, and the spec's threshold must satisfy
    /// `0 < s ≤ U` for the reduction to make sense.
    pub fn build<R: Rng + ?Sized>(
        rng: &mut R,
        data: impl Into<Cow<'a, [DenseVector]>>,
        spec: JoinSpec,
        params: AlshParams,
    ) -> Result<Self> {
        Self::build_scheduled(Schedule::new(BUILD_BLOCK), rng, data, spec, params)
    }

    /// [`AlshMipsIndex::build`] under an explicit schedule; the index is the same at
    /// every thread count and block size. A build beside live traffic passes one thread.
    pub fn build_scheduled<R: Rng + ?Sized>(
        schedule: Schedule,
        rng: &mut R,
        data: impl Into<Cow<'a, [DenseVector]>>,
        spec: JoinSpec,
        params: AlshParams,
    ) -> Result<Self> {
        let data = data.into();
        if data.is_empty() {
            return Err(CoreError::EmptyDataSet);
        }
        if spec.threshold > params.query_radius {
            return Err(CoreError::InvalidParameter {
                name: "spec.threshold",
                reason: format!(
                    "threshold {} exceeds the query radius {}; no pair can satisfy the promise",
                    spec.threshold, params.query_radius
                ),
            });
        }
        let dim = data[0].dim();
        for v in data.iter() {
            if v.dim() != dim {
                return Err(CoreError::DimensionMismatch {
                    expected: dim,
                    actual: v.dim(),
                });
            }
            // Negated so that a NaN norm is refused too.
            if !(v.norm() <= 1.0 + 1e-9) {
                return Err(CoreError::InvalidParameter {
                    name: "data",
                    reason: format!("data vector norm {} exceeds 1", v.norm()),
                });
            }
        }
        let family = SimpleAlshFamily::new(dim, params.query_radius, 1)?;
        let index_params = IndexParams {
            k: params.bits_per_table,
            l: params.tables,
        };
        let index = LshIndex::build_scheduled(schedule, &family, index_params, &data, rng)?;
        let live_count = data.len();
        Ok(Self {
            live: vec![true; live_count],
            live_count,
            data,
            index,
            spec,
            params,
            quant: None,
            kernel_counters: crate::kernel::KernelCounters::new(),
        })
    }

    /// Applies a scoring-kernel selection: `quantized=true` packs the data
    /// into an `i8` tile so candidate scoring runs through the cheap
    /// prune-and-exact-rescore kernel (identical results — see
    /// [`crate::kernel`]). `dtype` does not apply to LSH candidate scoring
    /// (the candidate sets are small; the win is in the integer kernel), so
    /// only the `quantized` knob has an effect here.
    ///
    /// A subsequent [`AlshMipsIndex::insert`] or [`AlshMipsIndex::delete`]
    /// clears the tile and falls back to exact scoring; call this again after
    /// a batch of mutations to re-enable the cheap kernel.
    pub fn set_scoring(&mut self, options: crate::kernel::ScoringOptions) -> Result<()> {
        self.quant = if options.quantized {
            Some(ips_linalg::QuantTile::from_vectors(&self.data)?)
        } else {
            None
        };
        Ok(())
    }

    /// Inserts a new data vector, hashing it into every table with the functions
    /// sampled at build time, and returns its slot id.
    ///
    /// The vector must match the index dimension and lie in the unit ball. Slot ids
    /// are stable: they are never reused, so an id handed out here stays valid until
    /// [`AlshMipsIndex::delete`]d.
    pub fn insert(&mut self, v: DenseVector) -> Result<usize> {
        let dim = self.data[0].dim();
        if v.dim() != dim {
            return Err(CoreError::DimensionMismatch {
                expected: dim,
                actual: v.dim(),
            });
        }
        if !(v.norm() <= 1.0 + 1e-9) {
            return Err(CoreError::InvalidParameter {
                name: "v",
                reason: format!("data vector norm {} exceeds 1", v.norm()),
            });
        }
        let id = self.data.len();
        self.index.insert(id as u32, &v)?;
        self.data.to_mut().push(v);
        self.live.push(true);
        self.live_count += 1;
        // The quantized tile no longer mirrors the data; drop it so scoring
        // falls back to the exact path (see `set_scoring`).
        self.quant = None;
        Ok(id)
    }

    /// Deletes the vector in slot `id`: removes it from every hash table and
    /// tombstones the slot (the slot id is never reused).
    ///
    /// Returns an error for an out-of-range or already-deleted slot.
    pub fn delete(&mut self, id: usize) -> Result<()> {
        if id >= self.data.len() || !self.live[id] {
            return Err(CoreError::InvalidParameter {
                name: "id",
                reason: format!("slot {id} is out of range or already deleted"),
            });
        }
        self.index.remove(id as u32, &self.data[id])?;
        self.live[id] = false;
        self.live_count -= 1;
        self.quant = None;
        Ok(())
    }

    /// Drops every tombstoned slot and renumbers the live ones `0..len` in ascending
    /// order of `keys[slot]` (one key per slot, distinct on live slots), in place.
    ///
    /// Deletes already took the dead slots out of every bucket and a bucket depends
    /// on the vector alone, so nothing is hashed: the vectors move down where they
    /// stand (or are permuted, when the key order differs from the slot order) and the
    /// buckets are renamed. The result is the index [`AlshMipsIndex::build`] gives
    /// over the surviving vectors in key order with the same sampled functions —
    /// same buckets, same answers, same snapshot bytes.
    pub fn compact(&mut self, keys: &[u64]) -> Result<()> {
        let plan = Renumbering::new(&self.live, keys)?;
        self.index.renumber(&plan.new_slot)?;
        plan.apply(self.data.to_mut(), || DenseVector::zeros(0));
        self.live.truncate(self.live_count);
        self.live.fill(true);
        self.quant = None;
        Ok(())
    }

    /// Whether slot `id` currently holds a live (non-deleted) vector.
    pub fn is_live(&self, id: usize) -> bool {
        self.live.get(id).copied().unwrap_or(false)
    }

    /// Total number of slots ever allocated, live or tombstoned
    /// ([`MipsIndex::len`] counts only live vectors).
    pub fn slots(&self) -> usize {
        self.data.len()
    }

    /// The underlying multi-table LSH index (persistence accessor).
    pub fn lsh_index(&self) -> &LshIndex<SimpleAlshFamily> {
        &self.index
    }

    /// Reassembles an index from previously extracted state — the inverse of
    /// [`AlshMipsIndex::data`] / [`AlshMipsIndex::lsh_index`] / accessors plus the
    /// liveness mask, used by snapshot persistence to restore an index bit-identically
    /// (same functions, same buckets, same query results) without re-sampling.
    pub fn from_raw_parts(
        data: Vec<DenseVector>,
        live: Vec<bool>,
        index: LshIndex<SimpleAlshFamily>,
        spec: JoinSpec,
        params: AlshParams,
    ) -> Result<Self> {
        if data.is_empty() {
            return Err(CoreError::EmptyDataSet);
        }
        if live.len() != data.len() {
            return Err(CoreError::InvalidParameter {
                name: "live",
                reason: format!(
                    "liveness mask has {} entries for {} slots",
                    live.len(),
                    data.len()
                ),
            });
        }
        let dim = data[0].dim();
        for v in &data {
            if v.dim() != dim {
                return Err(CoreError::DimensionMismatch {
                    expected: dim,
                    actual: v.dim(),
                });
            }
        }
        let live_count = live.iter().filter(|&&l| l).count();
        if index.len() != live_count {
            return Err(CoreError::InvalidParameter {
                name: "index",
                reason: format!(
                    "LSH index stores {} points but the mask marks {live_count} live",
                    index.len()
                ),
            });
        }
        Ok(Self {
            data: Cow::Owned(data),
            live,
            live_count,
            index,
            spec,
            params,
            quant: None,
            kernel_counters: crate::kernel::KernelCounters::new(),
        })
    }

    /// The tuning parameters.
    pub fn params(&self) -> AlshParams {
        self.params
    }

    /// Overrides the number of extra probe buckets visited per table at query time
    /// (see [`AlshParams::probes`]). Probing is a pure query-time policy — the tables
    /// are untouched, so the override applies to the next search immediately and
    /// `set_probes(0)` restores the classical bit-identical lookup.
    pub fn set_probes(&mut self, probes: usize) {
        self.params.probes = probes;
    }

    /// The ρ exponent the *ideal* (data-dependent, equation 3) instantiation of this
    /// reduction would achieve for this index's spec.
    pub fn rho_data_dependent(&self) -> Result<f64> {
        Ok(rho_data_dependent(
            self.spec.threshold,
            self.spec.approximation,
            self.params.query_radius,
        )?)
    }

    /// The ρ exponent of the hyperplane-based instantiation actually built (the SIMP
    /// curve of Figure 2).
    pub fn rho_simple(&self) -> Result<f64> {
        Ok(rho_simple_alsh(
            self.spec.threshold,
            self.spec.approximation,
            self.params.query_radius,
        )?)
    }

    /// Number of candidates the underlying LSH tables produce for a query, before
    /// re-scoring — the quantity whose growth with `n` the ρ exponent predicts.
    pub fn candidate_count(&self, query: &DenseVector) -> Result<usize> {
        Ok(self.index.probe_lookup(query, self.params.probes)?.len())
    }

    /// The candidate data indices the underlying LSH tables produce for a query
    /// (deduplicated, ascending) — what the top-`k` search re-scores.
    pub fn candidate_indices(&self, query: &DenseVector) -> Result<Vec<usize>> {
        Ok(self.index.probe_lookup(query, self.params.probes)?)
    }

    /// The vectors held by the index, one per slot — tombstoned slots keep their
    /// vector (so slot ids stay stable) but never appear as candidates.
    pub fn data(&self) -> &[DenseVector] {
        &self.data
    }

    /// Consumes the index, returning the vectors of every slot (live or tombstoned)
    /// and freeing the hash tables — how a rebuild reuses the vectors instead of
    /// copying them. (An index that still borrows its vectors copies them here.)
    pub fn into_data(self) -> Vec<DenseVector> {
        self.data.into_owned()
    }

    /// The quantized tile when the cheap candidate kernel is enabled
    /// ([`AlshMipsIndex::set_scoring`]) and no mutation has invalidated it.
    pub(crate) fn quant_tile(&self) -> Option<&ips_linalg::QuantTile> {
        self.quant.as_ref()
    }

    /// The quantized kernel's activity tallies (zero while exact scoring runs).
    pub fn kernel_activity(&self) -> crate::kernel::KernelActivity {
        self.kernel_counters.activity()
    }

    /// The counters the quantized candidate kernel ticks into.
    pub(crate) fn kernel_counters(&self) -> &crate::kernel::KernelCounters {
        &self.kernel_counters
    }
}

impl MipsIndex for AlshMipsIndex<'_> {
    fn len(&self) -> usize {
        self.live_count
    }

    fn spec(&self) -> JoinSpec {
        self.spec
    }

    fn search(&self, query: &DenseVector) -> Result<Option<SearchResult>> {
        let candidates = self.index.probe_lookup(query, self.params.probes)?;
        let limit = self.params.rescore_limit.unwrap_or(usize::MAX);
        let limited = &candidates[..candidates.len().min(limit)];
        let best = if let Some(quant) = &self.quant {
            // Cheap integer scoring + conservative pruning + exact rescoring:
            // identical result to the exact loop below (see `crate::kernel`).
            crate::kernel::best_among_candidates_quantized(
                &self.data,
                quant,
                limited,
                query,
                &self.spec,
                &self.kernel_counters,
            )?
        } else {
            let mut best: Option<SearchResult> = None;
            for &i in limited {
                let ip = self.data[i].dot(query)?;
                let value = self.spec.variant.value(ip);
                let better = best
                    .as_ref()
                    .map(|b| value > self.spec.variant.value(b.inner_product))
                    .unwrap_or(true);
                if better {
                    best = Some(SearchResult {
                        data_index: i,
                        inner_product: ip,
                    });
                }
            }
            best
        };
        // Only answers clearing the relaxed threshold cs are reported (Definition 1).
        Ok(best.filter(|b| self.spec.acceptable(b.inner_product)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::JoinVariant;
    use ips_linalg::random::{random_ball_vector, random_unit_vector};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xA15B)
    }

    fn spec(s: f64, c: f64) -> JoinSpec {
        JoinSpec::new(s, c, JoinVariant::Signed).unwrap()
    }

    #[test]
    fn build_validation() {
        let mut r = rng();
        assert!(
            AlshMipsIndex::build(&mut r, vec![], spec(0.5, 0.5), AlshParams::default()).is_err()
        );
        let too_long = vec![DenseVector::from(&[2.0, 0.0][..])];
        assert!(
            AlshMipsIndex::build(&mut r, too_long, spec(0.5, 0.5), AlshParams::default()).is_err()
        );
        let mixed = vec![
            DenseVector::from(&[0.5, 0.0][..]),
            DenseVector::from(&[0.5][..]),
        ];
        assert!(
            AlshMipsIndex::build(&mut r, mixed, spec(0.5, 0.5), AlshParams::default()).is_err()
        );
        let data = vec![DenseVector::from(&[0.5, 0.0][..])];
        assert!(
            AlshMipsIndex::build(&mut r, data, spec(2.0, 0.5), AlshParams::default()).is_err(),
            "threshold above the query radius must be rejected"
        );
    }

    #[test]
    fn finds_planted_high_inner_product() {
        let mut r = rng();
        let dim = 24;
        let n = 300;
        let query = random_unit_vector(&mut r, dim).unwrap();
        let mut data: Vec<DenseVector> = (0..n)
            .map(|_| random_ball_vector(&mut r, dim, 1.0).unwrap().scaled(0.3))
            .collect();
        data[42] = query.scaled(0.9);
        let spec = spec(0.8, 0.6);
        let index = AlshMipsIndex::build(&mut r, data, spec, AlshParams::default()).unwrap();
        assert_eq!(index.len(), n);
        assert!(!index.is_empty());
        assert_eq!(index.spec(), spec);
        assert_eq!(index.data().len(), n);
        let hit = index
            .search(&query)
            .unwrap()
            .expect("planted point must be found");
        assert_eq!(hit.data_index, 42);
        assert!(hit.inner_product >= 0.8 - 1e-9);
        // Candidate sets should be (much) smaller than the data set.
        let candidates = index.candidate_count(&query).unwrap();
        assert!(candidates < n, "candidate set not pruned: {candidates}");
    }

    #[test]
    fn rho_accessors_match_figure2_formulas() {
        let mut r = rng();
        let data = vec![DenseVector::from(&[0.3, 0.1][..])];
        let s = spec(0.5, 0.7);
        let index = AlshMipsIndex::build(&mut r, data, s, AlshParams::default()).unwrap();
        let dd = index.rho_data_dependent().unwrap();
        let simp = index.rho_simple().unwrap();
        assert!((dd - rho_data_dependent(0.5, 0.7, 1.0).unwrap()).abs() < 1e-12);
        assert!((simp - rho_simple_alsh(0.5, 0.7, 1.0).unwrap()).abs() < 1e-12);
        assert!(dd <= simp);
        assert_eq!(index.params(), AlshParams::default());
    }

    #[test]
    fn low_similarity_queries_return_none() {
        let mut r = rng();
        let dim = 16;
        let data: Vec<DenseVector> = (0..100)
            .map(|_| random_unit_vector(&mut r, dim).unwrap().scaled(0.05))
            .collect();
        let spec = spec(0.5, 0.8);
        let index = AlshMipsIndex::build(&mut r, data, spec, AlshParams::default()).unwrap();
        let query = random_unit_vector(&mut r, dim).unwrap();
        // All inner products are at most 0.05 < cs = 0.4: nothing may be reported.
        assert!(index.search(&query).unwrap().is_none());
    }

    #[test]
    fn insert_and_delete_maintain_search_results() {
        let mut r = rng();
        let dim = 16;
        let query = random_unit_vector(&mut r, dim).unwrap();
        let data: Vec<DenseVector> = (0..120)
            .map(|_| random_ball_vector(&mut r, dim, 1.0).unwrap().scaled(0.2))
            .collect();
        let spec = spec(0.8, 0.6);
        let mut index = AlshMipsIndex::build(&mut r, data, spec, AlshParams::default()).unwrap();
        // Nothing matches the query yet.
        assert!(index.search(&query).unwrap().is_none());
        // Insert a strong partner dynamically: it must now be found.
        let id = index.insert(query.scaled(0.9)).unwrap();
        assert_eq!(id, 120);
        assert_eq!(index.len(), 121);
        assert_eq!(index.slots(), 121);
        assert!(index.is_live(id));
        let hit = index.search(&query).unwrap().expect("inserted point found");
        assert_eq!(hit.data_index, id);
        // Delete it again: the index returns to reporting nothing.
        index.delete(id).unwrap();
        assert_eq!(index.len(), 120);
        assert_eq!(index.slots(), 121);
        assert!(!index.is_live(id));
        assert!(index.search(&query).unwrap().is_none());
        // A tombstoned or out-of-range slot cannot be deleted again.
        assert!(index.delete(id).is_err());
        assert!(index.delete(10_000).is_err());
        // Validation of dynamic inserts matches build validation.
        assert!(index.insert(DenseVector::zeros(dim + 1)).is_err());
        assert!(index
            .insert(random_unit_vector(&mut r, dim).unwrap().scaled(1.5))
            .is_err());
    }

    #[test]
    fn raw_parts_roundtrip_preserves_results() {
        let mut r = rng();
        let dim = 12;
        let data: Vec<DenseVector> = (0..80)
            .map(|_| random_ball_vector(&mut r, dim, 1.0).unwrap())
            .collect();
        let spec = spec(0.4, 0.5);
        let index =
            AlshMipsIndex::build(&mut r, data.clone(), spec, AlshParams::default()).unwrap();
        let rebuilt = AlshMipsIndex::from_raw_parts(
            index.data().to_vec(),
            (0..index.slots()).map(|i| index.is_live(i)).collect(),
            super::LshIndex::from_raw_parts(
                index.lsh_index().functions(),
                index.lsh_index().tables().to_vec(),
                index.lsh_index().params(),
                index.lsh_index().len(),
            )
            .unwrap(),
            index.spec(),
            index.params(),
        )
        .unwrap();
        for q in &data[..10] {
            assert_eq!(index.search(q).unwrap(), rebuilt.search(q).unwrap());
        }
        // A liveness mask that disagrees with the LSH index is rejected.
        assert!(AlshMipsIndex::from_raw_parts(
            index.data().to_vec(),
            vec![false; index.slots()],
            super::LshIndex::from_raw_parts(
                index.lsh_index().functions(),
                index.lsh_index().tables().to_vec(),
                index.lsh_index().params(),
                index.lsh_index().len(),
            )
            .unwrap(),
            index.spec(),
            index.params(),
        )
        .is_err());
    }

    #[test]
    fn probes_enlarge_candidates_without_changing_validity() {
        let mut r = rng();
        let dim = 16;
        let data: Vec<DenseVector> = (0..150)
            .map(|_| random_ball_vector(&mut r, dim, 1.0).unwrap())
            .collect();
        let spec = spec(0.5, 0.5);
        let mut index =
            AlshMipsIndex::build(&mut r, data.clone(), spec, AlshParams::default()).unwrap();
        let queries: Vec<DenseVector> = (0..10)
            .map(|_| random_ball_vector(&mut r, dim, 1.0).unwrap())
            .collect();
        let baseline: Vec<Vec<usize>> = queries
            .iter()
            .map(|q| index.candidate_indices(q).unwrap())
            .collect();
        index.set_probes(4);
        assert_eq!(index.params().probes, 4);
        let mut grew = false;
        for (q, base) in queries.iter().zip(&baseline) {
            let probed = index.candidate_indices(q).unwrap();
            assert!(base.iter().all(|i| probed.contains(i)));
            grew |= probed.len() > base.len();
            // Any reported answer still clears the relaxed threshold.
            if let Some(hit) = index.search(q).unwrap() {
                assert!(spec.acceptable(hit.inner_product));
            }
        }
        assert!(grew, "probing never enlarged a candidate set");
        // Returning to zero probes restores the classical candidates exactly.
        index.set_probes(0);
        for (q, base) in queries.iter().zip(&baseline) {
            assert_eq!(&index.candidate_indices(q).unwrap(), base);
        }
    }

    #[test]
    fn rescore_limit_is_respected() {
        let mut r = rng();
        let dim = 8;
        let data: Vec<DenseVector> = (0..50)
            .map(|_| random_ball_vector(&mut r, dim, 1.0).unwrap())
            .collect();
        let params = AlshParams {
            rescore_limit: Some(1),
            ..Default::default()
        };
        let spec = spec(0.9, 0.1);
        let index = AlshMipsIndex::build(&mut r, data, spec, params).unwrap();
        let query = random_unit_vector(&mut r, dim).unwrap();
        // With a rescore limit of one, the search still runs and returns either nothing
        // or a pair clearing cs.
        if let Some(hit) = index.search(&query).unwrap() {
            assert!(spec.acceptable(hit.inner_product));
        }
    }
}

//! A common interface over all maximum-inner-product-search indexes.
//!
//! The paper discusses several data structures for `(cs, s)` search / `c`-MIPS
//! (Sections 4.1–4.3); the [`MipsIndex`] trait lets the join layer, the examples and the
//! benchmarks treat them interchangeably, with the quadratic scan as the reference
//! implementation.

use crate::brute::brute_force_mips;
use crate::error::Result;
use crate::problem::{JoinSpec, MatchPair};
use ips_linalg::DenseVector;

/// The outcome of one search query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchResult {
    /// Index of the returned data vector.
    pub data_index: usize,
    /// Its exact inner product with the query.
    pub inner_product: f64,
}

impl From<MatchPair> for SearchResult {
    fn from(pair: MatchPair) -> Self {
        Self {
            data_index: pair.data_index,
            inner_product: pair.inner_product,
        }
    }
}

/// An index answering `(cs, s)` inner product search queries over a fixed data set.
pub trait MipsIndex {
    /// Number of indexed data vectors.
    fn len(&self) -> usize;

    /// Returns `true` when the index holds no vectors.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The spec (`s`, `c`, signed/unsigned) the index answers queries for.
    fn spec(&self) -> JoinSpec;

    /// Answers one query: a data vector whose inner product clears `cs`, when the index
    /// finds one. Definition 1 only promises an answer when some vector clears `s`;
    /// approximate indexes may miss even then (that is what recall experiments measure),
    /// but they never return a pair below `cs`.
    fn search(&self, query: &DenseVector) -> Result<Option<SearchResult>>;

    /// Answers a batch of queries, one slot per query in order.
    ///
    /// The default implementation is the serial loop over [`MipsIndex::search`];
    /// implementations override it when a batch can be answered faster than
    /// query-at-a-time (e.g. the brute-force scan re-orders its loops for cache
    /// locality). [`crate::engine::JoinEngine`] feeds whole chunks through this
    /// method, so an override accelerates every join in the workspace.
    ///
    /// Overrides must return exactly what the serial loop would: the engine and
    /// the batch/serial equivalence property tests rely on it.
    fn search_batch(&self, queries: &[DenseVector]) -> Result<Vec<Option<SearchResult>>> {
        queries.iter().map(|q| self.search(q)).collect()
    }
}

/// Shared references to an index are themselves indexes, so [`crate::engine::JoinEngine`]
/// can either own its index or borrow one that outlives it.
impl<I: MipsIndex + ?Sized> MipsIndex for &I {
    fn len(&self) -> usize {
        (**self).len()
    }

    fn is_empty(&self) -> bool {
        (**self).is_empty()
    }

    fn spec(&self) -> JoinSpec {
        (**self).spec()
    }

    fn search(&self, query: &DenseVector) -> Result<Option<SearchResult>> {
        (**self).search(query)
    }

    fn search_batch(&self, queries: &[DenseVector]) -> Result<Vec<Option<SearchResult>>> {
        // Forward explicitly so a batch override on `I` is not lost behind the
        // reference's default method.
        (**self).search_batch(queries)
    }
}

/// The exact quadratic-scan index: the reference [`MipsIndex`] implementation.
pub struct BruteForceMipsIndex {
    data: Vec<DenseVector>,
    spec: JoinSpec,
    tile: Option<ips_linalg::FloatTile>,
}

impl BruteForceMipsIndex {
    /// Builds the index (which just stores the data).
    pub fn new(data: Vec<DenseVector>, spec: JoinSpec) -> Self {
        Self {
            data,
            spec,
            tile: None,
        }
    }

    /// Builds the index with a scoring-kernel selection (`dtype`). The
    /// default options add no preprocessing and keep batch results
    /// bit-identical to [`BruteForceMipsIndex::new`].
    pub fn with_options(
        data: Vec<DenseVector>,
        spec: JoinSpec,
        options: crate::kernel::ScoringOptions,
    ) -> Result<Self> {
        let tile = crate::kernel::prepare(&data, options)?;
        Ok(Self { data, spec, tile })
    }

    /// Re-prepares the scoring kernel in place — what long-lived serving
    /// wrappers call after a rebuild. The default options drop any prepared
    /// tile and restore the bit-identical `f64` path.
    pub fn set_scoring(&mut self, options: crate::kernel::ScoringOptions) -> Result<()> {
        self.tile = crate::kernel::prepare(&self.data, options)?;
        Ok(())
    }

    /// Access to the underlying data vectors.
    pub fn data(&self) -> &[DenseVector] {
        &self.data
    }

    /// Appends `v` as the last vector. Storing is all there is to building this
    /// index, so the result is the index [`BruteForceMipsIndex::new`] gives over the
    /// longer list; a prepared `f32` tile no longer covers the data and is
    /// dropped (see [`BruteForceMipsIndex::set_scoring`]).
    pub fn push(&mut self, v: DenseVector) {
        self.data.push(v);
        self.tile = None;
    }

    /// Consumes the index, returning its vectors.
    pub fn into_data(self) -> Vec<DenseVector> {
        self.data
    }
}

impl MipsIndex for BruteForceMipsIndex {
    fn len(&self) -> usize {
        self.data.len()
    }

    fn spec(&self) -> JoinSpec {
        self.spec
    }

    fn search(&self, query: &DenseVector) -> Result<Option<SearchResult>> {
        // The exact index applies the *promise* threshold: it answers whenever some
        // vector clears s, which trivially also clears cs.
        Ok(brute_force_mips(&self.data, query, &self.spec)?.map(SearchResult::from))
    }

    /// Data-major scan: each data vector is loaded once and scored against the whole
    /// batch, instead of streaming the full data set past every query. Same results as
    /// the serial loop (strict `>` keeps the earliest argmax either way), much friendlier
    /// to the cache for wide batches. A non-default scoring kernel
    /// ([`BruteForceMipsIndex::with_options`]) dispatches through the tiled
    /// `f32` path instead.
    fn search_batch(&self, queries: &[DenseVector]) -> Result<Vec<Option<SearchResult>>> {
        crate::kernel::scored_batch(&self.data, self.tile.as_ref(), queries, &self.spec)
    }
}

/// The data-major batched exact scan shared by [`BruteForceMipsIndex`] and the
/// brute-force join baseline in [`crate::brute`].
///
/// Matches the serial one-`search`-per-query loop exactly, including the corners:
/// an empty batch is trivially answered whatever the index holds, and a non-empty
/// batch over an empty data set fails the way the first `search` would.
pub(crate) fn data_major_batch(
    data: &[DenseVector],
    queries: &[DenseVector],
    spec: &JoinSpec,
) -> Result<Vec<Option<SearchResult>>> {
    if queries.is_empty() {
        return Ok(Vec::new());
    }
    if data.is_empty() {
        return Err(crate::error::CoreError::EmptyDataSet);
    }
    let mut best: Vec<Option<SearchResult>> = vec![None; queries.len()];
    for (i, p) in data.iter().enumerate() {
        for (j, q) in queries.iter().enumerate() {
            // Hot loop: skip the checked dot's length test and error
            // allocation when the dimensions agree (`dot_unchecked_len` is
            // bit-identical to `dot`); fall back to the checked path so a
            // mismatched batch fails exactly as the serial loop would.
            let ip = if p.dim() == q.dim() {
                p.dot_unchecked_len(q)
            } else {
                p.dot(q)?
            };
            let value = spec.variant.value(ip);
            let better = best[j]
                .as_ref()
                .map(|b| value > spec.variant.value(b.inner_product))
                .unwrap_or(true);
            if better {
                best[j] = Some(SearchResult {
                    data_index: i,
                    inner_product: ip,
                });
            }
        }
    }
    Ok(best
        .into_iter()
        .map(|slot| slot.filter(|b| spec.satisfies_promise(b.inner_product)))
        .collect())
}

/// The Section 4.3 linear-sketch structure behind the common [`MipsIndex`] interface.
///
/// Wraps [`ips_sketch::SketchMipsIndex`]: the sketch proposes a candidate maximiser per
/// query, and the adapter keeps it only when its *exact* inner product clears the
/// spec's relaxed threshold `cs` under the spec's variant — precisely the per-query
/// step of the Section 4.3 unsigned join. The structure estimates `‖Aq‖_∞`, so it is
/// natively unsigned; under a [`crate::problem::JoinVariant::Signed`] spec the
/// candidate is still found by absolute value but only *reported* when its signed
/// inner product clears `cs`, keeping the [`MipsIndex::search`] validity promise
/// (anti-correlated pairs cost recall, never validity).
pub struct SketchMipsAdapter<'a> {
    inner: ips_sketch::SketchMipsIndex<'a>,
    spec: JoinSpec,
}

impl<'a> SketchMipsAdapter<'a> {
    /// Builds the sketch structure over `data` (a `Vec` to own, a slice to borrow)
    /// for the given spec.
    pub fn build<R: rand::Rng + ?Sized>(
        rng: &mut R,
        data: impl Into<std::borrow::Cow<'a, [DenseVector]>>,
        spec: JoinSpec,
        config: ips_sketch::linf_mips::MaxIpConfig,
        leaf_size: usize,
    ) -> Result<Self> {
        let inner = ips_sketch::SketchMipsIndex::build(rng, data, config, leaf_size)?;
        Ok(Self { inner, spec })
    }

    /// The wrapped sketch structure.
    pub fn inner(&self) -> &ips_sketch::SketchMipsIndex<'a> {
        &self.inner
    }

    /// Consumes the adapter, returning the indexed vectors.
    pub fn into_data(self) -> Vec<DenseVector> {
        self.inner.into_data()
    }

    /// Wraps an already-built (e.g. snapshot-loaded) sketch structure under a spec —
    /// the inverse of [`SketchMipsAdapter::inner`], used by snapshot persistence.
    pub fn from_parts(inner: ips_sketch::SketchMipsIndex<'a>, spec: JoinSpec) -> Self {
        Self { inner, spec }
    }
}

impl MipsIndex for SketchMipsAdapter<'_> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn spec(&self) -> JoinSpec {
        self.spec
    }

    fn search(&self, query: &DenseVector) -> Result<Option<SearchResult>> {
        let candidate = self.inner.query(query)?;
        // `acceptable` applies the spec's variant, so a Signed spec never reports
        // an anti-correlated candidate below cs (the validity half of the trait
        // contract); for Unsigned specs this is the seed's abs() >= cs check.
        Ok(self
            .spec
            .acceptable(candidate.inner_product)
            .then_some(SearchResult {
                data_index: candidate.index,
                inner_product: candidate.inner_product,
            }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::JoinVariant;

    fn dv(xs: &[f64]) -> DenseVector {
        DenseVector::from(xs)
    }

    #[test]
    fn brute_force_index_roundtrip() {
        let data = vec![dv(&[1.0, 0.0]), dv(&[0.0, 0.4])];
        let spec = JoinSpec::new(0.3, 0.5, JoinVariant::Signed).unwrap();
        let index = BruteForceMipsIndex::new(data.clone(), spec);
        assert_eq!(index.len(), 2);
        assert!(!index.is_empty());
        assert_eq!(index.spec(), spec);
        assert_eq!(index.data().len(), 2);
        let hit = index.search(&dv(&[1.0, 0.0])).unwrap().unwrap();
        assert_eq!(hit.data_index, 0);
        assert_eq!(hit.inner_product, 1.0);
        // No vector clears s = 0.3 for this query.
        assert!(index.search(&dv(&[0.0, 0.1])).unwrap().is_none());
    }

    #[test]
    fn batch_override_matches_serial_loop_on_corners() {
        let spec = JoinSpec::new(0.3, 0.5, JoinVariant::Signed).unwrap();
        // Empty batch: trivially empty, even over an empty index (the serial
        // loop never calls `search`).
        let empty_index = BruteForceMipsIndex::new(Vec::new(), spec);
        assert_eq!(empty_index.search_batch(&[]).unwrap(), Vec::new());
        // Non-empty batch over an empty index: fails like the first `search`.
        assert!(empty_index.search_batch(&[dv(&[1.0])]).is_err());
    }

    #[test]
    fn sketch_adapter_honours_signed_validity() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(0x5EC7);
        // One strongly anti-correlated data vector: under a Signed spec the
        // adapter must not report it, however large its absolute inner product.
        let data = vec![dv(&[-0.9, 0.0]), dv(&[0.05, 0.05])];
        let config = ips_sketch::linf_mips::MaxIpConfig {
            kappa: 2.0,
            copies: 9,
            rows: None,
        };
        let signed = JoinSpec::new(0.8, 0.6, JoinVariant::Signed).unwrap();
        let adapter = SketchMipsAdapter::build(&mut rng, data.clone(), signed, config, 4).unwrap();
        let q = dv(&[1.0, 0.0]);
        assert_eq!(adapter.search(&q).unwrap(), None);
        // The same pair is reported under an Unsigned spec (the seed behaviour).
        let unsigned = JoinSpec::new(0.8, 0.6, JoinVariant::Unsigned).unwrap();
        let adapter = SketchMipsAdapter::build(&mut rng, data, unsigned, config, 4).unwrap();
        let hit = adapter.search(&q).unwrap().unwrap();
        assert_eq!(hit.data_index, 0);
        assert!(hit.inner_product < 0.0);
    }

    #[test]
    fn search_result_from_match_pair() {
        let pair = MatchPair {
            data_index: 3,
            query_index: 7,
            inner_product: 0.5,
        };
        let sr = SearchResult::from(pair);
        assert_eq!(sr.data_index, 3);
        assert_eq!(sr.inner_product, 0.5);
    }
}

//! A common interface over all maximum-inner-product-search indexes.
//!
//! The paper discusses several data structures for `(cs, s)` search / `c`-MIPS
//! (Sections 4.1–4.3); the [`MipsIndex`] trait lets the join layer, the serving layers,
//! the examples and the benchmarks treat them interchangeably, with the quadratic scan
//! as the reference implementation. An index is asked one way only: a batch of queries
//! and an [`Ask`], answered by [`MipsIndex::answer`] with the pair list a join reports.
//! The single-query spellings are provided over it, so a wrapper that forwards
//! `answer` forwards every fast path.

use crate::engine::Ask;
use crate::error::Result;
use crate::problem::{JoinSpec, JoinVariant, MatchPair};
use crate::shard::keep_best;
use crate::topk::BestPerQuery;
use ips_linalg::{score_block, DenseVector};
use ips_sketch::recovery::MipsCandidate;
use std::borrow::Cow;

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

impl SearchResult {
    /// The pair this result makes with query `query_index`.
    pub(crate) fn for_query(self, query_index: usize) -> MatchPair {
        MatchPair {
            data_index: self.data_index,
            query_index,
            inner_product: self.inner_product,
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

    /// Answers a batch of queries as `ask` asks: the index's one query method, which
    /// [`crate::engine::JoinEngine`] hands every chunk.
    ///
    /// The result is the pair list a join reports: each pair's `query_index` counts
    /// from the start of `queries`, queries come in order, and a query's partners come
    /// best first — higher similarity value, ties toward the lower data index
    /// ([`crate::shard::beats`]). Every partner clears the spec's relaxed threshold
    /// `cs` ([`JoinSpec::acceptable`]); Definition 1 only promises one under
    /// [`Ask::Threshold`] when some vector clears `s`, and approximate indexes may miss
    /// even then or return fewer than `k` under [`Ask::TopK`] — that is the recall the
    /// experiments measure.
    ///
    /// An index answers a batch exactly as it answers each of its queries alone:
    /// batching is for speed (the brute scan loads each data vector once per batch),
    /// never for different answers.
    fn answer(&self, queries: &[DenseVector], ask: Ask) -> Result<Vec<MatchPair>>;

    /// [`MipsIndex::answer`] for one query under [`Ask::Threshold`]: a data vector
    /// whose inner product clears `cs`, when the index finds one.
    fn search(&self, query: &DenseVector) -> Result<Option<SearchResult>> {
        let pairs = self.answer(std::slice::from_ref(query), Ask::Threshold)?;
        Ok(pairs.first().map(|&pair| pair.into()))
    }

    /// [`MipsIndex::answer`] under [`Ask::Threshold`], one slot per query in order.
    fn search_batch(&self, queries: &[DenseVector]) -> Result<Vec<Option<SearchResult>>> {
        let mut slots = vec![None; queries.len()];
        for pair in self.answer(queries, Ask::Threshold)? {
            slots[pair.query_index] = Some(pair.into());
        }
        Ok(slots)
    }

    /// [`MipsIndex::answer`] for one query under [`Ask::TopK`]: up to `k` partners,
    /// best first.
    fn search_top_k(&self, query: &DenseVector, k: usize) -> Result<Vec<SearchResult>> {
        let pairs = self.answer(std::slice::from_ref(query), Ask::TopK(k))?;
        Ok(pairs.into_iter().map(SearchResult::from).collect())
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

    fn answer(&self, queries: &[DenseVector], ask: Ask) -> Result<Vec<MatchPair>> {
        (**self).answer(queries, ask)
    }
}

/// A batch answered one query at a time: `one` gives a query's partners, best first —
/// the [`MipsIndex::answer`] of an index whose search has no batch form (the LSH and
/// sketch families, the sharded symmetric merge).
pub fn answer_each<H: IntoIterator<Item = SearchResult>>(
    queries: &[DenseVector],
    mut one: impl FnMut(&DenseVector) -> Result<H>,
) -> Result<Vec<MatchPair>> {
    let mut out = Vec::new();
    for (j, query) in queries.iter().enumerate() {
        out.extend(one(query)?.into_iter().map(|hit| hit.for_query(j)));
    }
    Ok(out)
}

/// The exact quadratic-scan index: the reference [`MipsIndex`] implementation.
///
/// It holds its vectors as a `Cow`, like the LSH and sketch indexes: `'static` is
/// the owning form the serving layer stores, a borrow is what a join scans without
/// copying the caller's data (spelled [`crate::brute::BorrowedBruteIndex`] there).
pub struct BruteForceMipsIndex<'a> {
    data: Cow<'a, [DenseVector]>,
    spec: JoinSpec,
    tile: Option<ips_linalg::FloatTile>,
}

impl<'a> BruteForceMipsIndex<'a> {
    /// Builds the index over `data` (a `Vec` to own, a slice to borrow): storing is
    /// all there is to it.
    pub fn new(data: impl Into<Cow<'a, [DenseVector]>>, spec: JoinSpec) -> Self {
        Self {
            data: data.into(),
            spec,
            tile: None,
        }
    }

    /// Builds the index with a scoring-kernel selection: `dtype=f32` packs the
    /// data into the `f32` tile once, so every batch scores through the cheap
    /// kernel. Default options are exactly [`BruteForceMipsIndex::new`].
    pub fn with_options(
        data: impl Into<Cow<'a, [DenseVector]>>,
        spec: JoinSpec,
        options: crate::kernel::ScoringOptions,
    ) -> Result<Self> {
        let data = data.into();
        let tile = crate::kernel::prepare(&data, options)?;
        Ok(Self { data, spec, tile })
    }

    /// Access to the underlying data vectors.
    pub fn data(&self) -> &[DenseVector] {
        &self.data
    }

    /// Puts `v` at `slot`, moving the vectors from `slot` on up by one (a borrowing
    /// index takes its own copy first). The result is the index
    /// [`BruteForceMipsIndex::new`] gives over the longer list: an `f32` tile no
    /// longer covers the data and is dropped.
    ///
    /// # Panics
    ///
    /// When `slot > len()`.
    pub fn insert(&mut self, slot: usize, v: DenseVector) {
        self.data.to_mut().insert(slot, v);
        self.tile = None;
    }

    /// Takes the vector at `slot` out, moving the ones above it down by one: the
    /// index [`BruteForceMipsIndex::new`] gives over the shorter list (an `f32` tile
    /// is dropped, as on [`BruteForceMipsIndex::insert`]).
    ///
    /// # Panics
    ///
    /// When `slot >= len()`.
    pub fn remove(&mut self, slot: usize) -> DenseVector {
        self.tile = None;
        self.data.to_mut().remove(slot)
    }

    /// Consumes the index, returning its vectors.
    pub fn into_data(self) -> Vec<DenseVector> {
        self.data.into_owned()
    }
}

impl MipsIndex for BruteForceMipsIndex<'_> {
    fn len(&self) -> usize {
        self.data.len()
    }

    fn spec(&self) -> JoinSpec {
        self.spec
    }

    /// Both asks scan data-major ([`score_block`]): each data vector is loaded once and
    /// scored against the whole batch, instead of streaming the data set past every
    /// query — the same results as one query at a time, much friendlier to the cache
    /// for wide batches.
    ///
    /// * [`Ask::Threshold`] keeps each query's best and applies the *promise*
    ///   threshold `s`: the exact index answers whenever some vector clears `s`, which
    ///   trivially also clears `cs`. A non-default scoring kernel
    ///   ([`BruteForceMipsIndex::with_options`]) scans through the tiled `f32` path
    ///   instead. A non-empty batch over no data fails, as a join over no data does.
    /// * [`Ask::TopK`] keeps each query's best `k` that clear `cs`, in exact `f64`
    ///   whatever the kernel. No data is an empty answer.
    fn answer(&self, queries: &[DenseVector], ask: Ask) -> Result<Vec<MatchPair>> {
        if ask == Ask::Threshold {
            let tile = self.tile.as_ref();
            let slots = crate::kernel::scored_batch(&self.data, tile, queries, &self.spec)?;
            // A list of its own, grown by the hits: collected from the slots, it would
            // keep their whole buffer, a slot a query, until the join's lists are joined.
            let mut pairs = Vec::new();
            for (j, hit) in slots.into_iter().enumerate() {
                pairs.extend(hit.map(|hit| hit.for_query(j)));
            }
            return Ok(pairs);
        }
        let spec = &self.spec;
        let mut best = BestPerQuery::new(spec, queries.len(), ask);
        let rows = self.data.iter().enumerate();
        score_block(rows, queries, |data_index, j, inner_product| {
            let hit = SearchResult {
                data_index,
                inner_product,
            };
            if spec.acceptable(inner_product) {
                best.offer(j, hit);
            }
        })?;
        Ok(best.into_pairs())
    }
}

/// The data-major batched exact scan shared by [`BruteForceMipsIndex`] and the
/// brute-force joins in [`crate::brute`].
///
/// Matches the serial one-`search`-per-query loop exactly, including the corners:
/// an empty batch is trivially answered whatever the index holds, and a non-empty
/// batch over an empty data set fails the way the first `search` would.
pub(crate) fn data_major_batch(
    data: &[DenseVector],
    queries: &[DenseVector],
    spec: &JoinSpec,
) -> Result<Vec<Option<SearchResult>>> {
    Ok(data_major_best(data, queries, spec)?
        .into_iter()
        .map(|slot| slot.filter(|b| spec.satisfies_promise(b.inner_product)))
        .collect())
}

/// Each query's best data point under [`keep_best`], unfiltered: the scan of
/// [`data_major_batch`] before the promise, and the one an LSH join below its scan rule
/// runs (`lsh_join`).
pub(crate) fn data_major_best(
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
    // Each arm hands `keep_best` a spec whose variant is a constant, so the pair loop
    // compiles without a variant test per score.
    let fixed = |variant| JoinSpec { variant, ..*spec };
    match spec.variant {
        JoinVariant::Signed => scan(data, queries, &fixed(JoinVariant::Signed), &mut best)?,
        JoinVariant::Unsigned => scan(data, queries, &fixed(JoinVariant::Unsigned), &mut best)?,
    }
    Ok(best)
}

/// [`data_major_best`]'s pair loop under one spec.
#[inline(always)]
fn scan(
    data: &[DenseVector],
    queries: &[DenseVector],
    spec: &JoinSpec,
    best: &mut [Option<SearchResult>],
) -> Result<()> {
    score_block(
        data.iter().enumerate(),
        queries,
        |data_index, j, inner_product| {
            let hit = SearchResult {
                data_index,
                inner_product,
            };
            keep_best(spec, &mut best[j], hit);
        },
    )?;
    Ok(())
}

/// The Section 4.3 linear-sketch structure behind the common [`MipsIndex`] interface.
///
/// Wraps [`ips_sketch::SketchMipsIndex`]: the sketch proposes a candidate maximiser per
/// query, and the adapter keeps it only when its *exact* inner product clears the
/// spec's relaxed threshold `cs` under the spec's variant — precisely the per-query
/// step of the Section 4.3 unsigned join. The structure estimates `‖Aq‖_∞`, so it is
/// natively unsigned; under a [`crate::problem::JoinVariant::Signed`] spec the
/// candidate is still found by absolute value but only *reported* when its signed
/// inner product clears `cs`, keeping the [`MipsIndex::answer`] validity promise
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
        data: impl Into<Cow<'a, [DenseVector]>>,
        spec: JoinSpec,
        config: ips_sketch::linf_mips::MaxIpConfig,
    ) -> Result<Self> {
        let inner = ips_sketch::SketchMipsIndex::build(rng, data, config)?;
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

    /// One walk per query. The sketch structure recovers a *single* candidate per
    /// query (the prefix-tree walk of Section 4.3 has no ranked candidate set), so its
    /// top-`k` is the top-1 result: at most one partner, which an approximate index is
    /// allowed. `TopK(0)` walks nothing.
    fn answer(&self, queries: &[DenseVector], ask: Ask) -> Result<Vec<MatchPair>> {
        if ask == Ask::TopK(0) {
            return Ok(Vec::new());
        }
        answer_each(queries, |q| Ok(sketch_hit(self.spec, self.inner.query(q)?)))
    }
}

/// What the sketch structure reports of the candidate its walk recovered, in the index
/// and in the join alike. `acceptable` applies the spec's variant, so a Signed spec never
/// reports an anti-correlated candidate below cs (the validity half of the
/// [`MipsIndex`] contract); for Unsigned specs this is the seed's abs() >= cs check.
pub(crate) fn sketch_hit(spec: JoinSpec, candidate: MipsCandidate) -> Option<SearchResult> {
    spec.acceptable(candidate.inner_product)
        .then_some(SearchResult {
            data_index: candidate.index,
            inner_product: candidate.inner_product,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::JoinVariant;
    use crate::topk::rescore_candidates;
    use ips_linalg::random::random_ball_vector;

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

    /// Pairs as `(query, data index, inner product bits)`.
    fn bits(pairs: &[MatchPair]) -> Vec<(usize, usize, u64)> {
        let bits = |p: &MatchPair| (p.query_index, p.data_index, p.inner_product.to_bits());
        pairs.iter().map(bits).collect()
    }

    /// The reference top-`k`: every data vector re-scored against one query at a time.
    fn rescored(
        data: &[DenseVector],
        queries: &[DenseVector],
        spec: &JoinSpec,
        k: usize,
    ) -> Vec<MatchPair> {
        let mut out = Vec::new();
        for (j, q) in queries.iter().enumerate() {
            let hits = rescore_candidates(data, 0..data.len(), q, spec, k).unwrap();
            out.extend(hits.into_iter().map(|hit| hit.for_query(j)));
        }
        out
    }

    #[test]
    fn data_major_top_k_keeps_what_rescoring_keeps() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(0x70B);
        let mut data: Vec<DenseVector> = (0..30)
            .map(|_| random_ball_vector(&mut rng, 5, 1.0).unwrap())
            .collect();
        // Ties: copies score equal, negated copies equal in absolute value.
        let twins = data[..6].to_vec();
        data.extend(twins.iter().cloned());
        data.extend(twins.iter().map(|v| v.scaled(-1.0)));
        data.extend(std::iter::repeat_n(dv(&[0.5, 0.0, 0.0, 0.0, 0.0]), 4));
        let mut queries: Vec<DenseVector> = (0..7)
            .map(|_| random_ball_vector(&mut rng, 5, 1.0).unwrap())
            .collect();
        queries.extend([data[2].clone(), dv(&[1.0, 0.0, 0.0, 0.0, 0.0])]);
        let n = data.len();
        for variant in [JoinVariant::Signed, JoinVariant::Unsigned] {
            let spec = JoinSpec::new(0.2, 0.5, variant).unwrap();
            let index = BruteForceMipsIndex::new(data.clone(), spec);
            for k in [0, 1, 2, 5, n, n + 3] {
                let got = index.answer(&queries, Ask::TopK(k)).unwrap();
                let expected = rescored(&data, &queries, &spec, k);
                assert_eq!(bits(&got), bits(&expected), "{variant:?} k = {k}");
            }
        }
    }

    #[test]
    fn both_asks_match_the_per_query_reference_over_no_data() {
        let spec = JoinSpec::new(0.3, 0.5, JoinVariant::Signed).unwrap();
        let empty_index = BruteForceMipsIndex::new(Vec::new(), spec);
        let queries = [dv(&[1.0]), dv(&[0.5])];
        for ask in [Ask::Threshold, Ask::TopK(0), Ask::TopK(2)] {
            // Empty batch: trivially empty, even over an empty index.
            assert!(empty_index.answer(&[], ask).unwrap().is_empty(), "{ask:?}");
        }
        // Non-empty batch over an empty index: the scan fails like `search`, and the
        // top-`k` keeps the best of no candidates, like re-scoring none.
        assert!(empty_index.answer(&queries, Ask::Threshold).is_err());
        assert!(empty_index.search(&queries[0]).is_err());
        for k in [0, 2] {
            let got = empty_index.answer(&queries, Ask::TopK(k)).unwrap();
            assert_eq!(got, rescored(&[], &queries, &spec, k));
            assert!(got.is_empty());
        }
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
        let adapter = SketchMipsAdapter::build(&mut rng, data.clone(), signed, config).unwrap();
        let q = dv(&[1.0, 0.0]);
        assert_eq!(adapter.search(&q).unwrap(), None);
        // The same pair is reported under an Unsigned spec (the seed behaviour).
        let unsigned = JoinSpec::new(0.8, 0.6, JoinVariant::Unsigned).unwrap();
        let adapter = SketchMipsAdapter::build(&mut rng, data, unsigned, config).unwrap();
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

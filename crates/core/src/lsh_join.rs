//! The LSH join: Sections 4.1 and 4.2 run as a join, one group of tables at a time, or
//! as an exact scan where that is cheaper than hashing.
//!
//! **The scan rule.** The tables beat the quadratic scan only asymptotically: before a
//! candidate is scored, hashing the `n` data points and `m` queries against the `k·L`
//! planes takes `(n + m)·k·L·h` multiply-adds, `h` being what one point costs against
//! one plane ([`JoinMap::plane_multiply_adds`]: `d + 2` for Section 4.1, `d` plus the
//! tag's non-zeros for Section 4.2). Scanning every pair takes `n·m·d`. [`run`] checks
//! `(n + m)·k·L·h ≥ n·m·d` before any plane is drawn, with `n` and `m` the sizes it is
//! handed, and where it holds the join scans: every data point is a candidate of every
//! query, so a query's answer is its diagonal probe where the map has one, else its best
//! data point by [`keep_best`], reported when it reaches `cs` — the index's answer rule
//! with nothing missed. Hashing alone is a lower bound on the hashing join's work, so
//! the rule never scans where the tables would have done fewer multiply-adds, and it has
//! no constant to calibrate. The scan draws nothing from the RNG; it fails where the
//! hashing join fails, in the same order: parameters, then data, then queries. This is
//! the fallback of Aumüller, Christiani, Pagh and Vesterli's PUFFINN (ESA 2019), taken
//! for the whole join; the Section 4.3 sketch stops splitting by the same measure
//! (`ips_sketch::cost::splits`).
//!
//! **The hashing join.** An [`LshMips`](crate::lsh_mips::LshMips) is what a *server*
//! holds: all `L` tables and all `k·L` planes they hash with, for as long as it serves.
//! A join needs none of it at once. A query's answer is its diagonal probe, else the
//! best candidate of the union of its buckets over the `L` tables — and the best of a
//! union is the best of the bests of its parts. So the join draws the tables'
//! composites a group at a time, hashes the data (through [`LshIndex::extend_blocks`])
//! and the queries against that group's planes only, folds each query's best candidate
//! of the group into a running [`ShardParts`] with [`keep_best`], drops the group and
//! draws the next; [`merge_two_step`] finishes each query. This is the partition-at-a-time join of Pagh, Pham, Silvestri and
//! Stöckel, "I/O-efficient similarity join" (ESA 2015), with groups of tables as the
//! partition.
//!
//! **The index's answers, bit for bit.** Four things are what they are in an index
//! build followed by a [`JoinEngine`](crate::engine::JoinEngine) pass:
//! - the plane draws: the composites come from the same RNG in the same order, a group
//!   at a time instead of all at once;
//! - each plane's margins, summed over ascending `j` by the same kernel, so every key;
//! - the candidate union: per table, so per group, and the union of the groups';
//! - the tie rule: [`keep_best`] — higher value, then lower id — picks a group's best
//!   among its candidates and folds the groups' bests into the best of the union with
//!   the lowest id among equals.
//!
//! A candidate that collides in several groups is scored once per group, to the same
//! bits each time.
//!
//! **What a group holds.** At most [`GROUP_PLANE_BYTES`] of planes: a slice of the bank
//! that stays in a core's L2 while both sides stream past it. At `d = 48` that is 6 of
//! the 32 Section 4.2 tables (2116 rows × 10 planes × 8 B = 169 KB a table), and all 32
//! Section 4.1 ones (50 rows × 12 planes × 8 B = 4.8 KB a table), so an ALSH join runs as
//! one group, as before. The join never holds the whole bank, nor more than a group of
//! tables; `L` tables cost time, not memory.
//!
//! **Work done once.** What does not depend on the planes is done once a join, not once
//! a group: the map, the diagonal, and — through [`JoinMap`] — what presenting each point
//! to the kernel takes besides the planes (the Section 4.2 image's tag, 2 bytes a
//! non-zero). Each group then only hashes.
//!
//! **Schedule.** Every pass runs on the engine's threads ([`EngineConfig::threads`]): the
//! data passes in blocks of [`BUILD_BLOCK`] points, the query passes (the scan's too)
//! in the engine's chunks, both through [`ips_linalg::par::map_blocks`] / [`LshIndex::extend_blocks`],
//! whose results never depend on the schedule.

use crate::diagonal::Diagonal;
use crate::engine::EngineConfig;
use crate::error::Result;
use crate::lsh_mips::{
    best_candidate, common_dim, diagonal_hit, slot_id, SphereMap, Tuning, BUILD_BLOCK,
};
use crate::mips::data_major_best;
use crate::problem::{JoinSpec, MatchPair};
use crate::shard::{keep_best, merge_two_step, ShardParts};
use ips_linalg::par::{map_blocks, Schedule};
use ips_linalg::DenseVector;
use ips_lsh::bank::{Point, Side};
use ips_lsh::cost::hash_multiply_adds;
use ips_lsh::table::{BlockHasher, IndexParams, LshIndex};
use rand::Rng;

/// Planes a group of tables holds at most (see the module docs): a constant of the join,
/// not a knob.
const GROUP_PLANE_BYTES: usize = 1 << 20;

/// What the join asks of a [`SphereMap`] beyond what an index asks: the dimension its
/// planes live in, what hashing a point costs, a check of every point that fails where
/// hashing it would, and a way to present a point to every group without redoing the
/// plane-independent half of [`SphereMap::with_point`]. The defaults keep nothing, which
/// is right for a map whose kernel embeds the vector itself.
pub(crate) trait JoinMap: SphereMap {
    /// The coefficients of one plane: the dimension of the sphere the family hashes on.
    fn plane_rows(&self) -> usize;

    /// The multiply-adds that hash one point against one plane: the coordinates of the
    /// point the kernel walks. The scan rule counts them against the scan's (see the
    /// module docs); the planner prices them as scoring multiply-adds, beside one fixed
    /// price per plane (`CostModel::plane_ns`). The default walks every row of the plane.
    fn plane_multiply_adds(&self) -> usize {
        self.plane_rows()
    }

    /// Fails where the map cannot present its points to a join at all: checked when a
    /// join is set up, so one that scans fails as one that hashes.
    fn check_join(&self) -> Result<()> {
        Ok(())
    }

    /// The `u16` words a join keeps of each point.
    fn kept_words(&self) -> usize {
        0
    }

    /// Checks `v` as a vector on `side` — failing as hashing it would, so that a join
    /// that scans fails as one that hashes — and returns its diagonal key. This is all
    /// a scan asks of a point.
    fn check(&self, side: Side, v: &DenseVector) -> Result<Option<u64>>;

    /// [`JoinMap::check`], writing what a hashing join keeps of `v` into `kept`
    /// ([`JoinMap::kept_words`] words).
    fn keep(&self, side: Side, v: &DenseVector, _kept: &mut [u16]) -> Result<Option<u64>> {
        self.check(side, v)
    }

    /// [`SphereMap::block_keys`] of `vectors`, whose kept words are `kept`, in order.
    fn kept_block_keys(
        &self,
        vectors: &[DenseVector],
        _kept: &[u16],
        block: &mut Self::Block,
        hasher: &mut BlockHasher<'_>,
        keys: &mut [u64],
    ) -> Result<()> {
        self.block_keys(vectors, block, hasher, keys)
    }

    /// Hands `f` the point the kernel hashes for the query `q`, whose kept words are
    /// `kept`.
    fn with_kept_query<T>(
        &self,
        q: &DenseVector,
        _kept: &[u16],
        f: impl FnOnce(Point<'_>) -> Result<T>,
    ) -> Result<T> {
        self.with_point(Side::Query, q, |point, _| f(point))
    }
}

/// `items` cut into consecutive blocks of at most `size`, each with its index of first
/// item and the `words`-wide run of `kept` that belongs to its items.
fn blocks<'a, T>(
    size: usize,
    mut items: &'a mut [T],
    mut kept: &'a mut [u16],
    words: usize,
) -> Vec<(usize, &'a mut [T], &'a mut [u16])> {
    let mut out = Vec::with_capacity(items.len().div_ceil(size));
    let mut first = 0;
    while !items.is_empty() {
        let len = size.min(items.len());
        let (head, rest) = std::mem::take(&mut items).split_at_mut(len);
        let (kept_head, kept_rest) = std::mem::take(&mut kept).split_at_mut(len * words);
        out.push((first, head, kept_head));
        (items, kept, first) = (rest, kept_rest, first + len);
    }
    out
}

/// The `(cs, s)` join of `queries` against `data` under the map `M`: an exact scan where
/// the scan rule says so, else through the tables of `params` drawn from `rng` (see the
/// module docs). Where it hashes, the pairs are those of building `LshMips::<M>` over
/// `data` from the same RNG state and running it through a `JoinEngine`, at every engine
/// schedule; wherever it runs, so are the errors.
pub(crate) fn run<M: JoinMap, R: Rng + ?Sized>(
    params: M::Params,
    rng: &mut R,
    data: &[DenseVector],
    queries: &[DenseVector],
    spec: JoinSpec,
    engine: EngineConfig,
) -> Result<Vec<MatchPair>> {
    let join = LshJoin::<M>::new(params, data, queries, spec, engine)?;
    if join.scans() {
        join.scan()
    } else {
        join.hash(rng)
    }
}

/// Whether `n` data points and `m` queries of dimension `d` are cheaper to scan than to
/// hash against `k·L` planes at `h` multiply-adds a point and plane (`planes`):
/// `(n + m)·k·L·h ≥ n·m·d`. Both counts are taken in `u128` and saturate at its
/// maximum; only where both do, far past any join that could end, is the verdict not
/// exact, and there it scans. A join of no planes (`k` or `L` zero) is a defect the
/// table draw reports, so it is never scanned. The planner prices the path it picks.
pub(crate) fn scans(n: usize, m: usize, d: usize, planes: [usize; 3]) -> bool {
    let hashing = hash_multiply_adds(n as u128 + m as u128, planes);
    let scanning = (n as u128 * m as u128).saturating_mul(d as u128);
    hashing > 0 && hashing >= scanning
}

/// The map of a join of `dim`-dimensional points and the family it hashes with; fails
/// where a join's set-up fails, before it looks at a point.
pub(crate) fn set_up<M: JoinMap>(
    params: &M::Params,
    dim: usize,
    spec: &JoinSpec,
) -> Result<(M, M::Family)> {
    let map = M::new(dim, spec, params)?;
    let family = map.family()?;
    map.check_join()?;
    Ok((map, family))
}

/// A join's checked inputs and the map it presents them through.
struct LshJoin<'a, M: JoinMap> {
    map: M,
    family: M::Family,
    tuning: Tuning,
    dim: usize,
    data: &'a [DenseVector],
    queries: &'a [DenseVector],
    spec: JoinSpec,
    threads: usize,
    chunk: usize,
}

impl<'a, M: JoinMap> LshJoin<'a, M> {
    /// Fails where an index build fails before it draws: on the data's shape and on the
    /// parameters the map and its family check.
    fn new(
        params: M::Params,
        data: &'a [DenseVector],
        queries: &'a [DenseVector],
        spec: JoinSpec,
        engine: EngineConfig,
    ) -> Result<Self> {
        let dim = common_dim(data)?;
        slot_id(data.len())?;
        let (map, family) = set_up::<M>(&params, dim, &spec)?;
        Ok(Self {
            map,
            family,
            tuning: M::tuning(&params),
            dim,
            data,
            queries,
            spec,
            threads: engine.resolved_threads(),
            chunk: engine.resolved_chunk_size(),
        })
    }

    /// The scan rule (see the module docs).
    fn scans(&self) -> bool {
        let IndexParams { k, l } = self.tuning.tables;
        let h = self.map.plane_multiply_adds();
        scans(self.data.len(), self.queries.len(), self.dim, [k, l, h])
    }

    /// The join with every data point a candidate of every query: each query's
    /// diagonal probe, else its best data point, scored by the exact data-major scan a
    /// chunk of queries at a time on the engine's threads. Nothing is drawn, and
    /// nothing is kept of a point: it is checked and keyed ([`JoinMap::check`]).
    fn scan(&self) -> Result<Vec<MatchPair>> {
        let (_, diagonal) = self.keep_data(false)?;
        let (_, mut parts) = self.keep_queries(&diagonal, false)?;
        let (spec, data, queries) = (&self.spec, self.data, self.queries);
        map_blocks(
            self.threads,
            &mut blocks(self.chunk, &mut parts, &mut [], 0),
            |_, (first, parts, _)| -> Result<()> {
                let queries = &queries[*first..*first + parts.len()];
                let best = data_major_best(data, queries, spec)?;
                for (part, best) in parts.iter_mut().zip(best) {
                    part.best = best;
                }
                Ok(())
            },
        )?;
        Ok(pairs(spec, &parts))
    }

    /// The join through the tables drawn from `rng`, a group at a time (see the module
    /// docs).
    fn hash<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Vec<MatchPair>> {
        let (map, spec, data, queries) = (&self.map, &self.spec, self.data, self.queries);
        let Tuning {
            tables: IndexParams { k, l },
            probes,
        } = self.tuning;
        let table_bytes = k * map.plane_rows() * std::mem::size_of::<f64>();
        let group = (GROUP_PLANE_BYTES / table_bytes.max(1)).max(1);
        let (threads, chunk) = (self.threads, self.chunk);
        let schedule = Schedule {
            threads,
            block: BUILD_BLOCK,
        };
        let mut sample = |tables: usize| {
            let params = IndexParams { k, l: tables };
            LshIndex::build_scheduled(schedule, &self.family, params, &[], rng)
        };
        // The first group is drawn before the data is looked at, so that a defect of the
        // table parameters is reported before one of the data, as by an index build.
        let mut next = Some(sample(group.min(l))?);

        let words = map.kept_words();
        let (kept_data, diagonal) = self.keep_data(true)?;
        // A diagonal probe that meets the promise is the answer; no group is asked.
        let answered = |part: &ShardParts| {
            part.exact
                .is_some_and(|hit| spec.satisfies_promise(hit.inner_product))
        };

        let mut queried = None;
        let mut drawn = 0;
        while let Some(mut index) = next.take() {
            index.extend_blocks(
                schedule,
                0,
                data.len(),
                |points| map.block(points),
                |hasher, slots, block, keys| {
                    let kept = &kept_data[slots.start * words..slots.end * words];
                    map.kept_block_keys(&data[slots], kept, block, hasher, keys)
                },
                |_| (),
            )?;
            // The queries are presented once the first group's tables are laid out: a
            // join of one group never holds them beside the build's filing maps.
            if queried.is_none() {
                queried = Some(self.keep_queries(&diagonal, true)?);
            }
            let (kept_queries, parts) = queried.as_mut().expect("presented above");
            map_blocks(
                threads,
                &mut blocks(chunk, parts, &mut [], 0),
                |_, (first, parts, _)| -> Result<()> {
                    for (j, part) in (*first..).zip(parts.iter_mut()) {
                        if answered(part) {
                            continue;
                        }
                        let (q, kept) = (&queries[j], &kept_queries[j * words..(j + 1) * words]);
                        let hit = map.with_kept_query(q, kept, |point| {
                            let candidates = index.probe_lookup(point, probes)?;
                            best_candidate(spec, data, q, candidates)
                        })?;
                        if let Some(hit) = hit {
                            keep_best(spec, &mut part.best, hit);
                        }
                    }
                    Ok(())
                },
            )?;
            drawn += index.params().l;
            // This group's planes and tables go before the next group's are drawn.
            drop(index);
            if drawn < l {
                next = Some(sample(group.min(l - drawn))?);
            }
        }

        let (_, parts) = queried.expect("a join draws at least one group");
        Ok(pairs(spec, &parts))
    }

    /// What the join keeps of the data — nothing unless it `hashes` — and the diagonal
    /// of the data's keys (empty under a map without one).
    fn keep_data(&self, hashes: bool) -> Result<(Vec<u16>, Diagonal)> {
        let schedule = (BUILD_BLOCK, self.threads);
        let (kept, keys) = keep(
            &self.map,
            Side::Data,
            self.data,
            schedule,
            hashes,
            |_, key| Ok(key),
        )?;
        let mut diagonal = Diagonal::with_capacity(keys.iter().flatten().count());
        for (slot, key) in keys.into_iter().enumerate() {
            if let Some(key) = key {
                diagonal.insert(key, slot as u32);
            }
        }
        Ok((kept, diagonal))
    }

    /// What the join keeps of the queries — nothing unless it `hashes` — and each
    /// query's parts with its diagonal probe in place.
    fn keep_queries(
        &self,
        diagonal: &Diagonal,
        hashes: bool,
    ) -> Result<(Vec<u16>, Vec<ShardParts>)> {
        let (map, data) = (&self.map, self.data);
        let probe = |q: &DenseVector, key| {
            let exact = diagonal_hit(map, diagonal, data, q, key)?;
            Ok(ShardParts { exact, best: None })
        };
        let schedule = (self.chunk, self.threads);
        keep(map, Side::Query, self.queries, schedule, hashes, probe)
    }
}

/// Each query's answer from its parts, by the two-step rule of the index
/// ([`merge_two_step`]).
fn pairs(spec: &JoinSpec, parts: &[ShardParts]) -> Vec<MatchPair> {
    let pairs = parts.iter().enumerate().filter_map(|(query_index, part)| {
        let hit = merge_two_step(spec, std::slice::from_ref(part))?;
        Some(MatchPair {
            data_index: hit.data_index,
            query_index,
            inner_product: hit.inner_product,
        })
    });
    pairs.collect()
}

/// What the join keeps of each of `vectors` on `side` ([`JoinMap::keep`]) where it
/// `hashes`, else only [`JoinMap::check`]s them, in blocks of `size`, with `then(v, key)`
/// of each vector and its diagonal key.
fn keep<M: JoinMap, T: Clone + Default + Send>(
    map: &M,
    side: Side,
    vectors: &[DenseVector],
    (size, threads): (usize, usize),
    hashes: bool,
    then: impl Fn(&DenseVector, Option<u64>) -> Result<T> + Sync,
) -> Result<(Vec<u16>, Vec<T>)> {
    let words = if hashes { map.kept_words() } else { 0 };
    let mut kept = vec![0u16; vectors.len() * words];
    let mut out = vec![T::default(); vectors.len()];
    map_blocks(
        threads,
        &mut blocks(size, &mut out, &mut kept, words),
        |_, (first, out, kept)| -> Result<()> {
            for (i, out) in out.iter_mut().enumerate() {
                let v = &vectors[*first + i];
                let key = if hashes {
                    map.keep(side, v, &mut kept[i * words..(i + 1) * words])?
                } else {
                    map.check(side, v)?
                };
                *out = then(v, key)?;
            }
            Ok(())
        },
    )?;
    Ok((kept, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asymmetric::{AlshParams, SphereTransform};
    use crate::engine::JoinEngine;
    use crate::lsh_mips::LshMips;
    use crate::norm_bound;
    use crate::planner::{CostModel, IndexConfig, JoinPath, JoinPlanner, PlannerConfig};
    use crate::problem::JoinVariant;
    use crate::symmetric::{SymmetricParams, SymmetricSphereMap};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// A data set and a query set of one dimension inside the unit ball, where some data
    /// vectors come twice and some queries are data vectors — every twinned one among
    /// them: the Section 4.2 diagonal then answers those queries, a twin's with its later
    /// copy, where the tables would name the earlier.
    fn twinned_workload() -> impl Strategy<Value = (Vec<DenseVector>, Vec<DenseVector>)> {
        twinned(2..6, 4..40, 1..12)
    }

    /// [`twinned_workload`] of `dims`, with `points` data vectors before the twins and
    /// `asked` queries before the data vectors among them.
    fn twinned(
        dims: std::ops::Range<usize>,
        points: std::ops::Range<usize>,
        asked: std::ops::Range<usize>,
    ) -> impl Strategy<Value = (Vec<DenseVector>, Vec<DenseVector>)> {
        (dims, points, asked)
            .prop_flat_map(|(dim, n, m)| {
                let rows = move |count: usize| {
                    prop::collection::vec(
                        prop::collection::vec(-0.4f64..0.4, dim..=dim),
                        count..=count,
                    )
                };
                let picks = || prop::collection::vec(0usize..n, 1..4);
                (rows(n), rows(m), picks(), picks())
            })
            .prop_map(|(data, queries, twins, asked)| {
                let mut data: Vec<DenseVector> = data.into_iter().map(DenseVector::new).collect();
                let twins: Vec<DenseVector> = twins.iter().map(|&i| data[i].clone()).collect();
                data.extend(twins.iter().cloned());
                let mut queries: Vec<DenseVector> =
                    queries.into_iter().map(DenseVector::new).collect();
                queries.extend(asked.iter().map(|&i| data[i].clone()).chain(twins));
                (data, queries)
            })
    }

    /// The engine schedules every LSH join is compared at.
    const SCHEDULES: [(usize, usize); 4] = [(1, 1), (1, 7), (3, 1), (3, 7)];

    fn engine((threads, chunk_size): (usize, usize)) -> EngineConfig {
        EngineConfig {
            threads,
            chunk_size,
        }
    }

    /// Pairs with their inner products as bit patterns.
    type Bits = Vec<(usize, usize, u64)>;

    fn bits(pairs: &[MatchPair]) -> Bits {
        pairs
            .iter()
            .map(|p| (p.data_index, p.query_index, p.inner_product.to_bits()))
            .collect()
    }

    /// The LSH join as it ran before it held one group of tables at a time: the whole
    /// index built from `rng`, then the engine over it.
    fn whole_index_join<M: SphereMap>(
        rng: &mut StdRng,
        data: &[DenseVector],
        queries: &[DenseVector],
        spec: JoinSpec,
        params: M::Params,
        schedule: (usize, usize),
    ) -> Bits {
        let index =
            LshMips::<M>::build(Schedule::new(BUILD_BLOCK), rng, data, spec, params).unwrap();
        bits(
            &JoinEngine::with_config(index, engine(schedule))
                .run(queries)
                .unwrap(),
        )
    }

    /// The hashing join from `rng`, whatever the scan rule says of its inputs.
    fn hashed<M: JoinMap>(
        rng: &mut StdRng,
        data: &[DenseVector],
        queries: &[DenseVector],
        spec: JoinSpec,
        params: M::Params,
        schedule: (usize, usize),
    ) -> Vec<MatchPair> {
        LshJoin::<M>::new(params, data, queries, spec, engine(schedule))
            .unwrap()
            .hash(rng)
            .unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        // `bits ≤ 16` and `tables ≤ 48` over the default 2068-row tag: from one group of
        // tables (one bit a table) to sixteen (sixteen bits, three tables a group).
        #[test]
        fn the_symmetric_join_is_the_whole_index_join_group_by_group(
            (data, queries) in twinned_workload(),
            seed in any::<u64>(),
            s in 0.02f64..0.2,
            c in 0.3f64..0.95,
            bits_per_table in 1usize..=16,
            tables in 1usize..=48,
            probed in any::<bool>(),
        ) {
            let spec = JoinSpec::new(s, c, JoinVariant::Signed).unwrap();
            let params = SymmetricParams {
                bits_per_table,
                tables,
                probes: if probed { 2 } else { 0 },
                ..SymmetricParams::default()
            };
            for schedule in SCHEDULES {
                let expected = whole_index_join::<SymmetricSphereMap>(
                    &mut StdRng::seed_from_u64(seed), &data, &queries, spec, params, schedule,
                );
                let got = bits(&hashed::<SymmetricSphereMap>(
                    &mut StdRng::seed_from_u64(seed), &data, &queries, spec, params, schedule,
                ));
                prop_assert_eq!(&got, &expected, "schedule {:?}", schedule);
            }
        }

        #[test]
        fn the_alsh_join_is_the_whole_index_join(
            (data, queries) in twinned_workload(),
            seed in any::<u64>(),
            s in 0.02f64..0.2,
            c in 0.3f64..0.95,
            bits_per_table in 1usize..=16,
            tables in 1usize..=48,
            probed in any::<bool>(),
        ) {
            let spec = JoinSpec::new(s, c, JoinVariant::Unsigned).unwrap();
            let params = AlshParams {
                bits_per_table,
                tables,
                probes: if probed { 2 } else { 0 },
                ..AlshParams::default()
            };
            for schedule in SCHEDULES {
                let expected = whole_index_join::<SphereTransform>(
                    &mut StdRng::seed_from_u64(seed), &data, &queries, spec, params, schedule,
                );
                let got = bits(&hashed::<SphereTransform>(
                    &mut StdRng::seed_from_u64(seed), &data, &queries, spec, params, schedule,
                ));
                prop_assert_eq!(&got, &expected, "schedule {:?}", schedule);
            }
        }

        // A cost model under which scoring (hashing's multiply-adds too) is dear and a
        // hashed plane cheap, and tables under which only the chosen LSH family is below
        // the scan rule — the other's are too many, so it is priced as the scan: the
        // planner's pick runs the hashing join after the RNG has paid for the workload
        // sample.
        #[test]
        fn an_auto_join_of_an_lsh_pick_is_the_whole_index_join(
            (data, queries) in twinned(4..8, 200..300, 80..120),
            seed in any::<u64>(),
            s in 0.02f64..0.2,
            c in 0.3f64..0.95,
            symmetric in any::<bool>(),
            probed in any::<bool>(),
        ) {
            let spec = JoinSpec::new(s, c, JoinVariant::Signed).unwrap();
            let probes = if probed { 2 } else { 0 };
            let (few, many) = ((4, 1), (16, 48));
            let ((alsh_bits, alsh_tables), (symmetric_bits, symmetric_tables)) =
                if symmetric { (many, few) } else { (few, many) };
            let params = (
                AlshParams { bits_per_table: alsh_bits, tables: alsh_tables, probes, ..AlshParams::default() },
                SymmetricParams {
                    bits_per_table: symmetric_bits,
                    tables: symmetric_tables,
                    probes,
                    ..SymmetricParams::default()
                },
            );
            let (cheap, dear) = (1e-9, 1e9);
            let model = CostModel {
                score_f64_ns: dear,
                plane_ns: cheap,
                comparison_ns: cheap,
                column_ns: dear,
            };
            for schedule in SCHEDULES {
                let config = PlannerConfig {
                    alsh: params.0,
                    symmetric: params.1,
                    engine: engine(schedule),
                    ..PlannerConfig::default()
                };
                let planned = |rng: &mut StdRng| {
                    JoinPlanner::new(config, model).plan(rng, &data, &queries, spec).unwrap()
                };
                let mut rng = StdRng::seed_from_u64(seed);
                let plan = planned(&mut rng);
                let expected = match plan.choice {
                    IndexConfig::Alsh(params) => whole_index_join::<SphereTransform>(
                        &mut rng, &data, &queries, spec, params, schedule,
                    ),
                    IndexConfig::Symmetric(params) => whole_index_join::<SymmetricSphereMap>(
                        &mut rng, &data, &queries, spec, params, schedule,
                    ),
                    other => panic!("the model makes {} dear", other.family()),
                };
                prop_assert_eq!(plan.chosen_estimate().path, Some(JoinPath::Hash));
                let mut rng = StdRng::seed_from_u64(seed);
                let matches = match planned(&mut rng).choice {
                    IndexConfig::Alsh(params) => hashed::<SphereTransform>(
                        &mut rng, &data, &queries, spec, params, schedule,
                    ),
                    IndexConfig::Symmetric(params) => hashed::<SymmetricSphereMap>(
                        &mut rng, &data, &queries, spec, params, schedule,
                    ),
                    other => panic!("the model makes {} dear", other.family()),
                };
                prop_assert_eq!(&bits(&matches), &expected, "schedule {:?}", schedule);
            }
        }
    }

    /// Where one table's planes (4 × 20 002 coefficients) fill more than half the group
    /// budget, an ALSH join runs one table a group, and still answers as the whole index.
    #[test]
    fn an_alsh_join_of_one_table_a_group_is_the_whole_index_join() {
        let dim = 20_000;
        let mut rng = StdRng::seed_from_u64(0xCA9);
        let mut ball = |count: usize| -> Vec<DenseVector> {
            (0..count)
                .map(|_| ips_linalg::random::random_ball_vector(&mut rng, dim, 1.0).unwrap())
                .collect()
        };
        let data = ball(40);
        let queries: Vec<DenseVector> = data[..10]
            .iter()
            .zip(ball(10))
            .map(|(p, noise)| p.scaled(0.7).add(&noise.scaled(0.3)).unwrap())
            .collect();
        let spec = JoinSpec::new(0.05, 0.5, JoinVariant::Unsigned).unwrap();
        let params = AlshParams {
            bits_per_table: 4,
            tables: 6,
            ..AlshParams::default()
        };
        let expected = whole_index_join::<SphereTransform>(
            &mut StdRng::seed_from_u64(3),
            &data,
            &queries,
            spec,
            params,
            (2, 4),
        );
        let got = bits(&hashed::<SphereTransform>(
            &mut StdRng::seed_from_u64(3),
            &data,
            &queries,
            spec,
            params,
            (2, 4),
        ));
        assert_eq!(got, expected);
    }

    #[test]
    fn the_rule_scans_at_equality_and_hashes_one_multiply_add_below() {
        // One point and one query at the ALSH defaults: 2·k·L·h = 38 400 multiply-adds
        // of hashing against d of scanning.
        let planes = [12, 32, 50];
        assert!(scans(1, 1, 38_400, planes));
        assert!(!scans(1, 1, 38_401, planes));
        // Three points and a query: (3 + 1)·h of hashing against 3·d of scanning.
        assert!(scans(3, 1, 4, [1, 1, 3]));
        assert!(!scans(3, 1, 3, [1, 1, 2]));
        // No queries cost no scan; no planes are a defect the draw reports.
        assert!(scans(10, 0, 4, planes));
        assert!(!scans(10, 0, 4, [0, 32, 50]));
        assert!(!scans(10, 3, 4, [12, 0, 50]));
    }

    #[test]
    fn the_rule_does_not_overflow_near_usize_max() {
        let max = usize::MAX;
        // (2^64 − 1)² < 2^128: exact, and far above 2·(2^64 − 1) planes' hashing.
        assert!(!scans(max, max, 1, [1, 1, 1]));
        // Hashing past u128::MAX, scanning below it.
        assert!(scans(max, 1, 1, [max, max, 1]));
        assert!(scans(1, max, max, [max, max, max]));
        // Both past it: the verdict saturates to a scan, without a panic.
        assert!(scans(max, max, max, [max, max, max]));
    }

    /// The index's answer rule with every data point a candidate, one query and one
    /// point at a time: the last data point the map finds identical to the query, when
    /// it meets the promise; else the first point of the highest value, when it reaches
    /// `cs`.
    fn every_point_a_candidate<M: SphereMap>(
        map: &M,
        data: &[DenseVector],
        queries: &[DenseVector],
        spec: JoinSpec,
    ) -> Bits {
        let answer = |q: &DenseVector| {
            let score = |i: usize| (i, data[i].dot(q).unwrap());
            let key = map.diagonal_key(q);
            let twin = (0..data.len()).rev().find(|&i| {
                key.is_some() && map.diagonal_key(&data[i]) == key && map.identical(&data[i], q)
            });
            if let Some((i, ip)) = twin.map(score) {
                if spec.satisfies_promise(ip) {
                    return Some((i, ip));
                }
            }
            let mut best: Option<(usize, f64)> = None;
            for (i, ip) in (0..data.len()).map(score) {
                let value = spec.variant.value(ip);
                if best.is_none_or(|(_, b)| value > spec.variant.value(b)) {
                    best = Some((i, ip));
                }
            }
            best.filter(|&(_, ip)| spec.acceptable(ip))
        };
        let answers = queries.iter().map(answer).enumerate();
        answers
            .filter_map(|(j, hit)| hit.map(|(i, ip)| (i, j, ip.to_bits())))
            .collect()
    }

    /// The join of `run` where the rule scans, checked to have drawn nothing from the
    /// RNG, and the pairs the rule of the index gives with every point a candidate.
    fn scanned_and_expected<M: JoinMap>(
        data: &[DenseVector],
        queries: &[DenseVector],
        spec: JoinSpec,
        params: M::Params,
        schedule: (usize, usize),
    ) -> (Bits, Bits) {
        let join = LshJoin::<M>::new(params, data, queries, spec, engine(schedule)).unwrap();
        assert!(join.scans(), "{} × {} scans", data.len(), queries.len());
        let mut rng = StdRng::seed_from_u64(5);
        let pairs = run::<M, _>(params, &mut rng, data, queries, spec, engine(schedule)).unwrap();
        assert_eq!(
            rng.next_u64(),
            StdRng::seed_from_u64(5).next_u64(),
            "the scan drew"
        );
        let expected = every_point_a_candidate(&join.map, data, queries, spec);
        (bits(&pairs), expected)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // At the default tables these workloads are far below the rule: both families
        // scan, under both variants, and every query's answer is the index's with every
        // point a candidate — twinned queries answered by the diagonal of Section 4.2.
        #[test]
        fn below_the_rule_every_point_is_a_candidate(
            (data, queries) in twinned_workload(),
            s in 0.02f64..0.2,
            c in 0.3f64..0.95,
            signed in any::<bool>(),
        ) {
            let variant = if signed { JoinVariant::Signed } else { JoinVariant::Unsigned };
            let spec = JoinSpec::new(s, c, variant).unwrap();
            for schedule in SCHEDULES {
                let (got, expected) = scanned_and_expected::<SphereTransform>(
                    &data, &queries, spec, AlshParams::default(), schedule,
                );
                prop_assert_eq!(&got, &expected, "alsh, schedule {:?}", schedule);
                let (got, expected) = scanned_and_expected::<SymmetricSphereMap>(
                    &data, &queries, spec, SymmetricParams::default(), schedule,
                );
                prop_assert_eq!(&got, &expected, "symmetric, schedule {:?}", schedule);
            }
        }
    }

    /// Below the rule the join fails as the hashing join does, with the same error, in
    /// the same order — the data's defects before the queries' — under both maps; and a
    /// join of no planes is not scanned, even with no query to scan.
    #[test]
    fn the_scan_fails_where_the_hashing_join_fails() {
        let v = |xs: &[f64]| DenseVector::from(xs);
        let (good, far, short) = (v(&[0.3, 0.1, 0.2]), v(&[2.0, 0.1, 0.2]), v(&[0.1, 0.2]));
        let cases = [
            (
                vec![good.clone(), far.clone()],
                vec![good.clone(), short.clone()],
            ),
            (
                vec![good.clone(), good.clone()],
                vec![good.clone(), far.clone()],
            ),
            (vec![good.clone()], vec![short.clone(), far.clone()]),
        ];
        let spec = JoinSpec::new(0.05, 0.5, JoinVariant::Signed).unwrap();
        fn both<M: JoinMap>(
            params: M::Params,
            data: &[DenseVector],
            queries: &[DenseVector],
            spec: JoinSpec,
        ) {
            let join = LshJoin::<M>::new(params, data, queries, spec, engine((2, 1))).unwrap();
            assert!(join.scans());
            let scanned = join.scan();
            assert!(scanned.is_err(), "{data:?} × {queries:?}");
            assert_eq!(scanned, join.hash(&mut StdRng::seed_from_u64(1)));
        }
        for (data, queries) in &cases {
            both::<SphereTransform>(AlshParams::default(), data, queries, spec);
            both::<SymmetricSphereMap>(SymmetricParams::default(), data, queries, spec);
        }
        let no_planes = AlshParams {
            bits_per_table: 0,
            ..AlshParams::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let engine = EngineConfig::default();
        let data = [good];
        assert!(run::<SphereTransform, _>(no_planes, &mut rng, &data, &[], spec, engine).is_err());
    }

    /// A kept tag symbol is 16 bits. At ε = 3/65530 the tag's field is GF(65537), whose
    /// symbols may not fit: the join is refused when it is set up, so it fails alike
    /// whether it would scan or hash, and before any plane is drawn.
    #[test]
    fn a_field_past_sixteen_bits_is_refused_at_set_up() {
        let spec = JoinSpec::new(0.05, 0.5, JoinVariant::Signed).unwrap();
        let data = [DenseVector::from(&[0.3, 0.1][..])];
        let params = SymmetricParams {
            epsilon: 3.0 / 65530.0,
            ..SymmetricParams::default()
        };
        let engine = EngineConfig::default();
        let refused = LshJoin::<SymmetricSphereMap>::new(params, &data, &data, spec, engine);
        let error = refused.err().expect("GF(65537) is refused").to_string();
        assert!(error.contains("16 bits, not GF(65537)"), "{error}");
    }

    /// The planted joins of the repository benchmark at the hard background scale (1),
    /// where the norm bound keeps every vector: the square one (6000 × 6000, d = 48)
    /// hashes under both families, 12 000·384·50 ≈ 230 M multiply-adds of ALSH hashing
    /// against 1.73 G of scanning; the skinny one (12 000 × 64) scans.
    #[test]
    fn the_hard_square_join_hashes_and_the_hard_skinny_one_scans() {
        use ips_datagen::planted::{PlantedConfig, PlantedInstance};
        let spec = JoinSpec::new(0.8, 0.6, JoinVariant::Signed).unwrap();
        for (data, queries, planted, hashes) in [(6000, 6000, 256, true), (12_000, 64, 16, false)] {
            let inst = PlantedInstance::generate(
                &mut StdRng::seed_from_u64(7),
                PlantedConfig {
                    data,
                    queries,
                    dim: 48,
                    background_scale: 1.0,
                    planted_ip: 0.85,
                    planted,
                },
            )
            .unwrap();
            let kept = norm_bound::prune(inst.data(), inst.queries(), spec).unwrap();
            let (data, queries) = (kept.data.vectors(), kept.queries.vectors());
            assert_eq!(
                (data.len(), queries.len()),
                (inst.data().len(), inst.queries().len())
            );
            let config = EngineConfig::default();
            let alsh =
                LshJoin::<SphereTransform>::new(AlshParams::default(), data, queries, spec, config);
            let symmetric = LshJoin::<SymmetricSphereMap>::new(
                SymmetricParams::default(),
                data,
                queries,
                spec,
                config,
            );
            assert_eq!(
                alsh.unwrap().scans(),
                !hashes,
                "alsh, {} queries",
                queries.len()
            );
            assert_eq!(
                symmetric.unwrap().scans(),
                !hashes,
                "symmetric, {} queries",
                queries.len()
            );
        }
    }
}

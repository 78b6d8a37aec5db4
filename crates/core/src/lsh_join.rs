//! The LSH join: Sections 4.1 and 4.2 run as a join, one group of tables at a time.
//!
//! An [`LshMips`](crate::lsh_mips::LshMips) is what a *server* holds: all `L` tables and
//! all `k·L` planes they hash with, for as long as it serves. A join needs none of it at
//! once. A query's answer is its diagonal probe, else the best candidate of the union of
//! its buckets over the `L` tables — and the best of a union is the best of the bests of
//! its parts. So [`run`] draws the tables' composites a group at a time, hashes the data
//! (through [`LshIndex::extend_blocks`]) and the queries against that group's planes
//! only, folds each query's best candidate of the group into a running [`ShardParts`]
//! with [`keep_best`], drops the group and draws the next; [`merge_two_step`] finishes
//! each query. This is the partition-at-a-time join of Pagh, Pham, Silvestri and
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
//! data passes in blocks of [`BUILD_BLOCK`] points, the query passes in the engine's
//! chunks, both through [`ips_linalg::par::map_blocks`] / [`LshIndex::extend_blocks`],
//! whose results never depend on the schedule.

use crate::diagonal::Diagonal;
use crate::engine::EngineConfig;
use crate::error::Result;
use crate::lsh_mips::{best_candidate, common_dim, diagonal_hit, slot_id, SphereMap, BUILD_BLOCK};
use crate::problem::{JoinSpec, MatchPair};
use crate::shard::{keep_best, merge_two_step, ShardParts};
use ips_linalg::par::{map_blocks, Schedule};
use ips_linalg::DenseVector;
use ips_lsh::bank::{Point, Side};
use ips_lsh::table::{BlockHasher, IndexParams, LshIndex};
use rand::Rng;

/// Planes a group of tables holds at most (see the module docs): a constant of the join,
/// not a knob.
const GROUP_PLANE_BYTES: usize = 1 << 20;

/// What the group loop asks of a [`SphereMap`] beyond what an index asks: the dimension
/// its planes live in, and a way to present a point to every group without redoing the
/// plane-independent half of [`SphereMap::with_point`]. The defaults keep nothing, which
/// is right for a map whose kernel embeds the vector itself.
pub(crate) trait JoinMap: SphereMap {
    /// The coefficients of one plane: the dimension of the sphere the family hashes on.
    fn plane_rows(&self) -> usize;

    /// The `u16` words a join keeps of each point.
    fn kept_words(&self) -> usize {
        0
    }

    /// Checks `v` as a vector on `side` — failing as [`SphereMap::with_point`] does —
    /// writes what a join keeps of it into `kept` ([`JoinMap::kept_words`] words) and
    /// returns its diagonal key.
    fn keep(&self, side: Side, v: &DenseVector, _kept: &mut [u16]) -> Result<Option<u64>> {
        self.with_point(side, v, |_, key| Ok(key))
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

/// The `(cs, s)` join of `queries` against `data` under the map `M`, with the tables of
/// `params` drawn from `rng` (see the module docs). The pairs are those of building
/// `LshMips::<M>` over `data` from the same RNG state and running it through a
/// `JoinEngine`, at every engine schedule; so are the errors.
pub(crate) fn run<M: JoinMap, R: Rng + ?Sized>(
    params: M::Params,
    rng: &mut R,
    data: &[DenseVector],
    queries: &[DenseVector],
    spec: JoinSpec,
    engine: EngineConfig,
) -> Result<Vec<MatchPair>> {
    let dim = common_dim(data)?;
    slot_id(data.len())?;
    let map = M::new(dim, &spec, &params)?;
    let family = map.family()?;
    let tuning = M::tuning(&params);
    let IndexParams { k, l } = tuning.tables;
    let table_bytes = k * map.plane_rows() * std::mem::size_of::<f64>();
    let group = (GROUP_PLANE_BYTES / table_bytes.max(1)).max(1);
    let (threads, chunk) = (engine.resolved_threads(), engine.resolved_chunk_size());
    let schedule = Schedule {
        threads,
        block: BUILD_BLOCK,
    };
    let mut sample = |tables: usize| {
        LshIndex::build_scheduled(schedule, &family, IndexParams { k, l: tables }, &[], rng)
    };
    // The first group is drawn before the data is looked at, so that a defect of the
    // table parameters is reported before one of the data, as by an index build.
    let mut next = Some(sample(group.min(l))?);

    let words = map.kept_words();
    let (kept_data, keys) = keep(&map, Side::Data, data, (BUILD_BLOCK, threads), |_, key| {
        Ok(key)
    })?;
    let mut diagonal = Diagonal::with_capacity(keys.iter().flatten().count());
    for (slot, key) in keys.into_iter().enumerate() {
        if let Some(key) = key {
            diagonal.insert(key, slot as u32);
        }
    }
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
        // The queries are presented once the first group's tables are laid out: a join
        // of one group never holds them beside the build's filing maps.
        if queried.is_none() {
            let probe = |q: &DenseVector, key| {
                let exact = diagonal_hit(&map, &diagonal, data, q, key)?;
                Ok(ShardParts { exact, best: None })
            };
            queried = Some(keep(&map, Side::Query, queries, (chunk, threads), probe)?);
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
                        let candidates = index.probe_lookup(point, tuning.probes)?;
                        best_candidate(&spec, data, q, candidates)
                    })?;
                    if let Some(hit) = hit {
                        keep_best(&spec, &mut part.best, hit);
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
    let pairs = parts.iter().enumerate().filter_map(|(query_index, part)| {
        let hit = merge_two_step(&spec, std::slice::from_ref(part))?;
        Some(MatchPair {
            data_index: hit.data_index,
            query_index,
            inner_product: hit.inner_product,
        })
    });
    Ok(pairs.collect())
}

/// What the join keeps of each of `vectors` on `side` ([`JoinMap::keep`]), in blocks of
/// `size`, with `then(v, key)` of each vector and its diagonal key.
fn keep<M: JoinMap, T: Clone + Default + Send>(
    map: &M,
    side: Side,
    vectors: &[DenseVector],
    (size, threads): (usize, usize),
    then: impl Fn(&DenseVector, Option<u64>) -> Result<T> + Sync,
) -> Result<(Vec<u16>, Vec<T>)> {
    let words = map.kept_words();
    let mut kept = vec![0u16; vectors.len() * words];
    let mut out = vec![T::default(); vectors.len()];
    map_blocks(
        threads,
        &mut blocks(size, &mut out, &mut kept, words),
        |_, (first, out, kept)| -> Result<()> {
            for (i, out) in out.iter_mut().enumerate() {
                let v = &vectors[*first + i];
                *out = then(v, map.keep(side, v, &mut kept[i * words..(i + 1) * words])?)?;
            }
            Ok(())
        },
    )?;
    Ok((kept, out))
}

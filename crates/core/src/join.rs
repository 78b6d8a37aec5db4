//! Approximate `(cs, s)` joins assembled from the search structures.
//!
//! A join is "build an index over `P`, query it with every `q ∈ Q`" (the reduction the
//! paper uses throughout: a subquadratic-query index immediately gives a subquadratic
//! join). Three joins are provided, one per Section 4 data structure:
//!
//! * [`alsh_join`] — the Section 4.1 asymmetric-LSH index ([`AlshMipsIndex`]);
//! * [`symmetric_join`] — the Section 4.2 symmetric LSH ([`SymmetricLshMips`]);
//! * [`sketch_join`] — the Section 4.3 linear-sketch structure
//!   ([`crate::mips::SketchMipsAdapter`] over `ips-sketch`);
//!
//! plus [`index_join`], the generic driver that works with any [`MipsIndex`]. The three
//! `*_engine` builders index the caller's slice where it stands — the index borrows
//! it for the engine's lifetime, no copy of the data set is made. All four
//! entry points build (or borrow) an index and hand the query set to
//! [`JoinEngine::run`] — the unified parallel, chunk-batched driver — so they share one
//! scheduling, batching and result-assembly path. Every reported pair carries its exact
//! inner product, and the engine never reports a pair below `cs`, so the outputs
//! satisfy the validity half of Definition 1 by construction; recall is what the
//! experiments measure.
//!
//! Each `*_join` function has an `*_engine` sibling returning the configured
//! [`JoinEngine`] instead of running it, for callers that want to reuse the index
//! across query batches or pick a custom [`EngineConfig`]. Callers that do not
//! want to pick a strategy at all should use [`crate::planner::auto_join`], which
//! estimates each strategy's cost on the workload and dispatches the winner
//! through these same entry points.
//!
//! **These free functions are the legacy surface.** New code should prefer the
//! fluent [`crate::facade::JoinBuilder`] (`Join::data(d).queries(q)…run()`),
//! which unifies all of them behind one typed entry point; every `*_join`
//! function here is now a thin shim over that builder and remains
//! bit-identical to its pre-facade behaviour (see `MIGRATION.md`).
//!
//! # Contract
//!
//! Every entry point honours the validity half of Definition 1 by construction —
//! no reported pair falls below `cs` — and only ever *misses* promised queries;
//! see the [`JoinSpec`](crate::problem::JoinSpec#validity-contract) rustdoc for
//! the full contract. Engine semantics note: an **empty query set** joins to an
//! empty result across all entry points (the seed's sketch path used to reject
//! it; the engine unified the behaviour). An empty *data* set still fails at
//! index construction or on the first search, as before.

use crate::asymmetric::{AlshMipsIndex, AlshParams};
use crate::engine::{EngineConfig, JoinEngine};
use crate::error::Result;
use crate::facade::{Join, Strategy};
use crate::mips::{MipsIndex, SketchMipsAdapter};
use crate::problem::{JoinSpec, MatchPair};
use crate::symmetric::{SymmetricLshMips, SymmetricParams};
use ips_linalg::DenseVector;
use ips_sketch::linf_mips::MaxIpConfig;
use rand::Rng;

/// Runs a `(cs, s)` join through an already-built [`MipsIndex`].
///
/// Legacy shim: equivalent to `JoinEngine::new(index).run(queries)`, which is
/// also the execution core every [`crate::facade::JoinBuilder`] run ends in.
pub fn index_join<I: MipsIndex + Sync>(
    index: &I,
    queries: &[DenseVector],
) -> Result<Vec<MatchPair>> {
    JoinEngine::new(index).run(queries)
}

/// Builds the Section 4.1 asymmetric-LSH index over `data` and wraps it in an engine.
pub fn alsh_engine<'a, R: Rng + ?Sized>(
    rng: &mut R,
    data: &'a [DenseVector],
    spec: JoinSpec,
    params: AlshParams,
    config: EngineConfig,
) -> Result<JoinEngine<AlshMipsIndex<'a>>> {
    alsh_engine_scored(
        rng,
        data,
        spec,
        params,
        config,
        crate::kernel::ScoringOptions::default(),
    )
}

/// [`alsh_engine`] with a scoring-kernel selection: `quantized=true` enables
/// the cheap candidate-scoring kernel (identical results — see
/// [`crate::kernel`]). The default options are exactly [`alsh_engine`].
pub fn alsh_engine_scored<'a, R: Rng + ?Sized>(
    rng: &mut R,
    data: &'a [DenseVector],
    spec: JoinSpec,
    params: AlshParams,
    config: EngineConfig,
    scoring: crate::kernel::ScoringOptions,
) -> Result<JoinEngine<AlshMipsIndex<'a>>> {
    let mut index = AlshMipsIndex::build(rng, data, spec, params)?;
    index.set_scoring(scoring)?;
    Ok(JoinEngine::with_config(index, config))
}

/// The Section 4.1 join: builds an [`AlshMipsIndex`] over `data` and queries it with
/// every element of `queries`.
///
/// Legacy shim over [`crate::facade::JoinBuilder`] (bit-identical given the
/// same RNG state; proptested in `tests/tests/proptest_facade.rs`).
pub fn alsh_join<R: Rng + ?Sized>(
    rng: &mut R,
    data: &[DenseVector],
    queries: &[DenseVector],
    spec: JoinSpec,
    params: AlshParams,
) -> Result<Vec<MatchPair>> {
    Ok(Join::data(data)
        .queries(queries)
        .spec(spec)
        .strategy(Strategy::Alsh)
        .alsh_params(params)
        .run_with_rng(rng)?
        .matches)
}

/// Builds the Section 4.2 symmetric-LSH index over `data` and wraps it in an engine.
pub fn symmetric_engine<'a, R: Rng + ?Sized>(
    rng: &mut R,
    data: &'a [DenseVector],
    spec: JoinSpec,
    params: SymmetricParams,
    config: EngineConfig,
) -> Result<JoinEngine<SymmetricLshMips<'a>>> {
    symmetric_engine_scored(
        rng,
        data,
        spec,
        params,
        config,
        crate::kernel::ScoringOptions::default(),
    )
}

/// [`symmetric_engine`] with a scoring-kernel selection: `quantized=true`
/// enables the cheap candidate-scoring kernel (identical results — see
/// [`crate::kernel`]). The default options are exactly [`symmetric_engine`].
pub fn symmetric_engine_scored<'a, R: Rng + ?Sized>(
    rng: &mut R,
    data: &'a [DenseVector],
    spec: JoinSpec,
    params: SymmetricParams,
    config: EngineConfig,
    scoring: crate::kernel::ScoringOptions,
) -> Result<JoinEngine<SymmetricLshMips<'a>>> {
    let mut index = SymmetricLshMips::build(rng, data, spec, params)?;
    index.set_scoring(scoring)?;
    Ok(JoinEngine::with_config(index, config))
}

/// The Section 4.2 join: symmetric LSH over a shared unit-ball domain.
///
/// Legacy shim over [`crate::facade::JoinBuilder`] (bit-identical given the
/// same RNG state; proptested in `tests/tests/proptest_facade.rs`).
pub fn symmetric_join<R: Rng + ?Sized>(
    rng: &mut R,
    data: &[DenseVector],
    queries: &[DenseVector],
    spec: JoinSpec,
    params: SymmetricParams,
) -> Result<Vec<MatchPair>> {
    Ok(Join::data(data)
        .queries(queries)
        .spec(spec)
        .strategy(Strategy::Symmetric)
        .symmetric_params(params)
        .run_with_rng(rng)?
        .matches)
}

/// Builds the Section 4.3 sketch structure over `data` and wraps it in an engine.
pub fn sketch_engine<'a, R: Rng + ?Sized>(
    rng: &mut R,
    data: &'a [DenseVector],
    spec: JoinSpec,
    config: MaxIpConfig,
    leaf_size: usize,
    engine_config: EngineConfig,
) -> Result<JoinEngine<SketchMipsAdapter<'a>>> {
    let index = SketchMipsAdapter::build(rng, data, spec, config, leaf_size)?;
    Ok(JoinEngine::with_config(index, engine_config))
}

/// The Section 4.3 join: the unsigned `(cs, s)` join computed through the linear-sketch
/// MIPS structure of `ips-sketch`. The spec's variant is ignored — the sketch structure
/// is inherently unsigned (it estimates `‖Aq‖_∞`).
///
/// Legacy shim over [`crate::facade::JoinBuilder`] (bit-identical given the
/// same RNG state; proptested in `tests/tests/proptest_facade.rs`).
pub fn sketch_join<R: Rng + ?Sized>(
    rng: &mut R,
    data: &[DenseVector],
    queries: &[DenseVector],
    spec: JoinSpec,
    config: MaxIpConfig,
    leaf_size: usize,
) -> Result<Vec<MatchPair>> {
    Ok(Join::data(data)
        .queries(queries)
        .spec(spec)
        .strategy(Strategy::Sketch)
        .sketch_config(config)
        .sketch_leaf_size(leaf_size)
        .run_with_rng(rng)?
        .matches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_join;
    use crate::problem::{evaluate_join, JoinVariant};
    use ips_datagen::planted::{PlantedConfig, PlantedInstance};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x10B5)
    }

    fn planted(rng: &mut StdRng) -> PlantedInstance {
        PlantedInstance::generate(
            rng,
            PlantedConfig {
                data: 250,
                queries: 30,
                dim: 24,
                background_scale: 0.05,
                planted_ip: 0.85,
                planted: 6,
            },
        )
        .unwrap()
    }

    #[test]
    fn alsh_join_recovers_planted_pairs() {
        let mut r = rng();
        let inst = planted(&mut r);
        let spec = JoinSpec::new(0.8, 0.6, JoinVariant::Signed).unwrap();
        let pairs = alsh_join(
            &mut r,
            inst.data(),
            inst.queries(),
            spec,
            AlshParams::default(),
        )
        .unwrap();
        let reported: Vec<(usize, usize)> = pairs
            .iter()
            .map(|p| (p.data_index, p.query_index))
            .collect();
        let recall = inst.recall(&reported, spec.relaxed_threshold());
        assert!(recall >= 0.8, "ALSH join recall too low: {recall}");
        let (_, valid) = evaluate_join(inst.data(), inst.queries(), &spec, &pairs).unwrap();
        assert!(valid, "ALSH join reported an invalid pair");
    }

    #[test]
    fn sketch_join_recovers_planted_pairs() {
        let mut r = rng();
        let inst = planted(&mut r);
        let spec = JoinSpec::new(0.8, 0.5, JoinVariant::Unsigned).unwrap();
        let config = MaxIpConfig {
            kappa: 2.0,
            copies: 11,
            rows: None,
        };
        let pairs = sketch_join(&mut r, inst.data(), inst.queries(), spec, config, 8).unwrap();
        let reported: Vec<(usize, usize)> = pairs
            .iter()
            .map(|p| (p.data_index, p.query_index))
            .collect();
        let recall = inst.recall(&reported, spec.relaxed_threshold());
        assert!(recall >= 0.8, "sketch join recall too low: {recall}");
        let (_, valid) = evaluate_join(inst.data(), inst.queries(), &spec, &pairs).unwrap();
        assert!(valid, "sketch join reported an invalid pair");
    }

    #[test]
    fn joins_agree_with_brute_force_on_which_queries_have_partners() {
        let mut r = rng();
        let inst = planted(&mut r);
        let spec = JoinSpec::new(0.8, 0.6, JoinVariant::Signed).unwrap();
        let exact = brute_force_join(inst.data(), inst.queries(), &spec).unwrap();
        let exact_queries: std::collections::HashSet<usize> =
            exact.iter().map(|p| p.query_index).collect();
        // Every planted query is found by brute force.
        for &(_, qi) in inst.planted_pairs() {
            assert!(exact_queries.contains(&qi));
        }
        // The approximate joins may only report queries among those (no false answers
        // above cs exist for other queries in this instance because the background is
        // far below cs).
        let pairs = alsh_join(
            &mut r,
            inst.data(),
            inst.queries(),
            spec,
            AlshParams::default(),
        )
        .unwrap();
        for p in &pairs {
            assert!(exact_queries.contains(&p.query_index));
        }
    }

    #[test]
    fn empty_query_set_joins_to_empty_everywhere() {
        let mut r = rng();
        let inst = planted(&mut r);
        let spec = JoinSpec::new(0.8, 0.6, JoinVariant::Unsigned).unwrap();
        let index = crate::mips::BruteForceMipsIndex::new(inst.data().to_vec(), spec);
        assert!(index_join(&index, &[]).unwrap().is_empty());
        assert!(
            alsh_join(&mut r, inst.data(), &[], spec, AlshParams::default())
                .unwrap()
                .is_empty()
        );
        let config = MaxIpConfig {
            kappa: 2.0,
            copies: 5,
            rows: None,
        };
        assert!(sketch_join(&mut r, inst.data(), &[], spec, config, 8)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn symmetric_join_runs_on_shared_domain() {
        let mut r = rng();
        // Small instance: symmetric construction is heavier due to the tag dimension.
        let inst = PlantedInstance::generate(
            &mut r,
            PlantedConfig {
                data: 60,
                queries: 8,
                dim: 12,
                background_scale: 0.05,
                planted_ip: 0.9,
                planted: 3,
            },
        )
        .unwrap();
        let spec = JoinSpec::new(0.8, 0.5, JoinVariant::Signed).unwrap();
        let pairs = symmetric_join(
            &mut r,
            inst.data(),
            inst.queries(),
            spec,
            SymmetricParams::default(),
        )
        .unwrap();
        let reported: Vec<(usize, usize)> = pairs
            .iter()
            .map(|p| (p.data_index, p.query_index))
            .collect();
        let recall = inst.recall(&reported, spec.relaxed_threshold());
        assert!(
            recall >= 2.0 / 3.0,
            "symmetric join recall too low: {recall}"
        );
        let (_, valid) = evaluate_join(inst.data(), inst.queries(), &spec, &pairs).unwrap();
        assert!(valid);
    }
}

//! Experiment E5: join runtime scaling — the subquadratic upper bounds against the
//! quadratic baseline.
//!
//! On planted-pair workloads of growing size the four joins are timed end to end:
//! exact brute force (`O(n·|Q|·d)`), the Section 4.1 ALSH join, the Section 4.2
//! symmetric-LSH join, and the Section 4.3 sketch join — the three index joins with
//! their build and their query pass timed apart (the table's `build + query` columns).
//! The LSH builds hash on every available CPU, so the build column is the one that
//! moves with the core count.
//! Recall of the planted pairs and validity (no reported pair below `cs`) are checked
//! alongside the wall-clock numbers. The shape to verify against the paper:
//! the brute-force column grows linearly in `n` (quadratically in total work), while the
//! LSH/sketch columns grow sublinearly and keep recall high; absolute numbers are
//! machine-dependent.

use ips_bench::{fmt, no_args, render_table, Timer};
use ips_core::asymmetric::{AlshParams, SphereTransform};
use ips_core::brute::brute_force_join;
use ips_core::engine::{EngineConfig, JoinEngine};
use ips_core::lsh_mips::{LshMips, BUILD_BLOCK};
use ips_core::mips::{BruteForceMipsIndex, SketchMipsAdapter};
use ips_core::problem::{evaluate_join, JoinSpec, JoinVariant, MatchPair};
use ips_core::symmetric::{SymmetricParams, SymmetricSphereMap};
use ips_datagen::planted::{PlantedConfig, PlantedInstance};
use ips_linalg::par::Schedule;
use ips_sketch::linf_mips::MaxIpConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An index join in its two phases: `(pairs, build ms, query ms)`.
fn index_join<I>(
    build: impl FnOnce() -> I,
    query: impl FnOnce(&I) -> Vec<MatchPair>,
) -> (Vec<MatchPair>, f64, f64) {
    let t = Timer::start();
    let built = build();
    let build_ms = t.elapsed_ms();
    let matches = query(&built);
    (matches, build_ms, t.elapsed_ms() - build_ms)
}

fn main() {
    no_args();
    let mut rng = StdRng::seed_from_u64(0xE5);
    println!("== E5: (cs, s) join scaling on planted-pair workloads ==\n");
    let spec = JoinSpec::new(0.8, 0.6, JoinVariant::Unsigned).unwrap();
    let mut rows = Vec::new();
    for &n in &[500usize, 1000, 2000, 4000, 8000] {
        let inst = PlantedInstance::generate(
            &mut rng,
            PlantedConfig {
                data: n,
                queries: 64,
                dim: 48,
                background_scale: 0.05,
                planted_ip: 0.85,
                planted: 16,
            },
        )
        .expect("valid config");

        let t = Timer::start();
        let exact = brute_force_join(inst.data(), inst.queries(), &spec).unwrap();
        let t_brute = t.elapsed_ms();

        let (data, queries, schedule) = (inst.data(), inst.queries(), Schedule::new(BUILD_BLOCK));
        let (alsh, alsh_build, alsh_query) = index_join(
            || {
                let params = AlshParams::default();
                let index =
                    LshMips::<SphereTransform>::build(schedule, &mut rng, data, spec, params);
                JoinEngine::new(index.unwrap())
            },
            |built| built.run(queries).unwrap(),
        );
        let sketch_config = MaxIpConfig {
            kappa: 2.0,
            copies: 9,
            rows: None,
        };
        let (sketch, sketch_build, sketch_query) = index_join(
            || {
                JoinEngine::new(
                    SketchMipsAdapter::build(&mut rng, data, spec, sketch_config, 16).unwrap(),
                )
            },
            |built| built.run(queries).unwrap(),
        );
        // Seeded as the facade seeds a join, not from `rng`: the workloads and the
        // other columns stay the ones recorded before this column existed.
        let mut own = StdRng::seed_from_u64(42);
        let (symmetric, symmetric_build, symmetric_query) = index_join(
            || {
                let params = SymmetricParams::default();
                let index =
                    LshMips::<SymmetricSphereMap>::build(schedule, &mut own, data, spec, params);
                JoinEngine::new(index.unwrap())
            },
            |built| built.run(queries).unwrap(),
        );

        let pairs_of = |pairs: &[MatchPair]| -> Vec<(usize, usize)> {
            pairs
                .iter()
                .map(|p| (p.data_index, p.query_index))
                .collect()
        };
        let recall_alsh = inst.recall(&pairs_of(&alsh), spec.relaxed_threshold());
        let recall_sketch = inst.recall(&pairs_of(&sketch), spec.relaxed_threshold());
        let recall_symmetric = inst.recall(&pairs_of(&symmetric), spec.relaxed_threshold());
        let (_, valid_alsh) = evaluate_join(inst.data(), inst.queries(), &spec, &alsh).unwrap();
        let (_, valid_sketch) = evaluate_join(inst.data(), inst.queries(), &spec, &sketch).unwrap();
        let (_, valid_symmetric) =
            evaluate_join(inst.data(), inst.queries(), &spec, &symmetric).unwrap();

        rows.push(vec![
            n.to_string(),
            exact.len().to_string(),
            fmt(t_brute, 1),
            format!("{} + {}", fmt(alsh_build, 1), fmt(alsh_query, 1)),
            fmt(recall_alsh, 2),
            valid_alsh.to_string(),
            format!("{} + {}", fmt(sketch_build, 1), fmt(sketch_query, 1)),
            fmt(recall_sketch, 2),
            valid_sketch.to_string(),
            format!("{} + {}", fmt(symmetric_build, 1), fmt(symmetric_query, 1)),
            fmt(recall_symmetric, 2),
            valid_symmetric.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "|P|",
                "exact pairs",
                "brute ms",
                "ALSH build + query ms",
                "ALSH recall",
                "ALSH valid",
                "sketch build + query ms",
                "sketch recall",
                "sketch valid",
                "symmetric build + query ms",
                "symmetric recall",
                "symmetric valid",
            ],
            &rows
        )
    );
    let cores = ips_linalg::par::available_threads();
    println!(
        "\n(64 queries, d = 48, s = 0.8, c = 0.6; index build and query pass timed apart, \
         {cores} CPUs available to both)"
    );

    // The JoinEngine's parallel driver against the serial one-query loop on the
    // largest instance: the speedup every join entry point now inherits.
    let inst = PlantedInstance::generate(
        &mut rng,
        PlantedConfig {
            data: 8000,
            queries: 256,
            dim: 48,
            background_scale: 0.05,
            planted_ip: 0.85,
            planted: 16,
        },
    )
    .expect("valid config");
    let index = BruteForceMipsIndex::new(inst.data().to_vec(), spec);
    let serial_engine = JoinEngine::with_config(
        &index,
        EngineConfig {
            threads: 1,
            chunk_size: 1,
        },
    );
    let t = Timer::start();
    let serial = serial_engine.run_serial(inst.queries()).unwrap();
    let t_serial = t.elapsed_ms();
    let parallel_engine = JoinEngine::new(&index);
    let t = Timer::start();
    let parallel = parallel_engine.run(inst.queries()).unwrap();
    let t_parallel = t.elapsed_ms();
    assert_eq!(serial, parallel, "engine must not change join results");
    println!(
        "\nJoinEngine on |P| = 8000, |Q| = 256 (brute-force index, {cores} cores): \
serial loop {} ms, parallel batched {} ms, speedup {}x",
        fmt(t_serial, 1),
        fmt(t_parallel, 1),
        fmt(t_serial / t_parallel.max(1e-9), 2),
    );
}

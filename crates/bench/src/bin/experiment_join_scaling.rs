//! Experiment E5: join runtime scaling — the subquadratic upper bounds against the
//! quadratic baseline.
//!
//! On planted-pair workloads of growing size the four joins are timed end to end:
//! exact brute force (`O(n·|Q|·d)`), the Section 4.1 ALSH join, the Section 4.2
//! symmetric-LSH join, and the Section 4.3 sketch join. Recall of the planted pairs and validity (no reported pair below `cs`)
//! are checked alongside the wall-clock numbers. The shape to verify against the paper:
//! the brute-force column grows linearly in `n` (quadratically in total work), while the
//! LSH/sketch columns grow sublinearly and keep recall high; absolute numbers are
//! machine-dependent.

use ips_bench::{fmt, render_table, JsonReporter, Timer};
use ips_core::brute::brute_force_join;
use ips_core::engine::{EngineConfig, JoinEngine};
use ips_core::facade::{Join, Strategy};
use ips_core::mips::BruteForceMipsIndex;
use ips_core::problem::{evaluate_join, JoinSpec, JoinVariant};
use ips_datagen::planted::{PlantedConfig, PlantedInstance};
use ips_sketch::linf_mips::MaxIpConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut json = JsonReporter::from_env_args();
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
        json.record(
            "join_scaling",
            &[("algo", "brute".to_string()), ("n", n.to_string())],
            t.elapsed_ns(),
            (2 * n * 64 * 48) as f64,
        );

        let t = Timer::start();
        let alsh = Join::data(inst.data())
            .queries(inst.queries())
            .spec(spec)
            .strategy(Strategy::Alsh)
            .run_with_rng(&mut rng)
            .unwrap()
            .matches;
        let t_alsh = t.elapsed_ms();
        json.record(
            "join_scaling",
            &[("algo", "alsh".to_string()), ("n", n.to_string())],
            t.elapsed_ns(),
            0.0,
        );

        let t = Timer::start();
        let sketch = Join::data(inst.data())
            .queries(inst.queries())
            .spec(spec)
            .strategy(Strategy::Sketch)
            .sketch_config(MaxIpConfig {
                kappa: 2.0,
                copies: 9,
                rows: None,
            })
            .sketch_leaf_size(16)
            .run_with_rng(&mut rng)
            .unwrap()
            .matches;
        let t_sketch = t.elapsed_ms();
        json.record(
            "join_scaling",
            &[("algo", "sketch".to_string()), ("n", n.to_string())],
            t.elapsed_ns(),
            0.0,
        );

        // Seeded by the builder, not from `rng`: the workloads and the other columns
        // stay the ones recorded before this column existed.
        let t = Timer::start();
        let symmetric = Join::data(inst.data())
            .queries(inst.queries())
            .spec(spec)
            .strategy(Strategy::Symmetric)
            .run()
            .unwrap()
            .matches;
        let t_symmetric = t.elapsed_ms();
        json.record(
            "join_scaling",
            &[("algo", "symmetric".to_string()), ("n", n.to_string())],
            t.elapsed_ns(),
            0.0,
        );

        let pairs_of = |pairs: &[ips_core::problem::MatchPair]| -> Vec<(usize, usize)> {
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
            fmt(t_alsh, 1),
            fmt(recall_alsh, 2),
            valid_alsh.to_string(),
            fmt(t_sketch, 1),
            fmt(recall_sketch, 2),
            valid_sketch.to_string(),
            fmt(t_symmetric, 1),
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
                "ALSH ms",
                "ALSH recall",
                "ALSH valid",
                "sketch ms",
                "sketch recall",
                "sketch valid",
                "symmetric ms",
                "symmetric recall",
                "symmetric valid",
            ],
            &rows
        )
    );
    println!(
        "\n(64 queries, d = 48, s = 0.8, c = 0.6; ALSH/sketch/symmetric times include index construction)"
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
    json.record(
        "engine_comparison",
        &[("mode", "serial".to_string()), ("n", "8000".to_string())],
        t.elapsed_ns(),
        (2usize * 8000 * 256 * 48) as f64,
    );
    let parallel_engine = JoinEngine::new(&index);
    let t = Timer::start();
    let parallel = parallel_engine.run(inst.queries()).unwrap();
    let t_parallel = t.elapsed_ms();
    json.record(
        "engine_comparison",
        &[("mode", "parallel".to_string()), ("n", "8000".to_string())],
        t.elapsed_ns(),
        (2usize * 8000 * 256 * 48) as f64,
    );
    assert_eq!(serial, parallel, "engine must not change join results");
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "\nJoinEngine on |P| = 8000, |Q| = 256 (brute-force index, {cores} cores): \
serial loop {} ms, parallel batched {} ms, speedup {}x",
        fmt(t_serial, 1),
        fmt(t_parallel, 1),
        fmt(t_serial / t_parallel.max(1e-9), 2),
    );
    json.finish().expect("write --json report");
}

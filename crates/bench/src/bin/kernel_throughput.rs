//! Raw-speed measurement of the batched brute-force scoring kernels.
//!
//! Times the same batched scan (`BruteForceMipsIndex::search_batch`) under the
//! two scoring kernels of `ips_core::kernel` — the bit-exact `f64` default and
//! the `f32` tile path — at dims {8, 32, 128}, and prints ns/flop, effective
//! GB/s and the speedup of the `f32` kernel over `f64`. These are the
//! measurements behind the per-dtype `CostModel` constant
//! (`brute_f32_ns_per_flop`): re-run this binary and update the default when
//! the kernels change.
//!
//! With `--json <path>` each (kernel, dim) cell becomes one
//! `kernel_throughput` record; the pinned configurations are gated by
//! `scripts/check_bench.sh` against `BENCH_BASELINE.json`.

use ips_bench::{fmt, render_table, JsonReporter, Timer};
use ips_core::mips::{BruteForceMipsIndex, MipsIndex};
use ips_core::problem::{JoinSpec, JoinVariant};
use ips_core::{Dtype, ScoringOptions};
use ips_linalg::random::random_ball_vector;
use ips_linalg::DenseVector;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Data/query batch sizes; scaled so every measured cell clears the gate's
/// 1 ms noise floor even for the fastest kernel at the smallest dim.
const N: usize = 2000;
const M: usize = 200;
const DIMS: [usize; 3] = [8, 32, 128];

const KERNELS: [(&str, ScoringOptions); 2] = [
    ("f64", ScoringOptions { dtype: Dtype::F64 }),
    ("f32", ScoringOptions { dtype: Dtype::F32 }),
];

/// Bytes per scored element actually streamed by each kernel (the dominant
/// memory traffic of the scan: one data element per multiply).
fn element_bytes(kernel: &str) -> f64 {
    match kernel {
        "f64" => 8.0,
        "f32" => 4.0,
        _ => unreachable!(),
    }
}

fn vectors(rng: &mut StdRng, n: usize, dim: usize, scale: f64) -> Vec<DenseVector> {
    (0..n)
        .map(|_| {
            random_ball_vector(rng, dim, 1.0)
                .expect("dim >= 1")
                .scaled(scale)
        })
        .collect()
}

fn main() {
    let mut reporter = JsonReporter::from_env_args();
    let spec = JoinSpec::new(0.8, 0.6, JoinVariant::Signed).expect("valid spec");
    let mut rows = Vec::new();

    println!("kernel_throughput: batched brute scoring, n={N} data x m={M} queries");
    for dim in DIMS {
        let mut rng = StdRng::seed_from_u64(0xD07 + dim as u64);
        let data = vectors(&mut rng, N, dim, 0.9);
        let queries = vectors(&mut rng, M, dim, 1.0);
        // More repetitions at small dims, so every cell is well above the
        // scheduler-noise floor of the regression gate — and no cell is a
        // single scan, whose run-to-run jitter on a busy 1-CPU box can exceed
        // the gate's 30% margin.
        let reps = (192 / dim).max(2);
        let flops = (2 * N * M * dim * reps) as f64;

        let mut f64_wall: u128 = 0;
        for (kernel, options) in KERNELS {
            let index = BruteForceMipsIndex::with_options(data.clone(), spec, options)
                .expect("kernel preparation");
            // Warm-up pass: page in the tiles and let the branch predictor
            // settle before the timed loop.
            let mut hits = index.search_batch(&queries).expect("batch").len();
            let timer = Timer::start();
            for _ in 0..reps {
                hits += index
                    .search_batch(&queries)
                    .expect("batch")
                    .iter()
                    .flatten()
                    .count();
            }
            let wall_ns = timer.elapsed_ns();
            if kernel == "f64" {
                f64_wall = wall_ns;
            }
            let speedup = f64_wall as f64 / wall_ns as f64;
            let ns_per_flop = wall_ns as f64 / flops;
            let gb_per_s = flops * element_bytes(kernel) / wall_ns as f64;
            rows.push(vec![
                kernel.to_string(),
                dim.to_string(),
                fmt(wall_ns as f64 / 1e6, 2),
                format!("{ns_per_flop:.4}"),
                fmt(gb_per_s, 2),
                format!("{speedup:.2}x"),
                hits.to_string(),
            ]);
            reporter.record(
                "kernel_throughput",
                &[
                    ("kernel", kernel.to_string()),
                    ("dim", dim.to_string()),
                    ("n", N.to_string()),
                    ("m", M.to_string()),
                    ("reps", reps.to_string()),
                    ("speedup", format!("{speedup:.2}")),
                ],
                wall_ns,
                flops,
            );
        }
    }

    println!(
        "{}",
        render_table(
            &["kernel", "dim", "wall ms", "ns/flop", "GB/s", "vs f64", "hits"],
            &rows,
        )
    );
    println!("ns/flop feeds CostModel::default: brute_f32_ns_per_flop is the dim=32 f32 cell.");
    reporter.finish().expect("write --json output");
}

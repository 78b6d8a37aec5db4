//! Experiment E8: the OVP → IPS-join reduction (Lemma 2) end to end.
//!
//! Planted and pair-free OVP instances are pushed through each of the three Lemma 3 gap
//! embeddings and solved by a `(cs, s)` join oracle; the reduction's answers are
//! compared with the exact OVP solvers. The table also reports the embedding blow-up
//! (output dimension) and wall-clock time, making concrete the paper's point that the
//! reduction costs only an `n^{o(1)}` factor — so any truly subquadratic join algorithm
//! in these parameter regimes would break the OVP conjecture.

use ips_bench::{fmt, no_args, render_table, Timer};
use ips_ovp::reduction::{solve_via_join, BruteForceJoinOracle, OvpAnswer};
use ips_ovp::{
    brute_force_pair, no_pair_instance, planted_instance, ChebyshevEmbedding, GapEmbedding,
    SignedEmbedding, ZeroOneEmbedding,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run_case<E: GapEmbedding>(
    label: &str,
    embedding: &E,
    dim: usize,
    n: usize,
    rng: &mut StdRng,
    rows: &mut Vec<Vec<String>>,
) {
    let mut oracle = BruteForceJoinOracle;

    let (planted, _) = planted_instance(rng, n, n, dim, 0.5).expect("valid instance");
    let timer = Timer::start();
    let answer = solve_via_join(&planted, embedding, &mut oracle).expect("reduction runs");
    let elapsed = timer.elapsed_ms();
    let expected = brute_force_pair(&planted).unwrap().is_some();
    let found = matches!(answer, OvpAnswer::OrthogonalPair(_, _));
    rows.push(vec![
        label.to_string(),
        "planted".to_string(),
        embedding.output_dim().to_string(),
        fmt(embedding.threshold(), 1),
        fmt(embedding.approx_threshold(), 1),
        found.to_string(),
        (found == expected).to_string(),
        fmt(elapsed, 1),
    ]);

    let empty = no_pair_instance(rng, n, n, dim, 0.5).expect("valid instance");
    let timer = Timer::start();
    let answer = solve_via_join(&empty, embedding, &mut oracle).expect("reduction runs");
    let elapsed = timer.elapsed_ms();
    let found = matches!(answer, OvpAnswer::OrthogonalPair(_, _));
    rows.push(vec![
        label.to_string(),
        "no pair".to_string(),
        embedding.output_dim().to_string(),
        fmt(embedding.threshold(), 1),
        fmt(embedding.approx_threshold(), 1),
        found.to_string(),
        (!found).to_string(),
        fmt(elapsed, 1),
    ]);
}

fn main() {
    no_args();
    let mut rng = StdRng::seed_from_u64(0xE8);
    println!("== E8: solving OVP through a (cs, s) join oracle (Lemma 2) ==\n");
    let mut rows = Vec::new();
    let n = 24;

    let dim = 16;
    run_case(
        "embedding 1: signed {-1,1}",
        &SignedEmbedding::new(dim).unwrap(),
        dim,
        n,
        &mut rng,
        &mut rows,
    );

    let dim = 10;
    run_case(
        "embedding 2: Chebyshev {-1,1}, q=2",
        &ChebyshevEmbedding::new(dim, 2).unwrap(),
        dim,
        n,
        &mut rng,
        &mut rows,
    );

    let dim = 16;
    run_case(
        "embedding 3: chopped product {0,1}, k=4",
        &ZeroOneEmbedding::new(dim, 4).unwrap(),
        dim,
        n,
        &mut rng,
        &mut rows,
    );

    println!(
        "{}",
        render_table(
            &[
                "embedding",
                "instance",
                "embedded dim",
                "s",
                "cs",
                "pair reported",
                "answer correct",
                "time ms",
            ],
            &rows
        )
    );
    println!("\n(|P| = |Q| = {n}; the join oracle is the exact quadratic scan, so the timing");
    println!("column isolates the cost of the embedding + verification pipeline of Lemma 2.)");
}

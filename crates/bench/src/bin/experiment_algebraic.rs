//! Experiment E9: the algebraic (matrix-multiplication) side of Table 1.
//!
//! **Amplify-and-multiply** (Valiant \[51\], Karppa et al. \[29\]) on laptop-scale
//! `{−1,1}` workloads: for the unsigned `(cs, s)` join, how do recall and candidate
//! counts of the amplified join behave as the planted correlation `s/d` weakens and the
//! amplification degree `t` grows? The paper's Table 1 says this family wins precisely
//! when the approximation is strong; the run shows candidates exploding as the
//! correlation sinks towards the noise and staying tiny while it is strong.

use ips_bench::{fmt, no_args, render_table, Timer};
use ips_linalg::random::random_sign_vector;
use ips_linalg::SignVector;
use ips_matmul::{amplified_unsigned_join, AmplifiedJoinConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    no_args();
    let mut rng = StdRng::seed_from_u64(0xE9);
    println!("== E9: the amplified join (the matrix-multiplication side of Table 1) ==\n");

    println!("-- amplified (Valiant/Karppa-style) unsigned join over {{−1,1}} --");
    let dim = 128;
    let n = 2000;
    let queries = 64;
    let planted = 16;
    let c = 0.5;
    let m = 2048;
    let mut rows = Vec::new();
    for &agree in &[112usize, 96, 84, 76] {
        let s = (2 * agree) as f64 - dim as f64; // planted inner product
        let query_vectors: Vec<SignVector> = (0..queries)
            .map(|_| random_sign_vector(&mut rng, dim))
            .collect();
        let mut data: Vec<SignVector> = (0..n).map(|_| random_sign_vector(&mut rng, dim)).collect();
        let mut planted_pairs = Vec::new();
        for qi in 0..planted {
            let mut partner = query_vectors[qi].clone();
            for i in agree..dim {
                partner.set(i, -partner.get(i));
            }
            let di = qi * (n / planted);
            data[di] = partner;
            planted_pairs.push((di, qi));
        }
        for degree in [1u32, 2, 3] {
            let t = Timer::start();
            let report = amplified_unsigned_join(
                &mut rng,
                &data,
                &query_vectors,
                s,
                c,
                AmplifiedJoinConfig {
                    degree,
                    projection_dim: m,
                    detection_fraction: 0.5,
                },
            )
            .unwrap();
            let elapsed = t.elapsed_ms();
            let answered: std::collections::HashSet<usize> =
                report.pairs.iter().map(|p| p.query_index).collect();
            let recall = planted_pairs
                .iter()
                .filter(|(_, qi)| answered.contains(qi))
                .count() as f64
                / planted as f64;
            rows.push(vec![
                fmt(s / dim as f64, 3),
                degree.to_string(),
                report.candidates.to_string(),
                report.pairs.len().to_string(),
                fmt(recall, 2),
                fmt(elapsed, 1),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "s/d",
                "degree t",
                "candidates",
                "pairs",
                "planted recall",
                "ms"
            ],
            &rows
        )
    );
    println!(
        "\n(|P| = {n}, |Q| = {queries}, d = {dim}, c = {c}, projection dimension m = {m};\n\
         background |inner product|/d concentrates around 1/√d ≈ {:.3}.\n\
         Shape to check against the paper: for strong planted correlations every degree works with few\n\
         spurious candidates; as s/d shrinks, degree 1 drowns in background candidates while a moderate\n\
         degree keeps the count low — until the amplified promise (s/d)^t itself sinks below the\n\
         estimator's noise floor 1/√m, at which point a larger degree needs a larger projection\n\
         dimension (m of order (d/s)^2t). That blow-up is the laptop-scale face of the paper's point that the\n\
         algebraic family only wins for approximation factors bounded away from 1 (Table 1).)",
        1.0 / (dim as f64).sqrt()
    );
}

//! Regenerates **Table 1** of the paper: the hard vs permissible approximation ranges
//! for signed/unsigned `(cs, s)` join over `{−1,1}^d` and `{0,1}^d`.
//!
//! Beyond printing the table itself, the binary backs each "hard" row with the concrete
//! gap embedding that proves it (Lemma 3), sweeping the embedding parameters and
//! verifying numerically — over random OVP vector pairs — that orthogonal pairs always
//! land at or above `s` and non-orthogonal pairs at or below `cs`. It also evaluates the
//! classifier of `ips-core::theory` on a grid of `(c, n)` values so the asymptotic
//! statements can be read off concretely.

use ips_bench::{fmt, no_args, render_table};
use ips_core::theory::{
    classify_approximation, table1_rows, Hardness, ProblemVariant, VectorDomain,
};
use ips_linalg::random::random_binary_vector;
use ips_ovp::{ChebyshevEmbedding, GapEmbedding, SignedEmbedding, ZeroOneEmbedding};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn verify_embedding<E: GapEmbedding>(
    embedding: &E,
    trials: usize,
    rng: &mut StdRng,
) -> (f64, f64, bool) {
    let d = embedding.input_dim();
    let mut min_orth = f64::INFINITY;
    let mut max_non = f64::NEG_INFINITY;
    let mut ok = true;
    let mut seen_orth = false;
    let mut seen_non = false;
    let mut attempts = 0usize;
    while (!seen_orth || !seen_non || attempts < trials) && attempts < trials * 50 {
        attempts += 1;
        let x = random_binary_vector(rng, d, 0.35).expect("valid density");
        let y = random_binary_vector(rng, d, 0.35).expect("valid density");
        let orthogonal = x.is_orthogonal_to(&y).expect("same dimension");
        let fx = embedding.embed_data(&x).expect("embed data");
        let gy = embedding.embed_query(&y).expect("embed query");
        let mut ip = fx.dot(&gy).expect("same dimension");
        if !embedding.is_signed() {
            ip = ip.abs();
        }
        if orthogonal {
            seen_orth = true;
            min_orth = min_orth.min(ip);
            if ip < embedding.threshold() - 1e-6 {
                ok = false;
            }
        } else {
            seen_non = true;
            max_non = max_non.max(ip);
            if ip > embedding.approx_threshold() + 1e-6 {
                ok = false;
            }
        }
    }
    (min_orth, max_non, ok && seen_orth && seen_non)
}

fn main() {
    no_args();
    println!("== Table 1: hard vs permissible approximation ranges ==\n");
    let rows: Vec<Vec<String>> = table1_rows()
        .into_iter()
        .map(|r| {
            vec![
                r.problem,
                r.hard_c,
                r.permissible_c,
                r.hard_ratio,
                r.permissible_ratio,
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "Problem",
                "Hard approx. (c)",
                "Permissible approx. (c)",
                "Hard approx. (ratio)",
                "Permissible approx. (ratio)"
            ],
            &rows
        )
    );

    println!("\n-- Concrete classification at finite n (classifier of ips-core::theory) --\n");
    let mut class_rows = Vec::new();
    for &n in &[1usize << 10, 1 << 20, 1 << 30] {
        for &c in &[1e-4, 0.05, 0.5, 0.9, 0.999999] {
            let pm_signed = classify_approximation(
                VectorDomain::PlusMinusOne,
                ProblemVariant::Signed,
                c,
                n,
                0.25,
            )
            .unwrap();
            let pm_unsigned = classify_approximation(
                VectorDomain::PlusMinusOne,
                ProblemVariant::Unsigned,
                c,
                n,
                0.25,
            )
            .unwrap();
            let zo =
                classify_approximation(VectorDomain::ZeroOne, ProblemVariant::Unsigned, c, n, 0.25)
                    .unwrap();
            let show = |h: Hardness| match h {
                Hardness::Hard => "hard",
                Hardness::Permissible => "permissible",
                Hardness::Open => "open",
            };
            class_rows.push(vec![
                format!("2^{}", (n as f64).log2() as u32),
                format!("{c}"),
                show(pm_signed).to_string(),
                show(pm_unsigned).to_string(),
                show(zo).to_string(),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "n",
                "c",
                "signed {-1,1}",
                "unsigned {-1,1}",
                "unsigned {0,1}"
            ],
            &class_rows
        )
    );

    println!("\n-- Lemma 3 gap embeddings backing the hard rows (numerical verification) --\n");
    let mut rng = StdRng::seed_from_u64(0x7AB1E1);
    let mut emb_rows = Vec::new();

    for &d in &[8usize, 16, 32] {
        let e = SignedEmbedding::new(d).unwrap();
        let (min_o, max_n, ok) = verify_embedding(&e, 200, &mut rng);
        emb_rows.push(vec![
            format!("signed {{-1,1}}, embedding 1 (d={d})"),
            e.output_dim().to_string(),
            fmt(e.threshold(), 1),
            fmt(e.approx_threshold(), 1),
            fmt(min_o, 1),
            fmt(max_n, 1),
            ok.to_string(),
        ]);
    }
    for &(d, q) in &[(8usize, 2u32), (12, 2), (6, 3)] {
        let e = ChebyshevEmbedding::new(d, q).unwrap();
        let (min_o, max_n, ok) = verify_embedding(&e, 100, &mut rng);
        emb_rows.push(vec![
            format!("unsigned {{-1,1}}, embedding 2 (d={d}, q={q})"),
            e.output_dim().to_string(),
            fmt(e.threshold(), 1),
            fmt(e.approx_threshold(), 1),
            fmt(min_o, 1),
            fmt(max_n, 1),
            ok.to_string(),
        ]);
    }
    for &(d, k) in &[(12usize, 3usize), (16, 4), (20, 10)] {
        let e = ZeroOneEmbedding::new(d, k).unwrap();
        let (min_o, max_n, ok) = verify_embedding(&e, 200, &mut rng);
        emb_rows.push(vec![
            format!("unsigned {{0,1}}, embedding 3 (d={d}, k={k})"),
            e.output_dim().to_string(),
            fmt(e.threshold(), 1),
            fmt(e.approx_threshold(), 1),
            fmt(min_o, 1),
            fmt(max_n, 1),
            ok.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "embedding",
                "output dim",
                "s",
                "cs",
                "min over orthogonal",
                "max over non-orthogonal",
                "gap holds"
            ],
            &emb_rows
        )
    );
}

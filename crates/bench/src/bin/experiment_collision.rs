//! Experiment E4: empirical collision probabilities of every implemented (A)LSH family
//! against the closed-form curves used by the paper's ρ analysis.
//!
//! For a ladder of inner-product levels, pairs of unit vectors with exactly that inner
//! product are generated and hashed under freshly sampled functions; the observed
//! collision rate is compared with the theoretical prediction (hyperplane `1 − θ/π`,
//! MH-ALSH `a/(M + |q| − a)`, E2LSH closed form). The SIMPLE-ALSH row demonstrates the
//! asymmetry cost: identical vectors do *not* collide with probability 1.

use ips_bench::{fmt, no_args, render_table, Timer};
use ips_datagen::sphere::similarity_ladder;
use ips_linalg::BinaryVector;
use ips_lsh::collision::estimate_collision_curve;
use ips_lsh::hyperplane::HyperplaneFamily;
use ips_lsh::mhalsh::MhAlshFamily;
use ips_lsh::simple_alsh::SimpleAlshFamily;
use ips_lsh::traits::{AsymmetricHashFunction, AsymmetricLshFamily};
use ips_lsh::SymmetricAsAsymmetric;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    no_args();
    let mut rng = StdRng::seed_from_u64(0xE4);
    let timer = Timer::start();
    let dim = 32;
    let trials = 4000;
    let sims = [0.1, 0.3, 0.5, 0.7, 0.9];

    println!("== E4: collision probability validation ({trials} hash draws per pair) ==\n");

    // Hyperplane / SIMPLE-ALSH on the similarity ladder.
    let ladder = similarity_ladder(&mut rng, dim, &sims).expect("valid ladder");
    let hyperplane = SymmetricAsAsymmetric(HyperplaneFamily::single_bit(dim).unwrap());
    let hp_curve = estimate_collision_curve(&hyperplane, &ladder, trials, &mut rng).unwrap();
    let simple = SimpleAlshFamily::new(dim, 1.0, 1).unwrap();
    // Rescale the ladder slightly inside the unit ball for the ALSH domain checks.
    let alsh_ladder: Vec<_> = ladder
        .iter()
        .map(|(s, a, b)| (*s, a.scaled(0.999), b.scaled(0.999)))
        .collect();
    let alsh_curve = estimate_collision_curve(&simple, &alsh_ladder, trials, &mut rng).unwrap();

    let mut rows = Vec::new();
    for (hp, alsh) in hp_curve.iter().zip(alsh_curve.iter()) {
        rows.push(vec![
            fmt(hp.similarity, 2),
            fmt(HyperplaneFamily::collision_probability(hp.similarity), 4),
            fmt(hp.probability, 4),
            fmt(alsh.probability, 4),
        ]);
    }
    println!("Hyperplane (SimHash) and SIMPLE-ALSH, unit vectors:");
    println!(
        "{}",
        render_table(
            &[
                "inner product",
                "theory 1-acos(s)/pi",
                "SimHash measured",
                "SIMPLE-ALSH measured"
            ],
            &rows
        )
    );

    // MH-ALSH on binary sets with controlled overlap.
    let universe = 200;
    let set_size = 40;
    let capacity = 50;
    let family = MhAlshFamily::new(universe, capacity).unwrap();
    let data = BinaryVector::from_support(universe, &(0..set_size).collect::<Vec<_>>()).unwrap();
    let mut rows = Vec::new();
    for &overlap in &[0usize, 10, 20, 30, 40] {
        let query = BinaryVector::from_support(
            universe,
            &((set_size - overlap)..(2 * set_size - overlap)).collect::<Vec<_>>(),
        )
        .unwrap();
        let a = data.dot(&query).unwrap();
        let theory = MhAlshFamily::collision_probability(a, query.count_ones(), capacity);
        let mut collisions = 0usize;
        for _ in 0..trials {
            let f = family.sample(&mut rng).unwrap();
            if f.hash_data(&data.to_dense()).unwrap() == f.hash_query(&query.to_dense()).unwrap() {
                collisions += 1;
            }
        }
        rows.push(vec![
            a.to_string(),
            fmt(theory, 4),
            fmt(collisions as f64 / trials as f64, 4),
        ]);
    }
    println!("MH-ALSH on binary sets (|x| = {set_size}, M = {capacity}):");
    println!(
        "{}",
        render_table(&["intersection a", "theory a/(M+|q|-a)", "measured"], &rows)
    );

    // The asymmetry price: self-collision probability of SIMPLE-ALSH below 1.
    let v = ips_linalg::random::random_ball_vector(&mut rng, dim, 0.6).unwrap();
    let mut self_collisions = 0usize;
    for _ in 0..trials {
        let f = simple.sample(&mut rng).unwrap();
        if f.collides(&v, &v).unwrap() {
            self_collisions += 1;
        }
    }
    println!(
        "SIMPLE-ALSH self-collision probability for a vector of norm 0.6: {} (symmetric LSH would give 1.0)\n",
        fmt(self_collisions as f64 / trials as f64, 4)
    );
    println!("total time: {} ms", fmt(timer.elapsed_ms(), 0));
}

//! Regenerates **Figure 1** of the paper: the partition of the collision grid's lower
//! triangle into exponentially sized squares `G_{r,t}`, used by the Lemma 4 mass
//! accounting argument.
//!
//! The binary renders the 15 × 15 grid of the paper (`ℓ = 4`) with each P1-node labelled
//! by the level of the square containing it and P2-nodes shown as dots, verifies that
//! the squares partition the lower triangle exactly, and prints the implied bound
//! `P1 − P2 ≤ 1/(8·log n)` for a range of sequence lengths.

use ips_bench::{fmt, no_args, render_table};
use ips_core::lower_bounds::grid::{figure1_grid, gap_upper_bound, grid_squares, NodeClass};

fn main() {
    no_args();
    let ell = 4u32;
    let n = (1usize << ell) - 1;
    println!("== Figure 1: Lemma 4 grid partition on a {n} x {n} grid ==\n");

    let grid = figure1_grid(ell).expect("ell = 4 is valid");
    println!("Each P1-node (lower triangle, j >= i) is labelled with the level r of its");
    println!("square G_(r,t); P2-nodes are shown as '.':\n");
    println!("      j = 0 .. {}", n - 1);
    for (i, row) in grid.iter().enumerate() {
        let mut line = format!("i={i:>2}  ");
        for cell in row.iter() {
            match cell {
                (NodeClass::P1, Some((level, _))) => line.push_str(&format!("{level} ")),
                (NodeClass::P1, None) => line.push_str("? "),
                (NodeClass::P2, _) => line.push_str(". "),
            }
        }
        println!("{line}");
    }

    // Verify the partition exactly (the combinatorial heart of Lemma 4).
    let squares = grid_squares(ell).expect("valid ell");
    let mut covered = 0usize;
    let mut double_covered = 0usize;
    for i in 0..n {
        for j in i..n {
            let c = squares.iter().filter(|sq| sq.contains(i, j)).count();
            if c >= 1 {
                covered += 1;
            }
            if c > 1 {
                double_covered += 1;
            }
        }
    }
    let total = n * (n + 1) / 2;
    println!(
        "\nPartition check: {covered}/{total} P1-nodes covered, {double_covered} covered twice"
    );
    println!("Squares per level:");
    for r in 0..ell {
        let count = squares.iter().filter(|s| s.level == r).count();
        println!("  level {r}: {count} squares of side {}", 1usize << r);
    }

    println!("\nLemma 4 bound P1 - P2 <= 1/(8 log2 n) as the hard sequence grows:");
    let rows: Vec<Vec<String>> = [3usize, 7, 15, 63, 255, 1023, 4095, 65535]
        .iter()
        .map(|&len| vec![len.to_string(), fmt(gap_upper_bound(len), 6)])
        .collect();
    println!(
        "{}",
        render_table(&["sequence length n", "max gap P1-P2"], &rows)
    );
}

//! Regenerates **Figure 2** of the paper: the ρ exponents of the three LSH
//! constructions for signed inner product search on the unit ball —
//!
//! * DATA-DEP: the paper's Section 4.1 bound, equation (3);
//! * SIMP: SIMPLE-ALSH (Neyshabur–Srebro) with hyperplane hashing;
//! * MH-ALSH: asymmetric minwise hashing for binary data.
//!
//! The paper plots ρ as a function of the threshold `s` for a few approximation factors
//! `c`; this binary prints the same series as text tables (one per `c`), plus the
//! L2-ALSH(SL) exponent for reference. The qualitative shape to verify against the
//! paper: DATA-DEP is never above SIMP, and beats MH-ALSH for large `s` and `c` (e.g.
//! `s ≥ 1/3`, `c ≥ 0.83`) while MH-ALSH wins for small `s`.

use ips_bench::{fmt, no_args, render_table};
use ips_lsh::rho::{figure2_series, rho_l2_alsh, L2AlshParams};

fn main() {
    no_args();
    println!("== Figure 2: query exponent rho for signed (cs, s) inner product search ==");
    println!("   (data in the unit ball, queries in the unit ball, U = 1)\n");
    let s_grid: Vec<f64> = (1..=19).map(|i| i as f64 * 0.05).collect();
    for &c in &[0.5, 0.7, 0.83, 0.9] {
        let series = figure2_series(c, &s_grid).expect("valid parameter grid");
        let rows: Vec<Vec<String>> = series
            .iter()
            .map(|row| {
                let l2 = rho_l2_alsh(row.s, c, L2AlshParams::default())
                    .map(|r| fmt(r, 4))
                    .unwrap_or_else(|_| "-".to_string());
                vec![
                    fmt(row.s, 2),
                    fmt(row.data_dependent, 4),
                    fmt(row.simple, 4),
                    fmt(row.mh_alsh, 4),
                    l2,
                ]
            })
            .collect();
        println!("c = {c}");
        println!(
            "{}",
            render_table(
                &[
                    "s",
                    "DATA-DEP (eq. 3)",
                    "SIMP [39]",
                    "MH-ALSH [46]",
                    "L2-ALSH [45]"
                ],
                &rows
            )
        );
        // Summarise the crossover the paper highlights.
        let dd_beats_mh = series
            .iter()
            .filter(|r| r.data_dependent < r.mh_alsh)
            .map(|r| r.s)
            .fold(f64::INFINITY, f64::min);
        if dd_beats_mh.is_finite() {
            println!(
                "   DATA-DEP beats MH-ALSH from s ≈ {} onwards\n",
                fmt(dd_beats_mh, 2)
            );
        } else {
            println!("   MH-ALSH dominates DATA-DEP on this grid\n");
        }
    }
}

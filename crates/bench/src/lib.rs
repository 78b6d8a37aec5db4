//! # ips-bench
//!
//! The experiment binaries that regenerate every table and figure of the paper plus the
//! supporting experiments listed in `DESIGN.md` / `EXPERIMENTS.md`:
//!
//! | Binary | Artefact |
//! |---|---|
//! | `table1` | Table 1 — hard vs permissible approximation ranges, with the gap of each Lemma 3 embedding verified numerically |
//! | `figure1` | Figure 1 — the Lemma 4 grid partition and mass-accounting bound |
//! | `figure2` | Figure 2 — ρ of DATA-DEP vs SIMP vs MH-ALSH |
//! | `experiment_collision` | E4 — empirical collision probabilities vs theory: SimHash and SIMPLE-ALSH from `ips-lsh`, MH-ALSH from [`mhalsh`] |
//! | `experiment_join_scaling` | E5 — join runtime scaling (ALSH / sketch vs brute force) |
//! | `experiment_sketch` | E6 — sketch approximation quality vs κ |
//! | `experiment_gap` | E7 — measured P1 − P2 on hard sequences vs the Lemma 4 bound, for SIMPLE-ALSH and L2-ALSH ([`alsh_l2`]) |
//! | `experiment_ovp` | E8 — the OVP → join reduction end-to-end |
//! | `experiment_algebraic` | E9 — the algebraic (matrix-multiplication) side: the amplified unsigned join over `{−1,1}` as `s/d` and the degree vary |
//! | `experiment_topk` | E10 — top-k recall of the Section 4.1 ALSH index vs table count on the recommender workload |
//! | `calibrate_planner` | fits the adaptive join planner's `CostModel` constants on the adversarial workload suite and checks every pick against measured runtimes |
//!
//! **The comparison families.** The paper measures its §4.1 index against hashing
//! schemes that no index here is built over. They are sampled only by the experiments
//! above and the `set_containment` example (cross-polytope by its unit tests alone),
//! so they live in this crate, one module each; their closed forms (ρ, the E2LSH
//! collision probability, [`ips_lsh::rho::L2AlshParams`]) stay in `ips_lsh::rho`:
//!
//! | Scheme | Module | Role in the paper |
//! |---|---|---|
//! | Cross-polytope LSH | [`crosspolytope`] | the "practical and optimal" sphere LSH of \[7\] |
//! | p-stable E2LSH | [`e2lsh`] | substrate of L2-ALSH |
//! | MinHash | [`minhash`] | substrate of MH-ALSH |
//! | Asymmetric minwise hashing (MH-ALSH) | [`mhalsh`] | state of the art for binary data \[46\] |
//! | L2-ALSH(SL) | [`alsh_l2`] | the original ALSH for MIPS \[45\] |
//!
//! The binaries print the rows and series the paper reports, so the shapes can be
//! compared side by side. Every timing of the system (join and index speed per
//! strategy, kernel speed, serving throughput and latency, telemetry and adaptation
//! overhead) is measured by the repository benchmark under `benchmark/`, not here.
//!
//! Beside the families, this library crate holds the small amount of shared harness
//! code (text tables, a wall-clock timer, the argument check) so the binaries stay
//! focused on the experiment logic.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alsh_l2;
pub mod crosspolytope;
pub mod e2lsh;
pub mod mhalsh;
pub mod minhash;

use std::time::Instant;

/// A simple wall-clock timer for the experiment binaries.
#[derive(Debug)]
pub struct Timer {
    start: Instant,
}

impl Timer {
    /// Starts the timer.
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Elapsed time in milliseconds.
    pub fn elapsed_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }
}

impl Default for Timer {
    fn default() -> Self {
        Self::start()
    }
}

/// Refuses every command-line argument: the binaries that call this take none, so a
/// stray flag (a leftover `--json <path>` included) exits with status 2 instead of
/// quietly producing a run nobody asked for.
pub fn no_args() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if !args.is_empty() {
        eprintln!("error: unrecognised arguments {args:?}; this binary takes no arguments");
        std::process::exit(2);
    }
}

/// Renders a text table with aligned columns; used by every experiment binary so the
/// output is uniform and diff-able.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let columns = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (c, cell) in row.iter().enumerate().take(columns) {
            widths[c] = widths[c].max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (c, w) in widths.iter().enumerate() {
            let empty = String::new();
            let cell = cells.get(c).unwrap_or(&empty);
            line.push(' ');
            line.push_str(cell);
            line.push_str(&" ".repeat(w - cell.len() + 1));
            line.push('|');
        }
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&render_row(&header_cells, &widths));
    out.push('\n');
    out.push('|');
    for w in &widths {
        out.push_str(&"-".repeat(w + 2));
        out.push('|');
    }
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats a float with a fixed number of decimals (helper shared by the binaries).
pub fn fmt(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_measures_nonnegative_time() {
        let t = Timer::start();
        assert!(t.elapsed_ms() >= 0.0);
        let d = Timer::default();
        assert!(d.elapsed_ms() >= 0.0);
    }

    #[test]
    fn table_rendering_aligns_columns() {
        let table = render_table(
            &["name", "value"],
            &[
                vec!["alpha".to_string(), "1".to_string()],
                vec!["b".to_string(), "12345".to_string()],
            ],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines have equal width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(lines[0].contains("name"));
        assert!(lines[3].contains("12345"));
    }

    #[test]
    fn fmt_controls_decimals() {
        assert_eq!(fmt(std::f64::consts::PI, 2), "3.14");
        assert_eq!(fmt(1.0, 0), "1");
    }
}

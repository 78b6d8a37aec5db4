//! The paper's tables and figures as checked files: each deterministic experiment
//! binary must print exactly what its file under `crates/bench/golden/` holds.
//!
//! A deliberate change to one of these tables is made by running
//! `scripts/regen_golden.sh` and committing the diff with the change. The binaries not
//! listed here are not checked yet: `experiment_collision`, `experiment_ovp`,
//! `experiment_algebraic` and `experiment_topk` print wall-clock columns,
//! `experiment_gap` takes over a minute, and `calibrate_planner` and
//! `experiment_join_scaling` print timings only.

use std::process::Command;

/// Runs `binary` and compares its standard output with `golden/<name>.txt`, naming the
/// first line that differs.
fn check(name: &str, binary: &str) {
    let out = Command::new(binary)
        .output()
        .unwrap_or_else(|e| panic!("{name} did not start: {e}"));
    assert!(
        out.status.success(),
        "{name} failed ({}): {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let path = format!("{}/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let printed = String::from_utf8(out.stdout).expect("the tables are UTF-8");
    if printed == golden {
        return;
    }
    let at = printed
        .lines()
        .zip(golden.lines())
        .take_while(|(now, was)| now == was)
        .count();
    panic!(
        "{name} no longer prints {path}: first difference at line {}\n  \
         golden:  {:?}\n  printed: {:?}\n\
         (if the change is deliberate, run scripts/regen_golden.sh and commit the diff)",
        at + 1,
        golden.lines().nth(at),
        printed.lines().nth(at),
    );
}

#[test]
fn table1() {
    check("table1", env!("CARGO_BIN_EXE_table1"));
}

#[test]
fn figure1() {
    check("figure1", env!("CARGO_BIN_EXE_figure1"));
}

#[test]
fn figure2() {
    check("figure2", env!("CARGO_BIN_EXE_figure2"));
}

#[test]
fn experiment_sketch() {
    check("experiment_sketch", env!("CARGO_BIN_EXE_experiment_sketch"));
}

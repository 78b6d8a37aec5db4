//! The paper's tables and figures as checked files: each deterministic experiment
//! binary must print exactly what its file under `crates/bench/golden/` holds.
//!
//! `experiment_collision`, `experiment_ovp`, `experiment_algebraic` and
//! `experiment_topk` also print wall-clock figures; those are masked on both sides
//! before the comparison (see [`mask_wall_clock`]). A deliberate change to one of
//! these tables is made by running `scripts/regen_golden.sh` and committing the diff
//! with the change. The binaries not listed here are not checked yet: `experiment_gap`
//! takes over a minute, and `calibrate_planner` and `experiment_join_scaling` print
//! timings only.

use std::process::Command;

/// Masks what differs from run to run: in every table column whose header names `ms`,
/// the cells become `~` and the column loses its padding (its width follows the
/// longest time); the figure of the `total time:` line becomes `~` too.
/// `scripts/regen_golden.sh` writes the files with the same mask.
fn mask_wall_clock(text: &str) -> String {
    let mut out = String::new();
    let mut timed: Vec<bool> = Vec::new();
    for line in text.lines() {
        if line.starts_with("total time:") {
            out.push_str("total time: ~\n");
            continue;
        }
        if !line.starts_with('|') {
            timed.clear();
            out.push_str(line);
            out.push('\n');
            continue;
        }
        let header = timed.is_empty();
        if header {
            timed = line
                .split('|')
                .map(|cell| cell.split_whitespace().any(|word| word == "ms"))
                .collect();
        }
        let cells: Vec<String> = line
            .split('|')
            .zip(timed.iter().chain(std::iter::repeat(&false)))
            .map(|(cell, &t)| match (t, cell.trim()) {
                (false, _) => cell.to_string(),
                (true, name) if header => format!(" {name} "),
                (true, rule) if rule.chars().all(|c| c == '-') => "-".to_string(),
                (true, _) => " ~ ".to_string(),
            })
            .collect();
        out.push_str(&cells.join("|"));
        out.push('\n');
    }
    out
}

/// Runs `binary` and compares its masked standard output with the masked
/// `golden/<name>.txt`, naming the first line that differs.
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
    let golden = mask_wall_clock(&golden);
    let printed = mask_wall_clock(&String::from_utf8(out.stdout).expect("the tables are UTF-8"));
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

/// One test per binary, named after it.
macro_rules! golden {
    ($($name:ident),*) => {$(
        #[test]
        fn $name() {
            check(stringify!($name), env!(concat!("CARGO_BIN_EXE_", stringify!($name))));
        }
    )*};
}

golden!(
    table1,
    figure1,
    figure2,
    experiment_sketch,
    experiment_collision,
    experiment_ovp,
    experiment_algebraic,
    experiment_topk
);

#[test]
fn the_mask_hides_only_wall_clock_figures() {
    let raw = "| k | build ms | recall |\n|---|----------|--------|\n| 8 | 12.7     | 0.385  |\n\
               total time: 127 ms\nafter 3 ms\n";
    let masked = "| k | build ms | recall |\n|---|-|--------|\n| 8 | ~ | 0.385  |\n\
                  total time: ~\nafter 3 ms\n";
    assert_eq!(mask_wall_clock(raw), masked);
    assert_eq!(mask_wall_clock(masked), masked);
}

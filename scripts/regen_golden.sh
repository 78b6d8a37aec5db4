#!/usr/bin/env bash
# Rewrites crates/bench/golden/<bin>.txt from the current source of each experiment
# binary that `cargo test -p ips-bench --test golden` checks. Run it after a deliberate
# change to one of the paper's tables and commit the diff together with the change.
#
# Wall-clock figures are masked as the test masks them: in every table column whose
# header names `ms` the cells become `~` and the column loses its padding, and the
# figure of `total time:` becomes `~`.
set -euo pipefail
cd "$(dirname "$0")/.."
mask='
/^total time:/ { print "total time: ~"; next }
!/^\|/ { n = 0; print; next }
{
    m = split($0, cell, "|"); line = cell[1]; header = (n == 0)
    if (header) { n = m; for (i = 1; i <= m; i++) timed[i] = (" " cell[i] " " ~ /[ \t]ms[ \t]/) }
    for (i = 2; i <= m; i++) {
        c = cell[i]; t = c; gsub(/^[ \t]+|[ \t]+$/, "", t)
        if (i <= n && timed[i]) c = header ? " " t " " : (t ~ /^-+$/ ? "-" : " ~ ")
        line = line "|" c
    }
    print line
}'
for bin in table1 figure1 figure2 experiment_sketch experiment_collision experiment_ovp \
    experiment_algebraic experiment_topk; do
    cargo run -q --release -p ips-bench --bin "$bin" | awk "$mask" > "crates/bench/golden/$bin.txt"
done

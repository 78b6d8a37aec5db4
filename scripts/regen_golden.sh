#!/usr/bin/env bash
# Rewrites crates/bench/golden/<bin>.txt from the current source of each experiment
# binary that `cargo test -p ips-bench --test golden` checks. Run it after a deliberate
# change to one of the paper's tables and commit the diff together with the change.
set -euo pipefail
cd "$(dirname "$0")/.."
for bin in table1 figure1 figure2 experiment_sketch; do
    cargo run -q --release -p ips-bench --bin "$bin" > "crates/bench/golden/$bin.txt"
done

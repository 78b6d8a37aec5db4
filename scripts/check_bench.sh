#!/usr/bin/env bash
# Benchmark-regression gate over the `--json` records the ips-bench binaries emit.
#
# Usage:
#   scripts/check_bench.sh <BASELINE.json> <current.json> [<current.json> ...]
#       Compare current records against the committed baseline. Exits non-zero
#       when any *gated* record's wall_ns exceeds the baseline by more than
#       MAX_REGRESSION_PCT (default 30), when a gated baseline record is
#       missing from the current run (coverage must not silently shrink), or
#       when either side holds two records under one key (a stale generation
#       left in the baseline would otherwise be the one compared against).
#   scripts/check_bench.sh --merge <out.json> <in.json> [<in.json> ...]
#       Concatenate record arrays into one file — how BENCH_BASELINE.json is
#       (re)generated:
#         cargo run --release -p ips-bench --bin serve_throughput -- --json st.json
#         cargo run --release -p ips-bench --bin experiment_join_scaling -- --json js.json
#         scripts/check_bench.sh --merge BENCH_BASELINE.json st.json js.json
#   scripts/check_bench.sh --self-test
#       Verify the gate actually gates: a synthetic 2x slowdown must fail, an
#       identical run must pass.
#
# Gating policy (the "pinned small workloads" of the CI job):
#   * only `serve_throughput`, `kernel_throughput`, `telemetry_overhead`,
#     `adaptive_serving`, `multiprobe_tradeoff` records and `join_scaling`
#     records with n <= 2000 are compared — larger workloads are recorded for
#     the trajectory artifact but not gated;
#   * records whose baseline wall_ns < MIN_GATE_NS (default 1e6 = 1 ms) are
#     skipped — sub-millisecond timings are scheduler noise, not signal;
#   * the volatile `speedup` param is stripped from record keys, and timestamps
#     never participate (they live outside `params`).
#
# Machine calibration: the committed baseline was measured on one machine and
# CI runs on another, so absolute wall times are compared only after dividing
# out the overall machine-speed ratio — the 25th percentile of cur/base across
# the gated records, clamped to [0.5x, 2x]. A uniformly slower runner shifts
# every ratio and is absorbed; a regression has to slow more than three
# quarters of the gated records before it can masquerade as a slow machine
# (and even then only up to the 2x clamp) — slowing any smaller subset leaves
# the percentile at ~1 and fails the gate.
#
# Environment: MAX_REGRESSION_PCT (default 30), MIN_GATE_NS (default 1000000).
#
# No jq/python dependency: the record layout is this repo's own
# `ips_bench::JsonReporter` (one record per line), parsed with awk.
set -euo pipefail

MAX_REGRESSION_PCT="${MAX_REGRESSION_PCT:-30}"
MIN_GATE_NS="${MIN_GATE_NS:-1000000}"

die() { echo "check_bench: $1" >&2; exit 2; }

# Prints "key<TAB>wall_ns" per record of the given files. The key is the record
# name plus its params with the volatile `speedup` value dropped.
extract() {
    awk '
        /"name":/ {
            if (match($0, /"name": "[^"]*"/) == 0) next
            name = substr($0, RSTART + 9, RLENGTH - 10)
            if (match($0, /"params": \{[^}]*\}/) == 0) next
            params = substr($0, RSTART + 11, RLENGTH - 11)
            gsub(/"speedup": "[^"]*",? ?/, "", params)
            gsub(/, *\}/, "}", params)
            if (match($0, /"wall_ns": [0-9]+/) == 0) next
            ns = substr($0, RSTART + 11, RLENGTH - 11)
            printf "%s %s\t%s\n", name, params, ns
        }
    ' "$@"
}

# Whether a record key is gated (see the policy above). The n<=2000 cut reads
# the "n" param out of the key.
gated() {
    local key="$1"
    case "$key" in
        serve_throughput*) return 0 ;;
        kernel_throughput*) return 0 ;;
        telemetry_overhead*) return 0 ;;
        adaptive_serving*) return 0 ;;
        multiprobe_tradeoff*) return 0 ;;
        join_scaling*)
            local n
            n=$(sed -n 's/.*"n": "\([0-9]*\)".*/\1/p' <<<"$key")
            [ -n "$n" ] && [ "$n" -le 2000 ] && return 0
            return 1
            ;;
        *) return 1 ;;
    esac
}

compare() {
    local baseline="$1"; shift
    [ -f "$baseline" ] || die "baseline $baseline not found"
    for f in "$@"; do [ -f "$f" ] || die "current file $f not found"; done

    local base_tsv cur_tsv
    base_tsv="$(mktemp)"; cur_tsv="$(mktemp)"
    extract "$baseline" > "$base_tsv"
    extract "$@" > "$cur_tsv"
    [ -s "$base_tsv" ] || die "no records parsed from baseline $baseline"
    [ -s "$cur_tsv" ] || die "no records parsed from the current run"
    # Lookups below take the first record under a key; a second one would be
    # silently ignored, so it is an error instead.
    local dup
    dup=$(cut -f1 "$base_tsv" | sort | uniq -d | head -n 1)
    [ -z "$dup" ] || die "baseline $baseline holds more than one record for: $dup"
    dup=$(cut -f1 "$cur_tsv" | sort | uniq -d | head -n 1)
    [ -z "$dup" ] || die "the current run holds more than one record for: $dup"

    # Calibration pass: 25th-percentile cur/base ratio (in thousandths) over the
    # gated records, clamped to [500, 2000] — the machine-speed factor that the
    # comparison divides out (see the header).
    local ratios=() scale_milli=1000
    while IFS=$'\t' read -r key base_ns; do
        gated "$key" || continue
        [ "$base_ns" -ge "$MIN_GATE_NS" ] || continue
        cur_ns=$(awk -F'\t' -v k="$key" '$1 == k { print $2; exit }' "$cur_tsv")
        [ -n "$cur_ns" ] && ratios+=($((cur_ns * 1000 / base_ns)))
    done < "$base_tsv"
    if [ "${#ratios[@]}" -gt 0 ]; then
        local sorted
        mapfile -t sorted < <(printf '%s\n' "${ratios[@]}" | sort -n)
        scale_milli="${sorted[$((${#sorted[@]} / 4))]}"
        [ "$scale_milli" -lt 500 ] && scale_milli=500
        [ "$scale_milli" -gt 2000 ] && scale_milli=2000
    fi

    local failures=0 compared=0
    echo "benchmark gate: max regression ${MAX_REGRESSION_PCT}%, noise floor ${MIN_GATE_NS} ns, machine scale ${scale_milli}/1000"
    while IFS=$'\t' read -r key base_ns; do
        gated "$key" || continue
        [ "$base_ns" -ge "$MIN_GATE_NS" ] || continue
        cur_ns=$(awk -F'\t' -v k="$key" '$1 == k { print $2; exit }' "$cur_tsv")
        if [ -z "$cur_ns" ]; then
            echo "  MISSING  $key (in baseline, absent from current run)"
            failures=$((failures + 1))
            continue
        fi
        compared=$((compared + 1))
        # Integer arithmetic: fail when cur * 100000 > base * scale * (100 + PCT).
        if [ $((cur_ns * 100000)) -gt $((base_ns * scale_milli * (100 + MAX_REGRESSION_PCT))) ]; then
            echo "  REGRESSED $key: ${base_ns} ns -> ${cur_ns} ns (> +${MAX_REGRESSION_PCT}% at scale ${scale_milli}/1000)"
            failures=$((failures + 1))
        else
            echo "  ok        $key: ${base_ns} ns -> ${cur_ns} ns"
        fi
    done < "$base_tsv"
    rm -f "$base_tsv" "$cur_tsv"

    [ "$compared" -gt 0 ] || die "gate compared zero records — baseline and run disjoint?"
    if [ "$failures" -gt 0 ]; then
        echo "check_bench: FAIL ($failures gated record(s) regressed or missing)" >&2
        return 1
    fi
    echo "check_bench: PASS ($compared gated record(s) within ${MAX_REGRESSION_PCT}%)"
}

merge() {
    local out="$1"; shift
    # Write through a temp file so the output may also appear as an input
    # (appending to an existing baseline in place) without truncating it
    # before it is read.
    local tmp
    tmp="$(mktemp)"
    {
        echo "["
        # Keep each input's record lines, re-delimiting so the output is one array.
        local first=1
        for f in "$@"; do
            [ -f "$f" ] || die "input $f not found"
            while IFS= read -r line; do
                case "$line" in
                    *'"name":'*)
                        line="${line%,}"
                        if [ "$first" -eq 1 ]; then first=0; else echo ","; fi
                        printf '%s' "$line"
                        ;;
                esac
            done < "$f"
        done
        echo ""
        echo "]"
    } > "$tmp"
    mv "$tmp" "$out"
    echo "merged $# file(s) into $out"
}

self_test() {
    local dir base cur
    dir="$(mktemp -d)"
    # Expand now: $dir is function-local and gone by the time EXIT fires.
    trap "rm -rf '$dir'" EXIT
    base="$dir/base.json"; cur="$dir/cur.json"
    cat > "$base" <<'EOF'
[
  {"name": "serve_throughput", "params": {"path": "serve_build", "n": "10000", "speedup": "9000.0"}, "wall_ns": 400000000, "flops": 0, "schema_version": 2, "timestamp": "2026-01-01T00:00:00Z"},
  {"name": "serve_throughput", "params": {"path": "tcp_coalesced", "n": "10000", "dim": "32", "shards": "4", "clients": "4"}, "wall_ns": 60000000, "flops": 0, "schema_version": 2, "timestamp": "2026-01-01T00:00:00Z"},
  {"name": "join_scaling", "params": {"algo": "alsh", "n": "1000"}, "wall_ns": 50000000, "flops": 0, "schema_version": 2, "timestamp": "2026-01-01T00:00:00Z"},
  {"name": "join_scaling", "params": {"algo": "alsh", "n": "8000"}, "wall_ns": 900000000, "flops": 0, "schema_version": 2, "timestamp": "2026-01-01T00:00:00Z"},
  {"name": "kernel_throughput", "params": {"kernel": "f32", "dim": "32", "n": "2000", "m": "200", "reps": "2", "speedup": "1.53"}, "wall_ns": 3000000, "flops": 5.12e7, "schema_version": 2, "timestamp": "2026-01-01T00:00:00Z"},
  {"name": "telemetry_overhead", "params": {"path": "traced", "n": "10000", "dim": "32", "shards": "4", "reps": "8", "speedup": "0.40"}, "wall_ns": 140000000, "flops": 0, "schema_version": 2, "timestamp": "2026-01-01T00:00:00Z"},
  {"name": "adaptive_serving", "params": {"scenario": "streaming", "path": "adaptive", "n": "1024", "dim": "3", "reps": "4", "speedup": "1.75"}, "wall_ns": 5000000, "flops": 0, "schema_version": 2, "timestamp": "2026-01-01T00:00:00Z"},
  {"name": "multiprobe_tradeoff", "params": {"config": "probed", "tables": "16", "probes": "8", "n": "2000", "m": "400", "dim": "32"}, "wall_ns": 90000000, "flops": 0, "schema_version": 2, "timestamp": "2026-01-01T00:00:00Z"}
]
EOF
    # An identical run passes (speedup param differences must not matter).
    sed 's/"speedup": "9000.0"/"speedup": "8500.0"/' "$base" > "$cur"
    compare "$base" "$cur" > /dev/null || die "self-test: identical run must pass"
    # A 2x slowdown on a gated record fails.
    sed 's/"wall_ns": 50000000/"wall_ns": 100000000/' "$base" > "$cur"
    if compare "$base" "$cur" > /dev/null 2>&1; then
        die "self-test: a 2x slowdown must fail the gate"
    fi
    # A 2x slowdown on the multi-client TCP serving record fails too.
    sed 's/"wall_ns": 60000000/"wall_ns": 120000000/' "$base" > "$cur"
    if compare "$base" "$cur" > /dev/null 2>&1; then
        die "self-test: a tcp serve_throughput slowdown must fail the gate"
    fi
    # A 2x slowdown on a gated kernel record fails too.
    sed 's/"wall_ns": 3000000/"wall_ns": 6000000/' "$base" > "$cur"
    if compare "$base" "$cur" > /dev/null 2>&1; then
        die "self-test: a kernel_throughput slowdown must fail the gate"
    fi
    # A 2x slowdown on the traced-serving telemetry record fails too.
    sed 's/"wall_ns": 140000000/"wall_ns": 280000000/' "$base" > "$cur"
    if compare "$base" "$cur" > /dev/null 2>&1; then
        die "self-test: a telemetry_overhead slowdown must fail the gate"
    fi
    # A 2x slowdown on the adaptive-serving migration record fails too.
    sed 's/"wall_ns": 5000000/"wall_ns": 10000000/' "$base" > "$cur"
    if compare "$base" "$cur" > /dev/null 2>&1; then
        die "self-test: an adaptive_serving slowdown must fail the gate"
    fi
    # A 2x slowdown on the probed multiprobe-tradeoff record fails too.
    sed 's/"wall_ns": 90000000/"wall_ns": 180000000/' "$base" > "$cur"
    if compare "$base" "$cur" > /dev/null 2>&1; then
        die "self-test: a multiprobe_tradeoff slowdown must fail the gate"
    fi
    # A 2x slowdown on an UN-gated record (n=8000) does not fail.
    sed 's/"wall_ns": 900000000/"wall_ns": 1800000000/' "$base" > "$cur"
    compare "$base" "$cur" > /dev/null || die "self-test: ungated records must not gate"
    # A uniformly 1.8x slower machine passes: the calibration divides it out.
    sed -E 's/"wall_ns": ([0-9]+)/"wall_ns": \1SCALE/' "$base" \
        | awk '{ while (match($0, /[0-9]+SCALE/)) { ns = substr($0, RSTART, RLENGTH - 5); $0 = substr($0, 1, RSTART - 1) int(ns * 1.8) substr($0, RSTART + RLENGTH) } print }' > "$cur"
    compare "$base" "$cur" > /dev/null \
        || die "self-test: a uniformly slower machine must be calibrated out"
    # A gated record vanishing from the current run fails.
    grep -v '"n": "1000"' "$base" > "$cur"
    if compare "$base" "$cur" > /dev/null 2>&1; then
        die "self-test: a missing gated record must fail the gate"
    fi
    # A key recorded twice in the baseline (an old generation merged under a
    # new one) is an error, not a first-match lookup.
    cp "$base" "$cur"
    { head -n 2 "$base" | tail -n 1; } > "$dir/dup.line"
    sed "1r $dir/dup.line" "$base" > "$dir/dup.json"
    # (A gate error exits; the subshell keeps the self-test running.)
    if (compare "$dir/dup.json" "$cur") > /dev/null 2>&1; then
        die "self-test: a duplicated baseline key must fail the gate"
    fi
    if (compare "$base" "$dir/dup.json") > /dev/null 2>&1; then
        die "self-test: a duplicated current key must fail the gate"
    fi
    # Merging a file into itself appends rather than truncating it.
    cp "$base" "$cur"
    merge "$cur" "$cur" "$base" > /dev/null
    local want got
    want=$((2 * $(grep -c '"name":' "$base")))
    got=$(grep -c '"name":' "$cur")
    [ "$got" -eq "$want" ] || die "self-test: in-place merge kept $got of $want records"
    echo "check_bench: SELF-TEST PASS"
}

case "${1:-}" in
    --self-test) self_test ;;
    --merge)
        shift
        [ $# -ge 2 ] || die "usage: check_bench.sh --merge <out.json> <in.json> ..."
        merge "$@"
        ;;
    "" ) die "usage: check_bench.sh <BASELINE.json> <current.json> ... | --merge ... | --self-test" ;;
    *)
        [ $# -ge 2 ] || die "usage: check_bench.sh <BASELINE.json> <current.json> ..."
        compare "$@"
        ;;
esac

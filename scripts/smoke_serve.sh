#!/usr/bin/env bash
# End-to-end smoke test of the build → snapshot → serve data flow:
#   1. check the schema-generated `ips help` (overview + every subcommand),
#   2. generate a tiny dataset,
#   3. `ips build` it into a snapshot,
#   4. round-trip the snapshot through `ips query` twice (identical answers),
#   5. drive a scripted `query` / `insert` / `stats` / `save` session through
#      `ips serve` and assert on the protocol output,
#   6. check the session's `save` produced a loadable snapshot that remembers
#      the insert,
#   7. rebuild the same dataset with shards=4 and assert the sharded snapshot
#      answers byte-identically to the single-shard one (ALSH decomposes under
#      the shared build seed), then drive a sharded serve session: insert →
#      found, stats reports shards=4 with per-shard live counts, save → the
#      multi-shard file reloads with the insert intact,
#   8. start `ips serve listen=127.0.0.1:0` as a real TCP server, replay the
#      same session over a bash /dev/tcp client, assert the reply bytes are
#      identical to the stdin transport,
#   9. scrape the `metrics` Prometheus exposition twice over fresh TCP
#      connections with a query in between: every registered metric family is
#      present, the exposition is `# EOF`-framed, and the query counter is
#      monotonic across the scrapes; finally stop the server with the
#      `shutdown` protocol command.
# Used by CI after the release build; runnable locally as scripts/smoke_serve.sh.
set -euo pipefail

IPS="${IPS:-target/release/ips}"
if [ ! -x "$IPS" ]; then
    echo "building ips binary..."
    cargo build --release -p ips-cli
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
cd_failed() { echo "SMOKE FAIL: $1" >&2; exit 1; }

echo "== help (generated from the command schema) =="
commands="generate info join build serve query help"
overview="$("$IPS" help)"
for cmd in $commands; do
    grep -q "  $cmd" <<<"$overview" || cd_failed "overview missing \`$cmd\`"
    usage="$("$IPS" help "$cmd")"
    grep -q "usage: ips $cmd" <<<"$usage" \
        || cd_failed "\`ips help $cmd\` missing its usage line"
done
# Spot-check the schema drives the help: a real key with type + default,
# and the serve protocol section rendered from the same table as the REPL.
join_help="$("$IPS" help join)"
grep -q "threads=<auto|int≥1>" <<<"$join_help" \
    || cd_failed "join help missing schema-typed threads= row"
serve_help="$("$IPS" help serve)"
grep -q "topk <k> <v>\[;<v>...\]" <<<"$serve_help" \
    || cd_failed "serve help missing the line protocol"
if "$IPS" help nonsense >/dev/null 2>&1; then
    cd_failed "help for unknown command must fail"
fi

echo "== generate =="
"$IPS" generate kind=planted n=300 queries=10 dim=16 planted-ip=0.85 planted=5 seed=7 \
    "data=$workdir/data.csv" "query-file=$workdir/queries.csv"

echo "== build =="
build_out="$("$IPS" build "data=$workdir/data.csv" "snapshot=$workdir/index.snap" \
    s=0.8 c=0.6 algorithm=alsh seed=3)"
echo "$build_out"
grep -q "built alsh snapshot over 300 vectors" <<<"$build_out" \
    || cd_failed "build report wrong"
[ -s "$workdir/index.snap" ] || cd_failed "snapshot file missing or empty"

echo "== query round-trip =="
# The report line ends in wall-clock ms; strip it before comparing — the
# determinism claim is about the answers, not the timing.
"$IPS" query "snapshot=$workdir/index.snap" "queries=$workdir/queries.csv" limit=0 \
    | sed 's/, [0-9.]* ms$//' > "$workdir/q1.txt"
"$IPS" query "snapshot=$workdir/index.snap" "queries=$workdir/queries.csv" limit=0 \
    | sed 's/, [0-9.]* ms$//' > "$workdir/q2.txt"
cmp "$workdir/q1.txt" "$workdir/q2.txt" \
    || cd_failed "snapshot round-trip is not deterministic"
grep -q "alsh snapshot: 300 live vectors, 10 queries" "$workdir/q1.txt" \
    || cd_failed "query report wrong: $(cat "$workdir/q1.txt")"
pairs=$(sed -n 's/.* 10 queries, \([0-9]*\) pairs.*/\1/p' "$workdir/q1.txt")
[ "$pairs" -ge 1 ] || cd_failed "expected at least one planted pair, got $pairs"

echo "== serve session =="
# Insert a strong partner for the first query vector, then find it.
first_query="$(sed -n 1p "$workdir/queries.csv")"
serve_out="$("$IPS" serve "snapshot=$workdir/index.snap" <<EOF
query $first_query
insert $first_query
query $first_query
stats
save $workdir/session.snap
delete 300
bogus command
quit
EOF
)"
echo "$serve_out"
grep -q "serving alsh index: 300 live vectors, dim 16" <<<"$serve_out" \
    || cd_failed "serve banner wrong"
grep -q "inserted 300" <<<"$serve_out" || cd_failed "insert not acknowledged"
grep -q "hit 300 " <<<"$serve_out" || cd_failed "inserted vector not found"
grep -q "stats family=alsh live=301 queries=2" <<<"$serve_out" \
    || cd_failed "stats line wrong"
grep -q "inserts=1" <<<"$serve_out" || cd_failed "insert counter wrong"
grep -q "saved $workdir/session.snap" <<<"$serve_out" || cd_failed "save not acknowledged"
grep -q "deleted 300" <<<"$serve_out" || cd_failed "delete not acknowledged"
grep -q "error: usage error: unknown command" <<<"$serve_out" \
    || cd_failed "protocol errors must be reported, not fatal"
grep -q "^bye$" <<<"$serve_out" || cd_failed "quit not acknowledged"

echo "== saved session snapshot reloads with the insert =="
reload_out="$("$IPS" query "snapshot=$workdir/session.snap" \
    "queries=$workdir/queries.csv" limit=0)"
echo "$reload_out"
grep -q "alsh snapshot: 301 live vectors" <<<"$reload_out" \
    || cd_failed "session save lost the inserted vector"

echo "== sharded build: shards=4 answers byte-identically to shards=1 =="
build4_out="$("$IPS" build "data=$workdir/data.csv" "snapshot=$workdir/index4.snap" \
    s=0.8 c=0.6 algorithm=alsh seed=3 shards=4)"
echo "$build4_out"
grep -q "built alsh snapshot over 300 vectors (dim 16, 4 shard(s))" <<<"$build4_out" \
    || cd_failed "sharded build report wrong"
"$IPS" query "snapshot=$workdir/index4.snap" "queries=$workdir/queries.csv" limit=0 \
    | sed 's/, [0-9.]* ms$//' > "$workdir/q4.txt"
cmp "$workdir/q1.txt" "$workdir/q4.txt" \
    || cd_failed "shards=4 answers differ from shards=1 (exact merge broken)"

echo "== sharded serve session =="
serve4_out="$("$IPS" serve "snapshot=$workdir/index4.snap" <<EOF
query $first_query
insert $first_query
query $first_query
stats
save $workdir/session4.snap
quit
EOF
)"
echo "$serve4_out"
grep -q "serving alsh index: 300 live vectors, dim 16, 4 shard(s)" <<<"$serve4_out" \
    || cd_failed "sharded serve banner wrong"
grep -q "inserted 300" <<<"$serve4_out" || cd_failed "sharded insert not acknowledged"
grep -q "hit 300 " <<<"$serve4_out" || cd_failed "sharded inserted vector not found"
grep -q "shards=4" <<<"$serve4_out" || cd_failed "stats missing shard count"
shard_live="$(sed -n 's/.*shard_live=\([0-9,]*\).*/\1/p' <<<"$serve4_out")"
[ "$(tr ',' '\n' <<<"$shard_live" | wc -l)" -eq 4 ] \
    || cd_failed "stats must list 4 per-shard live counts, got \`$shard_live\`"
[ "$(tr ',' '\n' <<<"$shard_live" | awk '{sum += $1} END {print sum}')" -eq 301 ] \
    || cd_failed "per-shard live counts must sum to 301, got \`$shard_live\`"
grep -q "saved $workdir/session4.snap" <<<"$serve4_out" \
    || cd_failed "sharded save not acknowledged"

echo "== saved sharded snapshot reloads with the insert =="
reload4_out="$("$IPS" query "snapshot=$workdir/session4.snap" \
    "queries=$workdir/queries.csv" limit=0)"
echo "$reload4_out"
grep -q "alsh snapshot: 301 live vectors" <<<"$reload4_out" \
    || cd_failed "sharded session save lost the inserted vector"

echo "== TCP serve: byte-identical to the stdin transport =="
# One deterministic session script (no stats — its timing fields differ run to
# run), replayed over stdin and over a TCP connection: same reply bytes.
cat > "$workdir/tcp_script.txt" <<EOF
query $first_query
topk 2 $first_query
insert $first_query
query $first_query
delete 300
quit
EOF
"$IPS" serve "snapshot=$workdir/index4.snap" \
    < "$workdir/tcp_script.txt" > "$workdir/stdin_replies.txt"

"$IPS" serve "snapshot=$workdir/index4.snap" listen=127.0.0.1:0 workers=2 \
    > "$workdir/tcp_server.log" 2>&1 &
server_pid=$!
trap 'kill "$server_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT
port=""
for _ in $(seq 1 100); do
    port="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\) .*/\1/p' \
        "$workdir/tcp_server.log")"
    [ -n "$port" ] && break
    sleep 0.1
done
[ -n "$port" ] || cd_failed "TCP server never reported its listening port"
grep -q "coalesce window=" "$workdir/tcp_server.log" \
    || cd_failed "listening line must report the coalescing knobs"

# The whole session through one bash /dev/tcp connection; the server closes
# the socket after `quit`, ending the read.
exec 3<>"/dev/tcp/127.0.0.1/$port"
cat "$workdir/tcp_script.txt" >&3
cat <&3 > "$workdir/tcp_replies.txt"
exec 3<&- 3>&-
cmp "$workdir/stdin_replies.txt" "$workdir/tcp_replies.txt" \
    || cd_failed "TCP replies differ from the stdin transport"

echo "== metrics scrape over TCP: present, framed, monotonic =="
scrape() {
    exec 3<>"/dev/tcp/127.0.0.1/$port"
    printf 'query %s\nmetrics\nquit\n' "$first_query" >&3
    cat <&3 > "$1"
    exec 3<&- 3>&-
}
scrape "$workdir/metrics1.txt"
for name in ips_queries_total ips_hits_total ips_inserts_total ips_deletes_total \
    ips_rebuilds_total ips_connections_total ips_coalesced_batches_total \
    ips_live_vectors ips_shard_live_vectors ips_query_latency_ns \
    ips_stage_ns ips_observed; do
    grep -q "# TYPE $name " "$workdir/metrics1.txt" \
        || cd_failed "metrics exposition missing family \`$name\`"
done
grep -q "^# EOF$" "$workdir/metrics1.txt" \
    || cd_failed "metrics exposition must be framed with # EOF"
grep -q '^ips_shard_live_vectors{shard="3"} ' "$workdir/metrics1.txt" \
    || cd_failed "metrics must expose per-shard live gauges for all 4 shards"
scrape "$workdir/metrics2.txt"
q1="$(sed -n 's/^ips_queries_total \([0-9]*\)$/\1/p' "$workdir/metrics1.txt")"
q2="$(sed -n 's/^ips_queries_total \([0-9]*\)$/\1/p' "$workdir/metrics2.txt")"
[ -n "$q1" ] && [ -n "$q2" ] || cd_failed "scrapes must carry ips_queries_total"
[ "$q2" -gt "$q1" ] \
    || cd_failed "query counter must be monotonic across scrapes ($q1 -> $q2)"
c1="$(sed -n 's/^ips_connections_total \([0-9]*\)$/\1/p' "$workdir/metrics1.txt")"
c2="$(sed -n 's/^ips_connections_total \([0-9]*\)$/\1/p' "$workdir/metrics2.txt")"
[ "$c2" -gt "$c1" ] \
    || cd_failed "each scrape opens a connection, so the counter must move"

# `shutdown` from a second connection stops the whole server.
exec 3<>"/dev/tcp/127.0.0.1/$port"
printf 'shutdown\n' >&3
shutdown_replies="$(cat <&3)"
exec 3<&- 3>&-
grep -q "^bye$" <<<"$shutdown_replies" || cd_failed "shutdown not acknowledged"
wait "$server_pid" || cd_failed "server exited non-zero after shutdown"

echo "== adaptive serve: drift-triggered live migration, identical answers =="
# A wide-table ALSH snapshot (bits=6 raises the per-table collision rate so the
# planted pairs — the only pairs above cs, the background tops out at ip 0.1 —
# are found with near-certain probability: answers are effectively exact, which
# is what makes the before/after byte-comparison below deterministic).
"$IPS" build "data=$workdir/data.csv" "snapshot=$workdir/adaptive.snap" \
    s=0.8 c=0.6 algorithm=alsh seed=3 bits=6 tables=32 > /dev/null
"$IPS" serve "snapshot=$workdir/adaptive.snap" listen=127.0.0.1:0 workers=4 \
    adaptive=on drift-check-secs=1 \
    > "$workdir/adaptive_server.log" 2>&1 &
server_pid=$!
trap 'kill "$server_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT
port=""
for _ in $(seq 1 100); do
    port="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\) .*/\1/p' \
        "$workdir/adaptive_server.log")"
    [ -n "$port" ] && break
    sleep 0.1
done
[ -n "$port" ] || cd_failed "adaptive server never reported its listening port"
grep -q "adaptive controller on (drift checks every 1s)" \
    "$workdir/adaptive_server.log" || cd_failed "adaptive=on must announce itself"

# One deterministic probe script: every query of the workload. Replies are
# captured before and after the migration; the banner (which names the live
# family and so legitimately changes) is stripped before comparing.
sed 's/^/query /' "$workdir/queries.csv" > "$workdir/probe_script.txt"
echo "quit" >> "$workdir/probe_script.txt"
probe() {
    exec 3<>"/dev/tcp/127.0.0.1/$port"
    cat "$workdir/probe_script.txt" >&3
    cat <&3 | tail -n +2 > "$1"
    exec 3<&- 3>&-
}

# Anchor the controller's baseline on the build-time workload shape: enough
# unit-norm queries for a full window, then a beat for the 1s check to land.
probe "$workdir/adaptive_before.txt"
grep -q "^hit " "$workdir/adaptive_before.txt" \
    || cd_failed "the pre-migration probe must hit its planted pairs"
exec 3<>"/dev/tcp/127.0.0.1/$port"
{ cat "$workdir/queries.csv" "$workdir/queries.csv" | sed 's/^/query /'
  echo "plan"; echo "quit"; } >&3
baseline_out="$(cat <&3)"
exec 3<&- 3>&-
grep -q "plan strategy=alsh drift_score=" <<<"$baseline_out" \
    || cd_failed "the adaptive snapshot must open on alsh: $baseline_out"
sleep 1.5

# Drift the workload — queries only, the live set never changes: the same
# queries scaled far below the norms the plan was costed on. Once the drift
# score clears the threshold for consecutive checks, the controller re-plans;
# at n=300 the planner prefers brute force, so it migrates. Poll `plan`.
awk -F, '{ for (i = 1; i <= NF; i++) printf "%s%s", $i * 0.15, (i < NF ? "," : "\n") }' \
    "$workdir/queries.csv" > "$workdir/drifted.csv"
migrated=""
for _ in $(seq 1 60); do
    exec 3<>"/dev/tcp/127.0.0.1/$port"
    { cat "$workdir/drifted.csv" "$workdir/drifted.csv" | sed 's/^/query /'
      echo "plan"; echo "quit"; } >&3
    plan_out="$(cat <&3)"
    exec 3<&- 3>&-
    if grep -q "migrations=1" <<<"$plan_out"; then
        migrated="$plan_out"
        break
    fi
    sleep 0.3
done
[ -n "$migrated" ] || cd_failed "drift never triggered a migration: $plan_out"
grep -q "plan strategy=brute drift_score=" <<<"$migrated" \
    || cd_failed "the migration must land on the planner's choice: $migrated"

# The migrated index answers the original probe byte-identically: migration
# rebuilt the same live set under a strategy that can only *improve* recall,
# and the wide-table ALSH answers were already the exact ones.
probe "$workdir/adaptive_after.txt"
cmp "$workdir/adaptive_before.txt" "$workdir/adaptive_after.txt" \
    || cd_failed "answers changed across the live migration"
stats_line="$(exec 3<>"/dev/tcp/127.0.0.1/$port"
    printf 'stats\nquit\n' >&3; cat <&3; exec 3<&- 3>&-)"
grep -q "strategy=brute" <<<"$stats_line" \
    || cd_failed "stats must report the migrated strategy: $stats_line"
grep -q "migrations=1" <<<"$stats_line" \
    || cd_failed "stats must count the migration: $stats_line"

exec 3<>"/dev/tcp/127.0.0.1/$port"
printf 'shutdown\n' >&3
shutdown_replies="$(cat <&3)"
exec 3<&- 3>&-
grep -q "^bye$" <<<"$shutdown_replies" \
    || cd_failed "adaptive shutdown not acknowledged"
wait "$server_pid" || cd_failed "adaptive server exited non-zero after shutdown"

echo "SMOKE PASS"

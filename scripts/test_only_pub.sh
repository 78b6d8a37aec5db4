#!/usr/bin/env bash
# Lists the `pub` fns, structs, enums, traits, types, consts and statics of `crates/*/src`
# (outside `src/bin` and `main.rs`) that no non-test code names, and fails when that list
# and scripts/test_only_pub.allow (`name  # reason` a line) disagree either way.
#
# Non-test code is each `crates/*/src` file up to its first `#[cfg(test)]`, plus
# `examples/` and `benchmark/src`, without comments, string literals, `use` and `mod`
# lines. An item is test-only when every line of it that names the item lies in the
# item's own body (a type's includes its `impl` blocks) or in another test-only item.
#
#   scripts/test_only_pub.sh          check against the allow-list
#   scripts/test_only_pub.sh --list   print the test-only items and where they are
set -euo pipefail
cd "$(dirname "$0")/.."
allow=scripts/test_only_pub.allow
list=$(find crates/*/src examples benchmark/src -name '*.rs' | LC_ALL=C sort | xargs awk '
function strip_generics(h) { while (h ~ /<[^<>]*>/) gsub(/<[^<>]*>/, "", h); return h }
FNR == 1 { cut = instr = inuse = 0 }
cut { next }
/^[ \t]*#\[cfg\(test\)\]/ { cut = 1; next }
{
    t = $0
    if (instr) { if (sub(/^([^"\\]|\\.)*"/, "", t)) instr = 0; else t = "" }
    sub(/^[ \t]*\/\/.*/, "", t)
    gsub(/\047(\\.|[^\\\047])\047|"([^"\\]|\\.)*"/, "@", t)
    sub(/\/\/.*/, "", t)
    if (sub(/"([^"\\]|\\.)*\\?$/, "", t)) instr = 1
    if (inuse) { inuse = t !~ /;/; t = "" }
    else if (t ~ /^[ \t]*(pub(\([a-z]+\))?[ \t]+)?use[ \t]/) { inuse = t !~ /;/; t = "" }
    else if (t ~ /^[ \t]*(pub(\([a-z]+\))?[ \t]+)?mod[ \t]+[A-Za-z_0-9]+[ \t]*;/) t = ""
    N++; T[N] = t; F[N] = FILENAME; L[N] = FNR
}
END {
    # Items, their bodies (`SPAN`: "first-last" ranges of lines) and the impl blocks.
    for (n = 1; n <= N; n++) {
        if (F[n] != F[n - 1]) depth = open = impls = 0
        t = T[n]
        if (F[n] ~ /^crates\/[^\/]+\/src\// && F[n] !~ /\/src\/bin\/|\/main\.rs$/ && match(t, /^[ \t]*pub[ \t]+((const|unsafe|async)[ \t]+)*(fn|struct|enum|trait|type|const|static)[ \t]+[A-Za-z_0-9]+/)) {
            k = split(substr(t, RSTART, RLENGTH), w, /[ \t]+/)
            I++; NAME[I] = w[k]; TYPE[I] = w[k - 1] != "fn" && w[k - 1] != "const" && w[k - 1] != "static"
            WHERE[I] = F[n] ":" L[n]; SHOWN[I] = (w[k - 1] == "fn" && impls) ? SELF[impls] "::" w[k] : w[k]
            SPAN[I] = n; OPEN[++open] = I; ODEPTH[open] = depth
        }
        if (hdr != "" || t ~ /^[ \t]*(unsafe[ \t]+)?impl[ \t<]/) {
            if (hdr == "") { hstart = n; hdepth = depth }
            hdr = hdr " " t
            if (t ~ /\{/) {
                h = strip_generics(hdr); sub(/\{.*/, "", h); sub(/[ \t]where[ \t].*/, "", h)
                self = h; sub(/^.*[ \t]impl[ \t]+/, "", self); sub(/^.*[ \t]for[ \t]+/, "", self)
                sub(/^[^A-Za-z_]*/, "", self); sub(/[^A-Za-z_0-9].*/, "", self)
                impls++; SELF[impls] = self; OWNERS[impls] = " " h " "; ISTART[impls] = hstart; IDEPTH[impls] = hdepth; hdr = ""
            }
        }
        s = t; depth += gsub(/[{([]/, "", s); s = t; depth -= gsub(/[})\]]/, "", s)
        while (open && depth == ODEPTH[open] && t ~ /[};][ \t]*$/) { j = OPEN[open--]; SPAN[j] = SPAN[j] "-" n }
        while (impls && depth == IDEPTH[impls] && t ~ /\}[ \t]*$/) {
            B++; BSPAN[B] = ISTART[impls] "-" n; BOWNERS[B] = OWNERS[impls]; impls--
        }
    }
    for (i = 1; i <= I; i++) {
        WANT[NAME[i]] = 1
        if (TYPE[i]) for (b = 1; b <= B; b++) if (BOWNERS[b] ~ "[^A-Za-z_0-9]" NAME[i] "[^A-Za-z_0-9]") SPAN[i] = SPAN[i] " " BSPAN[b]
    }
    for (n = 1; n <= N; n++) {
        s = T[n]; split("", seen)
        while (match(s, /[A-Za-z_][A-Za-z_0-9]*/)) {
            w1 = substr(s, RSTART, RLENGTH); s = substr(s, RSTART + RLENGTH)
            if ((w1 in WANT) && !(w1 in seen)) { seen[w1] = 1; NAMED[w1] = NAMED[w1] " " n }
        }
    }
    # To a fixed point: a line inside a test-only item names nothing.
    do {
        grew = 0
        for (i = 1; i <= I; i++) {
            if (i in DEAD) continue
            m = split(SPAN[i], sp, " "); k = split(NAMED[NAME[i]], at, " "); live = 0
            for (q = 1; q <= k && !live; q++) {
                if ((n = at[q] + 0) in DL) continue
                live = 1
                for (p = 1; p <= m; p++) { split(sp[p], r, "-"); if (n >= r[1] + 0 && n <= r[2] + 0) live = 0 }
            }
            if (live) continue
            DEAD[i] = grew = 1
            for (p = 1; p <= m; p++) { split(sp[p], r, "-"); for (n = r[1] + 0; n <= r[2] + 0; n++) DL[n] = 1 }
        }
    } while (grew)
    for (i in DEAD) printf "%s\t%s\n", SHOWN[i], WHERE[i]
}' | LC_ALL=C sort -u)

if [ "${1:-}" = "--list" ]; then
    printf '%s\n' "$list"
    exit 0
fi
found=$(printf '%s\n' "$list" | cut -f1 | LC_ALL=C sort -u)
allowed=$(sed -e 's/#.*//' -e 's/[ \t]*$//' -e '/^$/d' "$allow" | LC_ALL=C sort -u)
missing=$(printf '%s\n' "$found" | grep -vxF -f <(printf '%s\n' "$allowed") || true)
stale=$(printf '%s\n' "$allowed" | grep -vxF -f <(printf '%s\n' "$found") || true)
[ -z "$missing" ] || printf "test-only pub item not on $allow (see --list): %s\n" $missing
[ -z "$stale" ] || printf "stale entry in $allow (gone, or a program names it now): %s\n" $stale
[ -z "$missing$stale" ] || exit 1
echo "test-only pub items: $(printf '%s\n' "$found" | grep -c .), all on $allow"

#!/bin/sh
# The wall-clock trajectory (ROADMAP item 1(e)): alternating parent/change
# pairs of the benchmark BENCHMARK.json declares, and one row per run of
# this script appended to BENCH_hw.json at the root of this checkout.
#
#   ci/hwpairs.sh <parent-checkout> [N=10]
#
# Builds each side's hwbench once from its own checkout (so each side is
# measured by its own copy of the ruler, as the benchmark driver does),
# then per workload runs N pairs — seeds 11 … 10+N, `--seconds` from
# BENCHMARK.json, `--trace 0`, the side that goes first alternating — and
# reads every invocation's result from the last line of its standard
# output. Prints, per workload × end-to-end metric, both medians and
# quartiles, the ratio of the medians and how many pairs the change won
# (ties count for neither), plus `correct`/`failed`.
#
#   LABEL="PR 21"       the row's name (default: the change's commit)
#   WORKLOADS="a b"     a subset of the four workloads
#   HWPAIRS_DIR=<dir>   build and result files (default target/hwpairs)
set -eu
[ $# -ge 1 ] || { echo "usage: ci/hwpairs.sh <parent-checkout> [N=10]" >&2; exit 2; }
change=$(cd "$(dirname "$0")/.." && pwd)
parent=$(cd "$1" && pwd)
n=${2:-10}
work=${HWPAIRS_DIR:-$change/target/hwpairs}
secs=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$change/BENCHMARK.json")
workloads=${WORKLOADS:-$(sed -n 's/^ *{"name": "\([a-z0-9_]*\)", "why".*/\1/p' "$change/BENCHMARK.json")}
label=${LABEL:-$(git -C "$change" rev-parse --short HEAD)}
mkdir -p "$work"
runs="$work/runs.tsv"
: >"$runs"

for side in parent change; do
    eval dir=\$$side
    echo "building $side: $dir" >&2
    (cd "$dir" && CARGO_TARGET_DIR="$work/$side" cargo build --release --offline --quiet \
        --manifest-path hwbench/Cargo.toml)
done

# One invocation: `side workload seed` -> rows `workload side seed metric value`.
run() {
    eval dir=\$$1
    last=$(cd "$dir" && "$work/$1/release/hwbench" --workload "$2" --seed "$3" \
        --seconds "$secs" --trace 0 --out "$work/results/$1" 2>>"$work/hwbench.log" | tail -n 1)
    printf '%s\n' "$last" | awk -v w="$2" -v s="$1" -v seed="$3" '{
        print w, s, seed, "correct", ($0 ~ /"correct": true/) ? 1 : 0
        if (match($0, /"failed": [0-9]+/)) print w, s, seed, "failed", substr($0, RSTART + 10, RLENGTH - 10)
        while (match($0, /"[a-z0-9_]+": \{"value": [-0-9.e+]+/)) {
            kv = substr($0, RSTART + 1, RLENGTH - 1); $0 = substr($0, RSTART + RLENGTH)
            split(kv, p, /": \{"value": /); print w, s, seed, p[1], p[2]
        }
    }' >>"$runs"
}

for w in $workloads; do
    i=0
    while [ "$i" -lt "$n" ]; do
        seed=$((11 + i))
        if [ $((i % 2)) -eq 0 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
            echo "$w pair $((i + 1))/$n seed $seed: $side" >&2
            run "$side" "$w" "$seed"
        done
        i=$((i + 1))
    done
done

# Medians, quartiles, wins; the table on stdout, the JSON row in $work/row.json.
better=$(sed -n 's/^ *{"name": "\([a-z0-9_]*\)", "unit".*"better": "\([a-z]*\)".*/\1=\2/p' "$change/BENCHMARK.json" | tr '\n' ' ')
awk -v better="$better" -v label="$label" -v n="$n" -v secs="$secs" \
    -v parent="$(git -C "$parent" rev-parse --short HEAD)" -v rowfile="$work/row.json" '
function q(a, cnt, p,    pos, lo) { pos = (cnt - 1) * p; lo = int(pos); return a[lo + 1] + (pos - lo) * (a[(lo + 2 > cnt) ? cnt : lo + 2] - a[lo + 1]) }
function stats(w, s, m, out,    cnt, i, j, t, a) {
    cnt = 0
    for (i = 1; i <= nseed; i++) if ((w, s, seeds[i], m) in v) a[++cnt] = v[w, s, seeds[i], m]
    for (i = 2; i <= cnt; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
    out["n"] = cnt; out["q1"] = q(a, cnt, 0.25); out["med"] = q(a, cnt, 0.5); out["q3"] = q(a, cnt, 0.75)
}
BEGIN { k = split(better, b, " "); for (i = 1; i <= k; i++) { split(b[i], kv, "="); dir[kv[1]] = kv[2]; order[i] = kv[1] } nm = k }
{ v[$1, $2, $3, $4] = $5; if (!($1 in seenw)) { seenw[$1] = 1; ws[++nw] = $1 } if (!($3 in seens)) { seens[$3] = 1; seeds[++nseed] = $3 } }
END {
    row = sprintf("{\"label\": \"%s\", \"parent\": \"%s\", \"pairs\": %d, \"seconds\": %d, \"workloads\": {", label, parent, n, secs)
    for (wi = 1; wi <= nw; wi++) {
        w = ws[wi]; ok = 1; fp = 0; fc = 0
        for (i = 1; i <= nseed; i++) {
            if (v[w, "parent", seeds[i], "correct"] != 1 || v[w, "change", seeds[i], "correct"] != 1) ok = 0
            fp += v[w, "parent", seeds[i], "failed"]; fc += v[w, "change", seeds[i], "failed"]
        }
        printf "%s: correct %s, failed parent %d change %d\n", w, ok ? "true" : "FALSE", fp, fc
        printf "  %-24s %36s %36s %7s %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "ratio", "wins"
        row = row sprintf("%s\"%s\": {\"correct\": %s, \"failed\": [%d, %d], \"metrics\": {", wi > 1 ? ", " : "", w, ok ? "true" : "false", fp, fc)
        for (mi = 1; mi <= nm; mi++) {
            m = order[mi]; stats(w, "parent", m, P); stats(w, "change", m, C); wins = 0; losses = 0
            for (i = 1; i <= nseed; i++) {
                d = v[w, "change", seeds[i], m] - v[w, "parent", seeds[i], m]; if (dir[m] == "lower") d = -d
                if (d > 0) wins++; else if (d < 0) losses++
            }
            printf "  %-24s %12.4f [%10.4f, %10.4f] %12.4f [%10.4f, %10.4f] %7.3f %d/%d\n", m, P["med"], P["q1"], P["q3"], C["med"], C["q1"], C["q3"], P["med"] ? C["med"] / P["med"] : 0, wins, wins + losses
            row = row sprintf("%s\"%s\": {\"parent\": [%.6g, %.6g, %.6g], \"change\": [%.6g, %.6g, %.6g], \"wins\": %d, \"losses\": %d}", mi > 1 ? ", " : "", m, P["q1"], P["med"], P["q3"], C["q1"], C["med"], C["q3"], wins, losses)
        }
        row = row "}}"
    }
    print row "}}" > rowfile
}' "$runs"

# BENCH_hw.json is a JSON array, one row a line.
bench="$change/BENCH_hw.json"
if [ -s "$bench" ]; then
    { sed '$d' "$bench" | sed '$s/$/,/'; cat "$work/row.json"; echo "]"; } >"$work/bench.json"
else
    { echo "["; cat "$work/row.json"; echo "]"; } >"$work/bench.json"
fi
mv "$work/bench.json" "$bench"
echo "row \"$label\" appended to BENCH_hw.json (each metric: [q1, median, q3]); every run: $runs" >&2

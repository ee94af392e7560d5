#!/bin/bash
# Does the benchmark repeat? Runs two sets of N invocations per workload
# with the same seeds, one set after the other, and asks `hwbench agree`
# whether every (workload, end-to-end metric) median stays inside the
# bound BENCHMARK.json fixes for it. Exit 0 = no `disagree` row.
#
#   N=5 hwbench/check.sh            # ≈ 16 min on the 2-vCPU reference box
#   TRACED=1 hwbench/check.sh       # also the four traced runs and their budget lines
set -euo pipefail
cd "$(dirname "$0")/.."

N=${N:-5}
SECS=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
RUN=(cargo run --release --offline --quiet --manifest-path hwbench/Cargo.toml --)
OUT=hwbench/results/check-$(date +%s)
WORKLOADS=(campus_tcp crawl16_sim crawl16_tcp zipf_live_tcp)
mkdir -p "$OUT"

# Workload by workload, as the benchmark driver runs them: a workload's
# invocations sit in one window of a few minutes, and the two sets of a
# workload are a quarter of an hour apart, which is how far apart the
# host's quiet and busy spells are.
for set in A B; do
  for w in "${WORKLOADS[@]}"; do
    for ((i = 0; i < N; i++)); do
      echo "set $set: $w seed $((11 + i))" >&2
      "${RUN[@]}" --workload "$w" --seed $((11 + i)) --seconds "$SECS" --trace 0 \
        --out "$OUT/$set" >/dev/null 2>>"$OUT.log"
    done
  done
done

if [[ ${TRACED:-0} == 1 ]]; then
  for w in "${WORKLOADS[@]}"; do
    echo "traced: $w" >&2
    "${RUN[@]}" --workload "$w" --seed 11 --seconds "$SECS" --trace 1 \
      --out "$OUT/traced" >/dev/null 2>>"$OUT.log"
  done
  grep -E '^(budget|hwbench: budget)' "$OUT.log" >&2 || true
fi

"${RUN[@]}" agree "$OUT/A" "$OUT/B"

#!/bin/sh
# One way to run a query: each runtime has one single-query form and one
# workload form, all methods of `Deployment` — `query_sim` and
# `workload_sim` on the simulator, `query_tcp` (a workload of one user)
# and `workload_tcp` on loopback TCP — beside the data-shipping oracle
# `datashipping_sim` and the hand-stepping pieces (`sim_net`,
# `sim_with_client`, `drive_sim`, `tcp_cluster`). Hybrid execution is
# `query_sim` with `participating` and `config.hybrid` said, and the
# planner (workload.rs) only plans. This fails when a non-test line of
# crates/webdis-core/src
#   * defines a `pub fn run_…` other than the two the wall-clock
#     benchmark (hwbench/) calls: `run_query_sim` in simrun.rs and
#     `run_datashipping_sim` in datashipping.rs;
#   * defines a `pub fn …_sim` or `pub fn …_tcp` outside the list above;
# or when a non-test line of the planner module defines a `fn run…` or
# calls `.workload_sim(` or `.workload_tcp(`.
# Non-test lines are those before a file's first `#[cfg(test)]`, as in
# ci/loc.sh.
set -eu
cd "$(dirname "$0")/.."
fail=0
core=crates/webdis-core/src
nontest() { awk -v f="$1" '/#\[cfg\(test\)\]/ { exit } { print f ":" NR ": " $0 }' "$1"; }
product() {
    find "$core" -name '*.rs' | LC_ALL=C sort |
        while read -r f; do nontest "$f"; done
}

runs=$(product | grep -E 'pub fn run_[A-Za-z0-9_]*[<(]' |
    grep -vE "^$core/simrun\.rs:[0-9]+: *pub fn run_query_sim\(" |
    grep -vE "^$core/datashipping\.rs:[0-9]+: *pub fn run_datashipping_sim\(" || true)
if [ -n "$runs" ]; then
    echo "a run_* function beside the Deployment methods (only hwbench's two shims stay):" >&2
    echo "$runs" >&2
    fail=1
fi

forms='sim_net|sim_with_client|drive_sim|query_sim|workload_sim|datashipping_sim|tcp_cluster|query_tcp|workload_tcp'
extra=$(product | grep -E 'pub fn [A-Za-z0-9_]*_(sim|tcp)[<(]' |
    grep -vE "pub fn ($forms)[<(]" |
    grep -vE "^$core/simrun\.rs:[0-9]+: *pub fn run_query_sim\(" |
    grep -vE "^$core/datashipping\.rs:[0-9]+: *pub fn run_datashipping_sim\(" || true)
if [ -n "$extra" ]; then
    echo "a run form beside query_sim/workload_sim/datashipping_sim and query_tcp/workload_tcp:" >&2
    echo "$extra" >&2
    fail=1
fi

planner=$(nontest "$core/workload.rs" |
    grep -E 'fn run[A-Za-z0-9_]*[<(]|\.workload_(sim|tcp)\(' || true)
if [ -n "$planner" ]; then
    echo "the planner (workload.rs) runs a workload; it only plans:" >&2
    echo "$planner" >&2
    fail=1
fi
[ "$fail" -eq 0 ] || exit 1
echo "one run: query_sim/workload_sim and query_tcp/workload_tcp on Deployment, the data-shipping oracle, hwbench's two run_* shims, and a planner that only plans"

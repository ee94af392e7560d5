#!/bin/sh
# ROADMAP item 6(a): everything that happens *at a time* is an entry of
# its runtime's one queue — SimNet's heap on the simulator, the deadline
# heap of a `serve` wait on TCP — and what the network does to a message
# is one `faults` list. This fails when a second clock reappears:
#   * a non-test line of crates/webdis-core/src/tcprun.rs sleeps
#     (`thread::sleep`) or compares an `.elapsed()` against something (a
#     hand-rolled timer; reading the clock as `elapsed().as_micros()` is
#     fine);
#   * `run_until(` appears in a non-test line under crates/*/src outside
#     webdis-sim (harnesses act at times through `post_host` and
#     `Deployment::drive_sim`, not by slicing the clock themselves);
#   * `SimConfig` has a field beyond latency, jitter_us, faults, seed.
# Non-test lines are those before a file's first `#[cfg(test)]`, as in
# ci/loc.sh.
set -eu
cd "$(dirname "$0")/.."
fail=0
nontest() { awk -v f="$1" '/#\[cfg\(test\)\]/ { exit } { print f ":" NR ": " $0 }' "$1"; }

polls=$(nontest crates/webdis-core/src/tcprun.rs |
    grep -E 'thread::sleep|elapsed\(\) *(<|>|==|!=)' || true)
if [ -n "$polls" ]; then
    echo "tcprun.rs polls the clock instead of posting a deadline:" >&2
    echo "$polls" >&2
    fail=1
fi

slices=$(find crates -name '*.rs' -path 'crates/*/src/*' ! -path 'crates/webdis-sim/*' |
    LC_ALL=C sort | while read -r f; do nontest "$f"; done | grep -F 'run_until(' || true)
if [ -n "$slices" ]; then
    echo "a clock loop outside webdis-sim (use SimNet::post_host / Deployment::drive_sim):" >&2
    echo "$slices" >&2
    fail=1
fi

fields=$(sed -n '/^pub struct SimConfig {/,/^}/p' crates/webdis-sim/src/net.rs |
    sed -n 's/^    pub \([a-z_]*\):.*/\1/p' | tr '\n' ' ')
if [ "$fields" != "latency jitter_us faults seed " ]; then
    echo "SimConfig fields: $fields(expected: latency jitter_us faults seed)" >&2
    fail=1
fi
[ "$fail" -eq 0 ] || exit 1
echo "one clock: no polling in tcprun.rs, no clock loop outside webdis-sim, SimConfig has 4 fields"

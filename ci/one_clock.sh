#!/bin/sh
# Everything that happens *at a time* is an entry of one
# `webdis_sim::Agenda` — SimNet's on the simulator, each TCP thread's on
# the wall clock — and what the network does to a message is one
# `faults` list. This fails when a second clock reappears:
#   * a non-test line under crates/*/src outside
#     crates/webdis-sim/src/agenda.rs names `BinaryHeap` (a second
#     time-ordered queue, with an equal-instant order of its own) or
#     `crash_edges` (crash edges read off the fault list beside
#     `Agenda::new` and `Injector::down`);
#   * a non-test line of crates/webdis-core/src/tcprun.rs sleeps
#     (`thread::sleep`) or compares an `.elapsed()` against something (a
#     hand-rolled timer; reading the clock as `elapsed().as_micros()` is
#     fine);
#   * a non-test line under crates/webdis-net/src/ sleeps: calls
#     `thread::sleep`, waits on no socket at all (`wait(&mut []`), or
#     parks (`park_timeout`) anywhere but the one poll-less platform's
#     `sys::wait`, whose park is that platform's wait. A wait of the
#     transport — a write waiting for room, a retry's backoff, the pause
#     after a failed accept — is a turn of its endpoint's one wait, which
#     reads every listener of it meanwhile, so a thread hosting several
#     sites never sleeps while one of them has something to read;
#   * `run_until(` appears in a non-test line under crates/*/src outside
#     webdis-sim (harnesses act at times through `post_host` and
#     `Deployment::drive_sim`, not by slicing the clock themselves);
#   * `SimConfig` has a field beyond latency, proc (the processing-cost
#     model the simulator prices work with), jitter_us, faults, seed.
# Non-test lines are those before a file's first `#[cfg(test)]`, as in
# ci/loc.sh.
set -eu
cd "$(dirname "$0")/.."
fail=0
nontest() { awk -v f="$1" '/#\[cfg\(test\)\]/ { exit } { print f ":" NR ": " $0 }' "$1"; }

queues=$(find crates -name '*.rs' -path 'crates/*/src/*' ! -path crates/webdis-sim/src/agenda.rs |
    LC_ALL=C sort | while read -r f; do nontest "$f"; done |
    grep -E '(^|[^A-Za-z0-9_])(BinaryHeap|crash_edges)([^A-Za-z0-9_]|$)' || true)
if [ -n "$queues" ]; then
    echo "a time queue or crash-edge reader beside webdis_sim::Agenda:" >&2
    echo "$queues" >&2
    fail=1
fi

polls=$(nontest crates/webdis-core/src/tcprun.rs |
    grep -E 'thread::sleep|elapsed\(\) *(<|>|==|!=)' || true)
if [ -n "$polls" ]; then
    echo "tcprun.rs polls the clock instead of posting a deadline:" >&2
    echo "$polls" >&2
    fail=1
fi

net=$(find crates/webdis-net/src -name '*.rs' | LC_ALL=C sort |
    while read -r f; do nontest "$f"; done)
sleeps=$(printf '%s\n' "$net" | grep -E 'thread::sleep|wait\(&mut \[\]' || true)
parks=$(printf '%s\n' "$net" | grep -F 'park_timeout' || true)
if [ -n "$sleeps" ] || [ "$(printf '%s' "$parks" | grep -c .)" -gt 1 ]; then
    echo "the TCP transport sleeps beside its endpoint's wait (take a turn of it):" >&2
    printf '%s\n%s\n' "$sleeps" "$parks" >&2
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
if [ "$fields" != "latency proc jitter_us faults seed " ]; then
    echo "SimConfig fields: $fields(expected: latency proc jitter_us faults seed)" >&2
    fail=1
fi
[ "$fail" -eq 0 ] || exit 1
echo "one clock: one Agenda, no polling in tcprun.rs, no sleep in webdis-net, no clock loop outside webdis-sim, SimConfig has 5 fields"

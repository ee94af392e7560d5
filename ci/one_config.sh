#!/bin/sh
# One value per setting: `EngineConfig` says each switch as the one
# value it is. This fails when, under crates/*/src, src/ or examples/:
#   * a wrapper that restated one value returns — `ChtMode` (a second
#     protocol field beside `CompletionMode`, whose fourth combination
#     was the ack chain again), `ExpiryPolicy` (a timeout plus a period
#     always set to a quarter of it), `AdmissionPolicy` (one `usize`),
#     `SimRunError` (one variant around `DisqlError`) — or the
#     per-daemon `metrics_addrs` (a cluster has one admin socket);
#   * `EngineConfig` declares more than 12 `pub` fields (the monitor is
#     the tracer, not a field of its own; the processing-cost model is
#     the simulator's `SimConfig::proc`; a doc-cache hit always checks
#     the document's version, with no switch to serve a superseded
#     build).
# The engine measures and the runtime prices its work, so this also
# fails when:
#   * a non-test line under crates/webdis-core/src or
#     crates/webdis-cache/src names `ProcModel`, `parse_cost_us`,
#     `lookup_us`, `.proc` or `.work(` (a price of the engine's own);
#   * an `impl Network` other than the simulator's `Ctx` defines
#     `charge` (one runtime charges; every other one keeps the default,
#     which charges nothing).
# Non-test lines are those before a file's first `#[cfg(test)]`, as in
# ci/loc.sh.
set -eu
cd "$(dirname "$0")/.."
fail=0
nontest() { awk -v f="$1" '/#\[cfg\(test\)\]/ { exit } { print f ":" NR ": " $0 }' "$1"; }
hits() {
    find crates src examples -name '*.rs' \( -path 'crates/*/src/*' -o -path 'src/*' -o -path 'examples/*' \) |
        LC_ALL=C sort | xargs grep -nE "$1" || true
}

wrappers=$(hits '\b(ChtMode|ExpiryPolicy|AdmissionPolicy|SimRunError|metrics_addrs)\b')
if [ -n "$wrappers" ]; then
    echo "a wrapper around one value, or a per-daemon admin address:" >&2
    echo "$wrappers" >&2
    fail=1
fi

fields=$(awk '
    /^pub struct EngineConfig \{/ { inside = 1; next }
    inside && /^\}/ { inside = 0 }
    inside && /^    pub [a-z_0-9]+:/ { n++ }
    END { print n + 0 }' crates/webdis-core/src/config.rs)
if [ "$fields" -gt 12 ]; then
    echo "EngineConfig has $fields pub fields (at most 12): say a setting as one value" >&2
    fail=1
fi

prices=$(find crates/webdis-core/src crates/webdis-cache/src -name '*.rs' | LC_ALL=C sort |
    while read -r f; do nontest "$f"; done |
    grep -E '(^|[^A-Za-z0-9_])(ProcModel|parse_cost_us|lookup_us)([^A-Za-z0-9_]|$)|\.proc([^A-Za-z0-9_]|$)|\.work\(' || true)
if [ -n "$prices" ]; then
    echo "the engine prices its own work (report it: Network::charge):" >&2
    echo "$prices" >&2
    fail=1
fi

chargers=$(find crates src examples tests hwbench -name '*.rs' ! -path '*/target/*' | LC_ALL=C sort |
    xargs awk '
        FNR == 1 { inside = 0 }
        /^ *impl[^{]*[^A-Za-z0-9_]Network for / {
            inside = 1; head = $0; match($0, /^ */); close_at = substr($0, 1, RLENGTH) "}"
            next
        }
        inside && $0 == close_at { inside = 0 }
        inside && /fn charge\(/ { print FILENAME ": " head }' |
    grep -vxF "crates/webdis-sim/src/net.rs: impl Network for Ctx<'_> {" || true)
if [ -n "$chargers" ]; then
    echo "a Network beside the simulator's Ctx charges for work:" >&2
    echo "$chargers" >&2
    fail=1
fi
[ "$fail" -eq 0 ] || exit 1
echo "one config: $fields EngineConfig fields (at most 12), no wrapper around one value, only the simulator prices work"

#!/bin/sh
# One value per setting: `EngineConfig` says each switch as the one
# value it is. This fails when, under crates/*/src, src/ or examples/:
#   * a wrapper that restated one value returns — `ChtMode` (a second
#     protocol field beside `CompletionMode`, whose fourth combination
#     was the ack chain again), `ExpiryPolicy` (a timeout plus a period
#     always set to a quarter of it), `AdmissionPolicy` (one `usize`),
#     `SimRunError` (one variant around `DisqlError`) — or the
#     per-daemon `metrics_addrs` (a cluster has one admin socket);
#   * `EngineConfig` declares more than 14 `pub` fields (the monitor is
#     the tracer, not a field of its own).
set -eu
cd "$(dirname "$0")/.."
fail=0
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
if [ "$fields" -gt 14 ]; then
    echo "EngineConfig has $fields pub fields (at most 14): say a setting as one value" >&2
    fail=1
fi
[ "$fail" -eq 0 ] || exit 1
echo "one config: $fields EngineConfig fields (at most 14), no wrapper around one value"

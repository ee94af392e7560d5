#!/bin/sh
# The monitor is one sink of the trace stream: a `webdis_monitor::Monitor`
# is the run's tracer and folds the records passing through it, so the
# engine knows only `TraceHandle`. This fails when:
#   * crates/webdis-core/Cargo.toml names `webdis-monitor` (as a
#     dependency of any kind);
#   * a non-test line under crates/webdis-core/src names `webdis_monitor`;
#   * a non-test line under crates/*/src, src/ or examples/ names
#     `MonitorHandle` (the engine's old handle) or `clone_recv` /
#     `clone_sent` (hooks restating `query_recv` and `query_sent`).
# Non-test lines are those before a file's first `#[cfg(test)]`, as in
# ci/loc.sh.
set -eu
cd "$(dirname "$0")/.."
fail=0
nontest() { awk -v f="$1" '/#\[cfg\(test\)\]/ { exit } { print f ":" NR ": " $0 }' "$1"; }
word() { grep -E "(^|[^A-Za-z0-9_])($1)([^A-Za-z0-9_]|\$)" || true; }

if grep -n 'webdis-monitor' crates/webdis-core/Cargo.toml >&2; then
    echo "webdis-core depends on webdis-monitor: install the monitor as the run's tracer" >&2
    fail=1
fi

core=$(find crates/webdis-core/src -name '*.rs' | LC_ALL=C sort |
    while read -r f; do nontest "$f"; done | word 'webdis_monitor')
if [ -n "$core" ]; then
    echo "webdis-core names the monitor:" >&2
    echo "$core" >&2
    fail=1
fi

hooks=$(find crates src examples -name '*.rs' \( -path 'crates/*/src/*' -o -path 'src/*' -o -path 'examples/*' \) |
    LC_ALL=C sort | while read -r f; do nontest "$f"; done | word 'MonitorHandle|clone_recv|clone_sent')
if [ -n "$hooks" ]; then
    echo "a monitor handle or hook beside the trace stream:" >&2
    echo "$hooks" >&2
    fail=1
fi
[ "$fail" -eq 0 ] || exit 1
echo "one sink: webdis-core knows no monitor, no monitor hook in product code"

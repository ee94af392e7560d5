#!/bin/sh
# One actor vocabulary: both runtimes drive a site through
# `Actor::handle(&mut dyn Network, Event)`, and every thread of a TCP
# cluster — each daemon, the housekeeper, the user site — runs the one
# `run` loop around `serve`. This fails when
#   * a non-test line of crates/webdis-core/src/tcprun.rs calls `serve(`
#     other than once (a second hand-written loop around the wait);
#   * a non-test line under crates/*/src names an adapter or loop the
#     vocabulary replaced: `CtxNet`, `SimServer`, `SimDataUser`,
#     `SendError`, `as_any_mut`, `run_daemon` or `keep_house`.
# Non-test lines are those before a file's first `#[cfg(test)]`, as in
# ci/loc.sh.
set -eu
cd "$(dirname "$0")/.."
fail=0
nontest() { awk -v f="$1" '/#\[cfg\(test\)\]/ { exit } { print f ":" NR ": " $0 }' "$1"; }

callers=$(nontest crates/webdis-core/src/tcprun.rs |
    grep -E '(^|[^A-Za-z0-9_])serve\(' | grep -vE 'fn serve\(|: *//' || true)
n=$(printf '%s' "$callers" | grep -c . || true)
if [ "$n" -ne 1 ]; then
    echo "tcprun.rs calls serve( $n times; every TCP thread runs the one run loop:" >&2
    [ -z "$callers" ] || echo "$callers" >&2
    fail=1
fi

hits=$(find crates -name '*.rs' -path 'crates/*/src/*' | LC_ALL=C sort |
    while read -r f; do nontest "$f"; done |
    grep -E '(^|[^A-Za-z0-9_])(CtxNet|SimServer|SimDataUser|SendError|as_any_mut|run_daemon|keep_house)([^A-Za-z0-9_]|$)' || true)
if [ -n "$hits" ]; then
    echo "an adapter or loop beside Actor::handle and tcprun's run:" >&2
    echo "$hits" >&2
    fail=1
fi
[ "$fail" -eq 0 ] || exit 1
echo "one loop: tcprun.rs calls serve once, and no adapter beside Actor::handle"

#!/bin/sh
# One actor vocabulary: both runtimes drive a site through
# `Actor::handle(&mut dyn Network, Event)`, and every thread of a TCP
# cluster — each daemon, the user site — runs the one `run` loop around
# `serve`; what the host does at a time (the run's deadline, a monitor
# sample, a scheduled mutation) is a deadline of the driving loop, not a
# thread. This fails when
#   * a non-test line of crates/webdis-core/src/tcprun.rs calls `serve(`
#     other than once (a second hand-written loop around the wait);
#   * a non-test line of tcprun.rs starts a thread other than through
#     its one `spawn` helper, or calls that helper other than once, for
#     the daemons (`daemons.push(spawn(`);
#   * a non-test line under crates/*/src names an adapter, loop, actor
#     or queue the vocabulary replaced: `CtxNet`, `SimServer`,
#     `SimDataUser`, `SendError`, `as_any_mut`, `run_daemon`,
#     `keep_house`, `Housekeeper`, `Deadline` (TCP's own deadline kinds,
#     now `webdis_sim::Due`) or `close_endpoint` (a site going down is
#     the agenda's `Down` edge, `Fault::Crash`).
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

# Thread starts: exactly the helper's one `thread::Builder` line, and
# exactly one call of the helper, the daemons'.
threads=$(nontest crates/webdis-core/src/tcprun.rs |
    grep -E 'thread::(spawn|scope|Builder)' || true)
helper=$(nontest crates/webdis-core/src/tcprun.rs |
    grep -E '(^|[^A-Za-z0-9_.:])spawn\(' | grep -vE 'fn spawn[<(]|: *//' || true)
nt=$(printf '%s' "$threads" | grep -c . || true)
nh=$(printf '%s' "$helper" | grep -c . || true)
nd=$(printf '%s' "$helper" | grep -c 'daemons\.push(spawn(' || true)
if [ "$nt" -ne 1 ] || [ "$nh" -ne 1 ] || [ "$nd" -ne 1 ]; then
    echo "tcprun.rs starts threads only for its daemons, through one spawn helper:" >&2
    [ -z "$threads$helper" ] || printf '%s\n%s\n' "$threads" "$helper" >&2
    fail=1
fi

hits=$(find crates -name '*.rs' -path 'crates/*/src/*' | LC_ALL=C sort |
    while read -r f; do nontest "$f"; done |
    grep -E '(^|[^A-Za-z0-9_])(CtxNet|SimServer|SimDataUser|SendError|as_any_mut|run_daemon|keep_house|Housekeeper|Deadline|close_endpoint)([^A-Za-z0-9_]|$)' || true)
if [ -n "$hits" ]; then
    echo "an adapter, loop, actor or queue beside Actor::handle, tcprun's run and the Agenda:" >&2
    echo "$hits" >&2
    fail=1
fi
[ "$fail" -eq 0 ] || exit 1
echo "one loop: tcprun.rs calls serve once and spawns only its daemons, and no adapter beside Actor::handle"

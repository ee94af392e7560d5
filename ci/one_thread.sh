#!/bin/sh
# One thread per reactor: a TCP endpoint binds one listener for the sites
# its thread hosts, each a slot that every frame names, the thread that
# waits on it reads and decodes the frames for all of them itself, and a
# write from the endpoint's outbox takes turns of that endpoint while it
# waits for room — so the transport needs no
# thread and no channel of its own, and a cluster's daemons run on as
# many threads as it has reactors (webdis-core's tcprun.rs starts them,
# ci/one_loop.sh). This fails when a non-test line under
# crates/webdis-net/src/ spawns a thread (`thread::spawn`,
# `thread::Builder`) or builds a channel (`unbounded(`, `channel(`).
# Non-test lines are those before a file's first `#[cfg(test)]`, as in
# ci/loc.sh.
set -eu
cd "$(dirname "$0")/.."
nontest() { awk -v f="$1" '/#\[cfg\(test\)\]/ { exit } { print f ":" NR ": " $0 }' "$1"; }

hits=$(find crates/webdis-net/src -name '*.rs' | LC_ALL=C sort |
    while read -r f; do nontest "$f"; done |
    grep -E 'thread::(spawn|Builder)|(unbounded|channel)(::<[^>]*>)?\(' || true)
if [ -n "$hits" ]; then
    echo "the TCP transport starts a thread or a channel (the waiting thread reads its endpoint):" >&2
    echo "$hits" >&2
    exit 1
fi
echo "one thread per reactor: webdis-net spawns no thread and builds no channel"

#!/bin/sh
# One message ledger: what became of a message — sent, duplicated,
# corrupted, lost, dead-lettered, refused — is metered into the one
# `webdis_net::WireCounters` and traced by one function,
# `webdis_sim::Ledger::record`, which the simulator and the TCP transport
# both call. This fails when, under crates/*/src:
#   * product code outside the ledger's file names a transport record
#     (`MessageSent`, `MessageDropped`, `MessageCorrupted`,
#     `MessageDuplicated`) — webdis-trace, which defines them, decodes
#     recorded traces and reads them back, runs no transport and is
#     exempt; test code may match on them;
#   * a hand-written meter update (`record_sent`, `record_dropped`,
#     `record_send`, `record_drop`, `record_corrupt`, `record_dup`)
#     reappears;
#   * webdis-trace names a `"wire.` counter, a second traffic meter
#     re-derived from the trace.
set -eu
cd "$(dirname "$0")/.."
fail=0
ledger=crates/webdis-sim/src/ledger.rs
sources() { find crates -name '*.rs' -path 'crates/*/src/*' | LC_ALL=C sort; }
# Lines before a file's first `#[cfg(test)]` (what ci/loc.sh counts).
product() { awk -v f="$1" '/#\[cfg\(test\)\]/ { exit } { print f ":" NR ": " $0 }' "$1"; }

records=$(sources | grep -v "^$ledger\$" | grep -v '^crates/webdis-trace/src/' | while read -r f; do
    product "$f" | grep -E '\bMessage(Sent|Dropped|Corrupted|Duplicated)\b' || true
done)
if [ -n "$records" ]; then
    echo "a transport trace record built outside $ledger (call Ledger::record):" >&2
    echo "$records" >&2
    fail=1
fi

meters=$(sources | xargs grep -nE '\brecord_(sent|dropped|send|drop|corrupt|dup)\b' || true)
if [ -n "$meters" ]; then
    echo "a hand-written traffic meter update (meter through Ledger::record):" >&2
    echo "$meters" >&2
    fail=1
fi

wire=$(grep -rnF '"wire.' crates/webdis-trace/src || true)
if [ -n "$wire" ]; then
    echo "a wire.* counter in webdis-trace (traffic is the transport meter's net.*):" >&2
    echo "$wire" >&2
    fail=1
fi
[ "$fail" -eq 0 ] || exit 1
echo "one ledger: every message's fate metered and traced by webdis_sim::Ledger"

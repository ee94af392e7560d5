#!/bin/sh
# One write per peer per turn: an endpoint keeps one connection to each
# peer listener, shared by every site it hosts, and a send appends its
# frame to that connection's buffer; the buffers are written by the
# endpoint's flush when its receiver next waits (or at once, for a sender
# that waits on no endpoint), one `write` each. This fails when
#   - a non-test line under crates/webdis-net/src/ writes a socket
#     (`.write(`, `.write_all(`, `.write_vectored(`) outside the one frame
#     writer, `write_frames`, or calls `write_frames(` from anywhere but
#     the flush (`fn flush`) and the one-shot `send_to`;
#   - it dials (`TcpStream::connect(`) anywhere but the append
#     (`Outbox::send`), `send_to` and the closer's wake-up (`fn close`): a
#     second dialler is a second connection table;
#   - a non-test line of crates/webdis-core/src/tcprun.rs names `ConnPool`
#     or `metered(` (a pool built per daemon), or takes an endpoint's
#     `.outbox()` more than twice — once for the user endpoint, once in the
#     loop over the reactors' endpoints.
# Non-test lines are those before a file's first `#[cfg(test)]`, as in
# ci/loc.sh; comment lines are skipped.
set -eu
cd "$(dirname "$0")/.."

# `file:line:fn:text` for every non-test, non-comment line, `fn` being
# the function the line is in.
lines() {
    find "$@" -name '*.rs' | LC_ALL=C sort | while read -r f; do
        awk -v f="$f" '
            /#\[cfg\(test\)\]/ { exit }
            /^[ \t]*\/\// { next }
            match($0, /^[ \t]*(pub(\([a-z]+\))? )?fn [a-z_0-9]+/) {
                fn = substr($0, RSTART, RLENGTH); sub(/.*fn /, "", fn)
            }
            { print f ":" NR ":" fn ":" $0 }' "$f"
    done
}

# `hits RE [FN-RE]`: lines whose text matches RE, less those in a
# function whose name matches FN-RE.
hits() {
    awk -v re="$1" -v keep="${2:-^$}" '{
        split($0, p, ":"); text = $0; sub(/^[^:]*:[0-9]*:[^:]*:/, "", text)
        if (text ~ re && p[3] !~ keep) print
    }'
}

net=$(lines crates/webdis-net/src)
run=$(lines crates/webdis-core/src/tcprun.rs)
fail=0
report() {
    if [ -n "$2" ]; then
        echo "$1:" >&2
        echo "$2" >&2
        fail=1
    fi
}

report "a socket written outside the one frame writer (write_frames)" \
    "$(echo "$net" | hits '[.:]write(_all|_vectored)?\\(' '^write_frames$')"
report "write_frames called from outside the flush and send_to" \
    "$(echo "$net" | hits '(^|[^A-Za-z0-9_])write_frames\\(' '^(write_frames|flush|send_to)$')"
report "a connection dialled outside the append (send), send_to and the closer" \
    "$(echo "$net" | hits 'TcpStream::connect\\(' '^(send|send_to|close)$')"
report "an outbound pool built per daemon in tcprun.rs" \
    "$(echo "$run" | hits '(^|[^A-Za-z0-9_])(ConnPool|metered\\()')"
outboxes=$(echo "$run" | hits '\\.outbox\\(\\)')
if [ "$(echo "$outboxes" | grep -c . || true)" -gt 2 ]; then
    report "tcprun.rs takes an outbox more than once per endpoint" "$outboxes"
fi

[ "$fail" -eq 0 ] || exit 1
echo "one write: one frame writer, one flush, one connection table per endpoint"

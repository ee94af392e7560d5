#!/bin/sh
# One write per peer endpoint per turn: an endpoint binds one listener,
# the sites its thread hosts are numbered slots of it and every frame names
# the slot it is for, and it keeps one connection to each peer endpoint,
# shared by all its sites. A send appends its frame to that connection's
# buffer; the buffers are written by the endpoint's flush when its
# receiver next waits (or at once, for a sender that waits on no
# endpoint), one `write` each. This fails when
#   - a non-test line under crates/webdis-net/src/ writes a socket
#     (`.write(`, `.write_all(`, `.write_vectored(`) outside the one frame
#     writer, `write_frames`, or calls `write_frames(` from anywhere but
#     the flush (`fn flush`) and the one-shot `send_to`;
#   - it dials (`TcpStream::connect(`) anywhere but the append
#     (`Outbox::send`), `send_to` and the closer's wake-up (`fn close`): a
#     second dialler is a second connection table;
#   - it binds a `TcpListener` anywhere but the endpoint's one bind
#     (`bind_with_stall_bound`), or keeps a list of them (a `Vec`, map or
#     array of `TcpListener`): one listener per endpoint;
#   - a non-test line of crates/webdis-core/src/tcprun.rs names `ConnPool`
#     or `metered(` (a pool built per daemon), or takes an endpoint's
#     `.outbox()` more than twice — once for the user endpoint, once in the
#     loop over the reactors' endpoints;
#   - tcprun.rs binds an endpoint per site: it names `bind_all` or
#     `local_addrs`, binds a `TcpEndpoint` more than twice (the user's, and
#     once in the loop over the reactors), or binds one on a line that
#     names a site or a reactor's `hosted` share, or inside a loop or
#     iterator closure over them.
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
report "a TcpListener bound outside the endpoint's one bind" \
    "$(echo "$net" | hits 'TcpListener::bind\\(' '^bind_with_stall_bound$')"
report "a list of listeners kept in webdis-net" \
    "$(echo "$net" | hits '(Vec|VecDeque|HashMap|BTreeMap)<[^;]*TcpListener|\\[TcpListener')"
report "an endpoint per site in tcprun.rs (bind_all, local_addrs)" \
    "$(echo "$run" | hits '(^|[^A-Za-z0-9_])(bind_all|local_addrs)(\\(|$|[^A-Za-z0-9_])')"
# Endpoint binds, each flagged when its line names a site or a `hosted`
# share or sits inside a loop or iterator closure over them: a line that
# names one, iterates and opens a block, which ends where the brace depth
# falls back.
binds=$(echo "$run" | awk '{
    text = $0; sub(/^[^:]*:[0-9]*:[^:]*:/, "", text); start = depth
    if (text ~ /TcpEndpoint::bind/) print ((n > 0 || text ~ /site|hosted/) ? "per-site " : "") $0
    depth += gsub(/\{/, "{", text) - gsub(/\}/, "}", text)
    over = "(site|hosted)"; iter = "\\.(map|for_each|flat_map|filter_map|fold)\\("
    if (depth > start && (text ~ ("for .* in .*" over) || text ~ (iter ".*" over) || text ~ (over ".*" iter)))
        loop[++n] = start
    while (n > 0 && depth <= loop[n]) n--
}')
report "an endpoint bound per site in tcprun.rs" "$(echo "$binds" | sed -n 's/^per-site //p')"
if [ "$(echo "$binds" | grep -c . || true)" -gt 2 ]; then
    report "tcprun.rs binds more endpoints than the user's and one per reactor" "$binds"
fi
outboxes=$(echo "$run" | hits '\\.outbox\\(\\)')
if [ "$(echo "$outboxes" | grep -c . || true)" -gt 2 ]; then
    report "tcprun.rs takes an outbox more than once per endpoint" "$outboxes"
fi

[ "$fail" -eq 0 ] || exit 1
echo "one write: one frame writer, one flush, one listener and one connection table per endpoint"

#!/bin/sh
# One decode: a frame is decoded by `decode_message`, called once, from
# the TCP inbox, and every value a query's frames repeat goes through the
# decode memo in wire.rs, so a URL is parsed and a clone PRE
# closure-checked only on a memo miss. This fails when a non-test line
# under crates/webdis-net/src/
#   - calls `Url::parse(` outside `parse_url`, or `closure(` outside
#     `checked_clone_pre` (the memo's two miss paths);
#   - names `parse_url` other than as the miss path of `by_string(`, or
#     `checked_clone_pre` other than as the miss path of `by_prefix(`;
# or when product code (crates/*/src, src/, examples/) calls
# `decode_message(` anywhere but once in crates/webdis-net/src/tcp.rs, or
# calls `Message::decode(` at all (a second route around it). Non-test
# lines are those before a file's first `#[cfg(test)]`, as in ci/loc.sh;
# comment lines are skipped.
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

net=$(lines crates/webdis-net/src)
product=$(lines crates/*/src src examples)
fail=0
report() {
    if [ -n "$2" ]; then
        echo "$1:" >&2
        echo "$2" >&2
        fail=1
    fi
}

# `hits RE [FN-RE]`: lines whose text matches RE, less those in a
# function whose name matches FN-RE.
hits() {
    awk -v re="$1" -v keep="${2:-^$}" '{
        split($0, p, ":"); text = $0; sub(/^[^:]*:[0-9]*:[^:]*:/, "", text)
        if (text ~ re && p[3] !~ keep) print
    }'
}

report "a URL parsed outside the memo's miss path (parse_url)" \
    "$(echo "$net" | hits '(^|[^A-Za-z0-9_])Url::parse\\(' '^parse_url$')"
report "a closure check outside the memo's miss path (checked_clone_pre)" \
    "$(echo "$net" | hits '(^|[^A-Za-z0-9_:])closure\\(' '^checked_clone_pre$')"
report "parse_url used other than as by_string's miss path" \
    "$(echo "$net" | hits '(^|[^A-Za-z0-9_])parse_url([^A-Za-z0-9_]|$)' |
        grep -vE ':fn parse_url\(|by_string\(' || true)"
report "checked_clone_pre used other than as by_prefix's miss path" \
    "$(echo "$net" | hits '(^|[^A-Za-z0-9_])checked_clone_pre([^A-Za-z0-9_]|$)' |
        grep -vE ':fn checked_clone_pre\(|by_prefix\(' || true)"
calls=$(echo "$product" | hits '(^|[^A-Za-z0-9_])decode_message\\(' '^decode_message$')
if [ "$(echo "$calls" | grep -c . || true)" != 1 ] ||
    [ "$(echo "$calls" | grep -c '^crates/webdis-net/src/tcp.rs:' || true)" != 1 ]; then
    report "decode_message called other than once, from the TCP inbox" "${calls:-(no caller)}"
fi
report "a message decoded around decode_message" \
    "$(echo "$product" | hits 'Message::decode\\(' '^decode_message$')"

[ "$fail" -eq 0 ] || exit 1
echo "one decode: decode_message has one caller, and URLs and clone PREs are decoded only on a memo miss"

#!/bin/sh
# One PRE semantics: Brzozowski derivatives over a normalized AST. Since
# `Pre::alt` flattens and deduplicates, a PRE's derivative closure is
# finite; the parsers and the wire decoder check it, and language
# containment searches its pairs. The automaton the product used before
# is kept only as a test oracle (crates/webdis-pre/tests/reference/).
# This fails when a second copy reappears:
#   * a non-test line under crates/*/src names `Nfa`, `Dfa` or `nfa::` —
#     an automaton beside the derivatives;
#   * any Rust file names `depth_limit_drops` — a forward dropped for a
#     derivative too deep to ship, which the closure check rules out.
# Non-test lines are those before a file's first `#[cfg(test)]`, as in
# ci/loc.sh.
set -eu
cd "$(dirname "$0")/.."
fail=0
nontest() { awk -v f="$1" '/#\[cfg\(test\)\]/ { exit } { print f ":" NR ": " $0 }' "$1"; }

automata=$(find crates -name '*.rs' -path 'crates/*/src/*' | LC_ALL=C sort |
    while read -r f; do nontest "$f"; done |
    grep -E '\b(Nfa|Dfa)\b|\bnfa::' || true)
if [ -n "$automata" ]; then
    echo "an automaton beside the derivatives (containment is webdis_pre::contains):" >&2
    echo "$automata" >&2
    fail=1
fi

drops=$(grep -rn --include='*.rs' 'depth_limit_drops' crates src tests examples || true)
if [ -n "$drops" ]; then
    echo "a forward dropped for its depth (refuse the PRE at parse instead):" >&2
    echo "$drops" >&2
    fail=1
fi
[ "$fail" -eq 0 ] || exit 1
echo "one PRE: derivatives only, closures checked where a PRE enters, no depth drops"

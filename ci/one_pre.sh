#!/bin/sh
# One PRE semantics: Brzozowski derivatives over a normalized AST. Since
# `Pre::alt` flattens and deduplicates, a PRE's derivative closure is
# finite; the parsers and the wire decoder check it. The log table's
# duplicate rule is the paper's syntactic one (`check_subsumption`); the
# product decides no language containment. The automaton the product
# used before is kept only as a test oracle
# (crates/webdis-pre/tests/reference/), whose `counterexample` is what
# the rule's drops and rewrites are held to.
# This fails when a second copy reappears:
#   * a non-test line under crates/*/src names `Nfa`, `Dfa` or `nfa::` —
#     an automaton beside the derivatives;
#   * a non-test line under crates/*/src defines a PRE containment
#     search — a `fn contains`/`fn counterexample` over `Pre`s, or a
#     pair of PREs stepped by one link together (`(a.deriv(t),
#     b.deriv(t))`) — or names `webdis_pre::contains` or
#     `LogMode::General`, the log mode that dropped by containment;
#   * any Rust file names `depth_limit_drops` — a forward dropped for a
#     derivative too deep to ship, which the closure check rules out.
# Non-test lines are those before a file's first `#[cfg(test)]`, as in
# ci/loc.sh.
set -eu
cd "$(dirname "$0")/.."
fail=0
nontest() { awk -v f="$1" '/#\[cfg\(test\)\]/ { exit } { print f ":" NR ": " $0 }' "$1"; }

product=$(find crates -name '*.rs' -path 'crates/*/src/*' | LC_ALL=C sort |
    while read -r f; do nontest "$f"; done)

automata=$(printf '%s\n' "$product" | grep -E '\b(Nfa|Dfa)\b|\bnfa::' || true)
if [ -n "$automata" ]; then
    echo "an automaton beside the derivatives (a PRE's meaning is its derivatives):" >&2
    echo "$automata" >&2
    fail=1
fi

containment=$(printf '%s\n' "$product" |
    grep -E '\bfn (contains|counterexample)\b[^)]*\bPre\b|[^A-Za-z0-9_]\([[:space:]]*[A-Za-z_][A-Za-z0-9_.]*\.deriv\([^()]*\)[[:space:]]*,[[:space:]]*[A-Za-z_][A-Za-z0-9_.]*\.deriv\(|\bpre::contains\b|\bLogMode::General\b' || true)
if [ -n "$containment" ]; then
    echo "PRE language containment in the product (the log table's rule is the paper's check_subsumption; containment is the tests' reference counterexample):" >&2
    echo "$containment" >&2
    fail=1
fi

drops=$(grep -rn --include='*.rs' 'depth_limit_drops' crates src tests examples || true)
if [ -n "$drops" ]; then
    echo "a forward dropped for its depth (refuse the PRE at parse instead):" >&2
    echo "$drops" >&2
    fail=1
fi
[ "$fail" -eq 0 ] || exit 1
echo "one PRE: derivatives only, closures checked where a PRE enters, no containment search, no depth drops"

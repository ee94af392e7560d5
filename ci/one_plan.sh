#!/bin/sh
# One plan per stage: a stage's node-query is compiled into a
# `webdis_rel::Plan` once, on its first evaluation (`Stage::plan()`), and
# every visit of the stage runs that plan and reads its canonical form.
# One pass per page: `webdis-html` scans a page's bytes once, with no
# token stream between the page and the parse result.
# One place builds an index: `NodeDb::index` (webdis-rel's relation.rs),
# which builds a column's index on the column's second ask, so a database
# read once builds none.
# This fails when a second copy reappears:
#   * a non-test line under crates/webdis-core/src calls `compile(`,
#     `Plan::new(`, an `eval_node_query` function or `canonicalize(` — a
#     visit compiling (or canonicalising) its stage's query again;
#   * a non-test line under crates/webdis-html/src defines `fn tokenize`
#     or `enum Token` — a tokenizer beside the one scan;
#   * a non-test line under crates/ (outside tests/ directories) calls
#     `HashIndex::build(` or `TextIndex::build(` outside `fn index` in
#     crates/webdis-rel/src/relation.rs — an index built without the rule;
#   * a non-test line under crates/webdis-core/src reaches for an index
#     (`.index(`, `HashIndex`, `TextIndex`, `Index::`, `Shape::`,
#     `webdis_rel::index`, `built_indexes`) — the engine runs plans, and
#     plans ask for indexes.
# Non-test lines are those before a file's first `#[cfg(test)]`, as in
# ci/loc.sh.
set -eu
cd "$(dirname "$0")/.."
fail=0
nontest() { awk -v f="$1" '/#\[cfg\(test\)\]/ { exit } { print f ":" NR ": " $0 }' "$1"; }
nontest_in() {
    find "$1" -name '*.rs' | LC_ALL=C sort | while read -r f; do nontest "$f"; done
}

compiles=$(nontest_in crates/webdis-core/src |
    grep -E '\bcompile\(|\bPlan::new\(|\beval_node_query|\bcanonicalize\(' || true)
if [ -n "$compiles" ]; then
    echo "a query compiled per visit (run the stage's plan: Stage::plan):" >&2
    echo "$compiles" >&2
    fail=1
fi

tokenizers=$(nontest_in crates/webdis-html/src |
    grep -E '\bfn tokenize\b|\benum Token\b' || true)
if [ -n "$tokenizers" ]; then
    echo "a tokenizer beside the one scan (parse.rs reads the page's bytes):" >&2
    echo "$tokenizers" >&2
    fail=1
fi
builds=$(find crates -name '*.rs' -not -path '*/tests/*' | LC_ALL=C sort | while read -r f; do
    awk -v f="$f" '/#\[cfg\(test\)\]/ { exit }
        match($0, /^ *(pub(\([a-z]+\))? )?fn [a-z_0-9]+/) { fn = substr($0, RSTART, RLENGTH); sub(/.*fn /, "", fn) }
        /(HashIndex|TextIndex)::build\(/ && !(f == "crates/webdis-rel/src/relation.rs" && fn == "index") {
            print f ":" NR ": " $0
        }' "$f"
done)
if [ -n "$builds" ]; then
    echo "an index built outside NodeDb::index (build it on a column's second ask):" >&2
    echo "$builds" >&2
    fail=1
fi

reaches=$(nontest_in crates/webdis-core/src |
    grep -E '\.index\(|\b(HashIndex|TextIndex)\b|\b(Index|Shape)::|webdis_rel::index\b|\bbuilt_indexes\b' || true)
if [ -n "$reaches" ]; then
    echo "the engine reaching for an index (run the stage's plan):" >&2
    echo "$reaches" >&2
    fail=1
fi
[ "$fail" -eq 0 ] || exit 1
echo "one plan per stage, one scan per page, one place that builds an index"

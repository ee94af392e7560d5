#!/bin/sh
# One plan per stage: a stage's node-query is compiled into a
# `webdis_rel::Plan` once, on its first evaluation (`Stage::plan()`), and
# every visit of the stage runs that plan and reads its canonical form.
# One pass per page: `webdis-html` scans a page's bytes once, with no
# token stream between the page and the parse result.
# This fails when a second copy reappears:
#   * a non-test line under crates/webdis-core/src calls `compile(`,
#     `Plan::new(`, an `eval_node_query` function or `canonicalize(` — a
#     visit compiling (or canonicalising) its stage's query again;
#   * a non-test line under crates/webdis-html/src defines `fn tokenize`
#     or `enum Token` — a tokenizer beside the one scan.
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
[ "$fail" -eq 0 ] || exit 1
echo "one plan per stage, one scan per page"

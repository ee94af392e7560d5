#!/bin/sh
# The ruler ROADMAP item 3 ("collapse the accreted surface") is judged by:
# non-test lines — the lines before a file's first `#[cfg(test)]` — of
# every crates/*/src/**/*.rs, summed per crate, plus the root package
# (src/ and examples/, the row `webdis`), and in total. Comments and
# blank lines count, so a number cannot be improved by deleting
# documentation; vendor/, hwbench/, tests/ and benches/ are not product
# code and are not measured.
#
#   ci/loc.sh            per-crate table and workspace total
#   ci/loc.sh <crate>    additionally, that crate's per-file lines
set -eu
cd "$(dirname "$0")/.."
find crates src examples -name '*.rs' \( -path 'crates/*/src/*' -o -path 'src/*' -o -path 'examples/*' \) |
    LC_ALL=C sort | while read -r f; do
    awk -v f="$f" '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0, f }' "$f"
done | awk -v detail="${1:-}" '
    { n = split($2, p, "/"); c = (p[1] == "crates") ? p[2] : "webdis"; crate[c] += $1; total += $1 }
    c == detail { printf "  %6d  %s\n", $1, $2 }
    END {
        for (c in crate) printf "%7d  %s\n", crate[c], c | "LC_ALL=C sort -k2"
        close("LC_ALL=C sort -k2")
        printf "%7d  workspace\n", total
    }'

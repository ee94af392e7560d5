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
#   ci/loc.sh --max N    the table, and exit 1 when the total exceeds N
#                        (CI passes the last merged total: a ratchet)
set -eu
cd "$(dirname "$0")/.."
max=0
if [ "${1:-}" = "--max" ]; then
    max=$2
    shift 2
fi
find crates src examples -name '*.rs' \( -path 'crates/*/src/*' -o -path 'src/*' -o -path 'examples/*' \) |
    LC_ALL=C sort | while read -r f; do
    awk -v f="$f" '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0, f }' "$f"
done | awk -v detail="${1:-}" -v max="$max" '
    { n = split($2, p, "/"); c = (p[1] == "crates") ? p[2] : "webdis"; crate[c] += $1; total += $1 }
    c == detail { printf "  %6d  %s\n", $1, $2 }
    END {
        for (c in crate) printf "%7d  %s\n", crate[c], c | "LC_ALL=C sort -k2"
        close("LC_ALL=C sort -k2")
        printf "%7d  workspace\n", total
        if (max > 0 && total > max) {
            printf "workspace total %d exceeds the ratchet %d (ci.yml): delete, or raise it and say why\n", total, max > "/dev/stderr"
            exit 1
        }
    }'

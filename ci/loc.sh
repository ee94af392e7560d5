#!/bin/sh
# The ruler ROADMAP item 8 ("the line gate, re-counted") is judged by:
# non-test lines — the lines before a file's first `#[cfg(test)]` — of
# every crates/*/src/**/*.rs, summed per crate, plus the root package
# (src/ and examples/, the row `webdis`), and in total. Comments and
# blank lines count, so a number cannot be improved by deleting
# documentation; vendor/, hwbench/, tests/ and benches/ are not product
# code and are not measured.
#
# Everything after a file's first `#[cfg(test)]` must be test code, or
# the ruler would not count it: a top-level item there that is not
# itself under `#[cfg(test)]` (a later `#[cfg(test)] mod …_tests` is
# fine) fails the run.
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
    # Past the first `#[cfg(test)]`, every item opened at column 0 must
    # follow a column-0 `#[cfg(test)]`.
    awk -v f="$f" '
        !tests && /#\[cfg\(test\)\]/ { tests = 1 }
        !tests { n++; next }
        /^#\[cfg\(test\)\]/ { gated = 1; next }
        /^(pub(\([a-z]+\))? )?(async |const |unsafe )*(fn|struct|enum|union|impl|trait|type|mod|use|const|static|macro_rules!)[ <!]/ {
            if (!gated) print "!", f ":" NR ": " $0
            gated = 0
        }
        END { print n + 0, f }' "$f"
done | awk -v detail="${1:-}" -v max="$max" '
    $1 == "!" { sub(/^! /, ""); untested = untested "  " $0 "\n"; next }
    { n = split($2, p, "/"); c = (p[1] == "crates") ? p[2] : "webdis"; crate[c] += $1; total += $1 }
    c == detail { printf "  %6d  %s\n", $1, $2 }
    END {
        for (c in crate) printf "%7d  %s\n", crate[c], c | "LC_ALL=C sort -k2"
        close("LC_ALL=C sort -k2")
        printf "%7d  workspace\n", total
        if (untested != "") {
            printf "product code after a file'"'"'s first #[cfg(test)], which the count misses:\n%s", untested > "/dev/stderr"
            exit 1
        }
        if (max > 0 && total > max) {
            printf "workspace total %d exceeds the ratchet %d (ci.yml): delete, or raise it and say why\n", total, max > "/dev/stderr"
            exit 1
        }
    }'

#!/bin/sh
# The doctor is one table of passes (`PASSES` in webdis-trace's
# doctor.rs): each pass owns its state, its folds, its findings and its
# report section, and the report prints every section heading in one
# place. This fails when a second copy reappears:
#   * doctor.rs declares a `pub struct` or `pub enum` other than
#     `Diagnosis`, `QueryDiagnosis` and `Finding` — what callers read;
#     report-only state is private to its pass;
#   * a `"== ` section-heading literal appears more than once in it — a
#     section printed outside the pass table;
#   * the `webdis-doctor` binary names `hung_visits`, `orphans` or
#     `terminations` — restating the anomaly rule instead of printing
#     the findings, which carry their QueryId.
# Non-test lines are those before a file's first `#[cfg(test)]`, as in
# ci/loc.sh.
set -eu
cd "$(dirname "$0")/.."
fail=0
doctor=crates/webdis-trace/src/doctor.rs
cli=crates/webdis-bench/src/bin/webdis-doctor.rs
nontest() { awk -v f="$1" '/#\[cfg\(test\)\]/ { exit } { print f ":" NR ": " $0 }' "$1"; }

types=$(nontest $doctor | grep -E '^[^:]*:[0-9]+: pub (struct|enum) ' |
    grep -vE ': pub (struct|enum) (Diagnosis|QueryDiagnosis|Finding)\b' || true)
if [ -n "$types" ]; then
    echo "public report types beside Diagnosis, QueryDiagnosis and Finding (make them pass state):" >&2
    echo "$types" >&2
    fail=1
fi

headings=$(nontest $doctor | grep -E '"(\\n)?== ' || true)
if [ "$(printf '%s' "$headings" | grep -c .)" -gt 1 ]; then
    echo "section headings printed in more than one place (print them from the pass table):" >&2
    echo "$headings" >&2
    fail=1
fi

restated=$(grep -nE '\b(hung_visits|orphans|terminations)\b' $cli || true)
if [ -n "$restated" ]; then
    echo "webdis-doctor restates the anomaly rule (print the anomalies' queries instead):" >&2
    echo "$restated" >&2
    fail=1
fi
[ "$fail" -eq 0 ] || exit 1
passes=$(nontest $doctor | sed -n '/^[^:]*:[0-9]*: const PASSES/,/^[^:]*:[0-9]*: \];/p' | grep -c '|| Box')
echo "one doctor: $passes passes, 3 public types, one heading literal, the CLI prints findings"

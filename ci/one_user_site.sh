#!/bin/sh
# Figure 2 draws one user-site client process, and a query's fate is one
# field list: `QueryRecord`, filled in place by `UserSite` and wrapped —
# not restated — by `QueryOutcome`; the §7.1 fallback is a private part
# of `UserSite`; a workload is run by `Deployment` from its plan, and
# `webdis-load` only plans. This fails when a second copy reappears:
#   * a non-test line under crates/*/src has `impl Actor for` a user-site
#     type (named `…User…` or `…Client…`) other than `ScheduledClient`
#     (every engine run) and `SimDataUser` (the data-shipping oracle);
#   * `UserSite` has a `pub` field that `QueryRecord` also declares;
#   * `QueryOutcome` declares anything but record, metrics, duration_us,
#     server_stats;
#   * a file under crates/webdis-load/src names `ClientProcess`.
# Non-test lines are those before a file's first `#[cfg(test)]`, as in
# ci/loc.sh.
set -eu
cd "$(dirname "$0")/.."
fail=0
nontest() { awk -v f="$1" '/#\[cfg\(test\)\]/ { exit } { print f ":" NR ": " $0 }' "$1"; }
# The `pub` fields of `pub struct $2` in file $1, one per line.
pub_fields() { sed -n "/^pub struct $2 {/,/^}/p" "$1" | sed -n 's/^    pub \([a-z_]*\):.*/\1/p'; }

actors=$(find crates -name '*.rs' -path 'crates/*/src/*' | LC_ALL=C sort |
    while read -r f; do nontest "$f"; done |
    grep -E 'impl Actor for [A-Za-z]*(User|Client)' |
    grep -vE 'impl Actor for (ScheduledClient|SimDataUser) ' || true)
if [ -n "$actors" ]; then
    echo "a user-site actor beside ScheduledClient and the oracle's SimDataUser:" >&2
    echo "$actors" >&2
    fail=1
fi

core=crates/webdis-core/src
record=$(pub_fields $core/record.rs QueryRecord)
restated=$(pub_fields $core/user.rs UserSite |
    while read -r f; do echo "$record" | grep -Fx "$f" || true; done | tr '\n' ' ')
if [ -n "$restated" ]; then
    echo "UserSite restates QueryRecord fields (fill the record in place): $restated" >&2
    fail=1
fi

fields=$(pub_fields $core/record.rs QueryOutcome | tr '\n' ' ')
if [ "$fields" != "record metrics duration_us server_stats " ]; then
    echo "QueryOutcome fields: $fields(expected: record metrics duration_us server_stats)" >&2
    fail=1
fi

drivers=$(grep -l 'ClientProcess' crates/webdis-load/src/*.rs || true)
if [ -n "$drivers" ]; then
    echo "webdis-load plans; Deployment builds the client processes. Named in: $drivers" >&2
    fail=1
fi
[ "$fail" -eq 0 ] || exit 1
echo "one user site: 2 user-site actors, UserSite restates no record field, QueryOutcome has 4 fields, webdis-load only plans"

#!/bin/sh
# One actor vocabulary and one loop: both runtimes drive a site through
# `Actor::handle(&mut dyn Network, Event)`, both are a
# `webdis_sim::Runtime`, and the dispatch of what comes due — a crash
# window's restart, an actor's event, the host's own entry — is written
# once, the
# trait's provided `run_to_host` in webdis-sim's agenda.rs. What the host
# does at a time (a scheduled mutation, a periodic tick) is a host entry
# of the one host loop, `Deployment::drive` in webdis-core's deploy.rs.
# This fails when a non-test line under crates/*/src
#   * names `Due::Restart(` outside agenda.rs (where `Agenda::new`
#     pushes it, the class key names it and the one loop matches it): a
#     second dispatch of a crash window's restart;
#   * names `Due::Host(` outside agenda.rs and deploy.rs: a host entry
#     pushed or matched beside the one host loop;
#   * defines `fn serve(` or `fn advance(` (the two loops the trait
#     replaced), or names an adapter, loop, actor or queue the vocabulary
#     replaced: `CtxNet`, `SimServer`, `SimDataUser`, `SendError`,
#     `as_any_mut`, `run_daemon`, `keep_house`, `Housekeeper`, `Deadline`
#     (TCP's own deadline kinds, now `webdis_sim::Due`) or
#     `close_endpoint` (a site going down is a `Fault::Crash`, read by
#     `Injector::down`);
# or when a non-test line of crates/webdis-core/src/tcprun.rs starts a
# thread other than through its one `spawn` helper, or calls that helper
# other than once, in the loop that starts one reactor thread for each
# share of the daemons (`reactors.push(spawn(`), or implements
# `Runtime` more than once: a reactor hosts any number of sites, the
# user site's drive being the one-site case.
# One purge: as each message arrives, a daemon forgets every query no
# clone of which has arrived for one period, its log rows with it, on
# both runtimes, and raises its own log gauge. So it also fails when a
# non-test line under crates/*/src
#   * calls `purge_log(` outside `ServerEngine::on_message` (a sweep or a
#     harness purging beside the daemon);
#   * names `gauge_max("log_len_high_water"` outside webdis-core's
#     server.rs (a runtime raising the daemon's gauge for it);
# or when a non-test line of server.rs calls `.post(` (a daemon timer);
# or when forgetting goes by the age of anything but a whole query:
#   * a struct or enum of webdis-core's logtable.rs (a log row, a query's
#     log, the table) has a field that could hold a time — a `u64`,
#     `Instant`, `SystemTime` or `Duration`, or a name in `_us`, `_ms`,
#     `_ns`, `_at`, `time` or `stamp`;
#   * logtable.rs calls `retain(` or defines a `fn purge` (a log forgets
#     nothing itself; it goes whole with its query);
#   * a non-test line of webdis-core compares `last_seen_us` or retains
#     over `queries` outside `ServerEngine::purge_log`.
# Non-test lines are those before a file's first `#[cfg(test)]`, as in
# ci/loc.sh.
set -eu
cd "$(dirname "$0")/.."
fail=0
nontest() { awk -v f="$1" '/#\[cfg\(test\)\]/ { exit } { print f ":" NR ": " $0 }' "$1"; }
product() {
    find crates -name '*.rs' -path 'crates/*/src/*' | LC_ALL=C sort |
        while read -r f; do nontest "$f"; done
}
agenda=crates/webdis-sim/src/agenda.rs
deploy=crates/webdis-core/src/deploy.rs

restarts=$(product | grep -F 'Due::Restart(' | grep -v "^$agenda:" || true)
if [ -n "$restarts" ]; then
    echo "a restart dispatched outside Runtime::run_to_host (agenda.rs):" >&2
    echo "$restarts" >&2
    fail=1
fi

hosts=$(product | grep -F 'Due::Host(' | grep -v -e "^$agenda:" -e "^$deploy:" || true)
if [ -n "$hosts" ]; then
    echo "a host entry outside the one loop (agenda.rs) and the one host loop (deploy.rs):" >&2
    echo "$hosts" >&2
    fail=1
fi

# Thread starts: exactly the helper's one `thread::Builder` line, and
# exactly one call of the helper, once per reactor.
threads=$(nontest crates/webdis-core/src/tcprun.rs |
    grep -E 'thread::(spawn|scope|Builder)' || true)
helper=$(nontest crates/webdis-core/src/tcprun.rs |
    grep -E '(^|[^A-Za-z0-9_.:])spawn\(' | grep -vE 'fn spawn[<(]|: *//' || true)
nt=$(printf '%s' "$threads" | grep -c . || true)
nh=$(printf '%s' "$helper" | grep -c . || true)
nd=$(printf '%s' "$helper" | grep -c 'reactors\.push(spawn(' || true)
nr=$(nontest crates/webdis-core/src/tcprun.rs | grep -cE 'impl.* Runtime for ' || true)
if [ "$nt" -ne 1 ] || [ "$nh" -ne 1 ] || [ "$nd" -ne 1 ] || [ "$nr" -ne 1 ]; then
    echo "tcprun.rs starts threads only for its reactors, through one spawn helper called once per reactor, and has one Runtime ($nr):" >&2
    [ -z "$threads$helper" ] || printf '%s\n%s\n' "$threads" "$helper" >&2
    fail=1
fi

server=crates/webdis-core/src/server.rs
purges=$(product | awk -v server="$server" '
    { split($0, at, ":") }
    at[1] != file { file = at[1]; within = "" }
    /fn [A-Za-z0-9_]+[<(]/ { match($0, /fn [A-Za-z0-9_]+/); within = substr($0, RSTART + 3, RLENGTH - 3) }
    /purge_log\(/ && !/fn purge_log\(/ && !/^[^:]*:[0-9]+: *\/\// &&
        !(file == server && within == "on_message")' || true)
if [ -n "$purges" ]; then
    echo "a log purge outside ServerEngine::on_message:" >&2
    echo "$purges" >&2
    fail=1
fi

gauges=$(product | grep -F 'gauge_max("log_len_high_water"' | grep -v "^$server:" || true)
if [ -n "$gauges" ]; then
    echo "the daemon's log_len_high_water gauge raised outside server.rs:" >&2
    echo "$gauges" >&2
    fail=1
fi

logtable=crates/webdis-core/src/logtable.rs
stamps=$(nontest "$logtable" | awk '
    /^[^:]*:[0-9]+: }/ { body = 0 }
    /^[^:]*:[0-9]+: *(pub(\([a-z]+\))? +)?(struct|enum) / { body = ($0 ~ /[{] *$/) ? 1 : 2 }
    body && !/^[^:]*:[0-9]+: *\/\// &&
        (/[^A-Za-z0-9_](u64|u128|i64|Instant|SystemTime|Duration)([^A-Za-z0-9_]|$)/ ||
         /[a-z0-9_]*(_us|_ms|_ns|_at|time|stamp)[a-z0-9_]* *:/)
    body == 2 { body = 0 }' || true)
ages=$(nontest "$logtable" | grep -E 'retain\(|fn purge' || true)
idle=$(product | grep '^crates/webdis-core/' | awk '
    { split($0, at, ":") }
    at[1] != file { file = at[1]; within = "" }
    /fn [A-Za-z0-9_]+[<(]/ { match($0, /fn [A-Za-z0-9_]+/); within = substr($0, RSTART + 3, RLENGTH - 3) }
    (/last_seen_us *[<>]|[<>]=? *[A-Za-z0-9_.]*last_seen_us/ || /queries\.retain\(/) &&
        !(file == "'"$server"'" && within == "purge_log")' || true)
if [ -n "$stamps$ages$idle" ]; then
    echo "a log row with a time, or forgetting by age outside ServerEngine::purge_log:" >&2
    for hit in "$stamps" "$ages" "$idle"; do [ -z "$hit" ] || echo "$hit" >&2; done
    fail=1
fi

timers=$(nontest "$server" | grep -F '.post(' || true)
if [ -n "$timers" ]; then
    echo "a daemon timer (server.rs posts nothing; it purges as messages arrive):" >&2
    echo "$timers" >&2
    fail=1
fi

hits=$(product |
    grep -E 'fn (serve|advance)[<(]|(^|[^A-Za-z0-9_])(CtxNet|SimServer|SimDataUser|SendError|as_any_mut|run_daemon|keep_house|Housekeeper|Deadline|close_endpoint)([^A-Za-z0-9_]|$)' || true)
if [ -n "$hits" ]; then
    echo "a loop, adapter, actor or queue beside Runtime::run_to_host, Actor::handle and the Agenda:" >&2
    echo "$hits" >&2
    fail=1
fi
[ "$fail" -eq 0 ] || exit 1
echo "one loop: Due restarts and host entries only in run_to_host and Deployment::drive, tcprun.rs spawns only its reactors, no adapter beside Actor::handle, and one purge, in on_message, of idle queries only"

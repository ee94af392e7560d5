#!/bin/sh
# One fault vocabulary: what goes wrong is a list of `webdis_sim::Fault`
# on both runtimes (`SimConfig::faults`, the list a TCP cluster starts
# with, a chaos plan's network entries), decided per message by the one
# `webdis_sim::Injector`. This fails when a second way of saying it
# reappears anywhere under crates/*/src:
#   * a `TcpFaultPlan` struct or enum (only the `Vec<Fault>` alias the
#     wall-clock benchmark names may stay), or a `FaultSpec` or
#     `FaultAction` definition;
#   * an ordinal fault knob — skip N sends, then fault M (`skip_queries`,
#     `corrupt_skip`, `dup_skip`, …) or its `*_so_far` counter;
#   * a per-message decision (`fn claims`, `fn partitioned`) outside
#     crates/webdis-sim/src;
#   * a second way to decide whether an endpoint is down, beside
#     `Injector::down`: a `Due::Down` agenda edge, a `crashed` field or
#     flag in webdis-core's tcprun.rs, a registry `remove(` in
#     webdis-sim's net.rs (the simulator deregistering a crashed site),
#     or a `"crashed"` dead-letter reason.
set -eu
cd "$(dirname "$0")/.."
fail=0
sources() { find crates -name '*.rs' -path 'crates/*/src/*' | LC_ALL=C sort; }
hits() { sources | xargs grep -nE "$1" || true; }

types=$(hits '\b(struct|enum|trait) +TcpFaultPlan\b|\b(struct|enum|trait|type) +(FaultSpec|FaultAction)\b')
if [ -n "$types" ]; then
    echo "a second fault vocabulary beside webdis_sim::Fault:" >&2
    echo "$types" >&2
    fail=1
fi

ordinals=$(hits '\b(skip_queries|drop_queries|corrupt_skip|corrupt_queries|dup_skip|dup_reports|(dropped|corrupted|duplicated)_so_far)\b')
if [ -n "$ordinals" ]; then
    echo "an ordinal fault knob (name the link with Fault::Rate; count trace events):" >&2
    echo "$ordinals" >&2
    fail=1
fi

deciders=$(hits '\bfn +(claims|partitioned)\b' | grep -v '^crates/webdis-sim/src/' || true)
if [ -n "$deciders" ]; then
    echo "a per-message fault decision outside webdis_sim::Injector:" >&2
    echo "$deciders" >&2
    fail=1
fi
downs=$( (hits 'Due::Down\b|"crashed"'
    grep -nE '\bcrashed\b *[:=]|\.crashed\b' crates/webdis-core/src/tcprun.rs | sed 's|^|crates/webdis-core/src/tcprun.rs:|'
    grep -nE 'registry\.remove\(' crates/webdis-sim/src/net.rs | sed 's|^|crates/webdis-sim/src/net.rs:|') || true)
if [ -n "$downs" ]; then
    echo "an endpoint's down-ness decided beside webdis_sim::Injector::down:" >&2
    echo "$downs" >&2
    fail=1
fi
[ "$fail" -eq 0 ] || exit 1
echo "one fault list: webdis_sim::Fault on both runtimes, one Injector that also says who is down, no ordinal knobs"

#!/bin/sh
# ROADMAP item 3(b): the workspace has one experiment suite. Every figure,
# table and BENCH file is one entry of the EXPERIMENTS table in
# crates/webdis-bench/src/experiments/mod.rs, run by the one webdis-bench
# binary. This fails when a stand-alone harness `main` reappears under
# crates/*/src/bin, or when a file under experiments/ is not named in the
# table — a harness the registry forgets is a harness nothing runs.
set -eu
cd "$(dirname "$0")/.."
bins=$(ls crates/*/src/bin/*.rs | LC_ALL=C sort | tr '\n' ' ')
want='crates/webdis-bench/src/bin/webdis-bench.rs crates/webdis-bench/src/bin/webdis-doctor.rs crates/webdis-chaos/src/bin/t14_chaos.rs '
if [ "$bins" != "$want" ]; then
    echo "binaries found:   $bins" >&2
    echo "expected exactly: $want" >&2
    exit 1
fi
dir=crates/webdis-bench/src/experiments
table=$(sed -n '/^pub const EXPERIMENTS/,/^];/p' "$dir/mod.rs")
count=0
for f in "$dir"/*.rs; do
    name=$(basename "$f" .rs)
    [ "$name" = mod ] && continue
    count=$((count + 1))
    if ! printf '%s\n' "$table" | grep -q "^    $name \(true\|false\) \""; then
        echo "$f is not an entry of EXPERIMENTS in $dir/mod.rs" >&2
        exit 1
    fi
done
echo "one experiment suite: $count experiments, each registered; 3 binaries"

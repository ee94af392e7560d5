#!/bin/sh
# ROADMAP item 1(c): the workspace has one JSON reader and one JSON string
# escaper, both in crates/webdis-trace/src/json.rs. This fails when a
# second one reappears under crates/*/src, recognised by what every copy
# that was deleted had: a `parse_string`, a `\u{:04x}` control-character
# escape, a `"` -> `\"` arm, or a string reader's `Some(b'\\') =>` arm.
# crates/webdis-trace/src/expo.rs is allowed its `\"` arm: it escapes
# Prometheus label values, a different format. hwbench/ is outside the
# workspace and keeps its copy until a benchmark PR (DESIGN.md §2c).
set -eu
cd "$(dirname "$0")/.."
pattern='fn parse_string|\\\\u\{:04x\}|push_str\("\\\\\\""\)|Some\(b'"'"'\\\\'"'"'\) =>'
found=$(grep -rlE "$pattern" crates/*/src | LC_ALL=C sort | tr '\n' ' ')
want='crates/webdis-trace/src/expo.rs crates/webdis-trace/src/json.rs '
if [ "$found" != "$want" ]; then
    echo "JSON readers/escapers found in: $found" >&2
    echo "expected exactly:               $want" >&2
    exit 1
fi
echo "one JSON module: crates/webdis-trace/src/json.rs"

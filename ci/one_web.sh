#!/bin/sh
# One web store: every query server, plain web server and deployment
# reads one `webdis_web::LiveWeb` through a `WebView` handle, and a web
# frozen in time is a `LiveWeb` nothing mutates. This fails when a
# second path reappears anywhere under crates/*/src:
#   * a `WebView::Frozen` or `WebView::Live` arm — a frozen store beside
#     the living one, and a branch on which of the two a run has;
#   * a `live_site_version` — a site version that is there only on a
#     living web, so a frozen run skips the poll that a living one pays.
set -eu
cd "$(dirname "$0")/.."
fail=0
hits() { find crates -name '*.rs' -path 'crates/*/src/*' | LC_ALL=C sort | xargs grep -nE "$1" || true; }

arms=$(hits '\bWebView::(Frozen|Live)\b')
if [ -n "$arms" ]; then
    echo "a frozen-or-living arm (WebView is one handle to one LiveWeb):" >&2
    echo "$arms" >&2
    fail=1
fi

optional=$(hits '\blive_site_version\b')
if [ -n "$optional" ]; then
    echo "a site version only a living web has (read LiveWeb::site_version):" >&2
    echo "$optional" >&2
    fail=1
fi
[ "$fail" -eq 0 ] || exit 1
echo "one web store: WebView is a handle to one LiveWeb, no frozen arm"

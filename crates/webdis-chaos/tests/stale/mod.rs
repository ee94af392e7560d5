//! The footnote-3 staleness bug, put into a trace instead of the engine.
//!
//! The per-site document cache once served a hit without checking the
//! document's version, so an edit of an already-visited page left later
//! visits answering from the pre-edit parse. The engine has no way back
//! to that behaviour; the tests that show the chaos oracle and the doctor
//! catching it run the engine as it is and rewrite the trace the bug
//! would have left, since both read traces only. Mounted with `#[path]`
//! by the tests that need it.

use std::collections::btree_map::{BTreeMap, Entry};

use webdis_trace::{TraceEvent, TraceRecord};

/// Rewrites `records` as an unchecked doc cache would have traced them:
/// once a site has built a document, every later fetch of it there is a
/// cache hit on that first build's version. Faithful while the cache
/// evicts nothing, i.e. holds at least as many builds as a site has
/// documents.
pub fn serve_first_build(records: &mut [TraceRecord]) {
    let mut built: BTreeMap<(String, String), u64> = BTreeMap::new();
    for rec in records {
        let TraceEvent::DocFetch {
            url,
            cache_hit,
            content_version,
        } = &mut rec.event
        else {
            continue;
        };
        match built.entry((rec.site.clone(), url.clone())) {
            Entry::Vacant(first) => {
                first.insert(*content_version);
            }
            Entry::Occupied(first) => {
                *cache_hit = true;
                *content_version = *first.get();
            }
        }
    }
}

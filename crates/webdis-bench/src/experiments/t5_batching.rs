use std::sync::Arc;

use webdis_core::EngineConfig;
use webdis_web::{generate, WebGenConfig};

use super::{shipped, Ctx, Outcome, GLOBAL_QUERY};
use crate::{fmt_bytes, Table};

/// T5 — the §3.2 batching optimizations.
///
/// Optimization 4 sends one clone per destination *site* carrying the
/// list of destination nodes; footnote 4 processes same-site destinations
/// in place rather than through the network. On a web with many documents
/// per site, the two together collapse most clone traffic. The grid runs
/// all four on/off combinations on the same web and query.
pub fn run(_: &Ctx) -> Outcome {
    let web = Arc::new(generate(&WebGenConfig {
        sites: 8,
        docs_per_site: 8,
        filler_words: 60,
        title_needle_prob: 0.3,
        extra_local_links: 2,
        extra_global_links: 1,
        seed: 57,
        ..WebGenConfig::default()
    }));

    let mut table = Table::new(
        "T5: batching ablation (8 sites x 8 docs)",
        &[
            "per-site clones (opt 4)",
            "local processing (fn 4)",
            "clone msgs",
            "report msgs",
            "total bytes",
        ],
    );

    let mut results = Vec::new();
    for batch in [true, false] {
        for local in [true, false] {
            let cfg = EngineConfig {
                batch_per_site: batch,
                local_forwarding: local,
                ..EngineConfig::default()
            };
            let outcome = shipped(&web, GLOBAL_QUERY, cfg);
            table.row(&[
                if batch { "on" } else { "off" }.to_owned(),
                if local { "on" } else { "off" }.to_owned(),
                outcome.metrics.messages_of("query").to_string(),
                outcome.metrics.messages_of("report").to_string(),
                fmt_bytes(outcome.metrics.total.bytes),
            ]);
            results.push(((batch, local), outcome));
        }
    }

    // All four configurations return the same rows.
    let reference = results[0].1.result_set();
    for (_, outcome) in &results {
        assert_eq!(outcome.result_set(), reference);
    }
    // Everything-on must use the fewest clone messages.
    let msgs = |b: bool, l: bool| {
        results
            .iter()
            .find(|((bb, ll), _)| *bb == b && *ll == l)
            .map(|(_, o)| o.metrics.messages_of("query"))
            .unwrap()
    };
    assert!(msgs(true, true) <= msgs(false, true));
    assert!(msgs(true, true) <= msgs(true, false));
    assert!(msgs(true, true) < msgs(false, false));
    Outcome::shown(
        vec![table],
        "both batching optimizations reduce clone messages; combined is best ✓",
    )
}

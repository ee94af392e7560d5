use std::sync::Arc;

use webdis_core::EngineConfig;
use webdis_sim::SimConfig;
use webdis_web::{generate, WebGenConfig};

use super::{both_strategies, Ctx, Outcome};
use crate::{fmt_bytes, fmt_ratio, Table};

const QUERY: &str = r#"
    select d.url, d.title, d.length
    from document d such that "http://site0.test/doc0.html" (L|G)* d
    where d.title contains "needle"
"#;

/// T2 — traffic vs predicate selectivity.
///
/// Query shipping returns only matching rows, so its traffic grows with
/// the match rate, while data shipping downloads every traversed
/// document regardless. The sweep plants the needle in a growing
/// fraction of titles on a fixed 16-site web and reports both engines'
/// bytes: the query-shipping advantage is largest for selective queries
/// (the search-engine/site-map use cases of Section 1) and shrinks —
/// but is not eliminated — as everything matches.
pub fn run(_: &Ctx) -> Outcome {
    let mut table = Table::new(
        "T2: traffic vs selectivity (16 sites x 4 docs, ~600-word documents)",
        &[
            "needle prob",
            "rows",
            "qship bytes",
            "dship bytes",
            "byte ratio",
        ],
    );

    let mut prev_ship_bytes = 0u64;
    for prob in [0.0, 0.1, 0.25, 0.5, 1.0] {
        let cfg = WebGenConfig {
            sites: 16,
            docs_per_site: 4,
            filler_words: 600,
            title_needle_prob: prob,
            seed: 23,
            ..WebGenConfig::default()
        };
        let web = Arc::new(generate(&cfg));

        let (ship, data) =
            both_strategies(&web, QUERY, EngineConfig::default(), SimConfig::default());

        table.row(&[
            format!("{prob:.2}"),
            ship.result_set().len().to_string(),
            fmt_bytes(ship.metrics.total.bytes),
            fmt_bytes(data.metrics.total.bytes),
            fmt_ratio(data.metrics.total.bytes, ship.metrics.total.bytes),
        ]);

        assert!(data.metrics.total.bytes > ship.metrics.total.bytes);
        if prob == 0.0 {
            prev_ship_bytes = ship.metrics.total.bytes;
        }
        if prob == 1.0 {
            assert!(
                ship.metrics.total.bytes > prev_ship_bytes,
                "more matches must mean more result traffic"
            );
        }
    }
    Outcome::shown(
        vec![table],
        "query-shipping traffic grows with match rate; advantage persists ✓",
    )
}

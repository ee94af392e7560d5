use std::sync::Arc;

use webdis_core::{Deployment, EngineConfig};
use webdis_sim::SimConfig;
use webdis_web::{generate, WebGenConfig};

use super::{shipped, Ctx, Outcome};
use crate::{fmt_bytes, Table};

const QUERY: &str = r#"
    select d.url, d.title
    from document d such that "http://site0.test/doc0.html" (L|G)* d
    where d.title contains "needle"
"#;

/// T7 — the Section 7.1 "gradual migration path", quantified.
///
/// The paper promises: "we can expect a gradual migration path for
/// WEBDIS from a largely centralized to a fully distributed system as
/// more and more sites begin to host query servers." This experiment
/// runs the hybrid engine on a fixed web while the fraction of
/// participating sites sweeps from 0% (pure data shipping with CHT
/// accounting) to 100% (pure query shipping), reporting document bytes
/// downloaded, total traffic, fallback handoffs and distributed
/// re-entries.
pub fn run(_: &Ctx) -> Outcome {
    let web = Arc::new(generate(&WebGenConfig {
        sites: 16,
        docs_per_site: 4,
        filler_words: 500,
        title_needle_prob: 0.3,
        seed: 83,
        ..WebGenConfig::default()
    }));
    let all_sites = web.sites();

    let reference = shipped(&web, QUERY, EngineConfig::default());

    let mut table = Table::new(
        "T7: hybrid migration path (16 sites x 4 docs)",
        &[
            "participating",
            "doc bytes downloaded",
            "total bytes",
            "handoffs",
            "re-entries",
            "rows",
        ],
    );

    let config = EngineConfig {
        hybrid: true,
        ..EngineConfig::default()
    };
    let mut deployment = Deployment::new(Arc::clone(&web), config);
    let mut prev_docs = u64::MAX;
    for keep in [0usize, 2, 4, 8, 12, 16] {
        deployment.participating = Some(all_sites.iter().take(keep).cloned().collect());
        let outcome = deployment
            .query_sim(QUERY, SimConfig::default())
            .expect("query parses");
        let stats = outcome.hybrid;
        assert!(outcome.complete, "{keep}/16 participating must complete");
        assert_eq!(
            outcome.result_set(),
            reference.result_set(),
            "{keep}/16 participating must agree with full query shipping"
        );
        let doc_bytes = outcome.metrics.bytes_of("fetch-reply");
        table.row(&[
            format!("{keep}/16"),
            fmt_bytes(doc_bytes),
            fmt_bytes(outcome.metrics.total.bytes),
            stats.handoffs.to_string(),
            stats.reentries.to_string(),
            outcome.result_set().len().to_string(),
        ]);
        assert!(
            doc_bytes <= prev_docs,
            "downloads must not grow as participation grows"
        );
        prev_docs = doc_bytes;
        if keep == 16 {
            assert_eq!(doc_bytes, 0, "full participation downloads nothing");
            assert_eq!(stats.handoffs, 0);
        }
    }
    Outcome::shown(
        vec![table],
        "results identical at every participation level; downloaded bytes fall \
          monotonically to zero — the paper's migration path, measured ✓",
    )
}

use std::sync::Arc;

use webdis_core::simrun::{client_of, server_of, user_addr};
use webdis_core::{Deployment, EngineConfig};
use webdis_disql::parse_disql;
use webdis_sim::SimConfig;
use webdis_web::{generate, WebGenConfig};

use super::{Ctx, Outcome, GLOBAL_QUERY};
use crate::Table;

const REPEATS: usize = 8;

fn run_with_cache(cache_size: usize) -> (u64, u64, bool) {
    let web = Arc::new(generate(&WebGenConfig {
        sites: 8,
        docs_per_site: 4,
        filler_words: 200,
        title_needle_prob: 0.3,
        seed: 59,
        ..WebGenConfig::default()
    }));
    let engine_cfg = EngineConfig {
        doc_cache_size: cache_size,
        ..EngineConfig::default()
    };
    let sites = web.sites();
    let queries = vec![parse_disql(GLOBAL_QUERY).expect("valid query"); REPEATS];
    let mut net = Deployment::new(web, engine_cfg).sim_with_client(SimConfig::default(), queries);
    net.start(&user_addr());
    net.run();

    let mut parsed = 0;
    let mut hits = 0;
    for site in &sites {
        if let Some(server) = server_of(&mut net, site) {
            parsed += server.stats.docs_parsed;
            hits += server.stats.doc_cache_hits;
        }
    }
    (parsed, hits, client_of(&mut net).all_complete())
}

/// T10 — the footnote-3 document cache under repeated queries.
///
/// "Of course, if the site expects that a node will receive several
/// queries, it can choose to retain the associated database so that the
/// construction cost does not have to be paid repeatedly." (Section 2.4,
/// footnote 3.) A client process submits the same workload repeatedly
/// through one result endpoint (Section 4.3); the sweep varies each
/// server's cache capacity and reports Database-Constructor invocations
/// against cache hits.
pub fn run(_: &Ctx) -> Outcome {
    let mut table = Table::new(
        "T10: footnote-3 document cache, 8 identical queries (8 sites x 4 docs)",
        &[
            "cache size/site",
            "docs parsed",
            "cache hits",
            "parse reduction",
        ],
    );
    let (baseline, _, complete) = run_with_cache(0);
    assert!(complete);
    for size in [0usize, 1, 2, 4, 64] {
        let (parsed, hits, complete) = run_with_cache(size);
        assert!(complete, "cache size {size} must not affect completion");
        table.row(&[
            if size == 0 {
                "off".to_owned()
            } else {
                size.to_string()
            },
            parsed.to_string(),
            hits.to_string(),
            format!("{:.1}x", baseline as f64 / parsed as f64),
        ]);
        if size >= 4 {
            assert!(
                parsed as f64 <= baseline as f64 / 4.0,
                "a covering cache must amortize parsing across the {REPEATS} queries"
            );
        }
    }
    Outcome::shown(
        vec![table],
        format!(
            "with a covering cache each document is parsed once for all {REPEATS} \
             queries — footnote 3's retention policy, measured ✓"
        ),
    )
}

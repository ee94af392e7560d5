//! The Section 7.1 migration path, live: run the same query while only
//! some sites host WEBDIS query servers. Non-participating sites are
//! reached by the user-site fallback (download + local evaluation), and
//! the traversal re-enters distributed processing whenever it crosses
//! back into a participating site.
//!
//! ```sh
//! cargo run --example hybrid_migration
//! ```

use std::sync::Arc;

use webdis::core::{Deployment, EngineConfig};
use webdis::sim::SimConfig;
use webdis::web::{generate, WebGenConfig};

const QUERY: &str = r#"
    select d.url, d.title
    from document d such that "http://site0.test/doc0.html" (L|G)* d
    where d.title contains "needle"
"#;

fn main() {
    let web = Arc::new(generate(&WebGenConfig {
        sites: 12,
        docs_per_site: 4,
        filler_words: 400,
        title_needle_prob: 0.25,
        seed: 2001,
        ..WebGenConfig::default()
    }));
    let sites = web.sites();

    println!("12 sites; sweeping how many of them run a WEBDIS daemon:\n");
    println!(
        "{:>13}  {:>14}  {:>11}  {:>8}  {:>10}",
        "participating", "downloaded (B)", "total (B)", "handoffs", "re-entries"
    );
    let mut rows = None;
    for keep in [0usize, 3, 6, 9, 12] {
        let participating: Vec<_> = sites.iter().take(keep).cloned().collect();
        let mut deployment = Deployment::new(
            Arc::clone(&web),
            EngineConfig {
                hybrid: true,
                ..EngineConfig::default()
            },
        );
        deployment.participating = Some(participating);
        let outcome = deployment
            .query_sim(QUERY, SimConfig::default())
            .expect("query parses");
        let stats = outcome.hybrid;
        assert!(outcome.complete);
        match &rows {
            None => rows = Some(outcome.result_set()),
            Some(r) => assert_eq!(
                &outcome.result_set(),
                r,
                "results must not depend on deployment"
            ),
        }
        println!(
            "{:>10}/12  {:>14}  {:>11}  {:>8}  {:>10}",
            keep,
            outcome.metrics.bytes_of("fetch-reply"),
            outcome.metrics.total.bytes,
            stats.handoffs,
            stats.reentries,
        );
    }
    println!(
        "\n{} result rows at every deployment level — install daemons at your \
         own pace; correctness never depends on who participates.",
        rows.unwrap().len()
    );
}

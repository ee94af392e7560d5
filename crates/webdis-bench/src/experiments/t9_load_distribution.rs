use std::sync::Arc;

use webdis_core::{EngineConfig, QueryOutcome};
use webdis_web::{generate, WebGenConfig};

use super::{both_strategies, workstation_sim, Ctx, Outcome, GLOBAL_QUERY};
use crate::Table;

/// Processor time charged at the user site, µs.
fn user_cpu_us(outcome: &QueryOutcome) -> u64 {
    let by_site = outcome.metrics.busy_us_by_site.iter();
    by_site
        .filter(|(site, _)| &*site.host == "user.test")
        .map(|(_, us)| *us)
        .sum()
}

/// T9 — who does the work: load distribution across sites.
///
/// Section 1's second argument against data shipping is "the client-site
/// becoming a processing bottleneck". This experiment measures, for the
/// same query on the same web, how messages and document-parsing work
/// distribute across endpoints under each strategy: data shipping
/// concentrates everything at the user site, query shipping spreads it in
/// proportion to each site's share of the web.
pub fn run(_: &Ctx) -> Outcome {
    let mut table = Table::new(
        "T9: load distribution (messages received at the busiest endpoint)",
        &[
            "sites",
            "strategy",
            "total msgs",
            "busiest endpoint",
            "its msgs",
            "share",
            "user-site CPU (ms)",
            "busiest server CPU (ms)",
        ],
    );

    for sites in [8usize, 16, 32] {
        let cfg = WebGenConfig {
            sites,
            docs_per_site: 4,
            filler_words: 150,
            title_needle_prob: 0.3,
            seed: 101,
            ..WebGenConfig::default()
        };
        let web = Arc::new(generate(&cfg));

        let cfg = EngineConfig::default();
        let (ship, data) = both_strategies(&web, GLOBAL_QUERY, cfg, workstation_sim());

        for (label, o) in [("query ship", &ship), ("data ship", &data)] {
            let total = o.metrics.total.messages;
            let (busiest, load) = o
                .metrics
                .max_site_load()
                .map(|(s, n)| (s.to_string(), n))
                .unwrap_or(("-".into(), 0));
            let user_cpu = user_cpu_us(o);
            let server_cpu = o
                .metrics
                .busy_us_by_site
                .iter()
                .filter(|(s, _)| &*s.host != "user.test")
                .map(|(_, us)| *us)
                .max()
                .unwrap_or(0);
            table.row(&[
                sites.to_string(),
                label.to_owned(),
                total.to_string(),
                busiest,
                load.to_string(),
                format!("{:.0}%", 100.0 * load as f64 / total as f64),
                format!("{:.1}", user_cpu as f64 / 1000.0),
                format!("{:.1}", server_cpu as f64 / 1000.0),
            ]);
        }

        // The claims, machine-checked: under data shipping the user site
        // is the single busiest endpoint and receives ~half of all
        // messages (every fetch-reply); under query shipping the user
        // site receives only reports and no endpoint dominates as hard.
        let (d_busiest, d_load) = data.metrics.max_site_load().unwrap();
        assert_eq!(
            &*d_busiest.host, "user.test",
            "data shipping bottlenecks the user"
        );
        assert!(d_load as f64 >= 0.45 * data.metrics.total.messages as f64);
        let (_, s_load) = ship.metrics.max_site_load().unwrap();
        let s_share = s_load as f64 / ship.metrics.total.messages as f64;
        let d_share = d_load as f64 / data.metrics.total.messages as f64;
        assert!(
            s_share < d_share,
            "query shipping must spread load more evenly ({s_share:.2} vs {d_share:.2})"
        );
        // All parsing CPU lands on the user under data shipping; none
        // under query shipping.
        assert_eq!(user_cpu_us(&ship), 0);
        assert!(user_cpu_us(&data) > 0);
    }
    Outcome::shown(
        vec![table],
        "data shipping funnels ~half of all messages (and every parse) through \
          the user site; query shipping leaves the user with reports only ✓",
    )
}

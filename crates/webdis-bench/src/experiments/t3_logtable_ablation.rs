use std::sync::Arc;

use webdis_core::{EngineConfig, LogMode};
use webdis_web::{generate, WebGenConfig};

use super::{shipped, Ctx, Outcome, GLOBAL_QUERY};
use crate::Table;

/// T3 — what the node-query log table saves (Section 3.1.1).
///
/// On a cross-linked web, clones reach the same node along many paths;
/// without the log table every arrival is recomputed and *re-forwarded*,
/// cascading ("a mirror clone chasing a previously processed clone over
/// the Web"). The sweep increases cross-link density and compares the
/// log table ON vs OFF: evaluations, clone messages, duplicate result
/// rows delivered to the user. OFF runs are bounded by the hop-count
/// safety valve (the web is cyclic), which is itself a measured quantity.
pub fn run(_: &Ctx) -> Outcome {
    let mut table = Table::new(
        "T3: log-table ablation (acyclic web, 8 sites x 3 docs)",
        &[
            "extra links/doc",
            "config",
            "evaluations",
            "clone msgs",
            "dup rows",
        ],
    );

    for extra in [0usize, 1, 2, 3] {
        let cfg = WebGenConfig {
            sites: 8,
            docs_per_site: 3,
            filler_words: 40,
            title_needle_prob: 0.5,
            extra_local_links: extra,
            extra_global_links: extra,
            acyclic: true,
            seed: 31,
            ..WebGenConfig::default()
        };
        let web = Arc::new(generate(&cfg));

        let on_cfg = EngineConfig::strict();
        let off_cfg = EngineConfig {
            log_mode: LogMode::Off,
            ..EngineConfig::strict()
        };

        let on = shipped(&web, GLOBAL_QUERY, on_cfg);
        let off = shipped(&web, GLOBAL_QUERY, off_cfg);
        // The distinct result set is identical; only the duplicates and
        // the work differ.
        assert_eq!(on.result_set(), off.result_set());

        for (label, outcome) in [("log ON", &on), ("log OFF", &off)] {
            let dup_rows = outcome.total_rows() - outcome.result_set().len();
            table.row(&[
                extra.to_string(),
                label.to_owned(),
                outcome.sum_stat(|s| s.evaluations).to_string(),
                outcome.metrics.messages_of("query").to_string(),
                dup_rows.to_string(),
            ]);
        }

        assert!(
            off.sum_stat(|s| s.evaluations) >= on.sum_stat(|s| s.evaluations),
            "log table can only reduce evaluations"
        );
        if extra > 0 {
            assert!(
                off.sum_stat(|s| s.evaluations) > on.sum_stat(|s| s.evaluations),
                "cross links must cause recomputation without the log table"
            );
        }
    }
    Outcome::shown(
        vec![table],
        "log table eliminates all duplicate recomputation and its message cascade ✓",
    )
}

use std::sync::Arc;

use webdis_core::simrun::{client_of, server_of, user_addr};
use webdis_core::{result_set, Deployment, EngineConfig};
use webdis_disql::parse_disql;
use webdis_sim::SimConfig;
use webdis_web::{generate, WebGenConfig};

use super::{Ctx, Outcome, GLOBAL_QUERY};
use crate::Table;

/// One run's observables: completion, peak log size, evaluations,
/// duplicate drops, and the canonical result set.
struct PurgeRun {
    complete: bool,
    peak_log: usize,
    evaluations: u64,
    drops: u64,
    results: std::collections::BTreeSet<(u32, String, Vec<String>)>,
}

/// Runs the query with the servers forgetting each query once no clone
/// of it has arrived for `period_us` of virtual time (0 = never).
fn run_with_purge(period_us: u64) -> PurgeRun {
    let web = Arc::new(generate(&WebGenConfig {
        sites: 10,
        docs_per_site: 3,
        extra_local_links: 2,
        extra_global_links: 2,
        title_needle_prob: 0.4,
        seed: 47,
        ..WebGenConfig::default()
    }));
    let sites = web.sites();
    let query = parse_disql(GLOBAL_QUERY).unwrap();
    // Strict mode keeps completion exact however many duplicates the
    // purge-induced recomputation creates.
    let config = EngineConfig {
        log_purge_us: (period_us != 0).then_some(period_us),
        ..EngineConfig::strict()
    };
    let deployment = Deployment::new(Arc::clone(&web), config);
    let mut net = deployment.sim_with_client(SimConfig::default(), vec![query]);
    net.start(&user_addr());

    // Sample the log at every period, the last sample when the run ends:
    // each leg of the drive stops at the next period's instant.
    let mut peak_log = 0usize;
    let tick_us = if period_us == 0 { u64::MAX } else { period_us };
    let mut at_us = 0u64;
    loop {
        at_us = at_us.saturating_add(tick_us);
        deployment.drive_sim(&mut net, u64::MAX, at_us);
        let logs = sites
            .iter()
            .map(|site| server_of(&mut net, site).map_or(0, |s| s.log_len()));
        peak_log = peak_log.max(logs.sum());
        if net.idle() || at_us == u64::MAX {
            break;
        }
    }

    let mut evals = 0;
    let mut dups = 0;
    for site in &sites {
        if let Some(server) = server_of(&mut net, site) {
            evals += server.stats.evaluations;
            dups += server.stats.duplicates_dropped;
        }
    }
    let user = client_of(&mut net).query(1).expect("query submitted");
    PurgeRun {
        complete: user.complete,
        peak_log,
        evaluations: evals,
        drops: dups,
        results: result_set(&user.results),
    }
}

/// T8 — log-table purge-period sensitivity (Section 3.1.1).
///
/// "To ensure that the log table does not take undue space, the old
/// entries in the table are periodically purged. … even if the purging
/// time is incorrectly set too low resulting in duplicate Web queries
/// being recomputed, it only affects the performance of the system but
/// not the correctness of the results."
///
/// The sweep runs the same query on the same cross-linked web with the
/// servers' own purge (`log_purge_us`) at different periods, reporting
/// peak log size against recomputation cost — and asserting the paper's
/// correctness claim at every setting.
pub fn run(_: &Ctx) -> Outcome {
    let mut table = Table::new(
        "T8: log purge period vs recomputation (10 sites x 3 docs, cross-linked)",
        &[
            "purge period (ms)",
            "peak log records",
            "evaluations",
            "drops seen",
        ],
    );
    let reference = run_with_purge(0).results;
    let (mut low, mut high) = (usize::MAX, 0);
    for period_ms in [0u64, 50, 20, 10, 5, 2] {
        let run = run_with_purge(period_ms * 1000);
        assert!(run.complete, "period {period_ms}ms must still complete");
        assert_eq!(
            run.results, reference,
            "purging never affects correctness (period {period_ms}ms)"
        );
        (low, high) = (low.min(run.peak_log), high.max(run.peak_log));
        table.row(&[
            if period_ms == 0 {
                "never".to_owned()
            } else {
                period_ms.to_string()
            },
            run.peak_log.to_string(),
            run.evaluations.to_string(),
            run.drops.to_string(),
        ]);
    }
    let peak = match low == high {
        true => format!("{high} records whatever the period"),
        false => format!("{low} to {high} records"),
    };
    Outcome::shown(
        vec![table],
        format!(
            "the log peaks at {peak}; shorter periods recompute more; the result \
             set is identical at every setting — the paper's §3.1.1 claim, verified ✓"
        ),
    )
}

use std::sync::Arc;

use webdis_core::{EngineConfig, LogMode};
use webdis_net::Disposition;
use webdis_web::figures;

use super::{shipped, Ctx, Outcome};
use crate::Table;

/// Figure 5 — multiple visits to a node, and what the node-query log
/// table (Section 3.1.1) saves.
///
/// The Figure 5 web funnels five distinct paths into node 4 under
/// `Q = S G·(G|L) q1 (G|L) q2`, producing the paper's five visits:
/// `a = (2, G|L)`, `b = (2, N)`, and `c = d = e = (1, N)` — the last
/// three *in the same state of computation*. With the log table, only
/// `a`, `b` and `c` are processed; `d` and `e` are recognized as
/// duplicates and dropped. The harness shows the visit table and then
/// quantifies the saving by re-running with the log table disabled.
pub fn run(_: &Ctx) -> Outcome {
    let web = Arc::new(figures::figure5());

    // Strict CHT mode makes duplicate drops visible in the trace (paper
    // mode drops them silently, which is the point of §3.1.1 — but the
    // figure wants to *show* them).
    let strict = EngineConfig::strict();
    let outcome = shipped(&web, figures::FIG_QUERY, strict.clone());

    let mut table = Table::new(
        "Figure 5: visits to node 4 under Q = S G·(G|L) q1 (G|L) q2",
        &["visit", "arrival state", "log table verdict"],
    );
    let mut visits = Vec::new();
    for ev in &outcome.trace {
        if ev.node.host() == "n4.test" {
            visits.push(ev.clone());
        }
    }
    // Reports arrive at the user site in network order (an evaluated
    // arrival's report is larger, hence slower, than a duplicate-drop
    // notice); present them in the paper's narrative order: by remaining
    // work, processed visits before their duplicates.
    visits.sort_by_key(|v| {
        (
            std::cmp::Reverse(v.state.num_q),
            v.state.rem_pre.to_string(),
            v.disposition == Disposition::Duplicate,
        )
    });
    for (i, ev) in visits.iter().enumerate() {
        let verdict = match ev.disposition {
            Disposition::Duplicate => "equivalent state seen — dropped",
            Disposition::Answered => "new state — evaluated",
            Disposition::PureRouted | Disposition::DeadEnd => "new state — routed/dead-end",
            Disposition::Rewritten => "superset — rewritten",
            Disposition::Handoff => "handed off",
            Disposition::Shed => "shed by admission control",
            Disposition::DeadLink => "dead link — target deleted",
        };
        table.row(&[
            ((b'a' + i as u8) as char).to_string(),
            ev.state.to_string(),
            verdict.to_owned(),
        ]);
    }

    assert_eq!(visits.len(), 5, "the paper's five visits a–e");
    let dup_count = visits
        .iter()
        .filter(|v| v.disposition == Disposition::Duplicate)
        .count();
    assert_eq!(dup_count, 2, "d and e are recognized as duplicates");
    let same_state = visits
        .iter()
        .filter(|v| v.state.to_string() == "(1, N)")
        .count();
    assert_eq!(same_state, 3, "c, d, e arrive in the same state");

    // Quantify: log table on vs off.
    let on = outcome;
    let off_cfg = EngineConfig {
        log_mode: LogMode::Off,
        ..strict
    };
    let off = shipped(&web, figures::FIG_QUERY, off_cfg);
    assert_eq!(on.result_set(), off.result_set(), "results are unaffected");

    let mut cmp = Table::new(
        "log table effect (same query, same web)",
        &[
            "config",
            "node-query evaluations",
            "messages",
            "duplicate rows received",
        ],
    );
    let dup_rows = |o: &webdis_core::QueryOutcome| {
        let total: usize = o.total_rows();
        let distinct = o.result_set().len();
        total - distinct
    };
    cmp.row(&[
        "log table ON".to_owned(),
        on.sum_stat(|s| s.evaluations).to_string(),
        on.metrics.total.messages.to_string(),
        dup_rows(&on).to_string(),
    ]);
    cmp.row(&[
        "log table OFF".to_owned(),
        off.sum_stat(|s| s.evaluations).to_string(),
        off.metrics.total.messages.to_string(),
        dup_rows(&off).to_string(),
    ]);
    assert!(
        off.sum_stat(|s| s.evaluations) > on.sum_stat(|s| s.evaluations),
        "disabling the log table must cost recomputation"
    );
    Outcome::shown(vec![table, cmp], "all Figure 5 assertions hold ✓")
}

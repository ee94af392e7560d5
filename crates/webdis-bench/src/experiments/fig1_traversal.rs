use std::collections::BTreeMap;
use std::sync::Arc;

use webdis_core::EngineConfig;
use webdis_net::Disposition;
use webdis_web::figures;

use super::{shipped, stages_label, Ctx, Outcome};
use crate::Table;

/// Figure 1 — the web traversal path of `Q = S G·(G|L) q1 (G|L) q2`.
///
/// Reproduces the paper's Figure 1 narrative as a machine-checked trace:
/// nodes 1–3 act as PureRouters, nodes 4/5 answer `q1`, node 4 acts as a
/// ServerRouter a **second** time for `q2`, nodes 6/8 answer `q2`, and
/// node 7 evaluates `q1`, fails, and dead-ends.
///
/// Run with `--trace fig1.jsonl` to capture the structured event stream and
/// print the reconstructed shipping tree (see DESIGN.md, Observability).
pub fn run(ctx: &Ctx) -> Outcome {
    let trace = &ctx.tracer;
    let web = Arc::new(figures::figure1());
    let cfg = EngineConfig {
        tracer: trace.handle(),
        ..EngineConfig::default()
    };
    let outcome = shipped(&web, figures::FIG_QUERY, cfg);

    let mut table = Table::new(
        "Figure 1: traversal of Q = S G·(G|L) q1 (G|L) q2",
        &["node", "arrival state", "role", "answers"],
    );
    let mut roles: BTreeMap<String, Vec<Disposition>> = BTreeMap::new();
    for ev in &outcome.trace {
        let answers = if ev.stages_answered.is_empty() {
            "-".to_owned()
        } else {
            stages_label(&ev.stages_answered)
        };
        table.row(&[
            ev.node.host().trim_end_matches(".test").to_owned(),
            ev.state.to_string(),
            ev.disposition.label().to_owned(),
            answers,
        ]);
        roles
            .entry(ev.node.host().to_owned())
            .or_default()
            .push(ev.disposition);
    }

    // The paper's Figure 1 claims, machine-checked:
    for router in ["n1.test", "n2.test", "n3.test"] {
        assert_eq!(
            roles[router],
            vec![Disposition::PureRouted],
            "{router} is a PureRouter"
        );
    }
    let n4 = &roles["n4.test"];
    assert_eq!(
        n4,
        &vec![Disposition::Answered, Disposition::Answered],
        "node 4 acts as a ServerRouter twice (q1, then q2)"
    );
    assert_eq!(
        roles["n5.test"],
        vec![Disposition::Answered],
        "node 5 answers q1"
    );
    assert_eq!(
        roles["n6.test"],
        vec![Disposition::Answered],
        "node 6 answers q2"
    );
    assert_eq!(
        roles["n8.test"],
        vec![Disposition::Answered],
        "node 8 answers q2"
    );
    assert_eq!(
        roles["n7.test"],
        vec![Disposition::DeadEnd],
        "node 7 fails q1 and becomes a dead end"
    );

    if trace.enabled() {
        trace.ingest("cht", &outcome.cht_stats.counters());
        // Sum the per-site server counters field-wise.
        let mut sums: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in outcome.server_stats.values() {
            for (name, v) in s.counters() {
                *sums.entry(name).or_default() += v;
            }
        }
        let pairs: Vec<(&str, u64)> = sums.into_iter().collect();
        trace.ingest("server", &pairs);
    }
    Outcome::shown(
        vec![table],
        "q1 answered by: n4, n5  (titles containing \"hub\")\n\
         q2 answered by: n4, n6, n8  (text containing \"answer\")\n\
         all Figure 1 role assertions hold ✓",
    )
}

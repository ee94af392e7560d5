use std::sync::Arc;

use webdis_core::EngineConfig;
use webdis_net::Disposition;
use webdis_web::figures;

use super::{freeze_histograms, shipped, stages_label, Ctx, Outcome};
use crate::report::{ScenarioReport, Worse};
use crate::Table;

/// Figure 7 — traversal of the Section-5 sample query over the campus
/// web, with the clone state printed at every node (the paper's Figure 7
/// annotates the traversal diagram with exactly these states), then
/// Figure 8 — the run's result table, as the paper's browser screenshot
/// presents it: the stage-1 binding (`d0.url`), then one row per lab
/// with `d1.url`, `d1.title` and the `hr`-delimited rel-infon text naming
/// the convener.
///
/// The same one run is the `fig7` report: the query-shipping campus run
/// every other experiment builds on, every number virtual time and
/// therefore exact — makespan, first-result latency, wire bytes per
/// message kind, and the per-stage histograms (`queue_wait` included).
pub fn run(ctx: &Ctx) -> Outcome {
    let (collector, tracer) = ctx.tracer.collecting(1 << 15);
    println!(
        "query (paper Example Query 2):\n{}\n",
        figures::CAMPUS_QUERY.trim()
    );

    let cfg = EngineConfig {
        tracer,
        ..EngineConfig::default()
    };
    let campus = Arc::new(figures::campus());
    let outcome = shipped(&campus, figures::CAMPUS_QUERY, cfg);

    println!("formal query: Q = {{http://www.csa.iisc.ernet.in/}} L q1 G·L*1 q2\n");

    let mut table = Table::new(
        "Figure 7: traversal of the sample query",
        &["t (ms)", "node", "state (num_q, rem PRE)", "outcome", "fwd"],
    );
    for ev in &outcome.trace {
        let outcome_txt = match ev.disposition {
            Disposition::Answered => format!("answers {}", stages_label(&ev.stages_answered)),
            other => other.label().to_owned(),
        };
        table.row(&[
            format!("{:.1}", ev.time_us as f64 / 1000.0),
            ev.node.to_string(),
            ev.state.to_string(),
            outcome_txt,
            ev.forwards.to_string(),
        ]);
    }

    // Figure 7 invariants.
    let at = |host: &str, path: &str| {
        outcome
            .trace
            .iter()
            .find(|e| e.node.host() == host && e.node.path() == path)
            .unwrap_or_else(|| panic!("no trace event for {host}{path}"))
    };
    // The homepage is a PureRouter for the first PRE (L, not nullable).
    assert_eq!(
        at("www.csa.iisc.ernet.in", "/").disposition,
        Disposition::PureRouted
    );
    // The Labs page answers q1 and forwards the three lab clones.
    let labs = at("www.csa.iisc.ernet.in", "/Labs");
    assert_eq!(labs.disposition, Disposition::Answered);
    assert_eq!(labs.forwards, 3);
    // Decoy department pages dead-end (title lacks "lab").
    assert_eq!(
        at("www.csa.iisc.ernet.in", "/People").disposition,
        Disposition::DeadEnd
    );
    assert_eq!(
        at("www.csa.iisc.ernet.in", "/Research").disposition,
        Disposition::DeadEnd
    );
    // The DSL homepage fails q2 but still forwards along L*1.
    let dsl_home = at("dsl.serc.iisc.ernet.in", "/");
    assert!(dsl_home.forwards > 0, "residual L*1 keeps the clone moving");
    // The conveners' pages answer q2.
    assert_eq!(
        at("dsl.serc.iisc.ernet.in", "/people").disposition,
        Disposition::Answered
    );
    assert_eq!(
        at("www-compiler.csa.iisc.ernet.in", "/people").disposition,
        Disposition::Answered
    );
    assert_eq!(
        at("www2.csa.iisc.ernet.in", "/~gang/lab").disposition,
        Disposition::Answered
    );

    let mut t0 = Table::new("Figure 8: results of the sample query, d0", &["d0.url"]);
    for (_, row) in outcome.rows_of_stage(0) {
        t0.row(&[row.values[0].render()]);
    }
    let mut t1 = Table::new("Figure 8: d1 / r", &["d1.url", "d1.title", "r.text"]);
    let mut rows: Vec<_> = outcome.rows_of_stage(1).to_vec();
    rows.sort_by_key(|(_, r)| r.values[0].render());
    for (_, row) in &rows {
        t1.row(&[
            row.values[0].render(),
            row.values[1].render(),
            row.values[2].render(),
        ]);
    }
    // Machine-check against the paper's Figure 8 rows.
    assert_eq!(rows.len(), 3);
    for (url, title, convener) in figures::CAMPUS_EXPECTED {
        let row = rows
            .iter()
            .find(|(_, r)| r.values[0].render() == url)
            .unwrap_or_else(|| panic!("Figure 8 row missing: {url}"));
        assert_eq!(row.1.values[1].render(), title);
        assert!(
            row.1.values[2].render().contains(convener),
            "{url}: rel-infon must name {convener}"
        );
    }

    let mut report = ScenarioReport::default();
    report.exact("complete", u64::from(outcome.complete), Worse::Lower);
    report.exact("duration_us", outcome.duration_us, Worse::Higher);
    report.exact(
        "first_result_us",
        outcome.first_result_us.unwrap_or(0),
        Worse::Higher,
    );
    report.exact("rows_total", outcome.total_rows() as u64, Worse::Lower);
    report.exact(
        "wire_bytes.total",
        outcome.metrics.total.bytes,
        Worse::Higher,
    );
    report.exact(
        "wire_msgs.total",
        outcome.metrics.total.messages,
        Worse::Higher,
    );
    for (kind, stats) in &outcome.metrics.by_kind {
        report.exact(&format!("wire_bytes.{kind}"), stats.bytes, Worse::Higher);
        report.exact(&format!("wire_msgs.{kind}"), stats.messages, Worse::Higher);
    }
    freeze_histograms(&mut report, &collector.registry().snapshot());

    Outcome {
        tables: vec![table, t0, t1],
        verdict: "all Figure 7 traversal and Figure 8 result assertions hold ✓".into(),
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_freezes_stage_histograms_including_queue_wait() {
        let report = run(&Ctx::new(false)).report;
        for name in [
            "stage_us.queue_wait",
            "stage_us.parse",
            "stage_us.eval",
            "stage_us.forward",
        ] {
            let h = report
                .histograms
                .get(name)
                .unwrap_or_else(|| panic!("{name} must be frozen"));
            assert!(h.count > 0, "{name} must be non-empty");
        }
        assert_eq!(report.metrics["complete"].value, 1);
        assert!(report.metrics["wire_bytes.query"].value > 0);
        // Every fig7 metric is sim-deterministic.
        assert!(report.metrics.values().all(|m| m.tol_pct == 0));
    }
}

use std::time::Instant;

use webdis_rel::{
    eval_node_query_scan_with_stats, eval_node_query_with_stats, CmpOp, Expr, NodeDb, NodeQuery,
    RelKind, VarDecl,
};
use webdis_web::{generate, WebGenConfig};

use super::{milli, Ctx, Outcome};
use crate::report::{ScenarioReport, Worse};

/// Noise band for wall-clock medians: generous, because CI machines
/// share cores. A real regression (2×) still clears it decisively.
const WALL_TOL_PCT: u32 = 50;

/// Wall-clock µs of one `eval` of each query over `db`.
fn wall_us<R>(db: &NodeDb, queries: [&NodeQuery; 2], eval: fn(&NodeDb, &NodeQuery) -> R) -> u64 {
    let start = Instant::now();
    for q in queries {
        std::hint::black_box(eval(std::hint::black_box(db), q));
    }
    start.elapsed().as_micros() as u64
}

fn median(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// t16_eval_scale — the eval-vs-corpus-size curve. One site's hub page
/// indexes `n` documents, so its ANCHOR relation has `n` tuples; a
/// `contains` query and an equality query are evaluated over that
/// relation by the fixed cross-product scan and by the index-backed
/// planner. A hub page is read again and again, and a database builds
/// a column's index on the column's second ask, so each query runs once,
/// untimed, before anything is counted: the planner is measured on the
/// reused page. Tuples-visited counters and row counts are exact (they
/// depend only on the seeded generator and the planner, not the
/// machine); wall-clock medians and the speedup are banded. The scan
/// visits O(n) tuples per query while the probe visits only the
/// matches, which is what makes eval stage time near-flat as the
/// corpus grows.
pub fn run(ctx: &Ctx) -> Outcome {
    let smoke = ctx.smoke;
    let sizes: &[usize] = if smoke {
        &[200, 2_000, 20_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let reps = if smoke { 3 } else { 5 };
    const NEEDLE_EVERY: usize = 100;

    let attr = |var: &str, a: &str| Expr::Attr {
        var: var.into(),
        attr: a.into(),
    };
    let decl = |name: &str, kind: RelKind| VarDecl {
        name: name.into(),
        kind,
        cond: None,
    };

    let mut report = ScenarioReport::default();
    for &n in sizes {
        let web = generate(&WebGenConfig {
            sites: 1,
            docs_per_site: n,
            extra_local_links: 0,
            extra_global_links: 0,
            title_needle_prob: 0.0,
            text_needle_prob: 0.0,
            filler_words: 4,
            seed: 16,
            hub_pages: true,
            hub_needle_every: NEEDLE_EVERY,
            ..WebGenConfig::default()
        });
        let hub = webdis_web::hub_url(0);
        let db = NodeDb::build(
            &hub,
            &webdis_html::parse_html(web.get(&hub).expect("hub page generated")),
        );

        // The two index-served predicate shapes of the paper's example
        // queries, over an n-tuple ANCHOR relation.
        let contains_q = NodeQuery {
            vars: vec![decl("d", RelKind::Document), decl("a", RelKind::Anchor)],
            where_cond: Some(Expr::Contains(
                Box::new(attr("a", "label")),
                Box::new(Expr::StrLit("needle".into())),
            )),
            select: vec![("a".into(), "href".into())],
        };
        let eq_q = NodeQuery {
            vars: vec![decl("d", RelKind::Document), decl("a", RelKind::Anchor)],
            where_cond: Some(Expr::Cmp(
                CmpOp::Eq,
                Box::new(attr("a", "href")),
                Box::new(Expr::StrLit(webdis_web::doc_url(0, n / 2).to_string())),
            )),
            select: vec![("a".into(), "label".into())],
        };
        let queries = [&contains_q, &eq_q];

        // Exact work counters: tuples the nested loop enumerates.
        let mut rows = 0u64;
        let mut scan_visited = 0u64;
        let mut probe_visited = 0u64;
        for q in queries {
            let (scan_rows, scan_stats) =
                eval_node_query_scan_with_stats(&db, q).expect("scan eval");
            eval_node_query_with_stats(&db, q).expect("the column's first ask scans");
            let (probe_rows, probe_stats) = eval_node_query_with_stats(&db, q).expect("probe eval");
            assert_eq!(scan_rows, probe_rows, "scan and index must agree");
            assert!(probe_stats.used_index, "both t16 queries must probe");
            rows += scan_rows.len() as u64;
            scan_visited += scan_stats.tuples_visited;
            probe_visited += probe_stats.tuples_visited;
        }

        // Banded wall clock: median-of-reps over both queries.
        let mut scan_us = Vec::new();
        let mut probe_us = Vec::new();
        for _ in 0..reps {
            scan_us.push(wall_us(&db, queries, eval_node_query_scan_with_stats));
            probe_us.push(wall_us(&db, queries, eval_node_query_with_stats));
        }
        let scan_med = median(scan_us);
        let probe_med = median(probe_us);

        let tag = format!("n{n}");
        report.exact(&format!("rows.{tag}"), rows, Worse::Lower);
        report.exact(&format!("scan_visited.{tag}"), scan_visited, Worse::Higher);
        report.exact(
            &format!("probe_visited.{tag}"),
            probe_visited,
            Worse::Higher,
        );
        report.exact(
            &format!("work_ratio_milli.{tag}"),
            milli(scan_visited as f64 / probe_visited.max(1) as f64),
            Worse::Lower,
        );
        report.banded(
            &format!("scan_us.{tag}"),
            scan_med,
            WALL_TOL_PCT,
            Worse::Higher,
        );
        report.banded(
            &format!("probe_us.{tag}"),
            probe_med,
            WALL_TOL_PCT,
            Worse::Higher,
        );
        report.banded(
            &format!("speedup_milli.{tag}"),
            milli(scan_med.max(1) as f64 / probe_med.max(1) as f64),
            WALL_TOL_PCT,
            Worse::Lower,
        );
    }
    Outcome {
        report,
        ..Outcome::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t16_exact_metrics_are_deterministic_and_index_wins() {
        let a = run(&Ctx::new(true)).report;
        let b = run(&Ctx::new(true)).report;
        for (name, m) in &a.metrics {
            if m.tol_pct == 0 {
                assert_eq!(
                    m.value, b.metrics[name].value,
                    "exact metric {name} must reproduce"
                );
            }
        }
        // n=200 hub: contains matches ceil(200/100)=2 anchors, equality
        // matches exactly the one anchor pointing at doc 100.
        assert_eq!(a.metrics["rows.n200"].value, 3);
        assert_eq!(a.metrics["rows.n2000"].value, 21);
        // The scan enumerates every ANCHOR tuple per query; the probes
        // visit only matches — and the gap widens with corpus size.
        for &n in &[200u64, 2_000, 20_000] {
            let scan = a.metrics[&format!("scan_visited.n{n}")].value;
            let probe = a.metrics[&format!("probe_visited.n{n}")].value;
            assert!(
                scan >= 2 * n && probe < n,
                "n={n}: scan {scan} must dwarf probe {probe}"
            );
        }
        // Matches grow with n too (fixed needle spacing), so the ratio
        // grows toward ~2×needle_every rather than without bound; it must
        // still rise with corpus size and clear two orders of magnitude.
        assert!(
            a.metrics["work_ratio_milli.n20000"].value > a.metrics["work_ratio_milli.n200"].value,
            "work ratio must grow with corpus size"
        );
        assert!(
            a.metrics["work_ratio_milli.n20000"].value > 100_000,
            "index must save >=100x tuple visits at n=20000"
        );
    }
}

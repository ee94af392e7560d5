//! Result rendering — the paper's user-facing output.
//!
//! Section 4.1 says the QueryID exists partly "for collecting all the
//! results of a web-query in a single file", and Figure 8 shows that file
//! in a browser: a heading naming the query and user, then one table per
//! stage. [`render_html`] reproduces that shape (it is what the
//! `fig8_campus_results` harness verifies textually), and
//! [`render_text`] produces the same content for terminals.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use webdis_disql::WebQuery;
use webdis_model::Url;
use webdis_net::QueryId;
use webdis_rel::ResultRow;

/// Everything the renderers need, borrowed from a finished query.
pub struct ResultsView<'a> {
    /// The query's identity (for the heading).
    pub id: &'a QueryId,
    /// The parsed query (for per-stage column headers).
    pub query: &'a WebQuery,
    /// Rows per global stage.
    pub results: &'a BTreeMap<u32, Vec<(Url, ResultRow)>>,
}

impl<'a> ResultsView<'a> {
    /// A view over a finished [`UserSite`](crate::UserSite).
    pub fn of(user: &'a crate::UserSite) -> ResultsView<'a> {
        ResultsView {
            id: &user.id,
            query: user.query(),
            results: &user.results,
        }
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

/// Renders the single-file HTML results page (Figure 8's shape).
pub fn render_html(view: &ResultsView<'_>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "<html>");
    let _ = writeln!(
        out,
        "<head><title>Results of query {} by user {}</title></head>",
        view.id.query_num,
        escape(&view.id.user)
    );
    let _ = writeln!(out, "<body>");
    let _ = writeln!(
        out,
        "<h1>Results of the query {} by user {}</h1>",
        view.id.query_num,
        escape(&view.id.user)
    );
    for (stage, rows) in view.results {
        let headers = view.query.stage_headers(*stage as usize);
        let _ = writeln!(out, "<h2>q{}</h2>", stage + 1);
        let _ = writeln!(out, "<table border=\"1\">");
        let _ = write!(out, "<tr><th>node</th>");
        for h in &headers {
            let _ = write!(out, "<th>{}</th>", escape(h));
        }
        let _ = writeln!(out, "</tr>");
        for (node, row) in rows {
            let _ = write!(out, "<tr><td>{}</td>", escape(&node.to_string()));
            for v in &row.values {
                let _ = write!(out, "<td>{}</td>", escape(&v.render()));
            }
            let _ = writeln!(out, "</tr>");
        }
        let _ = writeln!(out, "</table>");
    }
    let _ = writeln!(out, "</body>\n</html>");
    out
}

/// Renders the same content as aligned plain text.
pub fn render_text(view: &ResultsView<'_>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Results of query #{} by user {}",
        view.id.query_num, view.id.user
    );
    for (stage, rows) in view.results {
        let headers = view.query.stage_headers(*stage as usize);
        let _ = writeln!(out, "\nq{}: {}", stage + 1, headers.join(" | "));
        for (node, row) in rows {
            let _ = writeln!(out, "  [{node}] {row}");
        }
        if rows.is_empty() {
            let _ = writeln!(out, "  (no rows)");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_query_sim, Deployment, EngineConfig, UserSite};
    use std::sync::Arc;
    use webdis_sim::SimConfig;
    use webdis_web::figures;

    fn with_finished_user<R>(f: impl FnOnce(&UserSite) -> R) -> R {
        let query = webdis_disql::parse_disql(figures::CAMPUS_QUERY).unwrap();
        let deployment = Deployment::new(Arc::new(figures::campus()), EngineConfig::default());
        let mut net = deployment.sim_with_client(SimConfig::default(), vec![query]);
        net.start(&crate::simrun::user_addr());
        net.run();
        f(crate::simrun::client_of(&mut net)
            .query(1)
            .expect("query submitted"))
    }

    #[test]
    fn html_report_has_figure8_shape() {
        let html = with_finished_user(|user| render_html(&ResultsView::of(user)));
        assert!(html.contains("Results of the query 1 by user webdis"));
        assert!(html.contains("<h2>q1</h2>") && html.contains("<h2>q2</h2>"));
        for (url, title, convener) in figures::CAMPUS_EXPECTED {
            assert!(html.contains(url), "missing {url}");
            assert!(html.contains(title), "missing {title}");
            assert!(html.contains(convener), "missing {convener}");
        }
        // Headers come from the split select list.
        assert!(html.contains("<th>d0.url</th>"));
        assert!(html.contains("<th>r.text</th>"));
        // The page itself parses with our own HTML parser, naturally.
        let parsed = webdis_html::parse_html(&html);
        assert!(parsed.title().contains("Results of query 1"));
    }

    #[test]
    fn text_report_lists_all_rows() {
        let text = with_finished_user(|user| render_text(&ResultsView::of(user)));
        assert!(text.contains("q1: d0.url"));
        assert!(text.contains("q2: d1.url | d1.title | r.text"));
        assert!(text.contains("Jayant Haritsa"));
    }

    #[test]
    fn escaping_is_applied() {
        let outcome = run_query_sim(
            Arc::new(figures::campus()),
            figures::CAMPUS_QUERY,
            EngineConfig::default(),
            SimConfig::default(),
        )
        .unwrap();
        // Synthetic check of the escaper itself.
        assert_eq!(escape("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
        assert!(outcome.complete);
    }

    /// A view built straight from adversarial parts, bypassing the
    /// engine: the renderer must escape whatever reaches it.
    fn adversarial_view<R>(
        user: &str,
        rows: Vec<(Url, ResultRow)>,
        f: impl FnOnce(&ResultsView<'_>) -> R,
    ) -> R {
        let id = QueryId {
            user: user.into(),
            host: "user.test".into(),
            port: 9900,
            query_num: 7,
        };
        let query = webdis_disql::parse_disql(
            r#"select d.url, d.title from document d such that "http://a.test/" L* d"#,
        )
        .unwrap();
        let mut results = BTreeMap::new();
        results.insert(0, rows);
        f(&ResultsView {
            id: &id,
            query: &query,
            results: &results,
        })
    }

    #[test]
    fn html_report_neutralizes_markup_in_user_and_values() {
        use webdis_rel::Value;
        let rows = vec![(
            Url::parse("http://a.test/p?x=1&y=2").unwrap(),
            ResultRow {
                values: vec![
                    Value::Str("<script>alert('xss')</script>".into()),
                    Value::Str("He said \"no\" & left".into()),
                ],
            },
        )];
        let html = adversarial_view("<b>mallory</b>", rows, render_html);
        // No raw markup from any injected fragment survives.
        assert!(!html.contains("<script>"), "{html}");
        assert!(!html.contains("<b>mallory</b>"), "{html}");
        assert!(
            html.contains("&lt;script&gt;alert('xss')&lt;/script&gt;"),
            "{html}"
        );
        assert!(html.contains("&lt;b&gt;mallory&lt;/b&gt;"), "{html}");
        assert!(html.contains("He said &quot;no&quot; &amp; left"), "{html}");
        // URL query strings get their ampersands escaped too.
        assert!(html.contains("http://a.test/p?x=1&amp;y=2"), "{html}");
        // The page still parses as HTML with exactly one table.
        assert_eq!(html.matches("<table").count(), 1);
        let parsed = webdis_html::parse_html(&html);
        assert!(parsed.title().contains("query 7"));
    }

    #[test]
    fn reports_render_empty_result_stages() {
        let html = adversarial_view("webdis", Vec::new(), render_html);
        // An empty stage still renders its heading and header row.
        assert!(html.contains("<h2>q1</h2>"), "{html}");
        assert!(html.contains("<th>d.url</th>"), "{html}");
        assert_eq!(html.matches("<tr>").count(), 1, "header row only: {html}");

        let text = adversarial_view("webdis", Vec::new(), render_text);
        assert!(text.contains("(no rows)"), "{text}");
    }
}

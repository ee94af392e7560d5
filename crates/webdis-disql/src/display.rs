//! Rendering a [`WebQuery`] back to DISQL text, and the `explain` plan
//! view.
//!
//! [`to_disql`] inverts the parser (up to whitespace and redundant
//! parentheses): parsing its output yields an equal `WebQuery`, which is
//! property-tested. The paper's GUI (Figure 6) generates query text the
//! same way; the CLI's `--explain`-style output comes from [`explain`].

use std::fmt::Write as _;

use webdis_rel::RelKind;

use crate::ast::WebQuery;

/// Renders the query as parseable DISQL text.
pub fn to_disql(query: &WebQuery) -> String {
    let mut out = String::new();

    // The unified select clause, in stage order.
    let mut select_items = Vec::new();
    for stage in query.stages.iter() {
        for (var, attr) in &stage.query.select {
            select_items.push(format!("{var}.{attr}"));
        }
    }
    let _ = writeln!(out, "select {}", select_items.join(", "));

    let _ = write!(out, "from ");
    let mut prev_doc_var: Option<&str> = None;
    for (i, stage) in query.stages.iter().enumerate() {
        if i > 0 {
            let _ = write!(out, "     ");
        }
        // Source: StartNodes for the first stage, previous variable after.
        let source = match prev_doc_var {
            None => query
                .start_nodes
                .iter()
                .map(|u| format!("{u:?}", u = u.to_string()))
                .collect::<Vec<_>>()
                .join(", "),
            Some(var) => var.to_owned(),
        };
        let _ = writeln!(
            out,
            "document {} such that {} {} {},",
            stage.doc_var, source, stage.pre, stage.doc_var
        );
        for decl in &stage.query.vars {
            if decl.kind == RelKind::Document {
                continue;
            }
            let _ = write!(out, "     {} {}", decl.kind.keyword(), decl.name);
            if let Some(cond) = &decl.cond {
                let _ = write!(out, " such that {cond}");
            }
            let _ = writeln!(out, ",");
        }
        if let Some(w) = &stage.query.where_cond {
            let _ = writeln!(out, "     where {w}");
        }
        prev_doc_var = Some(&stage.doc_var);
    }
    out
}

/// Renders an execution-plan view: the formal query, and per stage the
/// traversal PRE (with its first-set and null-link flag) and the local
/// node-query.
pub fn explain(query: &WebQuery) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "formal: {query}");
    let _ = writeln!(out, "start nodes ({}):", query.start_nodes.len());
    for s in &query.start_nodes {
        let _ = writeln!(out, "  {s}");
    }
    for (i, stage) in query.stages.iter().enumerate() {
        let _ = writeln!(
            out,
            "stage q{} (document variable {}):",
            i + 1,
            stage.doc_var
        );
        let first: Vec<String> = stage
            .pre
            .first()
            .iter()
            .map(|t| t.symbol().to_owned())
            .collect();
        let _ = writeln!(
            out,
            "  traverse: {}  (follow links: {}; evaluate at start: {})",
            stage.pre,
            if first.is_empty() {
                "-".to_owned()
            } else {
                first.join(",")
            },
            if stage.pre.nullable() { "yes" } else { "no" },
        );
        let vars: Vec<String> = stage
            .query
            .vars
            .iter()
            .map(|d| format!("{} {}", d.kind.keyword(), d.name))
            .collect();
        let _ = writeln!(out, "  relations: {}", vars.join(", "));
        for decl in &stage.query.vars {
            if let Some(c) = &decl.cond {
                let _ = writeln!(out, "  such that [{}]: {}", decl.name, c);
            }
        }
        if let Some(w) = &stage.query.where_cond {
            let _ = writeln!(out, "  where: {w}");
        }
        let _ = writeln!(out, "  select: {}", stage.query.headers().join(", "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_disql;

    const EXAMPLE_2: &str = r#"
        select d0.url, d1.url, r.text
        from document d0 such that "http://csa.iisc.ernet.in" L d0,
        where d0.title contains "lab"
             document d1 such that d0 G·(L*1) d1,
             relinfon r such that r.delimiter = "hr",
        where r.text contains "convener"
    "#;

    #[test]
    fn to_disql_round_trips_example_2() {
        let q = parse_disql(EXAMPLE_2).unwrap();
        let text = to_disql(&q);
        let back =
            parse_disql(&text).unwrap_or_else(|e| panic!("rendered DISQL must parse: {e}\n{text}"));
        assert_eq!(back, q, "round trip must preserve the query\n{text}");
    }

    #[test]
    fn to_disql_round_trips_multi_start() {
        let q = parse_disql(
            r#"select d.url, a.href
               from document d such that "http://a.test/", "http://b.test/" (L|G)* d,
                    anchor a such that a.ltype = "G",
               where d.length > 100 and not d.title contains "x""#,
        )
        .unwrap();
        let text = to_disql(&q);
        assert_eq!(parse_disql(&text).unwrap(), q, "\n{text}");
    }

    #[test]
    fn explain_mentions_everything() {
        let q = parse_disql(EXAMPLE_2).unwrap();
        let plan = explain(&q);
        assert!(plan.contains("formal: Q = {http://csa.iisc.ernet.in/} L q1 G·L*1 q2"));
        assert!(plan.contains("stage q1"));
        assert!(plan.contains("stage q2"));
        assert!(plan.contains("follow links: G"), "{plan}");
        assert!(plan.contains("evaluate at start: no"));
        assert!(plan.contains("such that [r]"));
        assert!(plan.contains("select: d1.url, r.text"));
    }
}

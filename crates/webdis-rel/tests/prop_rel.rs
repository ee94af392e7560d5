//! Property tests for node-query evaluation: the evaluator must satisfy
//! the boolean algebra of selection — conjunction intersects, disjunction
//! unites, negation complements — on arbitrary generated documents, and
//! results must always be drawn from the cross product of the declared
//! relations. The relations themselves, formed a column at a time on first
//! read, must be the tuples the eager Database Constructor built from the
//! reference parse, whatever order the columns and their indexes are first
//! touched in.

use proptest::prelude::*;
use webdis_html::parse_html;
use webdis_model::Url;
use webdis_rel::{eval_node_query, CmpOp, Expr, NodeDb, NodeQuery, RelKind, VarDecl};

mod eager;

/// A small random document: title words, body words, links.
#[derive(Debug, Clone)]
struct DocSpec {
    title: Vec<String>,
    body: Vec<String>,
    hrefs: Vec<String>,
}

fn word() -> impl Strategy<Value = String> {
    // Small vocabulary so predicates actually match sometimes.
    prop_oneof![
        Just("alpha".to_owned()),
        Just("bravo".to_owned()),
        Just("charlie".to_owned()),
        Just("delta".to_owned()),
        Just("needle".to_owned()),
    ]
}

fn doc_spec() -> impl Strategy<Value = DocSpec> {
    (
        prop::collection::vec(word(), 1..4),
        prop::collection::vec(word(), 0..8),
        prop::collection::vec("[a-z]{1,6}\\.html", 0..5),
    )
        .prop_map(|(title, body, hrefs)| DocSpec { title, body, hrefs })
}

fn build_db(spec: &DocSpec) -> NodeDb {
    let mut html = format!(
        "<html><head><title>{}</title></head><body>",
        spec.title.join(" ")
    );
    html.push_str("<p>");
    html.push_str(&spec.body.join(" "));
    html.push_str("</p><hr>");
    for (i, href) in spec.hrefs.iter().enumerate() {
        html.push_str(&format!("<a href=\"{href}\">link {i}</a>"));
    }
    html.push_str("</body></html>");
    NodeDb::build(
        &Url::parse("http://prop.test/doc.html").unwrap(),
        &parse_html(&html),
    )
}

/// A random single-variable predicate over document/anchor attributes.
fn predicate(var: &'static str, kind: RelKind) -> impl Strategy<Value = Expr> {
    let attr = move |a: &str| Expr::Attr {
        var: var.into(),
        attr: a.into(),
    };
    match kind {
        RelKind::Document => prop_oneof![
            word().prop_map(move |w| Expr::Contains(
                Box::new(Expr::Attr {
                    var: var.into(),
                    attr: "title".into()
                }),
                Box::new(Expr::StrLit(w)),
            )),
            word().prop_map(move |w| Expr::Contains(
                Box::new(Expr::Attr {
                    var: var.into(),
                    attr: "text".into()
                }),
                Box::new(Expr::StrLit(w)),
            )),
            (0i64..400).prop_map(move |n| Expr::Cmp(
                CmpOp::Gt,
                Box::new(Expr::Attr {
                    var: var.into(),
                    attr: "length".into()
                }),
                Box::new(Expr::IntLit(n)),
            )),
        ]
        .boxed(),
        _ => prop_oneof![
            Just(Expr::Cmp(
                CmpOp::Eq,
                Box::new(attr("ltype")),
                Box::new(Expr::StrLit("L".into())),
            )),
            word().prop_map(move |w| Expr::Contains(
                Box::new(Expr::Attr {
                    var: var.into(),
                    attr: "label".into()
                }),
                Box::new(Expr::StrLit(w)),
            )),
        ]
        .boxed(),
    }
}

fn base_query(where_cond: Option<Expr>) -> NodeQuery {
    NodeQuery {
        vars: vec![
            VarDecl {
                name: "d".into(),
                kind: RelKind::Document,
                cond: None,
            },
            VarDecl {
                name: "a".into(),
                kind: RelKind::Anchor,
                cond: None,
            },
        ],
        where_cond,
        select: vec![
            ("d".into(), "url".into()),
            ("a".into(), "href".into()),
            ("a".into(), "label".into()),
        ],
    }
}

fn rows_of(db: &NodeDb, cond: Option<Expr>) -> Vec<Vec<String>> {
    eval_node_query(db, &base_query(cond))
        .expect("valid query evaluates")
        .into_iter()
        .map(|r| r.values.iter().map(|v| v.render()).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Selection soundness: predicated results are a sub-multiset of the
    /// unpredicated cross product.
    #[test]
    fn selection_is_subset(spec in doc_spec(), p in predicate("d", RelKind::Document)) {
        let db = build_db(&spec);
        let all = rows_of(&db, None);
        let some = rows_of(&db, Some(p));
        prop_assert!(some.len() <= all.len());
        for row in &some {
            prop_assert!(all.contains(row));
        }
    }

    /// AND = intersection (as multisets over the cross product).
    #[test]
    fn conjunction_intersects(
        spec in doc_spec(),
        p in predicate("d", RelKind::Document),
        q in predicate("a", RelKind::Anchor),
    ) {
        let db = build_db(&spec);
        let both = rows_of(&db, Some(Expr::And(Box::new(p.clone()), Box::new(q.clone()))));
        let only_p = rows_of(&db, Some(p));
        let only_q = rows_of(&db, Some(q));
        for row in &both {
            prop_assert!(only_p.contains(row) && only_q.contains(row));
        }
        let expected: Vec<_> = only_p.iter().filter(|r| only_q.contains(r)).cloned().collect();
        prop_assert_eq!(both, expected);
    }

    /// OR = union; NOT = complement within the cross product.
    #[test]
    fn disjunction_and_negation(
        spec in doc_spec(),
        p in predicate("d", RelKind::Document),
        q in predicate("a", RelKind::Anchor),
    ) {
        let db = build_db(&spec);
        let all = rows_of(&db, None);
        let either = rows_of(&db, Some(Expr::Or(Box::new(p.clone()), Box::new(q.clone()))));
        let only_p = rows_of(&db, Some(p.clone()));
        let only_q = rows_of(&db, Some(q));
        for row in &either {
            prop_assert!(only_p.contains(row) || only_q.contains(row));
        }
        prop_assert!(either.len() <= all.len());

        let not_p = rows_of(&db, Some(Expr::Not(Box::new(p))));
        prop_assert_eq!(not_p.len() + only_p.len(), all.len());
        for row in &not_p {
            prop_assert!(!only_p.contains(row), "row in both P and NOT P");
        }
    }

    /// Tautologies and contradictions: `P OR NOT P` selects everything,
    /// `P AND NOT P` selects nothing.
    #[test]
    fn excluded_middle(spec in doc_spec(), p in predicate("d", RelKind::Document)) {
        let db = build_db(&spec);
        let all = rows_of(&db, None);
        let taut = rows_of(
            &db,
            Some(Expr::Or(Box::new(p.clone()), Box::new(Expr::Not(Box::new(p.clone()))))),
        );
        prop_assert_eq!(&taut, &all);
        let contra = rows_of(
            &db,
            Some(Expr::And(Box::new(p.clone()), Box::new(Expr::Not(Box::new(p))))),
        );
        prop_assert!(contra.is_empty());
    }

    /// Cross-product arity: without predicates, |rows| = |document| × |anchor|,
    /// and every anchor href appears exactly once per document tuple.
    #[test]
    fn cross_product_shape(spec in doc_spec()) {
        let db = build_db(&spec);
        let all = rows_of(&db, None);
        prop_assert_eq!(all.len(), db.rows(RelKind::Anchor));
        // The select list projects (d.url, a.href, a.label).
        for row in &all {
            prop_assert_eq!(row[0].as_str(), "http://prop.test/doc.html");
        }
    }

    /// Per-variable `such that` conditions behave exactly like the same
    /// condition in the where clause.
    #[test]
    fn such_that_equals_where(spec in doc_spec(), q in predicate("a", RelKind::Anchor)) {
        let db = build_db(&spec);
        let via_where = rows_of(&db, Some(q.clone()));
        let mut query = base_query(None);
        query.vars[1].cond = Some(q);
        let via_such_that: Vec<Vec<String>> = eval_node_query(&db, &query)
            .unwrap()
            .into_iter()
            .map(|r| r.values.iter().map(|v| v.render()).collect())
            .collect();
        prop_assert_eq!(via_where, via_such_that);
    }

    /// A document of anything the parser accepts — unbalanced and
    /// upper-case tags, entities, every kind of href — behind a database
    /// whose twelve columns and nine indexes are first touched in a random
    /// order: each column, once formed, is value for value what the eager
    /// build over the reference parse made, and the links are its links.
    #[test]
    fn lazily_formed_columns_equal_the_eager_build(
        picks in prop::collection::vec(0..FRAGMENTS.len(), 0..40),
        keys in prop::collection::vec(0u32..1000, eager::TOUCHES.len()),
    ) {
        let html: String = picks.into_iter().map(|i| FRAGMENTS[i]).collect();
        let url = Url::parse("http://prop.test/dir/doc.html#frag").unwrap();
        let want = eager::eager(&url, &html);
        let parsed = NodeDb::parse(&url, html.as_str());
        let copied = NodeDb::build(&url, &parse_html(&html));
        for db in [parsed, copied] {
            prop_assert!(db.built_columns().is_empty());
            let compared = eager::touch_and_compare(&db, &eager::touch_order(&keys), &want);
            prop_assert!(compared.is_ok(), "{}\non {html:?}", compared.unwrap_err());
            prop_assert_eq!(db.built_columns(), eager::all_columns());
        }
    }
}

/// What the differential documents are made of.
#[rustfmt::skip]
const FRAGMENTS: &[&str] = &[
    "<title>", "</TITLE>", "<p>", "</p>", "<B>", "</b>", "<i>", "</I>", "<h1>", "</h1>", "<hr>",
    "<BR>", "<td>", "</table>", "<a href=\"b.html\">", "<A HREF='/c'>",
    "<a href=http://other/x>", "<a href=\"#top\">", "<a href=\"mailto:x@y\">",
    "<a href=\"a&amp;b\">", "<a name=n>", "</a>", "</A>", "alpha", "Bravo", " ", "\n", "&nbsp;",
    "&amp;", "&#32;", "\u{a0}", "\u{2003}", "é", "<script>", "</SCRIPT>", "<!--", "-->", "<",
    ">", "needle",
];

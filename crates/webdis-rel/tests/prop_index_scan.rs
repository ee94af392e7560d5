//! Property tests for the index-backed planner: on arbitrary generated
//! documents and arbitrary query shapes, [`eval_node_query`] (planner:
//! index probes + residual filter) must return *exactly* the rows of
//! [`eval_node_query_scan`] (the fixed nested-loop scan), in the same
//! order — including the shapes that force scan fallback (non-indexable
//! needles, numeric-looking equality literals, unindexed columns,
//! cross-variable conditions) and the shapes where a probe yields empty
//! postings. A database builds a column's index on that column's second
//! ask, so the same must hold for every *sequence* of queries against
//! one database — whichever columns earlier queries asked for and built —
//! for a clone of a partly-indexed database, and for threads sharing one;
//! what such a history changes is only how little an execution visits. The
//! columns under those indexes are formed on first read too: whatever a
//! query sequence or a pair of racing threads leaves formed must be, column
//! by column, the tuples the eager build over the reference parse made.

use std::sync::{Arc, Barrier};

use proptest::prelude::*;
use webdis_html::parse_html;
use webdis_model::Url;
use webdis_rel::{
    eval_node_query_scan_with_stats, eval_node_query_with_stats, CmpOp, Expr, NodeDb, NodeQuery,
    RelKind, VarDecl,
};

mod eager;

fn prop_url() -> Url {
    Url::parse("http://prop.test/doc.html").unwrap()
}

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
        Just("needle".to_owned()),
        Just("café".to_owned()), // tokens "caf" only: "é" separates
    ]
}

fn doc_spec() -> impl Strategy<Value = DocSpec> {
    (
        prop::collection::vec(word(), 1..4),
        prop::collection::vec(word(), 0..8),
        prop::collection::vec(
            prop_oneof![Just("a.html"), Just("b.html"), Just("c.html")],
            0..6,
        ),
    )
        .prop_map(|(title, body, hrefs)| DocSpec {
            title,
            body,
            hrefs: hrefs.into_iter().map(str::to_owned).collect(),
        })
}

fn html_of(spec: &DocSpec) -> String {
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
    html
}

fn build_db(spec: &DocSpec) -> NodeDb {
    NodeDb::build(&prop_url(), &parse_html(&html_of(spec)))
}

fn attr(var: &str, a: &str) -> Expr {
    Expr::Attr {
        var: var.into(),
        attr: a.into(),
    }
}

/// A random predicate over one variable, spanning every planner path:
/// indexable contains, *non*-indexable contains (spaces / punctuation /
/// empty needles), hash-eligible equality, numeric-looking equality
/// (probe-excluded by the coercion guard), unindexed-column predicates,
/// and ordered comparisons (always residual).
fn predicate(var: &'static str, kind: RelKind) -> impl Strategy<Value = Expr> {
    let text_attr: &'static str = match kind {
        RelKind::Document => "title",
        _ => "label",
    };
    let needles = prop_oneof![
        word(),                               // indexable, often present
        Just("zulu".to_owned()),              // indexable, never present → empty postings
        Just("link 1".to_owned()),            // space → not indexable → fallback
        Just("a.html".to_owned()),            // dot → not indexable → fallback
        Just(String::new()),                  // empty → not indexable → fallback
        Just("NEEDLE".to_owned()),            // case-folding path
        Just("caf".to_owned()),               // indexable, ends where "é" begins
        Just("FÉ".to_owned()),                // non-ASCII → not indexable → fallback
        Just("alphabravocharlie".to_owned()), // longer than any token
    ];
    let eq_lits = prop_oneof![
        Just("a.html".to_owned()), // hash probe (href) / residual elsewhere
        Just("b.html".to_owned()),
        Just("L".to_owned()),  // ltype probe
        Just("42".to_owned()), // numeric-looking → probe-excluded
        Just("link 0".to_owned()),
    ];
    prop_oneof![
        needles.prop_map(move |w| Expr::Contains(
            Box::new(attr(var, text_attr)),
            Box::new(Expr::StrLit(w)),
        )),
        eq_lits.clone().prop_map(move |w| {
            let a = match kind {
                RelKind::Document => "url",
                _ => "href",
            };
            Expr::Cmp(CmpOp::Eq, Box::new(attr(var, a)), Box::new(Expr::StrLit(w)))
        }),
        // Equality on an *unindexed* column (label/text) — always residual.
        eq_lits.prop_map(move |w| {
            let a = match kind {
                RelKind::Document => "text",
                _ => "label",
            };
            Expr::Cmp(CmpOp::Eq, Box::new(attr(var, a)), Box::new(Expr::StrLit(w)))
        }),
        // `contains` over the integer column — residual, matched against
        // the rendered number.
        (0i64..10).prop_map(move |n| {
            let a = match kind {
                RelKind::Document => "length",
                _ => "ltype",
            };
            Expr::Contains(Box::new(attr(var, a)), Box::new(Expr::IntLit(n)))
        }),
        // Ordered comparison on the numeric column — residual by design.
        (0i64..400).prop_map(move |n| {
            let a = match kind {
                RelKind::Document => "length",
                _ => "ltype",
            };
            if a == "length" {
                Expr::Cmp(CmpOp::Gt, Box::new(attr(var, a)), Box::new(Expr::IntLit(n)))
            } else {
                Expr::Cmp(
                    CmpOp::Ne,
                    Box::new(attr(var, a)),
                    Box::new(Expr::StrLit("G".into())),
                )
            }
        }),
    ]
}

/// A random boolean shape over the two per-variable predicates plus an
/// optional cross-variable conjunct (which can never be probed).
fn condition() -> impl Strategy<Value = Expr> {
    (
        predicate("d", RelKind::Document),
        predicate("a", RelKind::Anchor),
        prop_oneof![Just(0u8), Just(1), Just(2), Just(3)],
    )
        .prop_map(|(p, q, shape)| match shape {
            0 => Expr::And(Box::new(p), Box::new(q)),
            1 => Expr::Or(Box::new(p), Box::new(q)),
            2 => Expr::And(Box::new(p), Box::new(Expr::Not(Box::new(q)))),
            // Cross-variable: label-vs-title containment, plus a probe-able
            // conjunct so mixed probe+residual levels get exercised.
            _ => Expr::And(
                Box::new(Expr::Contains(
                    Box::new(attr("d", "title")),
                    Box::new(attr("a", "label")),
                )),
                Box::new(q),
            ),
        })
}

/// Where to put the generated condition: the where clause, a `such that`
/// on the anchor declaration, or a `such that` on the *document*
/// declaration even when the condition also mentions the anchor (the
/// eval_level bugfix path: applied once all variables are bound).
fn placement() -> impl Strategy<Value = u8> {
    prop_oneof![Just(0u8), Just(1), Just(2)]
}

/// No DOCUMENT column is among `db`'s built indexes.
fn no_document_index(db: &NodeDb) -> bool {
    db.built_indexes()
        .iter()
        .all(|(kind, _)| *kind != RelKind::Document)
}

fn query_with(cond: Expr, place: u8) -> NodeQuery {
    let mut q = NodeQuery {
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
        where_cond: None,
        select: vec![
            ("d".into(), "url".into()),
            ("a".into(), "href".into()),
            ("a".into(), "label".into()),
            ("a".into(), "ltype".into()),
        ],
    };
    match place {
        0 => q.where_cond = Some(cond),
        1 => q.vars[1].cond = Some(cond),
        _ => q.vars[0].cond = Some(cond),
    }
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The planner and the fixed scan agree exactly — same rows, same
    /// order — for every corpus × condition × placement, and the work
    /// counters certify the probe never inspects more tuples than the
    /// scan enumerates.
    #[test]
    fn indexed_eval_equals_scan(
        spec in doc_spec(),
        cond in condition(),
        place in placement(),
    ) {
        let db = build_db(&spec);
        let query = query_with(cond, place);
        let (scan_rows, scan_stats) =
            eval_node_query_scan_with_stats(&db, &query).expect("scan evaluates");
        let (probe_rows, probe_stats) =
            eval_node_query_with_stats(&db, &query).expect("planner evaluates");
        prop_assert_eq!(&probe_rows, &scan_rows, "planner must match the scan");
        prop_assert!(!scan_stats.used_index);
        prop_assert!(
            no_document_index(&db),
            "DOCUMENT's one tuple is scanned, never indexed: {:?}",
            db.built_indexes()
        );
        prop_assert!(
            probe_stats.tuples_visited <= scan_stats.tuples_visited,
            "index may never enumerate more tuples ({} > {})",
            probe_stats.tuples_visited,
            scan_stats.tuples_visited
        );
        if probe_stats.used_index {
            prop_assert!(probe_stats.probed_levels > 0);
        } else {
            prop_assert_eq!(probe_stats.probed_levels, 0);
        }
    }

    /// One database, a sequence of queries: each query meets whatever
    /// columns its predecessors asked for and built (none, some, its own
    /// already), and must answer — rows and order — exactly as on a
    /// database nobody has probed, which in turn matches the scan, visiting
    /// no more tuples than there. A clone taken mid-sequence carries what
    /// was asked and built so far and answers the rest alike.
    #[test]
    fn any_query_sequence_on_one_database_equals_scan(
        spec in doc_spec(),
        queries in prop::collection::vec((condition(), placement()), 1..7),
        clone_at in 0usize..6,
    ) {
        let shared = build_db(&spec);
        let mut copy = None;
        let mut built = 0;
        for (i, (cond, place)) in queries.into_iter().enumerate() {
            if i == clone_at {
                copy = Some(shared.clone());
            }
            let query = query_with(cond, place);
            let (scan_rows, _) =
                eval_node_query_scan_with_stats(&shared, &query).expect("scan evaluates");
            let fresh = eval_node_query_with_stats(&build_db(&spec), &query)
                .expect("planner evaluates on an unprobed database");
            let warm = eval_node_query_with_stats(&shared, &query)
                .expect("planner evaluates on a probed database");
            prop_assert_eq!(&fresh.0, &scan_rows, "unprobed database must match the scan");
            prop_assert_eq!(&warm.0, &fresh.0, "earlier queries' indexes must not show");
            prop_assert!(warm.1.tuples_visited <= fresh.1.tuples_visited);
            if let Some(copy) = &copy {
                let cloned = eval_node_query_with_stats(copy, &query)
                    .expect("planner evaluates on a clone");
                prop_assert_eq!(&cloned.0, &fresh.0, "a clone must answer identically");
                prop_assert!(cloned.1.tuples_visited <= fresh.1.tuples_visited);
            }
            // Indexes are only ever added, only by probing plans, and
            // never over DOCUMENT.
            prop_assert!(no_document_index(&shared), "{:?}", shared.built_indexes());
            let now = shared.built_indexes().len();
            prop_assert!(now >= built);
            prop_assert!(now == built || warm.1.used_index);
            built = now;
        }
        // Whatever the sequence left formed is what an eager build holds.
        let want = eager::eager(&prop_url(), &html_of(&spec));
        for db in std::iter::once(&shared).chain(&copy) {
            let formed = eager::formed_as_eager(db, &want);
            prop_assert!(formed.is_ok(), "{}", formed.unwrap_err());
        }
    }

    /// Single-variable probes across both relations: equality and
    /// containment alone, where the planner is most likely to go pure
    /// index, must still match the scan bit-for-bit.
    #[test]
    fn single_predicate_matches_scan(
        spec in doc_spec(),
        p in predicate("a", RelKind::Anchor),
        place in placement(),
    ) {
        let db = build_db(&spec);
        let query = query_with(p, place.min(1)); // where or anchor such-that
        let (scan_rows, _) =
            eval_node_query_scan_with_stats(&db, &query).expect("scan evaluates");
        let (probe_rows, _) =
            eval_node_query_with_stats(&db, &query).expect("planner evaluates");
        prop_assert_eq!(probe_rows, scan_rows);
    }
}

/// Two threads released together onto one unprobed `Arc<NodeDb>`: both
/// ask for the same columns at once, the second ask of each builds its
/// index, and both read the rows a database of their own would give.
#[test]
fn threads_sharing_one_database_get_identical_rows() {
    let spec = DocSpec {
        title: vec!["alpha".into(), "needle".into()],
        body: (0..400).map(|i| format!("word{} needle", i % 37)).collect(),
        hrefs: (0..200)
            .map(|i| ["a.html", "b.html", "c.html"][i % 3].to_owned())
            .collect(),
    };
    let contains =
        |var, a, w: &str| Expr::Contains(Box::new(attr(var, a)), Box::new(Expr::StrLit(w.into())));
    let queries = [
        query_with(contains("d", "text", "needle"), 0),
        query_with(contains("a", "label", "7"), 1),
        query_with(
            Expr::And(
                Box::new(contains("d", "title", "ALPHA")),
                Box::new(Expr::Cmp(
                    CmpOp::Eq,
                    Box::new(attr("a", "href")),
                    Box::new(Expr::StrLit("http://prop.test/b.html".into())),
                )),
            ),
            0,
        ),
    ];
    for round in 0..8 {
        let shared = Arc::new(build_db(&spec));
        let barrier = Barrier::new(2);
        let answer = |db: &NodeDb| -> Vec<_> {
            queries
                .iter()
                .map(|q| eval_node_query_with_stats(db, q).expect("planner evaluates"))
                .collect()
        };
        let (one, two) = std::thread::scope(|s| {
            let run = || {
                barrier.wait();
                answer(&shared)
            };
            let one = s.spawn(run);
            let two = s.spawn(run);
            (
                one.join().expect("first prober"),
                two.join().expect("second prober"),
            )
        });
        let rows = |answers: Vec<(Vec<_>, _)>| -> Vec<_> {
            answers.into_iter().map(|(rows, _)| rows).collect()
        };
        let alone = rows(answer(&build_db(&spec)));
        assert!(alone.iter().all(|rows| !rows.is_empty()));
        assert_eq!(rows(one), alone, "round {round}");
        assert_eq!(rows(two), alone, "round {round}");
        assert_eq!(
            shared.built_indexes(),
            [(RelKind::Anchor, "href"), (RelKind::Anchor, "label")],
            "the DOCUMENT text and title conjuncts filter its one tuple"
        );
    }
}

/// Two threads released together onto one unprobed `Arc<NodeDb>`, each
/// asking for one column once: exactly one of the asks is the column's
/// first, which scans, and the other builds the index and probes it; both
/// read the scan's rows.
#[test]
fn threads_first_asking_one_database_get_identical_rows() {
    let spec = DocSpec {
        title: vec!["alpha".into()],
        body: Vec::new(),
        hrefs: (0..200)
            .map(|i| ["a.html", "b.html", "c.html"][i % 3].to_owned())
            .collect(),
    };
    let label = Expr::Contains(
        Box::new(attr("a", "label")),
        Box::new(Expr::StrLit("7".into())),
    );
    let query = query_with(label, 1);
    let scanned = eval_node_query_scan_with_stats(&build_db(&spec), &query).unwrap();
    for round in 0..8 {
        let shared = Arc::new(build_db(&spec));
        let barrier = Barrier::new(2);
        let [one, two] = std::thread::scope(|s| {
            let run = || {
                barrier.wait();
                eval_node_query_with_stats(&shared, &query).expect("planner evaluates")
            };
            [s.spawn(run), s.spawn(run)].map(|h| h.join().expect("prober"))
        });
        assert_eq!(one.0, scanned.0, "round {round}");
        assert_eq!(two.0, scanned.0, "round {round}");
        assert!(one.1.used_index != two.1.used_index, "round {round}");
        assert_eq!(shared.built_indexes(), [(RelKind::Anchor, "label")]);
    }
}

/// Two threads released together onto one untouched `Arc<NodeDb>`, each
/// first-touching the twelve columns and six indexes in an order of its
/// own: whichever thread forms a column, both read the eager values.
#[test]
fn threads_touching_in_different_orders_form_the_eager_columns() {
    let spec = DocSpec {
        title: vec!["alpha".into(), "needle".into()],
        body: (0..200).map(|i| format!("word{}", i % 37)).collect(),
        hrefs: (0..50)
            .map(|i| ["a.html", "b.html", "c.html"][i % 3].to_owned())
            .collect(),
    };
    let html = html_of(&spec);
    let want = eager::eager(&prop_url(), &html);
    for round in 0..8u32 {
        // Two different permutations per round, different every round.
        let keys = |stride: u32| -> Vec<u32> {
            let n = eager::TOUCHES.len() as u32;
            (0..n).map(|i| (i * stride + round) % 23).collect()
        };
        let orders = [eager::touch_order(&keys(5)), eager::touch_order(&keys(7))];
        let shared = Arc::new(NodeDb::parse(&prop_url(), html.as_str()));
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            let handles = orders.each_ref().map(|order| {
                let (shared, barrier, want) = (&shared, &barrier, &want);
                s.spawn(move || {
                    barrier.wait();
                    eager::touch_and_compare(shared, order, want)
                })
            });
            for handle in handles {
                let compared = handle.join().expect("toucher");
                assert!(compared.is_ok(), "round {round}: {}", compared.unwrap_err());
            }
        });
        assert_eq!(shared.built_columns(), eager::all_columns());
        assert_eq!(shared.built_indexes().len(), 6);
    }
}

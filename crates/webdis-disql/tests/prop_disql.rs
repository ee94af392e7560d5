//! DISQL parser property tests: totality on garbage, and structural
//! round-trips on generated well-formed queries.

use proptest::prelude::*;
use webdis_disql::{parse_disql, to_disql};

/// Pieces that assemble into plausible (and implausible) query text.
fn fragment() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("select ".to_owned()),
        Just("from ".to_owned()),
        Just("where ".to_owned()),
        Just("document ".to_owned()),
        Just("anchor ".to_owned()),
        Just("relinfon ".to_owned()),
        Just("such that ".to_owned()),
        Just("contains ".to_owned()),
        Just("d.url".to_owned()),
        Just("d0".to_owned()),
        Just("\"http://a.test/\"".to_owned()),
        Just("\"needle\"".to_owned()),
        Just("L*".to_owned()),
        Just("G·(L*1)".to_owned()),
        Just(", ".to_owned()),
        Just("= ".to_owned()),
        Just("( ".to_owned()),
        Just(") ".to_owned()),
        Just("and ".to_owned()),
        "[a-z]{1,6} ".prop_map(|s| s),
    ]
}

/// A generated well-formed query, with the structural facts we expect
/// the parser to recover.
#[derive(Debug, Clone)]
struct QuerySpec {
    text: String,
    stages: usize,
    select_per_stage: Vec<usize>,
    start_nodes: usize,
}

fn query_spec() -> impl Strategy<Value = QuerySpec> {
    let pre = prop_oneof![
        Just("L*"),
        Just("(L|G)*"),
        Just("G·(L*2)"),
        Just("N|G·L*1"),
        Just("L"),
    ];
    let pre2 = prop_oneof![Just("(L|G)"), Just("G·L*1"), Just("L*2")];
    (
        1usize..4, // start nodes
        pre,
        prop::option::of(pre2), // optional second stage
        any::<bool>(),          // anchor var on stage 1?
        any::<bool>(),          // where clause on stage 1?
    )
        .prop_map(|(starts, p1, second, with_anchor, with_where)| {
            let start_list = (0..starts)
                .map(|i| format!("\"http://s{i}.test/\""))
                .collect::<Vec<_>>()
                .join(", ");
            let mut select = vec!["d0.url".to_owned(), "d0.title".to_owned()];
            let mut stage1_select = 2;
            let mut body = format!("from document d0 such that {start_list} {p1} d0,\n");
            if with_anchor {
                select.push("a.href".to_owned());
                stage1_select += 1;
                body.push_str("anchor a such that a.ltype != \"I\",\n");
            }
            if with_where {
                body.push_str("where d0.title contains \"needle\"\n");
            }
            let mut stages = 1;
            let mut select_per_stage = vec![stage1_select];
            if let Some(p2) = second {
                select.push("d1.url".to_owned());
                body.push_str(&format!("document d1 such that d0 {p2} d1\n"));
                stages += 1;
                select_per_stage.push(1);
            }
            let text = format!("select {}\n{}", select.join(", "), body);
            QuerySpec {
                text,
                stages,
                select_per_stage,
                start_nodes: starts,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary keyword soup never panics the parser — it returns a
    /// parse error or (rarely) a valid query.
    #[test]
    fn parser_is_total_on_fragments(parts in prop::collection::vec(fragment(), 0..30)) {
        let text: String = parts.concat();
        let _ = parse_disql(&text);
    }

    /// Arbitrary raw strings never panic the lexer/parser.
    #[test]
    fn parser_is_total_on_bytesoup(text in ".{0,300}") {
        let _ = parse_disql(&text);
    }

    /// Generated well-formed queries parse, and the parser recovers the
    /// intended structure: stage count, start-node count, and the split
    /// select list.
    #[test]
    fn well_formed_queries_round_trip(spec in query_spec()) {
        let q = parse_disql(&spec.text)
            .unwrap_or_else(|e| panic!("should parse: {e}\n{}", spec.text));
        prop_assert_eq!(q.stages.len(), spec.stages);
        prop_assert_eq!(q.start_nodes.len(), spec.start_nodes);
        for (i, expected) in spec.select_per_stage.iter().enumerate() {
            prop_assert_eq!(
                q.stages[i].query.select.len(),
                *expected,
                "stage {} select split",
                i
            );
        }
        // The formal rendering mentions every stage.
        let formal = q.to_string();
        for i in 1..=spec.stages {
            let marker = format!("q{i}");
            prop_assert!(formal.contains(&marker), "missing {} in {}", marker, formal);
        }
        // Re-validate each node-query (attributes resolved).
        for stage in q.stages.iter() {
            prop_assert!(stage.query.validate().is_ok());
        }
    }

    /// Parsing is deterministic: same text, same query.
    #[test]
    fn parsing_is_deterministic(spec in query_spec()) {
        let a = parse_disql(&spec.text).unwrap();
        let b = parse_disql(&spec.text).unwrap();
        prop_assert_eq!(a, b);
    }

    /// Pretty-printing inverts parsing: parse → render → parse is the
    /// identity on the AST.
    #[test]
    fn pretty_printer_round_trips(spec in query_spec()) {
        let q = parse_disql(&spec.text).unwrap();
        let rendered = to_disql(&q);
        let back = parse_disql(&rendered)
            .unwrap_or_else(|e| panic!("rendered DISQL must parse: {e}\n{rendered}"));
        prop_assert_eq!(back, q, "\n{}", rendered);
    }
}

//! What parses is what ships. `a and b and …` and PRE `·`/`|` chains
//! parse in a loop into trees as deep as they are long, and the wire
//! decoder refuses trees deeper than `webdis_pre::MAX_DEPTH`; the
//! simulator only meters a message's encoded size, so it ran what TCP
//! could not carry — a 65-term `and` chain completed under
//! `run_query_sim` and hung over TCP with "outstanding CHT state". The
//! parsers now refuse any tree deeper than the decoder accepts, and any
//! PRE with a derivative deeper than that, so no forwarded clone carries
//! one either.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use webdis::core::{run_datashipping_sim, run_query_sim, Deployment, EngineConfig};
use webdis::disql::parse_disql;
use webdis::net::{decode_message, encode_message, Message, QueryClone, QueryId};
use webdis::pre::MAX_DEPTH;
use webdis::sim::SimConfig;
use webdis::web::{figures, generate, WebGenConfig};

/// A campus query whose condition (`and`, `or`) or PRE (`·`, `|`) is a
/// chain of `n` links — a tree `n` levels deep.
fn chain(kind: &str, n: usize) -> String {
    let links =
        |link: &dyn Fn(usize) -> String, sep: &str| (1..=n).map(link).collect::<Vec<_>>().join(sep);
    let (pre, cond) = match kind {
        "·" => (links(&|_| "L*1".into(), "·"), String::new()),
        "|" => (
            format!("({})", links(&|k| format!("L*{k}"), "|")),
            String::new(),
        ),
        op => {
            let term = |_| r#"d.title contains "a""#.to_string();
            (
                "L*".into(),
                format!(" where {}", links(&term, &format!(" {op} "))),
            )
        }
    };
    format!(
        r#"select d.url from document d such that "http://www.csa.iisc.ernet.in" {pre} d{cond}"#
    )
}

const KINDS: [&str; 4] = ["and", "or", "·", "|"];

#[test]
fn the_deepest_chain_of_each_kind_ships_and_one_more_link_is_refused() {
    let web = Arc::new(figures::campus());
    let deepest = MAX_DEPTH as usize;
    for kind in KINDS {
        let query = chain(kind, deepest);
        let parsed = parse_disql(&query).unwrap();
        let clone = Message::Query(QueryClone {
            id: QueryId {
                user: "u".into(),
                host: "user.test".into(),
                port: 9,
                query_num: 1,
            },
            dest_nodes: parsed.start_nodes.clone(),
            rem_pre: parsed.stages[0].pre.clone(),
            stages: parsed.stages.clone(),
            stage_offset: 0,
            hops: 0,
            ack_host: "user.test".into(),
            ack_port: 9,
        });
        assert_eq!(decode_message(&encode_message(&clone)), Ok(clone), "{kind}");

        let cfg = EngineConfig::default;
        let sim = run_query_sim(web.clone(), &query, cfg(), SimConfig::default()).unwrap();
        let tcp = Deployment::new(web.clone(), cfg())
            .query_tcp(&query, Duration::from_secs(20), Vec::new())
            .unwrap();
        assert!(
            sim.complete && tcp.complete,
            "{kind}: {:?}",
            tcp.why_incomplete
        );
        assert!(!sim.result_set().is_empty(), "{kind}");
        assert_eq!(tcp.result_set(), sim.result_set(), "{kind}");

        let err = parse_disql(&chain(kind, deepest + 1)).unwrap_err();
        assert!(
            err.message.contains("deeper than 65 levels"),
            "{kind}: {err}"
        );
    }
}

/// The rows' nodes, by host.
fn hosts(rows: &BTreeSet<(u32, String, Vec<String>)>) -> BTreeSet<String> {
    let host = |url: &str| url.split('/').nth(2).unwrap_or_default().to_string();
    rows.iter().map(|(_, url, _)| host(url)).collect()
}

/// Parsing bounds every PRE a clone of the query can carry, not only the
/// one it starts with. A derivative can be a level deeper than its PRE —
/// `(L|G)*·r` by `G` is `(L|G)*·r|d(r)` — so a query whose derivative the
/// decoder would refuse is refused at parse, and every query that parses
/// ships whole: no branch ends early on either transport, and the rows
/// are data shipping's.
#[test]
fn a_query_with_a_derivative_too_deep_to_ship_is_refused_and_one_that_parses_ships_whole() {
    // `n` links of `G*1` after `(L|G)*`: a tree `n + 1` levels deep whose
    // derivative by `G` is a level deeper.
    let query = |n: usize| {
        format!(
            r#"select d.url from document d such that "http://dsl.serc.iisc.ernet.in/" (L|G)*·{} d"#,
            vec!["G*1"; n].join("·")
        )
    };
    let err = parse_disql(&query(MAX_DEPTH as usize - 1)).unwrap_err();
    assert!(
        err.message.contains("derivative deeper than 65 levels"),
        "{err}"
    );
    let query = query(MAX_DEPTH as usize - 2);
    let web = Arc::new(figures::campus());
    let data = run_datashipping_sim(web.clone(), &query, SimConfig::default())
        .unwrap()
        .result_set();
    assert!(hosts(&data).len() > 1, "{data:?}");
    let cfg = EngineConfig::default;
    let sim = run_query_sim(web.clone(), &query, cfg(), SimConfig::default()).unwrap();
    let tcp = Deployment::new(web, cfg())
        .query_tcp(&query, Duration::from_secs(20), Vec::new())
        .unwrap();
    assert!(sim.complete && tcp.complete, "{:?}", tcp.why_incomplete);
    assert_eq!(sim.result_set(), data);
    assert_eq!(tcp.result_set(), data);
}

/// "Reached through at least one local link". Each `L` used to stack one
/// more `|(L|G)*` onto the clone's PRE, so no clone state ever came round
/// again for the log table to recognise: 161 clones on the campus web
/// where `(L|G)*` needs 6, and data shipping never finished. With
/// alternatives deduplicated the PRE has two derivatives.
#[test]
fn at_least_one_local_link_ships_as_few_clones_as_a_plain_crawl() {
    let query = |start: &str, pre: &str| {
        format!(r#"select d.url, d.title from document d such that "{start}" {pre} d"#)
    };
    let generated = generate(&WebGenConfig {
        sites: 8,
        docs_per_site: 3,
        ..WebGenConfig::default()
    });
    let webs = [
        (figures::campus(), "http://www.csa.iisc.ernet.in"),
        (generated, "http://site0.test/doc0.html"),
    ];
    let cfg = EngineConfig::default;
    for (web, start) in webs {
        let web = Arc::new(web);
        let clones = |pre: &str| {
            let query = query(start, pre);
            let data = run_datashipping_sim(web.clone(), &query, SimConfig::default())
                .unwrap()
                .result_set();
            let sim = run_query_sim(web.clone(), &query, cfg(), SimConfig::default()).unwrap();
            let tcp = Deployment::new(web.clone(), cfg())
                .query_tcp(&query, Duration::from_secs(20), Vec::new())
                .unwrap();
            assert!(
                sim.complete && tcp.complete,
                "{start} {pre}: {:?}",
                tcp.why_incomplete
            );
            assert!(!data.is_empty(), "{start} {pre}");
            assert_eq!(sim.result_set(), data, "{start} {pre}: sim");
            assert_eq!(tcp.result_set(), data, "{start} {pre}: tcp");
            sim.sum_stat(|s| s.clones_received)
        };
        let (crawl, through_local) = (clones("(L|G)*"), clones("(L|G)*·L·(L|G)*"));
        assert!(
            through_local <= 2 * crawl,
            "{start}: {through_local} clones against {crawl}"
        );
    }
}

#[test]
fn a_chain_of_200_000_links_is_refused_without_recursion() {
    // A small stack: building or dropping a 200 000-deep tree, or
    // walking one recursively, would overflow it.
    let refused = std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(|| KINDS.map(|kind| parse_disql(&chain(kind, 200_000)).unwrap_err().message))
        .unwrap()
        .join()
        .unwrap();
    for message in refused {
        assert!(message.contains("deeper than 65 levels"), "{message}");
    }
}

/// The DISQL text of `file`'s non-test code: its `r#"select …"#`
/// literals without format placeholders.
fn queries_in(file: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(file).unwrap();
    let text = text.split("#[cfg(test)]").next().unwrap();
    let mut queries = Vec::new();
    for literal in text.split("r#\"").skip(1) {
        let literal = literal.split("\"#").next().unwrap();
        if literal.trim_start().starts_with("select") && !literal.contains('{') {
            queries.push(literal.to_string());
        }
    }
    queries
}

fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The bound refuses only what could never ship: every query the
/// product, the examples and the experiments spell out still parses.
#[test]
fn every_query_in_the_tree_still_parses() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    rust_files(&root.join("examples"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        rust_files(&krate.unwrap().path().join("src"), &mut files);
    }
    // The scanner sees the queries these files are known to spell out,
    // however many others the tree holds.
    let known = [
        (
            "crates/webdis-bench/src/experiments/t7_migration.rs",
            "select d.url, d.title",
        ),
        (
            "crates/webdis-bench/src/experiments/mod.rs",
            "\"http://site0.test/doc0.html\" L* d",
        ),
        ("examples/link_checker.rs", "select a.base, a.href"),
        (
            "examples/search_start.rs",
            "anchor a such that a.ltype = \"G\"",
        ),
    ];
    for (file, text) in known {
        let found = queries_in(&root.join(file));
        assert!(found.iter().any(|q| q.contains(text)), "{file}: {found:?}");
        assert!(files.contains(&root.join(file)), "{file} is not scanned");
    }
    let queries: Vec<String> = files.iter().flat_map(|f| queries_in(f)).collect();
    for query in &queries {
        assert!(parse_disql(query).is_ok(), "{query}");
    }
}

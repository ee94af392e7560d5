//! The axes of a run are orthogonal: what is deployed (web × how it is
//! handed over × configuration) is said once, as a [`Deployment`], and
//! the same value runs on either transport. Every combination must
//! complete and agree with the centralized data-shipping answer; and on
//! the simulator a web handed over as an `Arc<HostedWeb>` and the same
//! web as an `Arc<LiveWeb>` with an empty schedule must be
//! indistinguishable, message for message — both are one store.

use std::sync::Arc;
use std::time::Duration;

use webdis::core::{run_datashipping_sim, CompletionMode, Deployment, EngineConfig};
use webdis::sim::SimConfig;
use webdis::web::{figures, generate, HostedWeb, LiveWeb, PageBuilder, WebGenConfig, WebView};

const CRAWL: &str = r#"
    select d.url, d.title
    from document d such that "http://site0.test/doc0.html" (L|G)* d
"#;

#[test]
fn every_deployment_runs_the_same_on_both_transports() {
    let seeded = generate(&WebGenConfig {
        sites: 4,
        docs_per_site: 3,
        seed: 7,
        ..WebGenConfig::default()
    });
    let webs: [(&str, Arc<HostedWeb>, &str); 5] = [
        ("figure 1", Arc::new(figures::figure1()), figures::FIG_QUERY),
        ("campus", Arc::new(figures::campus()), figures::CAMPUS_QUERY),
        ("seeded 4x3", Arc::new(seeded), CRAWL),
        ("print-alike", Arc::new(print_alike_web()), PRINT_ALIKE),
        ("site at :8080", Arc::new(port_8080_web()), PORT_8080),
    ];
    // An ack chain orders an ack behind the report it follows only on one
    // connection; over real sockets the last acks can reach the user site
    // before a report still in flight from another daemon (17 of 300
    // campus runs at the commit before this test existed; ROADMAP item 2).
    // Completion is then early, never wrong about a row: on TCP that cell
    // promises a subset, every other cell the exact answer.
    let configs = [
        ("default", EngineConfig::default()),
        ("strict", EngineConfig::strict()),
        ("ack_chain", EngineConfig::ack_chain()),
    ];
    for (web_name, hosted, disql) in &webs {
        let reference = run_datashipping_sim(Arc::clone(hosted), disql, SimConfig::default())
            .unwrap()
            .result_set();
        assert!(!reference.is_empty(), "{web_name}: the oracle found rows");
        for (cfg_name, config) in &configs {
            let exact_on_tcp = config.completion != CompletionMode::AckChain;
            let hosted_view: WebView = Arc::clone(hosted).into();
            let living: WebView = Arc::new(LiveWeb::from_hosted(hosted)).into();
            let mut sim_traffic = Vec::new();
            for (view_name, web) in [("hosted", hosted_view), ("living", living)] {
                let case = format!("{web_name} / {view_name} / {cfg_name}");
                let deployment = Deployment::new(web, config.clone());

                let sim = deployment.query_sim(disql, SimConfig::default()).unwrap();
                assert!(sim.complete, "{case} / sim: {:?}", sim.why_incomplete);
                assert_eq!(sim.result_set(), reference, "{case} / sim");
                sim_traffic.push((sim.metrics.total.messages, sim.metrics.total.bytes));

                // Every daemon on one reactor thread, and a thread each.
                for reactors in [1, usize::MAX] {
                    let case = format!("{case} / tcp at {reactors:?} reactors");
                    let deployment = Deployment {
                        reactors,
                        ..deployment.clone()
                    };
                    let tcp = deployment
                        .query_tcp(disql, Duration::from_secs(30), Vec::new())
                        .unwrap();
                    assert!(tcp.complete, "{case}: {:?}", tcp.why_incomplete);
                    if exact_on_tcp {
                        assert_eq!(tcp.result_set(), reference, "{case}");
                    } else {
                        assert!(tcp.result_set().is_subset(&reference), "{case}");
                    }
                }
            }
            assert_eq!(
                sim_traffic[0], sim_traffic[1],
                "{web_name} / {cfg_name}: a hosted web is a living web with an empty schedule"
            );
        }
    }
}

/// Two alternatives whose derivatives reach one site in states that
/// print alike but differ in structure: `(L·L)·G` at `b.test/x` (after
/// `G`) and `L·(L·G)` at `b.test/y` (after `L·G`), both `L·L·G`. They are
/// two clones' worth of state, and the user site's CHT tells them apart.
const PRINT_ALIKE: &str = r#"
    select d.url
    from document d such that "http://a.test/" (G·((L·L)·G)|L·G·L·L·G) d
"#;

fn print_alike_web() -> HostedWeb {
    let mut web = HostedWeb::new();
    let root = PageBuilder::new("A")
        .link("http://b.test/x", "x")
        .link("/sub.html", "sub");
    web.insert_page("http://a.test/", root);
    let sub = PageBuilder::new("A sub").link("http://b.test/y", "y");
    web.insert_page("http://a.test/sub.html", sub);
    web.insert_page("http://b.test/x", PageBuilder::new("X"));
    let y = PageBuilder::new("Y").link("/y1.html", "y1");
    web.insert_page("http://b.test/y", y);
    let y1 = PageBuilder::new("Y1").link("/y2.html", "y2");
    web.insert_page("http://b.test/y1.html", y1);
    let y2 = PageBuilder::new("Y2").link("http://c.test/", "c");
    web.insert_page("http://b.test/y2.html", y2);
    web.insert_page("http://c.test/", PageBuilder::new("C"));
    web
}

/// A site served at a port other than 80 answers like any other.
const PORT_8080: &str = r#"
    select d.url, d.title
    from document d such that "http://a.test/" (L|G)* d
"#;

fn port_8080_web() -> HostedWeb {
    let mut web = HostedWeb::new();
    let root = PageBuilder::new("A").link("http://b.test:8080/x.html", "b");
    web.insert_page("http://a.test/", root);
    web.insert_page("http://b.test:8080/x.html", PageBuilder::new("B on 8080"));
    web
}

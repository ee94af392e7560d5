//! Concurrent queries through one client process (Section 4.3): a single
//! result endpoint serves several in-flight web-queries, and the
//! per-query id keeps server log tables and user CHTs fully isolated.

use std::sync::Arc;

use webdis::core::simrun::{client_of, user_addr};
use webdis::core::{Deployment, EngineConfig};
use webdis::disql::parse_disql;
use webdis::model::SiteAddr;
use webdis::sim::SimConfig;
use webdis::web::figures;

/// The campus servers under `cfg` plus one client process holding
/// `queries` for the Start event.
fn client_sim(
    web: Arc<webdis::web::HostedWeb>,
    cfg: EngineConfig,
    queries: Vec<String>,
) -> (webdis::sim::SimNet, SiteAddr) {
    let queries = queries.iter().map(|q| parse_disql(q).unwrap()).collect();
    let net = Deployment::new(web, cfg).sim_with_client(SimConfig::default(), queries);
    (net, user_addr())
}

#[test]
fn two_concurrent_queries_do_not_interfere() {
    let web = Arc::new(figures::campus());
    // Query 1: the Section-5 convener query. Query 2: all global links of
    // the department site. Same sites, same documents, overlapping
    // traversals — different query ids.
    let q1 = figures::CAMPUS_QUERY.to_owned();
    let q2 = r#"select a.href
                from document d such that "http://www.csa.iisc.ernet.in" L* d
                     anchor a
                where a.ltype = "G""#
        .to_owned();
    let (mut net, addr) = client_sim(
        Arc::clone(&web),
        EngineConfig::default(),
        vec![q1.clone(), q2.clone()],
    );
    net.start(&addr);
    net.run();

    let client = client_of(&mut net);
    assert!(client.all_complete());
    let nums = client.query_nums();
    assert_eq!(nums.len(), 2);

    // Each query's results match a solo run of the same query.
    for (num, text) in nums.iter().zip([&q1, &q2]) {
        let solo = webdis::core::run_query_sim(
            Arc::clone(&web),
            text,
            EngineConfig::default(),
            SimConfig::default(),
        )
        .unwrap();
        let q = client.query(*num).unwrap();
        let got: std::collections::BTreeSet<_> = q
            .results
            .iter()
            .flat_map(|(s, rows)| {
                rows.iter().map(move |(n, r)| {
                    (
                        *s,
                        n.to_string(),
                        r.values.iter().map(|v| v.render()).collect::<Vec<_>>(),
                    )
                })
            })
            .collect();
        assert_eq!(
            got,
            solo.result_set(),
            "query #{num} must match its solo run"
        );
    }
}

#[test]
fn same_query_twice_recomputes_fresh() {
    // The log table is keyed by query id: resubmitting the same DISQL
    // text is a *new* query and gets fresh evaluation (the paper's
    // footnote 3 caching is per-site policy, not protocol).
    let web = Arc::new(figures::campus());
    let q = figures::CAMPUS_QUERY.to_owned();
    let (mut net, addr) = client_sim(
        Arc::clone(&web),
        EngineConfig::default(),
        vec![q.clone(), q],
    );
    net.start(&addr);
    net.run();
    let client = client_of(&mut net);
    assert!(client.all_complete());
    for num in client.query_nums() {
        assert_eq!(
            client.query(num).unwrap().rows_of_stage(1).len(),
            3,
            "each submission independently finds the three conveners"
        );
    }
}

#[test]
fn forgetting_a_query_keeps_others_running() {
    let web = Arc::new(figures::campus());
    let q1 = figures::CAMPUS_QUERY.to_owned();
    let q2 = r#"select d.url from document d such that "http://dsl.serc.iisc.ernet.in/" L* d"#
        .to_owned();
    let (mut net, addr) = client_sim(web, EngineConfig::default(), vec![q1, q2]);
    net.start(&addr);
    // Run a moment, then drop query 1's state (user lost interest); late
    // reports for it are simply unroutable and ignored.
    net.run_until(3_000);
    {
        let client = client_of(&mut net);
        client.forget(1);
    }
    net.run();
    let client = client_of(&mut net);
    assert!(client.query(1).is_none());
    assert!(client.query(2).unwrap().complete, "query 2 unaffected");
}

#[test]
fn concurrent_queries_under_ack_chain_completion() {
    let web = Arc::new(figures::campus());
    let q1 = figures::CAMPUS_QUERY.to_owned();
    let q2 = figures::EXAMPLE_QUERY_1.to_owned();
    // The harness with ack-chain configuration on both sides.
    let (mut net, addr) = client_sim(web, EngineConfig::ack_chain(), vec![q1, q2]);
    net.start(&addr);
    net.run();
    let client = client_of(&mut net);
    assert!(client.all_complete(), "acks must route to the right query");
    assert_eq!(client.query(1).unwrap().rows_of_stage(1).len(), 3);
    assert!(client.query(2).unwrap().total_rows() >= 2);
    assert!(net.metrics.messages_of("ack") > 0);
}

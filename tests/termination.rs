//! Passive query termination (Section 2.8): the user site cancels a
//! query by closing its listening endpoint; servers whose result
//! dispatch fails purge the query locally and stop forwarding — no
//! termination messages ever chase the query through the Web, and the
//! network drains bounded.

use std::sync::Arc;

use webdis::core::simrun::user_addr;
use webdis::core::{query_server_addr, Deployment, EngineConfig, ServerEngine};
use webdis::disql::parse_disql;
use webdis::sim::{Fault, SimConfig};
use webdis::web::{generate, WebGenConfig};

const QUERY: &str = r#"
    select d.url, d.text
    from document d such that "http://site0.test/doc0.html" (L|G)* d
"#;

fn big_web() -> Arc<webdis::web::HostedWeb> {
    Arc::new(generate(&WebGenConfig {
        sites: 24,
        docs_per_site: 4,
        filler_words: 200,
        seed: 17,
        ..WebGenConfig::default()
    }))
}

/// The user cancelling at `at_us`: its endpoint goes down for good.
fn cancelled_at(at_us: u64) -> SimConfig {
    let site = user_addr();
    SimConfig {
        faults: vec![Fault::Crash {
            site,
            at_us,
            down_us: None,
        }],
        ..SimConfig::default()
    }
}

#[test]
fn cancelling_mid_flight_drains_the_network() {
    let web = big_web();
    let sites = web.sites();
    let query = parse_disql(QUERY).unwrap();
    // Let the query spread a little, then cancel.
    let mut net = Deployment::new(Arc::clone(&web), EngineConfig::default())
        .sim_with_client(cancelled_at(8_000), vec![query]);
    net.start(&user_addr());
    net.run();

    // Every server that tried to report afterwards observed the failure
    // and purged the query; at least one must have.
    let mut terminated = 0u64;
    let mut forwarded_after = 0u64;
    for site in &sites {
        if let Some(server) = net.actor_mut::<ServerEngine>(&query_server_addr(site)) {
            terminated += server.stats.terminated_queries;
            forwarded_after += server.stats.clones_forwarded;
        }
    }
    assert!(terminated > 0, "some server must observe the dead endpoint");
    // The traversal stopped early: far fewer clone messages than the
    // full run would need.
    let full =
        webdis::core::run_query_sim(web, QUERY, EngineConfig::default(), SimConfig::default())
            .unwrap();
    assert!(full.complete);
    assert!(
        forwarded_after < full.sum_stat(|s| s.clones_forwarded),
        "cancellation must cut the clone traffic short \
         ({forwarded_after} vs full {})",
        full.sum_stat(|s| s.clones_forwarded)
    );
    // Reports aimed at the closed endpoint were never retried, never
    // cascaded: those in flight at the close became dead letters, and
    // every later one was refused — each refusal one server's
    // termination.
    let metrics = net.metrics();
    assert!(metrics.dead_letters > 0, "reports in flight dead-letter");
    assert_eq!(metrics.refused, terminated, "one refusal per termination");
}

#[test]
fn immediate_cancellation_stops_everything() {
    let web = big_web();
    let query = parse_disql(QUERY).unwrap();
    // Cancel before any clone is even delivered (delivery takes >= base
    // latency = 2ms; cancel at 1ms).
    let mut net = Deployment::new(Arc::clone(&web), EngineConfig::default())
        .sim_with_client(cancelled_at(1_000), vec![query]);
    net.start(&user_addr());
    net.run();
    // The StartNode server processed its clone, failed to report, purged.
    let mut terminated = 0u64;
    for site in web.sites() {
        if let Some(server) = net.actor_mut::<ServerEngine>(&query_server_addr(&site)) {
            terminated += server.stats.terminated_queries;
        }
    }
    assert_eq!(
        terminated, 1,
        "only the StartNode server ever saw the query"
    );
    // The report attempt was refused at connect time (the endpoint was
    // already gone), so it never hit the wire — and without a successful
    // report dispatch, nothing was ever forwarded either.
    assert_eq!(net.metrics().messages_of("report"), 0);
    assert_eq!(
        net.metrics().messages_of("query"),
        1,
        "only the user's initial clone ever crossed the network"
    );
}

#[test]
fn servers_drop_clones_of_purged_queries() {
    // After purging, a late clone for the same query id is dropped
    // without processing (ServerEngine.purged). Exercise by cancelling
    // with clones still in flight toward already-terminated servers.
    let web = big_web();
    let query = parse_disql(QUERY).unwrap();
    let mut net = Deployment::new(Arc::clone(&web), EngineConfig::default())
        .sim_with_client(cancelled_at(12_000), vec![query]);
    net.start(&user_addr());
    let end = net.run();

    // The run ends (bounded drain); total messages finite and no server
    // keeps forwarding after observing termination.
    let mut received = 0u64;
    let mut arrivals = 0u64;
    for site in web.sites() {
        if let Some(server) = net.actor_mut::<ServerEngine>(&query_server_addr(&site)) {
            received += server.stats.clones_received;
            arrivals += server.stats.arrivals;
        }
    }
    assert!(received >= arrivals / 8, "sanity: counters are populated");
    assert!(end < 10_000_000, "drain must be bounded");
}

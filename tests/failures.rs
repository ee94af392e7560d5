//! Node-failure recovery (Section 7.1 future work): when a query server
//! crashes while hosting clones, its CHT entries can never be deleted by
//! a report. Stale-entry expiry lets the user site conclude — with an
//! explicit list of the unresolved nodes — instead of waiting forever.

use std::sync::Arc;

use webdis::core::simrun::{client_of, user_addr};
use webdis::core::{query_server_addr, Deployment, EngineConfig};
use webdis::disql::parse_disql;
use webdis::model::SiteAddr;
use webdis::sim::{Fault, FaultKind, SimConfig};
use webdis::web::{generate, WebGenConfig};

const QUERY: &str = r#"
    select d.url
    from document d such that "http://site0.test/doc0.html" (L|G)* d
    where d.title contains "needle"
"#;

fn web() -> Arc<webdis::web::HostedWeb> {
    Arc::new(generate(&WebGenConfig {
        sites: 10,
        docs_per_site: 3,
        title_needle_prob: 0.5,
        seed: 31337,
        ..WebGenConfig::default()
    }))
}

#[test]
fn cleanly_crashed_server_is_recovered_without_expiry() {
    // A daemon that is down *before* anyone connects is detected
    // synchronously (connection refused): the forwarding server reports
    // the affected nodes as dead ends and completion stays exact — no
    // timeout needed.
    let web = web();
    let query = parse_disql(QUERY).unwrap();
    let victim = SiteAddr {
        host: "site5.test".into(),
        port: 80,
    };
    let down = Fault::Crash {
        site: query_server_addr(&victim),
        at_us: 0,
        down_us: None,
    };
    let sim_cfg = SimConfig {
        faults: vec![down],
        ..SimConfig::default()
    };
    let mut net = Deployment::new(Arc::clone(&web), EngineConfig::default())
        .sim_with_client(sim_cfg, vec![query]);
    net.start(&user_addr());
    net.run();

    let user = client_of(&mut net).query_mut(1).unwrap();
    assert!(
        user.complete,
        "refused connections are reported as dead ends; completion stays exact"
    );
    assert!(user.total_rows() > 0, "surviving sites still answer");
    // The victim's documents are the only ones missing.
    assert!(user
        .results
        .values()
        .flatten()
        .all(|(node, _)| node.host() != "site5.test"));
}

#[test]
fn lost_messages_stall_completion_until_expiry() {
    // A message silently lost in flight (server crash *after* accepting
    // the connection, network partition, …) leaves CHT entries that no
    // report will ever clear. Expiry concludes the query with the
    // unresolved nodes listed explicitly.
    let web = web();
    let query = parse_disql(QUERY).unwrap();
    let mut net = Deployment::new(Arc::clone(&web), EngineConfig::strict()).sim_with_client(
        SimConfig {
            faults: vec![Fault::rate(FaultKind::Drop, 0.25)],
            seed: 9,
            ..SimConfig::default()
        },
        vec![query],
    );
    net.start(&user_addr());
    net.run();
    assert!(net.metrics().dropped > 0, "fault injection must fire");

    let user = client_of(&mut net).query_mut(1).unwrap();
    assert!(
        !user.complete,
        "lost reports/clones must keep the query open"
    );
    let expired = user.expire_stale(60_000_000, 1_000_000);
    assert!(expired > 0);
    assert!(user.complete, "expiry lets the query conclude");
    assert_eq!(user.failed_entries.len(), expired);
}

#[test]
fn expiry_is_noop_on_healthy_runs() {
    let web = web();
    let query = parse_disql(QUERY).unwrap();
    let mut net = Deployment::new(Arc::clone(&web), EngineConfig::default())
        .sim_with_client(SimConfig::default(), vec![query]);
    net.start(&user_addr());
    net.run();
    let user = client_of(&mut net).query_mut(1).unwrap();
    assert!(user.complete);
    let expired = user.expire_stale(10_000_000, 1_000_000);
    assert_eq!(expired, 0, "nothing to expire after exact completion");
    assert!(user.failed_entries.is_empty());
}

#[test]
fn early_expiry_never_loses_received_results() {
    // Aggressive timeout mid-run: completion is declared early, but
    // everything already received is retained and the unresolved nodes
    // are explicitly listed — degraded, never silently wrong.
    let web = web();
    let query = parse_disql(QUERY).unwrap();
    let mut net = Deployment::new(Arc::clone(&web), EngineConfig::default())
        .sim_with_client(SimConfig::default(), vec![query]);
    net.start(&user_addr());
    net.run_until(6_000); // partway through the traversal
    let (rows_so_far, failed) = {
        let user = client_of(&mut net).query_mut(1).unwrap();
        let n = user.expire_stale(6_000, 1); // expire everything pending
        assert!(user.complete);
        (user.total_rows(), n)
    };
    assert!(failed > 0, "mid-run there must be pending entries");
    // Draining the rest of the network afterwards only adds rows.
    net.run();
    let user = client_of(&mut net).query_mut(1).unwrap();
    assert!(user.total_rows() >= rows_so_far);
}

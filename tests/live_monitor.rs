//! The live monitor on both runtimes. The engine knows no monitor: a
//! `webdis_monitor::Monitor` is the run's tracer, wrapping the
//! collecting one, and derives its in-flight table from the records
//! passing through it. These tests install it the way a deployment does
//! and read it back through the monitor and the cluster's admin socket.

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

use webdis::core::{
    run_query_sim, ClientProcess, Deployment, EngineConfig, PlannedQuery, ScheduledClient,
    TcpCluster,
};
use webdis::disql::parse_disql;
use webdis::sim::SimConfig;
use webdis::trace::TraceHandle;
use webdis::web::figures;
use webdis_monitor::{Monitor, MonitorConfig, StatusSnapshot};

/// A monitor around a fresh collecting tracer, and the config that
/// installs it.
fn monitored() -> (Arc<Monitor>, EngineConfig) {
    let (_collector, tracer) = TraceHandle::collecting(65_536);
    let monitor = Arc::new(Monitor::new(MonitorConfig::default(), tracer));
    let cfg = EngineConfig {
        tracer: TraceHandle::new(monitor.clone()),
        ..EngineConfig::default()
    };
    (monitor, cfg)
}

/// Runs the campus query, planned `at_us` after the cluster came up, to
/// completion on a running cluster.
fn drive_campus(cluster: &mut TcpCluster, cfg: &EngineConfig, at_us: u64) {
    let client = ClientProcess::new("webdis", cluster.user_site().clone(), cfg.clone());
    let query = parse_disql(figures::CAMPUS_QUERY).expect("valid query");
    let mut user = ScheduledClient::new(vec![client], vec![(0, PlannedQuery::at(at_us, query))]);
    cluster.drive(&mut cluster.user_net(), &mut user, Duration::from_secs(30));
    assert!(user.done(), "query must complete over TCP");
}

#[test]
fn monitored_single_query_runs_are_admitted_and_retired_once() {
    // Regression: the single-query runners once built a bare `UserSite`
    // that retired the query without admitting it, so the monitor showed
    // `admitted 0 / retired 0` and dropped every clone of the run. The
    // user site's records now admit and retire it on every runner.
    for transport in ["tcp", "sim"] {
        let (monitor, cfg) = monitored();
        let web = Arc::new(figures::campus());
        let complete = match transport {
            "tcp" => {
                let deadline = Duration::from_secs(30);
                let outcome = Deployment::new(web, cfg).query_tcp(
                    figures::CAMPUS_QUERY,
                    deadline,
                    Vec::new(),
                );
                outcome.unwrap().complete
            }
            _ => {
                let sim_cfg = SimConfig::default();
                let outcome = run_query_sim(web, figures::CAMPUS_QUERY, cfg, sim_cfg);
                outcome.unwrap().complete
            }
        };
        assert!(complete, "{transport}");
        let status = monitor.status(u64::MAX);
        assert_eq!((status.admitted, status.retired), (1, 1), "{transport}");
        assert!(status.inflight.is_empty(), "{transport}");
    }
}

#[test]
fn a_monitored_drive_closes_the_monitors_windows() {
    // A drive that outlasts one monitor window ticks the tracer often
    // enough for that window to close while it runs.
    let (monitor, cfg) = monitored();
    let window_us = monitor.window_us();
    let mut cluster = TcpCluster::start(Arc::new(figures::campus()), &cfg, Vec::new());
    drive_campus(&mut cluster, &cfg, window_us * 5 / 2);
    let closed = monitor.windows_closed();
    cluster.shutdown();
    assert!(
        closed >= 1,
        "{closed} windows closed in {window_us}us windows"
    );
}

#[test]
fn admin_socket_serves_live_status_and_resets_high_water() {
    let (monitor, cfg) = monitored();
    let mut cluster = TcpCluster::start(Arc::new(figures::campus()), &cfg, Vec::new());
    drive_campus(&mut cluster, &cfg, 0);

    let scrape = |path: &str| -> String {
        let addr = cluster.admin_addr();
        let mut stream = std::net::TcpStream::connect(addr).expect("connect admin socket");
        write!(stream, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).expect("read response");
        body
    };

    // /status serves the monitor snapshot: the query was admitted
    // and, once complete, retired out of the in-flight table.
    let response = scrape("/status");
    assert!(response.starts_with("HTTP/1.0 200"), "{response}");
    let json = response.split("\r\n\r\n").nth(1).expect("body");
    let status = StatusSnapshot::from_json(json).expect("parse status");
    assert_eq!(status.admitted, 1, "{json}");
    assert_eq!(status.retired, 1, "{json}");
    assert!(status.inflight.is_empty(), "{json}");

    // High-water marks survive scrapes and only an explicit
    // /reset_high_water re-arms them.
    let marked = scrape("/metrics");
    assert!(
        marked.contains("webdis_queue_depth_high_water ")
            && !marked.contains("webdis_queue_depth_high_water 0\n"),
        "daemon processing must have raised the queue mark: {marked}"
    );
    let again = scrape("/metrics");
    assert!(
        !again.contains("webdis_queue_depth_high_water 0\n"),
        "a scrape must not reset the mark"
    );
    assert!(scrape("/reset_high_water").starts_with("HTTP/1.0 200"));
    let cleared = scrape("/metrics");
    assert!(
        cleared.contains("webdis_queue_depth_high_water 0\n"),
        "reset must zero the mark: {cleared}"
    );

    let end_us = cluster.now_us();
    cluster.shutdown();
    // The run's owner closes the last window once the run is over.
    monitor.finalize(end_us);
    assert!(monitor.windows_closed() >= 1);
}

#[test]
fn an_unmonitored_cluster_serves_no_status() {
    let (_collector, tracer) = TraceHandle::collecting(1_024);
    let cfg = EngineConfig {
        tracer,
        ..EngineConfig::default()
    };
    let cluster = TcpCluster::start(Arc::new(figures::campus()), &cfg, Vec::new());
    let mut stream = std::net::TcpStream::connect(cluster.admin_addr()).expect("connect");
    write!(stream, "GET /status HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    cluster.shutdown();
    assert!(response.starts_with("HTTP/1.0 404"), "{response}");
}

//! A TCP cluster hosts its daemons on reactor threads: s sites at k
//! reactors run exactly k daemon threads, whatever k asks for between one
//! and s, and the same query answers the same at every k. A test binary
//! of its own: it counts the threads of the whole process by name, so no
//! other test's cluster may run beside it.

#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::{Duration, Instant};

use webdis::core::{Deployment, EngineConfig};
use webdis::web::figures;

/// How many threads of this process carry a reactor's name, read again
/// 20 ms after it first is `want`, or after a few seconds: a thread names
/// itself when it starts, and leaves the list just after it is joined.
/// The kernel keeps 15 bytes of a thread name, so `webdis-reactor-<r>`
/// reads as its prefix.
fn reactor_threads(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let now = named_reactors();
        if now == want {
            std::thread::sleep(Duration::from_millis(20));
            return named_reactors();
        } else if Instant::now() > deadline {
            return now;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn named_reactors() -> usize {
    let tasks = std::fs::read_dir("/proc/self/task").expect("a Linux /proc");
    let names =
        tasks.filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok());
    names
        .filter(|name| name.starts_with("webdis-reactor"))
        .count()
}

#[test]
fn a_cluster_of_s_sites_at_k_reactors_runs_k_daemon_threads() {
    let web = Arc::new(figures::campus());
    let sites = web.sites().len();
    assert!(sites >= 3, "the campus web has {sites} sites");
    let mut answers = Vec::new();
    for (reactors, threads) in [(1, 1), (2, 2), (sites, sites), (usize::MAX, sites)] {
        let mut deployment = Deployment::new(Arc::clone(&web), EngineConfig::default());
        deployment.reactors = reactors;
        let cluster = deployment.tcp_cluster(Vec::new());
        assert_eq!(
            reactor_threads(threads),
            threads,
            "{reactors} reactors asked for"
        );
        assert_eq!(
            cluster.shutdown().len(),
            sites,
            "every daemon's engine came back"
        );
        assert_eq!(reactor_threads(0), 0, "shutdown joins every reactor");

        let deadline = Duration::from_secs(30);
        let record = deployment.query_tcp(figures::CAMPUS_QUERY, deadline, Vec::new());
        let record = record.expect("valid query");
        assert!(record.complete, "{reactors} reactors");
        answers.push(record.result_set());
    }
    assert!(answers.windows(2).all(|w| w[0] == w[1]), "{answers:?}");

    // Left unsaid, one reactor hosts every daemon.
    let cluster = Deployment::new(web, EngineConfig::default()).tcp_cluster(Vec::new());
    assert_eq!(reactor_threads(1), 1);
    cluster.shutdown();
}

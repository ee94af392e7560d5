//! Graceful recovery from node failures (Section 7.1): what happens when
//! messages are lost mid-query, and how the user site concludes anyway.
//!
//! The run injects message loss into the simulated network, waits, then
//! expires stale CHT entries: the query finishes with everything it
//! received plus an explicit list of the nodes that never answered — an
//! *approximate* answer that names its own gaps, never a silent one.
//!
//! ```sh
//! cargo run --example failure_recovery
//! ```

use std::sync::Arc;

use webdis::core::simrun::{client_of, user_addr};
use webdis::core::{Deployment, EngineConfig};
use webdis::disql::parse_disql;
use webdis::sim::{Fault, FaultKind, SimConfig};
use webdis::web::{generate, WebGenConfig};

const QUERY: &str = r#"
    select d.url, d.title
    from document d such that "http://site0.test/doc0.html" (L|G)* d
    where d.title contains "needle"
"#;

fn main() {
    let web = Arc::new(generate(&WebGenConfig {
        sites: 12,
        docs_per_site: 3,
        title_needle_prob: 0.4,
        seed: 404,
        ..WebGenConfig::default()
    }));

    // A healthy run, for reference.
    let healthy = webdis::core::run_query_sim(
        Arc::clone(&web),
        QUERY,
        EngineConfig::strict(),
        SimConfig::default(),
    )
    .expect("query parses");
    assert!(healthy.complete);
    println!(
        "healthy run: {} rows, complete at {:.1} ms",
        healthy.total_rows(),
        healthy.completed_at_us.unwrap_or(0) as f64 / 1000.0
    );

    // The same query with 10% of messages silently lost in flight.
    // Scan deterministic seeds for an illustrative run: some losses, some
    // results received, completion stalled.
    let mut chosen = None;
    for seed in 1..200u64 {
        let query = parse_disql(QUERY).unwrap();
        let mut net = Deployment::new(Arc::clone(&web), EngineConfig::strict()).sim_with_client(
            SimConfig {
                faults: vec![Fault::rate(FaultKind::Drop, 0.1)],
                seed,
                ..SimConfig::default()
            },
            vec![query],
        );
        net.start(&user_addr());
        net.run();
        let dropped = net.metrics.dropped;
        let (rows, complete) = {
            let user = client_of(&mut net).query_mut(1).unwrap();
            (user.total_rows(), user.complete)
        };
        if dropped > 0 && rows > 0 && !complete {
            chosen = Some((seed, net));
            break;
        }
    }
    let (seed, mut net) = chosen.expect("some seed under 200 yields a partial stalled run");
    println!(
        "\nlossy run (seed {seed}): {} messages dropped by the network",
        net.metrics.dropped
    );

    let user = client_of(&mut net).query_mut(1).unwrap();
    println!(
        "CHT still open ({} rows received so far) — the lost reports will never come",
        user.total_rows()
    );

    // The recovery move: expire entries that made no progress.
    let expired = user.expire_stale(120_000_000, 1_000_000);
    assert!(user.complete, "expiry must conclude the query");
    println!(
        "\nexpired {expired} stale entries; query concluded with {} rows",
        user.total_rows()
    );
    println!("unresolved nodes (explicitly reported, not silently missing):");
    for (node, state) in &user.failed_entries {
        println!("  {node} in state {state}");
    }
    println!(
        "\ncoverage: {}/{} of the healthy run's rows survived the losses",
        user.total_rows(),
        healthy.total_rows()
    );
}

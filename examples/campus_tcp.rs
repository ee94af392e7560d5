//! The Section-5 sample execution over **real TCP sockets**: one query
//! server daemon per campus site, each on its own loopback port, the
//! user-site client collecting results on a listening socket — the same
//! deployment shape as the paper's "currently operational" Java
//! prototype.
//!
//! ```sh
//! cargo run --example campus_tcp
//! ```

use std::sync::Arc;
use std::time::Duration;

use webdis::core::{run_query_tcp, EngineConfig};
use webdis::web::figures;

fn main() {
    let web = Arc::new(figures::campus());
    println!(
        "starting {} query-server daemons on loopback...",
        web.sites().len()
    );

    let outcome = run_query_tcp(
        web,
        figures::CAMPUS_QUERY,
        EngineConfig::default(),
        Duration::from_secs(30),
    )
    .expect("query parses");

    assert!(outcome.complete, "query must complete over TCP");
    println!(
        "query completed in {:?} (wall clock, loopback)\n",
        Duration::from_micros(outcome.latency_us().expect("complete"))
    );

    println!("== results of the query (cf. the paper's Figure 8) ==");
    for (stage, rows) in &outcome.results {
        println!("stage q{}:", stage + 1);
        for (node, row) in rows {
            println!("  [{node}]");
            println!("      {row}");
        }
    }

    println!("\n== traversal trace ==");
    for event in &outcome.trace {
        println!(
            "  {:<52} state {:<14} {}",
            event.node.to_string(),
            event.state.to_string(),
            event.disposition.label()
        );
    }
}

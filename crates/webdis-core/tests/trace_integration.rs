//! End-to-end acceptance tests for the tracing layer: a traced run of
//! the paper's Figure 1 must round-trip through the JSONL exporter and
//! reconstruct the exact shipping tree, on both transports.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use webdis_core::{run_query_sim, run_query_tcp, EngineConfig};
use webdis_sim::SimConfig;
use webdis_trace::{json, trajectory, TraceEvent, TraceHandle};
use webdis_web::figures;

/// The hyperlink walk of Figure 1: depth-first from the user site, node 4
/// visited twice (hop 2 via n2, hop 3 via n5).
const FIG1_EDGES: &[(&str, &str)] = &[
    ("user.test", "n1.test"),
    ("n1.test", "n2.test"),
    ("n1.test", "n3.test"),
    ("n2.test", "n4.test"),
    ("n3.test", "n5.test"),
    ("n3.test", "n7.test"),
    ("n4.test", "n6.test"),
    ("n4.test", "n8.test"),
    ("n5.test", "n4.test"),
];

#[test]
fn fig1_trace_reconstructs_the_paper_walk() {
    let (collector, handle) = TraceHandle::collecting(4096);
    let outcome = run_query_sim(
        Arc::new(figures::figure1()),
        figures::FIG_QUERY,
        EngineConfig {
            tracer: handle,
            ..EngineConfig::default()
        },
        SimConfig::default(),
    )
    .unwrap();
    assert!(outcome.complete);

    // Round-trip through the JSON-lines format: what a consumer reads
    // from `--trace out.jsonl` is what the collector held.
    let jsonl = collector.export_jsonl();
    let records = json::decode_jsonl(&jsonl).expect("exporter output parses");
    assert_eq!(records, collector.snapshot());

    let ids = trajectory::query_ids(&records);
    assert_eq!(ids.len(), 1, "one query in flight");
    let traj = trajectory::reconstruct(&records, &ids[0]);

    let edges: BTreeSet<(String, String)> = traj.edges().into_iter().collect();
    let expected: BTreeSet<(String, String)> = FIG1_EDGES
        .iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect();
    assert_eq!(edges, expected, "shipping tree must match Figure 1 exactly");

    // Hop depths along the walk: n4 appears at hops 2 AND 3.
    let seq = traj.hop_sequence();
    let hops_of = |site: &str| -> Vec<u32> {
        seq.iter()
            .filter(|(s, _)| s == site)
            .map(|(_, h)| *h)
            .collect()
    };
    assert_eq!(hops_of("user.test"), vec![0]);
    assert_eq!(hops_of("n1.test"), vec![0]);
    assert_eq!(hops_of("n2.test"), vec![1]);
    assert_eq!(hops_of("n3.test"), vec![1]);
    assert_eq!(hops_of("n4.test"), vec![2, 3], "node 4 is visited twice");
    assert_eq!(hops_of("n7.test"), vec![2]);
    assert_eq!(hops_of("n6.test"), vec![3]);
    assert_eq!(hops_of("n8.test"), vec![3]);

    // The registry derived hop latency for every clone hop.
    let snap = collector.registry().snapshot();
    assert_eq!(snap.counter("query_sent"), 9);
    assert_eq!(snap.counter("query_recv"), 9);
    let hist = snap
        .histogram("hop_latency_us")
        .expect("hop latency histogram");
    assert_eq!(hist.count, 9, "every send matched its receive");
    assert!(snap.histogram("message_bytes").unwrap().count > 0);
}

#[test]
fn tcp_transport_records_the_same_vocabulary() {
    let (collector, handle) = TraceHandle::collecting(4096);
    let outcome = run_query_tcp(
        Arc::new(figures::figure1()),
        figures::FIG_QUERY,
        EngineConfig {
            tracer: handle,
            ..EngineConfig::default()
        },
        Duration::from_secs(30),
    )
    .unwrap();
    assert!(outcome.complete);

    let records = collector.snapshot();
    let names: BTreeSet<&str> = records.iter().map(|r| r.event.name()).collect();
    for expected in [
        "query_sent",
        "query_recv",
        "message_sent",
        "eval_finish",
        "cht_add",
        "termination",
    ] {
        assert!(
            names.contains(expected),
            "TCP run must record {expected}: got {names:?}"
        );
    }

    // The identical reconstructor applies — wall-clock stamps, same tree.
    let ids = trajectory::query_ids(&records);
    assert_eq!(ids.len(), 1);
    let traj = trajectory::reconstruct(&records, &ids[0]);
    let edges: BTreeSet<(String, String)> = traj.edges().into_iter().collect();
    let expected: BTreeSet<(String, String)> = FIG1_EDGES
        .iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect();
    assert_eq!(edges, expected, "TCP shipping tree must match Figure 1");
}

#[test]
fn datashipping_baseline_records_fetches_and_evals() {
    let (collector, handle) = TraceHandle::collecting(4096);
    let cfg = EngineConfig {
        tracer: handle,
        ..EngineConfig::default()
    };
    let outcome = webdis_core::Deployment::new(Arc::new(figures::campus()), cfg)
        .datashipping_sim(figures::CAMPUS_QUERY, SimConfig::default())
        .unwrap();
    assert!(outcome.complete);
    let records = collector.snapshot();
    assert!(
        records.iter().any(|r| matches!(
            r.event,
            TraceEvent::DocFetch {
                cache_hit: false,
                ..
            }
        )),
        "baseline downloads documents"
    );
    assert!(records
        .iter()
        .any(|r| matches!(r.event, TraceEvent::EvalFinish { .. })));
    // Everything happens at the user site — no query shipping.
    assert!(records
        .iter()
        .filter(|r| !matches!(r.event, TraceEvent::MessageSent { .. }))
        .all(|r| r.site == "user.test"));
}

//! End-to-end Section-7.1 graceful recovery: with lossy transport, a
//! query must *terminate* — completion forced by the periodic expiry
//! sweep, the lost nodes listed in `failed_entries`, everything received
//! retained — never hang silently. Pinned on both transports, which
//! take the same `Fault` list (the sim also with seeded drop rates, which
//! only it draws deterministically), plus the trace-soundness property:
//! a faulty run's JSONL reconstructs with no orphan sends, because
//! dropped messages are recorded as `message_dropped`, not
//! `message_sent`.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use webdis::core::{run_query_sim, Deployment, EngineConfig, ExpiryPolicy, QueryRecord};
use webdis::sim::{Fault, FaultKind, SimConfig};
use webdis::trace::{json, trajectory, TraceHandle};
use webdis::web::figures;

/// Seed probe: campus + CAMPUS_QUERY + drop_rate 0.1. Seed 6 loses one
/// message while still producing partial results (checked by the
/// assertions below); if the simulator's RNG consumption pattern ever
/// changes, re-pin by scanning small seeds.
const LOSSY_SEED: u64 = 6;

#[test]
fn sim_drop_rate_run_terminates_via_expiry_with_partial_results() {
    let web = Arc::new(figures::campus());
    let baseline = run_query_sim(
        Arc::clone(&web),
        figures::CAMPUS_QUERY,
        EngineConfig::default(),
        SimConfig::default(),
    )
    .unwrap();
    assert!(baseline.complete && baseline.failed_entries.is_empty());

    let cfg = EngineConfig {
        expiry: Some(ExpiryPolicy::with_timeout(50_000)),
        ..EngineConfig::default()
    };
    let outcome = run_query_sim(
        Arc::clone(&web),
        figures::CAMPUS_QUERY,
        cfg,
        SimConfig {
            faults: vec![Fault::rate(FaultKind::Drop, 0.1)],
            seed: LOSSY_SEED,
            ..SimConfig::default()
        },
    )
    .unwrap();
    assert!(outcome.metrics.dropped > 0, "seed must lose messages");
    assert!(outcome.complete, "expiry must conclude the run");
    assert!(
        !outcome.failed_entries.is_empty(),
        "lost clones' nodes are written off explicitly"
    );
    let why = outcome
        .why_incomplete
        .as_deref()
        .expect("expired run carries a diagnosis");
    assert!(why.contains("expiry"), "{why}");
    // Partial results: a subset of the fault-free run, nothing invented.
    assert!(outcome.result_set().is_subset(&baseline.result_set()));
    assert!(outcome.result_set().len() < baseline.result_set().len());
}

#[test]
fn sim_faulty_trace_reconstructs_without_orphans() {
    let (collector, handle) = TraceHandle::collecting(8192);
    let cfg = EngineConfig {
        expiry: Some(ExpiryPolicy::with_timeout(50_000)),
        tracer: handle,
        ..EngineConfig::default()
    };
    let outcome = run_query_sim(
        Arc::new(figures::campus()),
        figures::CAMPUS_QUERY,
        cfg,
        SimConfig {
            faults: vec![Fault::rate(FaultKind::Drop, 0.1)],
            seed: LOSSY_SEED,
            ..SimConfig::default()
        },
    )
    .unwrap();
    assert!(outcome.complete && outcome.metrics.dropped > 0);

    // Round-trip through the JSONL exporter, then rebuild the tree.
    let records = json::decode_jsonl(&collector.export_jsonl()).expect("exporter output parses");
    let dropped = records
        .iter()
        .filter(|r| r.event.name() == "message_dropped")
        .count();
    assert_eq!(dropped as u64, outcome.metrics.dropped);
    let expired = records
        .iter()
        .filter(|r| r.event.name() == "entry_expired")
        .count();
    assert_eq!(expired, outcome.failed_entries.len());

    let ids = trajectory::query_ids(&records);
    assert_eq!(ids.len(), 1);
    let traj = trajectory::reconstruct(&records, &ids[0]);
    assert!(
        traj.orphans.is_empty(),
        "drops are not phantom sends; orphans: {:?}",
        traj.orphans
    );
}

/// The campus daemon that forwards the query's one `G` hop to each lab.
const CSA: &str = "wdqs.www.csa.iisc.ernet.in";

/// Every clone the CSA daemon forwards to the DSL lab's daemon is lost.
fn dsl_link_lost() -> Vec<Fault> {
    vec![Fault::rate(FaultKind::Drop, 1.0).on(CSA, "wdqs.dsl.serc.iisc.ernet.in")]
}

#[test]
fn one_fault_list_recovers_alike_on_both_transports() {
    let cfg = EngineConfig {
        expiry: Some(ExpiryPolicy::with_timeout(400_000)),
        ..EngineConfig::default()
    };
    let deployment = Deployment::new(Arc::new(figures::campus()), cfg);
    let sim_cfg = SimConfig {
        faults: dsl_link_lost(),
        ..SimConfig::default()
    };
    let sim = deployment
        .query_sim(figures::CAMPUS_QUERY, sim_cfg)
        .unwrap();
    let deadline = Duration::from_secs(30);
    let tcp = deployment
        .query_tcp(figures::CAMPUS_QUERY, deadline, dsl_link_lost())
        .unwrap();
    let failed = |r: &QueryRecord| -> BTreeSet<String> {
        r.failed_entries
            .iter()
            .map(|(node, _)| node.to_string())
            .collect()
    };
    assert!(sim.complete && tcp.complete, "expiry concludes both runs");
    assert_eq!(sim.metrics.dropped, 1);
    assert!(!failed(&sim.record).is_empty());
    assert_eq!(failed(&sim.record), failed(&tcp));
    assert_eq!(sim.result_set(), tcp.result_set());
}

#[test]
fn tcp_injected_faults_terminate_via_expiry_without_orphans() {
    let (collector, handle) = TraceHandle::collecting(8192);
    let cfg = EngineConfig {
        expiry: Some(ExpiryPolicy::with_timeout(400_000)),
        tracer: handle,
        ..EngineConfig::default()
    };
    let outcome = Deployment::new(Arc::new(figures::campus()), cfg)
        .query_tcp(
            figures::CAMPUS_QUERY,
            Duration::from_secs(30),
            dsl_link_lost(),
        )
        .unwrap();
    assert!(outcome.complete, "expiry must conclude the query");
    assert!(!outcome.failed_entries.is_empty());
    assert!(outcome.results.values().map(Vec::len).sum::<usize>() > 0);

    let records = json::decode_jsonl(&collector.export_jsonl()).unwrap();
    let dropped = records
        .iter()
        .filter(|r| r.event.name() == "message_dropped");
    assert_eq!(dropped.count(), 1);
    let ids = trajectory::query_ids(&records);
    assert_eq!(ids.len(), 1);
    let traj = trajectory::reconstruct(&records, &ids[0]);
    assert!(
        traj.orphans.is_empty(),
        "injected drop must not leave orphan sends: {:?}",
        traj.orphans
    );
}

//! End-to-end Section-7.1 graceful recovery: with lossy transport, a
//! query must *terminate* — completion forced by the periodic expiry
//! sweep, the lost nodes listed in `failed_entries`, everything received
//! retained — never hang silently. Pinned on both transports, which
//! take the same `Fault` list (the sim also with seeded drop rates, which
//! only it draws deterministically), plus the trace-soundness property:
//! a faulty run's JSONL reconstructs with no orphan sends, because
//! dropped messages are recorded as `message_dropped`, not
//! `message_sent`.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

use webdis::core::simrun::user_addr;
use webdis::core::{
    run_query_sim, ClientProcess, Deployment, EngineConfig, PlannedQuery, QueryRecord,
    ScheduledClient,
};
use webdis::disql::parse_disql;
use webdis::net::meter::FATES;
use webdis::net::{WireCounters, MESSAGE_KINDS};
use webdis::sim::{Fault, FaultKind, SimConfig};
use webdis::trace::{json, trajectory, TraceEvent, TraceHandle, TraceRecord};
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
        expiry_us: Some(50_000),
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
        expiry_us: Some(50_000),
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
        expiry_us: Some(400_000),
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
        expiry_us: Some(400_000),
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

/// Messages per (kind, fate) — fates named as the meter exposes them.
type Account = BTreeMap<(String, &'static str), u64>;

/// The meter's account of every fate that leaves a trace record (a
/// refusal leaves none).
fn metered(meter: &WireCounters) -> Account {
    let mut account = Account::new();
    for kind in MESSAGE_KINDS {
        for (fate, &name) in FATES.iter().enumerate() {
            let (msgs, _) = meter.get(fate, kind);
            if msgs > 0 && name != "refused" {
                account.insert((kind.to_string(), name), msgs);
            }
        }
    }
    account
}

/// The same account, counted from a run's `message_*` trace records.
fn traced(records: &[TraceRecord]) -> Account {
    let mut account = Account::new();
    for record in records {
        let (kind, fate) = match &record.event {
            TraceEvent::MessageSent { kind, .. } => (kind, "sent"),
            TraceEvent::MessageDuplicated { kind, .. } => (kind, "duplicated"),
            TraceEvent::MessageCorrupted { kind, .. } => (kind, "corrupted"),
            TraceEvent::MessageDropped { kind, reason, .. }
                if reason == "dead-letter" || reason == "crashed" =>
            {
                (kind, "dead_letter")
            }
            TraceEvent::MessageDropped { kind, .. } => (kind, "dropped"),
            _ => continue,
        };
        *account.entry((kind.clone(), fate)).or_default() += 1;
    }
    account
}

/// The DSL lab's daemon, whose every report reaches the user twice.
const DSL: &str = "wdqs.dsl.serc.iisc.ernet.in";

/// A clone the CSA daemon forwards is corrupted on the wire, and every
/// report of the DSL lab is duplicated.
fn corrupt_one_clone_duplicate_one_lab() -> Vec<Fault> {
    let compiler_lab = "wdqs.www-compiler.csa.iisc.ernet.in";
    vec![
        Fault::rate(FaultKind::Corrupt, 1.0).on(CSA, compiler_lab),
        Fault::rate(FaultKind::Dup, 1.0).on(DSL, &user_addr().host),
    ]
}

#[test]
fn one_fault_list_gives_one_account_on_both_runtimes() {
    let deployment = |tracer| {
        let cfg = EngineConfig {
            expiry_us: Some(400_000),
            tracer,
            ..EngineConfig::default()
        };
        Deployment::new(Arc::new(figures::campus()), cfg)
    };
    let query = || parse_disql(figures::CAMPUS_QUERY).expect("valid query");

    let (collector, tracer) = TraceHandle::collecting(8_192);
    let sim_cfg = SimConfig {
        faults: corrupt_one_clone_duplicate_one_lab(),
        ..SimConfig::default()
    };
    let mut net = deployment(tracer).sim_with_client(sim_cfg, vec![query()]);
    net.start(&user_addr());
    net.run();
    let sim = (metered(&net.ledger.meter), traced(&collector.snapshot()));

    let (collector, tracer) = TraceHandle::collecting(8_192);
    let tcp_deployment = deployment(tracer);
    let cluster = tcp_deployment.tcp_cluster(corrupt_one_clone_duplicate_one_lab());
    let client = ClientProcess::new("webdis", user_addr(), tcp_deployment.config.clone());
    let mut user = ScheduledClient::new(vec![client], vec![(0, PlannedQuery::at(0, query()))]);
    cluster.drive(&mut cluster.user_net(), &mut user, Duration::from_secs(30));
    assert!(user.done(), "expiry concludes the TCP run");
    let meter = Arc::clone(cluster.wire_counters());
    // Every daemon has stopped once shutdown returns: nothing more is
    // metered or traced.
    cluster.shutdown();
    let tcp = (metered(&meter), traced(&collector.snapshot()));

    // Each runtime's meter and its trace tell one story.
    assert_eq!(sim.0, sim.1, "simulator: meter vs trace");
    assert_eq!(tcp.0, tcp.1, "TCP: meter vs trace");
    // And the fault list did the same to both.
    let faulted = |account: &Account| -> Account {
        let faulted = account.iter().filter(|((_, fate), _)| *fate != "sent");
        faulted.map(|(key, &n)| (key.clone(), n)).collect()
    };
    let expected = [(("query", "corrupted"), 1), (("report", "duplicated"), 1)];
    let expected = expected.map(|((kind, fate), n)| ((kind.to_string(), fate), n));
    assert_eq!(faulted(&sim.0), Account::from(expected));
    assert_eq!(faulted(&tcp.0), faulted(&sim.0));
}

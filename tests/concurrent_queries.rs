//! Concurrent multi-query workloads (the workload planner): results
//! under interleaving match serial runs byte-for-byte, runs are
//! seed-deterministic, traces stay per-query clean, and admission-control
//! shedding never leaves a query hanging — on both transports.

use std::sync::Arc;
use std::time::Duration;

use webdis::core::{
    run_query_sim, ArrivalProcess, Deployment, EngineConfig, QueryMix, WorkloadSpec,
};
use webdis::sim::SimConfig;
use webdis::trace::json::decode_record;
use webdis::trace::trajectory::{query_ids, reconstruct};
use webdis::trace::{TermReason, TraceEvent, TraceHandle};
use webdis::web::{generate, WebGenConfig};

const LOCAL_Q: &str = r#"select d.url, d.title
    from document d such that "http://site0.test/doc0.html" L* d
    where d.title contains "needle""#;

const GLOBAL_Q: &str = r#"select d.url
    from document d such that "http://site0.test/doc0.html" (L|G)* d
    where d.title contains "needle""#;

fn test_web() -> Arc<webdis::web::HostedWeb> {
    Arc::new(generate(&WebGenConfig::default()))
}

fn two_user_spec() -> WorkloadSpec {
    WorkloadSpec {
        users: 2,
        queries_per_user: 2,
        arrival: ArrivalProcess::Poisson {
            mean_interarrival_us: 30_000,
        },
        mix: QueryMix::single(LOCAL_Q).with(GLOBAL_Q, 1),
        seed: 11,
        ..WorkloadSpec::default()
    }
}

/// Serial per-template baselines over the simulator, as canonical sets.
fn serial_baselines(
    web: &Arc<webdis::web::HostedWeb>,
    spec: &WorkloadSpec,
) -> Vec<std::collections::BTreeSet<(u32, String, Vec<String>)>> {
    spec.mix
        .templates
        .iter()
        .map(|(disql, _)| {
            let outcome = run_query_sim(
                Arc::clone(web),
                disql,
                EngineConfig::default(),
                SimConfig::default(),
            )
            .unwrap();
            assert!(outcome.complete, "serial baseline must complete");
            outcome.result_set()
        })
        .collect()
}

#[test]
fn interleaved_queries_match_serial_runs_sim() {
    let web = test_web();
    let spec = two_user_spec();
    let baselines = serial_baselines(&web, &spec);
    let plans = spec.plan().unwrap();

    let outcome = Deployment::new(Arc::clone(&web), EngineConfig::default()).workload_sim(
        SimConfig::default(),
        spec.plan().unwrap(),
        spec.horizon_us,
    );
    assert_eq!(outcome.hung(), 0, "no query may hang");
    assert_eq!(outcome.records.len(), spec.users * spec.queries_per_user);
    for record in &outcome.records {
        assert!(
            record.complete,
            "user {} #{}",
            record.user, record.query_num
        );
        // Query numbers are assigned in submission (schedule) order, so
        // record k of a user ran that user's k-th planned template.
        let template = plans[record.user].submissions[record.query_num as usize - 1].template;
        assert_eq!(
            record.result_set(),
            baselines[template],
            "interleaved run of template {template} must match its serial run"
        );
    }
}

#[test]
fn interleaved_queries_match_serial_runs_tcp() {
    let web = test_web();
    let spec = WorkloadSpec {
        arrival: ArrivalProcess::Uniform {
            interarrival_us: 20_000,
        },
        ..two_user_spec()
    };
    let plans = spec.plan().unwrap();

    // Serial baselines over TCP itself: one query at a time.
    let baselines: Vec<_> = spec
        .mix
        .templates
        .iter()
        .map(|(disql, _)| {
            let outcome = Deployment::new(Arc::clone(&web), EngineConfig::default())
                .query_tcp(disql, Duration::from_secs(30), Vec::new())
                .unwrap();
            assert!(outcome.complete);
            let mut set = std::collections::BTreeSet::new();
            for (stage, rows) in &outcome.results {
                for (node, row) in rows {
                    set.insert((
                        *stage,
                        node.to_string(),
                        row.values.iter().map(|v| v.render()).collect::<Vec<_>>(),
                    ));
                }
            }
            set
        })
        .collect();

    let deployment = Deployment::new(Arc::clone(&web), EngineConfig::default());
    let deadline = Duration::from_secs(60);
    let outcome = deployment.workload_tcp(Vec::new(), spec.plan().unwrap(), deadline);
    assert_eq!(outcome.hung(), 0, "no query may hang");
    assert_eq!(outcome.records.len(), spec.users * spec.queries_per_user);
    for record in &outcome.records {
        assert!(
            record.complete,
            "user {} #{}",
            record.user, record.query_num
        );
        let template = plans[record.user].submissions[record.query_num as usize - 1].template;
        assert_eq!(record.result_set(), baselines[template]);
    }
}

#[test]
fn workload_is_seed_deterministic() {
    let web = test_web();
    let spec = two_user_spec();
    let run = |spec: &WorkloadSpec| {
        let outcome = Deployment::new(Arc::clone(&web), EngineConfig::default()).workload_sim(
            SimConfig::default(),
            spec.plan().unwrap(),
            spec.horizon_us,
        );
        let fates: Vec<_> = outcome
            .records
            .iter()
            .map(|r| {
                (
                    r.user,
                    r.query_num,
                    r.submitted_us,
                    r.completed_at_us,
                    r.shed_entries.len(),
                )
            })
            .collect();
        (fates, outcome.duration_us)
    };
    let a = run(&spec);
    let b = run(&spec);
    assert_eq!(a, b, "same seed must reproduce the run exactly");

    let other = WorkloadSpec { seed: 12, ..spec };
    let c = run(&other);
    assert_ne!(a.0, c.0, "a different seed must shift the schedule");
}

#[test]
fn concurrent_trace_reconstructs_one_trajectory_per_query() {
    let (collector, handle) = TraceHandle::collecting(65_536);
    let web = test_web();
    let spec = two_user_spec();
    let cfg = EngineConfig {
        tracer: handle,
        ..EngineConfig::default()
    };
    let outcome = Deployment::new(Arc::clone(&web), cfg).workload_sim(
        SimConfig::default(),
        spec.plan().unwrap(),
        spec.horizon_us,
    );
    assert_eq!(outcome.hung(), 0);

    // Round-trip the trace through JSONL, then rebuild per-query trees.
    let records = collector
        .export_jsonl()
        .lines()
        .map(decode_record)
        .collect::<Result<Vec<_>, _>>()
        .unwrap();
    let ids = query_ids(&records);
    assert_eq!(
        ids.len(),
        spec.users * spec.queries_per_user,
        "every submission must appear in the trace exactly once"
    );
    for id in &ids {
        let trajectory = reconstruct(&records, id);
        assert!(
            trajectory.orphans.is_empty(),
            "query {id:?} has orphan sends:\n{}",
            trajectory.render_text()
        );
        assert!(
            !trajectory.root.children.is_empty(),
            "query {id:?} shipped no clones"
        );
    }
}

#[test]
fn admission_control_sheds_without_hanging_sim() {
    let (collector, handle) = TraceHandle::collecting(65_536);
    let web = test_web();
    // A burst far beyond the single admission slot per site.
    let spec = WorkloadSpec {
        users: 3,
        queries_per_user: 3,
        arrival: ArrivalProcess::Uniform {
            interarrival_us: 1_000,
        },
        mix: QueryMix::single(GLOBAL_Q),
        seed: 5,
        ..WorkloadSpec::default()
    };
    let cfg = EngineConfig {
        admission: Some(1),
        log_purge_us: Some(200_000),
        tracer: handle,
        ..EngineConfig::default()
    };
    let outcome = Deployment::new(Arc::clone(&web), cfg).workload_sim(
        SimConfig::default(),
        spec.plan().unwrap(),
        spec.horizon_us,
    );

    assert_eq!(outcome.hung(), 0, "shedding must never hang a query");
    assert!(
        outcome.completed_shed() > 0,
        "this burst must overrun a 1-slot admission queue"
    );
    assert!(outcome.sum_stat(|s| s.queries_shed) > 0);
    for record in outcome.records.iter().filter(|r| r.was_shed()) {
        assert!(record.complete);
        let why = record.why_incomplete.as_deref().unwrap_or("");
        assert!(
            why.contains("admission"),
            "shed query must be diagnosed, got: {why}"
        );
    }

    // The trace carries the shed events and terminations.
    let records = collector.snapshot();
    assert!(records
        .iter()
        .any(|r| matches!(r.event, TraceEvent::QueryShed { .. })));
    assert!(records.iter().any(|r| matches!(
        r.event,
        TraceEvent::Termination {
            reason: TermReason::Shed,
            ..
        }
    )));
}

#[test]
fn admission_control_sheds_without_hanging_tcp() {
    let web = test_web();
    let spec = WorkloadSpec {
        users: 2,
        queries_per_user: 3,
        arrival: ArrivalProcess::Uniform {
            interarrival_us: 1_000,
        },
        mix: QueryMix::single(GLOBAL_Q),
        seed: 5,
        ..WorkloadSpec::default()
    };
    let cfg = EngineConfig {
        admission: Some(1),
        log_purge_us: Some(100_000),
        // Belt and braces: even if a shed report raced a purge, the
        // expiry sweep would still conclude the query.
        expiry_us: Some(2_000_000),
        ..EngineConfig::default()
    };
    let deployment = Deployment::new(Arc::clone(&web), cfg);
    let deadline = Duration::from_secs(60);
    let outcome = deployment.workload_tcp(Vec::new(), spec.plan().unwrap(), deadline);
    assert_eq!(outcome.hung(), 0, "shedding must never hang a query");
    assert!(outcome.sum_stat(|s| s.queries_shed) > 0);
    for record in &outcome.records {
        assert!(
            record.complete,
            "user {} #{}",
            record.user, record.query_num
        );
    }
}

//! Hybrid execution (Section 7.1) is a mode of the one user site, so it
//! runs wherever a query runs on the simulator: several queries in one
//! client process, a planned workload, a mutation schedule. And the
//! single-query outcome is a wrapper around the record, not a second
//! copy of it.

use std::collections::BTreeSet;
use std::sync::Arc;

use webdis::core::simrun::{client_of, user_addr};
use webdis::core::{
    run_query_sim, ArrivalProcess, Deployment, EngineConfig, QueryMix, WorkloadOutcome,
    WorkloadSpec,
};
use webdis::disql::parse_disql;
use webdis::model::SiteAddr;
use webdis::sim::SimConfig;
use webdis::web::{
    figures, generate, HostedWeb, LiveWeb, MutationPlanConfig, MutationSchedule, WebGenConfig,
};

fn hybrid() -> EngineConfig {
    EngineConfig {
        hybrid: true,
        ..EngineConfig::default()
    }
}

/// Every second site of `web`, from the `first`-th on: the half that
/// runs a query server.
fn half_of(web: &HostedWeb, first: usize) -> Vec<SiteAddr> {
    web.sites().into_iter().skip(first).step_by(2).collect()
}

#[test]
fn two_concurrent_hybrid_queries_share_one_client_process() {
    let web = Arc::new(figures::campus());
    let queries = [figures::CAMPUS_QUERY, figures::EXAMPLE_QUERY_1];
    // Only the two lab sites run daemons: both queries start on a site
    // that does not, and the campus query re-enters at the labs.
    let mut deployment = Deployment::new(Arc::clone(&web), hybrid());
    deployment.participating = Some(half_of(&web, 1));

    let parsed = queries.map(|q| parse_disql(q).unwrap());
    let mut net = deployment.sim_with_client(SimConfig::default(), parsed.into());
    net.start(&user_addr());
    net.run();
    let records = client_of(&mut net).take_records(0);

    assert_eq!(records.len(), 2);
    for (record, disql) in records.iter().zip(queries) {
        let reference = run_query_sim(
            Arc::clone(&web),
            disql,
            EngineConfig::default(),
            SimConfig::default(),
        )
        .unwrap();
        assert!(record.complete, "{:?}", record.why_incomplete);
        assert!(record.cht_converged && record.cht_live == 0);
        assert_eq!(record.result_set(), reference.result_set());
        // Both queries walked through the sites without a daemon, each
        // downloading for itself: a reply answers one request.
        assert!(record.hybrid.handoffs > 0 && record.hybrid.fetches > 0);
        assert!(record.hybrid.local_evaluations > 0);
    }
}

/// One line per reported row, keyed by user, query number, stage and
/// producing node.
fn row_lines(outcome: &WorkloadOutcome) -> BTreeSet<String> {
    let mut lines = BTreeSet::new();
    for r in &outcome.records {
        for (stage, rows) in &r.results {
            for (node, row) in rows {
                lines.insert(format!("{}#{}:{stage}:{node}:{row}", r.user, r.query_num));
            }
        }
    }
    lines
}

#[test]
fn hybrid_workload_under_a_mutation_schedule_stays_inside_the_version_envelope() {
    const GLOBAL_QUERY: &str = r#"
        select d.url
        from document d such that "http://site0.test/doc0.html" (L|G)* d
        where d.title contains "needle"
    "#;
    const LOCAL_QUERY: &str = r#"
        select d.url, d.title
        from document d such that "http://site0.test/doc0.html" L* d
    "#;
    for seed in [3u64, 17, 40] {
        let web = generate(&WebGenConfig {
            sites: 4,
            docs_per_site: 3,
            extra_local_links: 1,
            extra_global_links: 1,
            title_needle_prob: 0.5,
            seed,
            ..WebGenConfig::default()
        });
        let schedule = MutationSchedule::generate(
            &web,
            &MutationPlanConfig {
                seed: seed + 1,
                count: 3,
                start_us: 10_000,
                end_us: 150_000,
                token: "hybrid".to_owned(),
            },
        );
        let spec = WorkloadSpec {
            users: 2,
            queries_per_user: 3,
            arrival: ArrivalProcess::Poisson {
                mean_interarrival_us: 40_000,
            },
            mix: QueryMix::single(GLOBAL_QUERY).with(LOCAL_QUERY, 1),
            seed,
            ..WorkloadSpec::default()
        };

        // Half the sites participate, the web changes while the six
        // queries are in flight — no code was written for this pairing.
        let live = Arc::new(LiveWeb::from_hosted(&web));
        let mut deployment = Deployment::new(Arc::clone(&live), hybrid());
        deployment.participating = Some(half_of(&web, 0));
        deployment.schedule = schedule.clone();
        let outcome =
            deployment.workload_sim(SimConfig::default(), spec.plan().unwrap(), spec.horizon_us);
        assert_eq!(live.mutations_applied(), 3);
        assert_eq!(
            (outcome.records.len(), outcome.hung()),
            (6, 0),
            "seed {seed}"
        );
        let fetches: u64 = outcome.records.iter().map(|r| r.hybrid.fetches).sum();
        assert!(fetches > 0, "seed {seed}: the fallback ran");

        // The envelope: the same workload, fully participating, on the
        // pristine web and on the snapshot after every mutation prefix.
        let frozen = |web: HostedWeb| {
            let cfg = EngineConfig::default();
            row_lines(&Deployment::new(Arc::new(web), cfg).workload_sim(
                SimConfig::default(),
                spec.plan().unwrap(),
                spec.horizon_us,
            ))
        };
        let mut envelope = frozen(web.clone());
        let twin = LiveWeb::from_hosted(&web);
        for m in &schedule.events {
            twin.apply(m);
            envelope.extend(frozen(twin.snapshot()));
        }
        for line in row_lines(&outcome) {
            assert!(
                envelope.contains(&line),
                "seed {seed}: row {line:?} produced by no version of the web"
            );
        }

        // With nothing scheduled the living web is its frozen snapshot,
        // and hybrid at half participation is plain query shipping.
        let quiet = Deployment {
            schedule: MutationSchedule::default(),
            web: Arc::new(LiveWeb::from_hosted(&web)).into(),
            ..deployment
        };
        let quiet = quiet.workload_sim(SimConfig::default(), spec.plan().unwrap(), spec.horizon_us);
        assert_eq!(row_lines(&quiet), frozen(web), "seed {seed}");
    }
}

#[test]
fn outcome_and_record_of_the_same_run_agree_field_for_field() {
    let web = Arc::new(figures::campus());
    let mut deployment = Deployment::new(Arc::clone(&web), hybrid());
    deployment.participating = Some(half_of(&web, 0));

    let outcome = deployment
        .query_sim(figures::CAMPUS_QUERY, SimConfig::default())
        .unwrap();
    let query = parse_disql(figures::CAMPUS_QUERY).unwrap();
    let mut net = deployment.sim_with_client(SimConfig::default(), vec![query]);
    net.start(&user_addr());
    net.run();
    let record = client_of(&mut net).take_records(0).remove(0);

    // The wrapper holds the record whole: whatever field the record
    // gains, the outcome of the same (deterministic) run has it too...
    assert_eq!(format!("{:?}", outcome.record), format!("{record:?}"));
    assert!(record.complete && record.hybrid.handoffs > 0);
    // ...and reads through to it.
    assert_eq!(outcome.complete, record.complete);
    assert_eq!(outcome.completed_at_us, record.completed_at_us);
    assert_eq!(outcome.first_result_us, record.first_result_us);
    assert_eq!(outcome.trace, record.trace);
    assert_eq!(outcome.hybrid, record.hybrid);
    assert_eq!(outcome.cht_stats, record.cht_stats);
    assert_eq!(outcome.result_set(), record.result_set());
    assert_eq!(outcome.total_rows(), record.total_rows());
    assert_eq!(outcome.latency_us(), record.latency_us());
    assert_eq!(Some(outcome.duration_us), record.completed_at_us);
}

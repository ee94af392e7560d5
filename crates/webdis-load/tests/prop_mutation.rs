//! Living-web properties of the sim driver: schedule seed-determinism,
//! run replayability, and the staleness contract's row envelope.
//!
//! Three invariants over arbitrary (web, schedule, workload) seeds:
//!
//! 1. `MutationSchedule::generate` is a pure function of its inputs.
//! 2. Two live runs of the same seeds are byte-identical: same mutation
//!    history digest, same per-(user, query, stage, node) rows.
//! 3. Every row a live run reports appears in *some* frozen-web
//!    baseline of the same workload — pristine, or the snapshot after
//!    any mutation prefix. The web changing mid-run may move answers
//!    between versions, but it can never invent a row no version of
//!    the web would produce.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;
use webdis_core::{Deployment, EngineConfig};
use webdis_load::{run_workload_sim, ArrivalProcess, QueryMix, WorkloadOutcome, WorkloadSpec};
use webdis_sim::SimConfig;
use webdis_web::{generate, LiveWeb, MutationPlanConfig, MutationSchedule, WebGenConfig};

const GLOBAL_QUERY: &str = r#"
    select d.url
    from document d such that "http://site0.test/doc0.html" (L|G)* d
    where d.title contains "needle"
"#;

const LOCAL_QUERY: &str = r#"
    select d.url, d.title
    from document d such that "http://site0.test/doc0.html" L* d
"#;

fn web_config() -> impl Strategy<Value = WebGenConfig> {
    (2usize..=4, 2usize..=3, any::<u64>()).prop_map(|(sites, docs, seed)| WebGenConfig {
        sites,
        docs_per_site: docs,
        extra_local_links: 1,
        extra_global_links: 1,
        title_needle_prob: 0.5,
        seed,
        ..WebGenConfig::default()
    })
}

fn plan_config() -> impl Strategy<Value = MutationPlanConfig> {
    (any::<u64>(), 1usize..=3).prop_map(|(seed, count)| MutationPlanConfig {
        seed,
        count,
        start_us: 10_000,
        end_us: 150_000,
        token: "prop".to_owned(),
    })
}

fn spec(seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        users: 2,
        queries_per_user: 2,
        arrival: ArrivalProcess::Poisson {
            mean_interarrival_us: 40_000,
        },
        mix: QueryMix::single(GLOBAL_QUERY).with(LOCAL_QUERY, 1),
        seed,
        ..WorkloadSpec::default()
    }
}

fn engine() -> EngineConfig {
    EngineConfig {
        doc_cache_size: 8,
        ..EngineConfig::default()
    }
}

/// Canonical row rendering: one line per reported row, keyed by the
/// submitting user, query number, stage, and producing node.
fn row_lines(outcome: &WorkloadOutcome) -> Vec<String> {
    let mut lines = Vec::new();
    for r in &outcome.records {
        for (stage, rows) in &r.results {
            for (node, row) in rows {
                lines.push(format!("{}#{}:{stage}:{node}:{row}", r.user, r.query_num));
            }
        }
    }
    lines
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Invariant 1: the schedule is a pure function of (web, config).
    #[test]
    fn schedule_generation_is_seed_deterministic(
        web_cfg in web_config(),
        plan_cfg in plan_config(),
    ) {
        let web = generate(&web_cfg);
        let a = MutationSchedule::generate(&web, &plan_cfg);
        let b = MutationSchedule::generate(&web, &plan_cfg);
        prop_assert_eq!(&a, &b, "same seeds must yield the same schedule");
        prop_assert_eq!(a.events.len(), plan_cfg.count);
    }

    /// Invariants 2 and 3: live runs replay bit-identically, and every
    /// live row exists in the union of the per-version frozen baselines.
    #[test]
    fn live_runs_replay_and_rows_stay_inside_the_version_envelope(
        web_cfg in web_config(),
        plan_cfg in plan_config(),
        workload_seed in any::<u64>(),
    ) {
        let web = generate(&web_cfg);
        let schedule = MutationSchedule::generate(&web, &plan_cfg);
        let spec = spec(workload_seed);

        let run = |schedule: &MutationSchedule| {
            let live = Arc::new(LiveWeb::from_hosted(&web));
            let mut deployment = Deployment::new(Arc::clone(&live), engine());
            deployment.schedule = schedule.clone();
            let outcome = spec
                .run_sim(&deployment, SimConfig::default(), &mut |_, _| {})
                .expect("live run");
            (live.history_digest(), live.mutations_applied(), outcome)
        };
        let (digest_a, applied_a, outcome_a) = run(&schedule);
        let (digest_b, applied_b, outcome_b) = run(&schedule);

        prop_assert_eq!(digest_a, digest_b, "history digest must replay");
        prop_assert_eq!(applied_a, applied_b);
        prop_assert_eq!(applied_a, schedule.events.len() as u64);
        prop_assert_eq!(
            row_lines(&outcome_a),
            row_lines(&outcome_b),
            "per-(user, query, stage, node) rows must replay byte-identically"
        );
        prop_assert_eq!(outcome_a.duration_us, outcome_b.duration_us);

        // The envelope: the pristine web plus the snapshot after every
        // mutation prefix, each run fault-free and frozen.
        let mut envelope: BTreeSet<String> = BTreeSet::new();
        let frozen = |web| {
            run_workload_sim(Arc::new(web), &spec, engine(), SimConfig::default())
                .expect("frozen baseline")
        };
        envelope.extend(row_lines(&frozen(web.clone())));
        let twin = LiveWeb::from_hosted(&web);
        for m in &schedule.events {
            twin.apply(m);
            envelope.extend(row_lines(&frozen(twin.snapshot())));
        }
        for line in row_lines(&outcome_a) {
            prop_assert!(
                envelope.contains(&line),
                "live row {line:?} not produced by any version of the web"
            );
        }
    }
}

//! Property tests for the cross-query answer cache (DESIGN.md §2i):
//! under seeded Zipf workloads — including templates the cache can only
//! serve through subsumption replay — the cached engine is result-wise
//! indistinguishable from the uncached engine, and that stays true
//! under eviction churn (starvation byte budgets) and mid-stream
//! content invalidation.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use webdis::core::network::RecordingNetwork;
use webdis::core::{
    ArrivalProcess, CachePolicy, Deployment, EngineConfig, QueryMix, ServerEngine, WorkloadOutcome,
    WorkloadSpec,
};
use webdis::model::{SiteAddr, Url};
use webdis::net::{Message, NodeReport, QueryClone, QueryId};
use webdis::sim::SimConfig;
use webdis::trace::{TraceEvent, TraceHandle};
use webdis::web::{generate, HostedWeb, WebGenConfig};

/// The T13 templates plus a refinement whose answers the cache serves
/// by replaying the local template's cached bindings through the
/// residual `d.url contains "doc"` conjunct.
const LOCAL_QUERY: &str = r#"
    select d.url, d.title
    from document d such that "http://site0.test/doc0.html" L* d
    where d.title contains "needle"
"#;
const GLOBAL_QUERY: &str = r#"
    select d.url
    from document d such that "http://site0.test/doc0.html" (L|G)* d
    where d.title contains "needle"
"#;
const REFINED_QUERY: &str = r#"
    select d.url
    from document d such that "http://site0.test/doc0.html" L* d
    where d.title contains "needle" and d.url contains "doc"
"#;

fn small_web(seed: u64) -> Arc<HostedWeb> {
    Arc::new(generate(&WebGenConfig {
        sites: 3,
        docs_per_site: 3,
        title_needle_prob: 0.4,
        seed,
        ..WebGenConfig::default()
    }))
}

fn spec(seed: u64, s_milli: u64) -> WorkloadSpec {
    WorkloadSpec {
        users: 2,
        queries_per_user: 5,
        arrival: ArrivalProcess::Uniform {
            interarrival_us: 20_000,
        },
        mix: QueryMix::zipf(s_milli, &[LOCAL_QUERY, GLOBAL_QUERY, REFINED_QUERY]),
        seed,
        ..WorkloadSpec::default()
    }
}

fn engine_config(cache: Option<CachePolicy>, tracer: TraceHandle) -> EngineConfig {
    EngineConfig {
        cache,
        tracer,
        ..EngineConfig::default()
    }
}

/// Per-query rows keyed by `(stage, node)`: pins row content and the
/// within-node-report order the cache must preserve, while ignoring
/// cross-site arrival interleave — pure timing, which serving from
/// cache legitimately changes.
type Rows = BTreeMap<(usize, u64), BTreeMap<(u32, String), Vec<Vec<String>>>>;

fn canonical_rows(outcome: &WorkloadOutcome) -> Rows {
    let mut out = Rows::new();
    for rec in &outcome.records {
        let mut stages: BTreeMap<(u32, String), Vec<Vec<String>>> = BTreeMap::new();
        for (stage, rows) in &rec.results {
            for (node, row) in rows {
                stages
                    .entry((*stage, node.to_string()))
                    .or_default()
                    .push(row.values.iter().map(|v| v.render()).collect());
            }
        }
        out.insert((rec.user, rec.query_num), stages);
    }
    out
}

/// Runs the same seeded workload twice — cache off, then under
/// `policy` — and returns both outcomes plus the cached run's trace.
fn twin_run(
    web_seed: u64,
    workload_seed: u64,
    s_milli: u64,
    policy: CachePolicy,
) -> (
    WorkloadOutcome,
    WorkloadOutcome,
    Vec<webdis::trace::TraceRecord>,
) {
    let web = small_web(web_seed);
    let spec = spec(workload_seed, s_milli);
    let off = Deployment::new(web.clone(), engine_config(None, TraceHandle::noop())).workload_sim(
        SimConfig::default(),
        spec.plan().expect("uncached run"),
        spec.horizon_us,
    );
    let (collector, tracer) = TraceHandle::collecting(1 << 16);
    let on = Deployment::new(web, engine_config(Some(policy), tracer)).workload_sim(
        SimConfig::default(),
        spec.plan().expect("cached run"),
        spec.horizon_us,
    );
    (off, on, collector.snapshot())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Across seeded Zipf mixes — every skew from uniform to s=2.5 —
    /// the cached engine completes the same queries and produces the
    /// same rows as the uncached engine.
    #[test]
    fn cached_workload_matches_uncached_across_zipf_mixes(
        web_seed in 0u64..32,
        workload_seed in any::<u64>(),
        s_milli in 0u64..=2_500,
    ) {
        let (off, on, records) = twin_run(
            web_seed, workload_seed, s_milli, CachePolicy::default(),
        );
        prop_assert_eq!(off.hung(), 0);
        prop_assert_eq!(on.hung(), 0);
        prop_assert_eq!(canonical_rows(&off), canonical_rows(&on));
        // The cache was actually on the path: every evaluation site
        // consulted it.
        let consults = records
            .iter()
            .filter(|r| matches!(
                r.event,
                TraceEvent::CacheHit { .. } | TraceEvent::CacheMiss { .. }
            ))
            .count();
        prop_assert!(consults > 0, "no cache consults traced");
    }

    /// Starvation budgets force continuous eviction churn (or refuse
    /// admission outright); neither may change a single result row.
    #[test]
    fn eviction_churn_under_tiny_budgets_preserves_results(
        workload_seed in any::<u64>(),
        budget in 200u64..2_000,
    ) {
        let (off, on, _) = twin_run(7, workload_seed, 1_000, CachePolicy::with_budget(budget));
        prop_assert_eq!(off.hung(), 0);
        prop_assert_eq!(on.hung(), 0);
        prop_assert_eq!(canonical_rows(&off), canonical_rows(&on));
    }
}

/// The seeded Zipf(1.0) mix at the default budget banks subsumption
/// hits (the refined template served from the local template's entry),
/// and a starvation budget banks evictions — pinning that the two
/// properties above actually exercise both machineries.
#[test]
fn zipf_mix_banks_subsumed_hits_and_starved_budgets_evict() {
    let (_, on, records) = twin_run(7, 13, 1_000, CachePolicy::default());
    let subsumed = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::CacheHit { subsumed: true, .. }))
        .count();
    assert!(subsumed > 0, "no subsumption-served hits traced");
    assert!(on.sum_stat(|s| s.cache_hits) > 0);

    let (_, starved, _) = twin_run(7, 13, 1_000, CachePolicy::with_budget(600));
    assert!(
        starved.sum_stat(|s| s.cache_evictions) > 0,
        "600-byte budget must churn"
    );
}

/// Direct-drive harness for the invalidation property: one site-0
/// engine fed a sequence of StartNode clones, reports recorded.
fn clone_for(template: &str, num: u64) -> QueryClone {
    let q = webdis::disql::parse_disql(template).expect("template parses");
    QueryClone {
        id: QueryId {
            user: "prop".into(),
            host: "user.test".into(),
            port: 9,
            query_num: num,
        },
        dest_nodes: vec![Url::parse("http://site0.test/doc0.html").unwrap()],
        rem_pre: q.stages[0].pre.clone(),
        stages: q.stages,
        stage_offset: 0,
        hops: 0,
        ack_host: "user.test".into(),
        ack_port: 9,
    }
}

fn site0_engine(web: Arc<HostedWeb>, cache: Option<CachePolicy>) -> ServerEngine {
    ServerEngine::new(
        SiteAddr {
            host: "site0.test".into(),
            port: 80,
        },
        web,
        engine_config(cache, TraceHandle::noop()),
    )
}

/// One query through the engine; returns the node reports it shipped.
fn drive(engine: &mut ServerEngine, template: &str, num: u64) -> Vec<NodeReport> {
    let mut net = RecordingNetwork::default();
    engine.on_message(&mut net, Message::Query(clone_for(template, num)));
    net.sent
        .iter()
        .filter_map(|(_, m)| match m {
            Message::Report(r) => Some(r.reports.clone()),
            _ => None,
        })
        .flatten()
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Content invalidation fired between any two queries of the stream
    /// never changes a report: invalidated entries stop serving, the
    /// engine recomputes, and re-inserted entries serve again.
    #[test]
    fn mid_stream_invalidation_preserves_every_report(
        web_seed in 0u64..64,
        cut in 0usize..6,
    ) {
        const STREAM: [&str; 6] = [
            LOCAL_QUERY, REFINED_QUERY, LOCAL_QUERY,
            GLOBAL_QUERY, REFINED_QUERY, LOCAL_QUERY,
        ];
        let web = small_web(web_seed);
        let mut cached = site0_engine(web.clone(), Some(CachePolicy::default()));
        let mut uncached = site0_engine(web, None);

        for (k, template) in STREAM.iter().enumerate() {
            if k == cut {
                cached.invalidate_cache();
            }
            let got = drive(&mut cached, template, k as u64);
            let want = drive(&mut uncached, template, k as u64);
            prop_assert_eq!(got, want, "query {} diverged (cut at {})", k, cut);
        }
        // Wherever the cut fell, some repeat landed on a warm cache.
        prop_assert!(cached.stats.cache_hits > 0, "stream never hit the cache");
        prop_assert!(cached.stats.cache_misses > 0);
    }
}

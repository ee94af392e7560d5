//! Cross-crate integration tests: DISQL text in, distributed execution
//! over the simulated network, figure-level invariants out.

use std::sync::Arc;

use webdis::core::simrun::{load_user_addr, server_of};
use webdis::core::{
    run_datashipping_sim, run_query_sim, ArrivalProcess, CachePolicy, ClientProcess,
    CompletionMode, Deployment, EngineConfig, LogMode, QueryMix, ScheduledClient, UserPlan,
    WorkloadSpec,
};
use webdis::net::Disposition;
use webdis::sim::{ProcModel, SimConfig};
use webdis::trace::{TraceEvent, TraceHandle, TraceRecord};
use webdis::web::{figures, generate, HostedWeb, PageBuilder, WebGenConfig};

fn default_outcome(web: Arc<HostedWeb>, disql: &str) -> webdis::core::QueryOutcome {
    run_query_sim(web, disql, EngineConfig::default(), SimConfig::default()).expect("query parses")
}

// ---------------------------------------------------------------------
// Figure-level invariants (the bench binaries print these; the tests pin
// them).
// ---------------------------------------------------------------------

#[test]
fn figure1_roles() {
    let outcome = default_outcome(Arc::new(figures::figure1()), figures::FIG_QUERY);
    assert!(outcome.complete);
    let events_at = |host: &str| -> Vec<Disposition> {
        outcome
            .trace
            .iter()
            .filter(|e| e.node.host() == host)
            .map(|e| e.disposition)
            .collect()
    };
    for router in ["n1.test", "n2.test", "n3.test"] {
        assert_eq!(events_at(router), vec![Disposition::PureRouted], "{router}");
    }
    assert_eq!(
        events_at("n4.test"),
        vec![Disposition::Answered, Disposition::Answered],
        "node 4 acts as a ServerRouter twice"
    );
    assert_eq!(events_at("n7.test"), vec![Disposition::DeadEnd]);
    // q1 answered at 4 and 5; q2 at 4, 6, 8.
    assert_eq!(outcome.rows_of_stage(0).len(), 2);
    assert_eq!(outcome.rows_of_stage(1).len(), 3);
}

#[test]
fn figure5_duplicates_dropped() {
    let strict = EngineConfig {
        completion: CompletionMode::ChtStrict,
        ..EngineConfig::default()
    };
    let outcome = run_query_sim(
        Arc::new(figures::figure5()),
        figures::FIG_QUERY,
        strict,
        SimConfig::default(),
    )
    .unwrap();
    assert!(outcome.complete);
    let n4: Vec<_> = outcome
        .trace
        .iter()
        .filter(|e| e.node.host() == "n4.test")
        .collect();
    assert_eq!(n4.len(), 5, "the paper's five visits a–e");
    let dups = n4
        .iter()
        .filter(|e| e.disposition == Disposition::Duplicate)
        .count();
    assert_eq!(dups, 2, "d and e are dropped by the log table");
    assert_eq!(outcome.sum_stat(|s| s.duplicates_dropped), 2);
}

#[test]
fn figure8_rows() {
    let outcome = default_outcome(Arc::new(figures::campus()), figures::CAMPUS_QUERY);
    assert!(outcome.complete);
    let rows = outcome.rows_of_stage(1);
    assert_eq!(rows.len(), 3);
    for (url, title, convener) in figures::CAMPUS_EXPECTED {
        let row = rows
            .iter()
            .find(|(_, r)| r.values[0].render() == url)
            .unwrap_or_else(|| panic!("missing {url}"));
        assert_eq!(row.1.values[1].render(), title);
        assert!(row.1.values[2].render().contains(convener));
    }
}

// ---------------------------------------------------------------------
// Engine agreement and configuration invariance.
// ---------------------------------------------------------------------

#[test]
fn all_engine_configs_agree_on_campus() {
    let web = Arc::new(figures::campus());
    let reference = default_outcome(Arc::clone(&web), figures::CAMPUS_QUERY).result_set();
    let configs = [
        EngineConfig::strict(),
        EngineConfig {
            log_mode: LogMode::Off,
            completion: CompletionMode::ChtStrict,
            batch_per_site: false,
            local_forwarding: false,
            max_hops: 16,
            ..EngineConfig::default()
        },
        EngineConfig {
            batch_per_site: false,
            ..EngineConfig::default()
        },
        EngineConfig {
            local_forwarding: false,
            ..EngineConfig::default()
        },
    ];
    for cfg in configs {
        let outcome = run_query_sim(
            Arc::clone(&web),
            figures::CAMPUS_QUERY,
            cfg.clone(),
            SimConfig::default(),
        )
        .unwrap();
        assert!(outcome.complete, "{cfg:?} must complete");
        assert_eq!(outcome.result_set(), reference, "{cfg:?} must agree");
    }
    // The data-shipping baseline agrees too.
    let data = run_datashipping_sim(web, figures::CAMPUS_QUERY, SimConfig::default()).unwrap();
    assert!(data.complete);
    assert_eq!(data.result_set(), reference);
}

#[test]
fn generated_web_multi_stage_query() {
    // Two-stage query on a generated web: find needle pages, then from
    // each follow one more link and report its global anchors.
    let web = Arc::new(generate(&WebGenConfig {
        sites: 6,
        docs_per_site: 3,
        title_needle_prob: 0.4,
        seed: 99,
        ..WebGenConfig::default()
    }));
    let disql = r#"
        select d0.url, d1.url, a.href
        from document d0 such that "http://site0.test/doc0.html" (L|G)* d0,
        where d0.title contains "needle"
             document d1 such that d0 (L|G) d1,
             anchor a such that a.ltype = "G"
    "#;
    let ship = default_outcome(Arc::clone(&web), disql);
    assert!(ship.complete);
    assert!(ship.total_rows() > 0, "the sweep must find something");
    let data = run_datashipping_sim(web, disql, SimConfig::default()).unwrap();
    assert_eq!(ship.result_set(), data.result_set());
}

#[test]
fn interior_links_traverse_within_document() {
    let mut web = HostedWeb::new();
    web.insert_page(
        "http://a.test/",
        PageBuilder::new("Index with fragment nav")
            .link("#section2", "jump")
            .link("other.html", "other"),
    );
    web.insert_page("http://a.test/other.html", PageBuilder::new("Other page"));
    // I-link traversal arrives back at the same document.
    let outcome = default_outcome(
        Arc::new(web),
        r#"select d.url, d.title
           from document d such that "http://a.test/" I d"#,
    );
    assert!(outcome.complete);
    let rows = outcome.rows_of_stage(0);
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].1.values[0].render(), "http://a.test/");
}

#[test]
fn results_return_directly_not_via_path() {
    // Section 2.6: results go straight to the user site. On a chain
    // a -> b -> c, site a must receive exactly one message (its own
    // clone); reports from b and c never pass through a.
    let mut web = HostedWeb::new();
    web.insert_page(
        "http://a.test/",
        PageBuilder::new("A needle").link("http://b.test/", "b"),
    );
    web.insert_page(
        "http://b.test/",
        PageBuilder::new("B needle").link("http://c.test/", "c"),
    );
    web.insert_page("http://c.test/", PageBuilder::new("C needle"));
    let outcome = default_outcome(
        Arc::new(web),
        r#"select d.url from document d such that "http://a.test/" G* d
           where d.title contains "needle""#,
    );
    assert!(outcome.complete);
    assert_eq!(outcome.total_rows(), 3);
    let a_load = outcome
        .metrics
        .received_by_site
        .iter()
        .find(|(s, _)| &*s.host == "wdqs.a.test")
        .map(|(_, n)| *n)
        .unwrap_or(0);
    assert_eq!(
        a_load, 1,
        "site a's daemon only ever receives its own clone"
    );
}

#[test]
fn hop_limit_reports_clear_cht() {
    // With log table off and a tiny hop cap on a cyclic web, the engine
    // must still detect completion: hop-capped clones report dead-ends.
    let web = Arc::new(generate(&WebGenConfig {
        sites: 4,
        docs_per_site: 2,
        seed: 3,
        ..WebGenConfig::default()
    }));
    let cfg = EngineConfig {
        log_mode: LogMode::Off,
        completion: CompletionMode::ChtStrict,
        max_hops: 3,
        ..EngineConfig::default()
    };
    let outcome = run_query_sim(
        web,
        r#"select d.url from document d such that "http://site0.test/doc0.html" (L|G)* d"#,
        cfg,
        SimConfig::default(),
    )
    .unwrap();
    assert!(outcome.complete, "hop-capped run must still complete");
    assert!(outcome.sum_stat(|s| s.hop_limit_drops) > 0);
}

#[test]
fn superset_rewrite_exercised_end_to_end() {
    // A diamond where one path is shorter than the other delivers the
    // same query to node X with different remaining bounds: the longer
    // residual must be rewritten (Section 3.1.1 m > n) and the extra
    // depth explored. start -L-> a -L-> x -L-> deep ; start -L-> x.
    let mut web = HostedWeb::new();
    web.insert_page(
        "http://s.test/",
        PageBuilder::new("start")
            .link("/a.html", "a")
            .link("/x.html", "x-short"),
    );
    web.insert_page(
        "http://s.test/a.html",
        PageBuilder::new("a").link("/x.html", "x"),
    );
    web.insert_page(
        "http://s.test/x.html",
        PageBuilder::new("x needle").link("/deep.html", "deep"),
    );
    web.insert_page("http://s.test/deep.html", PageBuilder::new("deep needle"));
    // L*3: via the short path x still has L*2 of budget; via the long
    // path only L*1. Arrival order decides which is the superset.
    let disql = r#"select d.url from document d such that "http://s.test/" L*3 d
                   where d.title contains "needle""#;
    for cfg in [EngineConfig::default(), EngineConfig::strict()] {
        let outcome =
            run_query_sim(Arc::new(web.clone()), disql, cfg, SimConfig::default()).unwrap();
        assert!(outcome.complete);
        // Both x and deep match, exactly once each in the result set.
        assert_eq!(outcome.result_set().len(), 2);
    }
}

// ---------------------------------------------------------------------
// TCP runtime.
// ---------------------------------------------------------------------

#[test]
fn tcp_runtime_matches_sim() {
    let web = Arc::new(figures::campus());
    let tcp = Deployment::new(Arc::clone(&web), EngineConfig::default())
        .query_tcp(
            figures::CAMPUS_QUERY,
            std::time::Duration::from_secs(30),
            Vec::new(),
        )
        .unwrap();
    assert!(tcp.complete);
    let sim = default_outcome(web, figures::CAMPUS_QUERY);
    let tcp_rows: std::collections::BTreeSet<_> = tcp
        .results
        .iter()
        .flat_map(|(s, rows)| {
            rows.iter().map(move |(n, r)| {
                (
                    *s,
                    n.to_string(),
                    r.values.iter().map(|v| v.render()).collect::<Vec<_>>(),
                )
            })
        })
        .collect();
    assert_eq!(tcp_rows, sim.result_set());
}

#[test]
fn automatic_log_purging_preserves_results() {
    // config.log_purge_us is the servers' one purge, run as each message
    // arrives; an absurdly short period forces recomputation but never
    // changes the result set.
    let web = Arc::new(generate(&WebGenConfig {
        sites: 6,
        docs_per_site: 3,
        extra_local_links: 2,
        extra_global_links: 2,
        title_needle_prob: 0.5,
        seed: 4242,
        ..WebGenConfig::default()
    }));
    let disql = r#"select d.url from document d
                   such that "http://site0.test/doc0.html" (L|G)* d
                   where d.title contains "needle""#;
    let calm = run_query_sim(
        Arc::clone(&web),
        disql,
        EngineConfig::strict(),
        SimConfig::default(),
    )
    .unwrap();
    let purging = run_query_sim(
        web,
        disql,
        EngineConfig {
            log_purge_us: Some(1_000),
            ..EngineConfig::strict()
        },
        SimConfig::default(),
    )
    .unwrap();
    assert!(calm.complete && purging.complete);
    assert_eq!(calm.result_set(), purging.result_set());
    assert!(
        purging.sum_stat(|s| s.evaluations) >= calm.sum_stat(|s| s.evaluations),
        "purging can only add recomputation"
    );
}

/// One purging (or not) run of T19's shape, by hand: every user of
/// `plans` a client process at its workload address, as
/// `Deployment::workload_sim` places them. Returns the servers' total
/// evaluations and final log length, and the records the trace says
/// were purged.
fn purge_run(web: &Arc<HostedWeb>, purge_us: Option<u64>, plans: &[UserPlan]) -> (u64, usize, u64) {
    let (collector, tracer) = TraceHandle::collecting(1 << 16);
    let deployment = Deployment::new(Arc::clone(web), purge_config(purge_us, tracer));
    let mut net = deployment.sim_net(workstation_sim());
    for (user, plan) in plans.iter().enumerate() {
        let addr = load_user_addr(user);
        let name = format!("load{user}");
        let client = ClientProcess::new(&name, addr.clone(), deployment.config.clone());
        let planned = plan.submissions.iter().map(|s| (0, s.clone())).collect();
        let user = ScheduledClient::new(vec![client], planned);
        net.register(addr.clone(), Box::new(user));
        net.start(&addr);
    }
    deployment.drive_sim(&mut net, u64::MAX, u64::MAX);
    let (mut evaluations, mut log_len) = (0, 0);
    for site in web.sites() {
        let server = server_of(&mut net, &site).expect("every site runs a server");
        evaluations += server.stats.evaluations;
        log_len += server.log_len();
    }
    (evaluations, log_len, purged(&collector.snapshot()))
}

/// T19's simulator: 1999-workstation costs.
fn workstation_sim() -> SimConfig {
    SimConfig {
        proc: ProcModel::workstation_1999(),
        ..SimConfig::default()
    }
}

/// T19's engine configuration, with `purge_us` as its purge period.
fn purge_config(purge_us: Option<u64>, tracer: TraceHandle) -> EngineConfig {
    EngineConfig {
        doc_cache_size: 64,
        cache: Some(CachePolicy::default()),
        log_purge_us: purge_us,
        tracer,
        ..EngineConfig::default()
    }
}

/// The log records a trace says were purged.
fn purged(records: &[TraceRecord]) -> u64 {
    let purges = records.iter().filter_map(|r| match r.event {
        TraceEvent::Purge { records } => Some(u64::from(records)),
        _ => None,
    });
    purges.sum()
}

#[test]
fn every_dropped_log_record_is_traced() {
    // T19's shape — two users, Poisson arrivals over the global/local
    // mix, 1999-workstation costs, both caches — with the submissions
    // spread over several 50 ms purge periods, each query far shorter
    // than one: the purge drops only finished queries' records, so it
    // recomputes nothing, and each record it drops is in a `purge`
    // trace record, on a hand-driven run and on the workload driver.
    let web = Arc::new(generate(&WebGenConfig {
        sites: 4,
        docs_per_site: 3,
        extra_local_links: 1,
        extra_global_links: 1,
        title_needle_prob: 0.4,
        seed: 19,
        ..WebGenConfig::default()
    }));
    let global = r#"select d.url from document d
                    such that "http://site0.test/doc0.html" (L|G)* d
                    where d.title contains "needle""#;
    let local = r#"select d.url, d.title from document d
                   such that "http://site0.test/doc0.html" L* d
                   where d.title contains "needle""#;
    let spec = WorkloadSpec {
        users: 2,
        queries_per_user: 4,
        arrival: ArrivalProcess::Poisson {
            mean_interarrival_us: 50_000,
        },
        mix: QueryMix::single(global).with(local, 2),
        seed: 19,
        ..WorkloadSpec::default()
    };
    let plans = spec.plan().unwrap();
    let last_us = plans
        .iter()
        .flat_map(|p| &p.submissions)
        .map(|s| s.at_us)
        .max();
    assert!(last_us > Some(100_000), "submissions span two periods");

    let (evaluations, kept, none_purged) = purge_run(&web, None, &plans);
    assert_eq!(none_purged, 0);
    let (purging_evaluations, left, traced) = purge_run(&web, Some(50_000), &plans);
    assert_eq!(purging_evaluations, evaluations, "purging recomputed");
    let dropped = (kept - left) as u64;
    assert!(dropped > 0, "the purge dropped records");
    assert_eq!(traced, dropped, "every dropped record is traced");

    let (collector, tracer) = TraceHandle::collecting(1 << 16);
    let deployment = Deployment::new(Arc::clone(&web), purge_config(Some(50_000), tracer));
    let outcome = deployment.workload_sim(workstation_sim(), plans, spec.horizon_us);
    let stats = outcome.server_stats;
    assert_eq!(
        stats.values().map(|s| s.evaluations).sum::<u64>(),
        evaluations
    );
    let traced_on_the_driver = purged(&collector.snapshot());
    assert_eq!(
        traced_on_the_driver, dropped,
        "the workload driver drops untraced"
    );
}

#[test]
fn paper_example_query_1_extracts_global_links() {
    // Section 2.3, Example Query 1: all global links of the DSL site,
    // starting from its homepage, following local links only. "It
    // returns [the base] and the hyperlinks of each document which
    // satisfy the condition a.ltype = 'G'."
    let web = Arc::new(figures::campus());
    let outcome = default_outcome(Arc::clone(&web), figures::EXAMPLE_QUERY_1);
    assert!(outcome.complete);
    let rows = outcome.rows_of_stage(0);
    // Compare against the graph oracle: every global link whose base is
    // on dsl.serc.iisc.ernet.in and is reachable from the homepage by
    // local links.
    let graph = web.graph();
    let start = webdis::model::Url::parse("http://dsl.serc.iisc.ernet.in").unwrap();
    let reachable = graph.reachable(&start, &[webdis::model::LinkType::Local]);
    let expected: std::collections::BTreeSet<(String, String)> = reachable
        .iter()
        .flat_map(|node| {
            graph
                .links_of_type(node, webdis::model::LinkType::Global)
                .map(|l| (l.base.to_string(), l.href.to_string()))
        })
        .collect();
    let got: std::collections::BTreeSet<(String, String)> = rows
        .iter()
        .map(|(_, r)| (r.values[0].render(), r.values[1].render()))
        .collect();
    assert_eq!(got, expected);
    assert!(!got.is_empty(), "the DSL site links out globally");
    // Every returned link is global: base on the DSL site, target not.
    for (base, href) in &got {
        assert!(base.contains("dsl.serc.iisc.ernet.in"));
        assert!(!href.contains("dsl.serc.iisc.ernet.in"));
    }
}

#[test]
fn ack_chain_completion_agrees_with_cht() {
    // The Section-6 alternative: Dijkstra–Scholten acknowledgement
    // chains. Same results, exact completion — different wire profile
    // (no CHT entries, resultless nodes silent, ack messages instead).
    let web = Arc::new(figures::campus());
    let cht = default_outcome(Arc::clone(&web), figures::CAMPUS_QUERY);
    let ack = run_query_sim(
        Arc::clone(&web),
        figures::CAMPUS_QUERY,
        EngineConfig::ack_chain(),
        SimConfig::default(),
    )
    .unwrap();
    assert!(ack.complete, "ack chain must detect completion");
    assert_eq!(ack.result_set(), cht.result_set());
    assert!(ack.metrics.messages_of("ack") > 0, "acks must flow");
    // No CHT overhead travels: reports carry no entries (on this web
    // every site batch happens to hold some results, so the message
    // count matches while the bytes shrink).
    assert!(
        ack.metrics.messages_of("report") <= cht.metrics.messages_of("report"),
        "ack chains never send more reports"
    );
    assert!(
        ack.metrics.bytes_of("report") < cht.metrics.bytes_of("report"),
        "reports without CHT entries are smaller"
    );
    // Detection waits for the ack wave: completion is later relative to
    // the last result than under the CHT.
    assert!(ack.completed_at_us >= ack.first_result_us);
}

#[test]
fn ack_chain_on_generated_webs() {
    for seed in [11u64, 22, 33] {
        let web = Arc::new(generate(&WebGenConfig {
            sites: 10,
            docs_per_site: 3,
            extra_global_links: 2,
            title_needle_prob: 0.4,
            seed,
            ..WebGenConfig::default()
        }));
        let disql = r#"select d.url from document d
                       such that "http://site0.test/doc0.html" (L|G)* d
                       where d.title contains "needle""#;
        let cht = run_query_sim(
            Arc::clone(&web),
            disql,
            EngineConfig::default(),
            SimConfig::default(),
        )
        .unwrap();
        let ack = run_query_sim(
            Arc::clone(&web),
            disql,
            EngineConfig::ack_chain(),
            SimConfig::default(),
        )
        .unwrap();
        assert!(cht.complete && ack.complete, "seed {seed}");
        assert_eq!(cht.result_set(), ack.result_set(), "seed {seed}");
    }
}

#[test]
fn ack_chain_survives_reordering_jitter() {
    let web = Arc::new(generate(&WebGenConfig {
        sites: 8,
        docs_per_site: 3,
        extra_global_links: 2,
        seed: 5,
        ..WebGenConfig::default()
    }));
    let disql = r#"select d.url from document d such that "http://site0.test/doc0.html" (L|G)* d"#;
    for seed in [1u64, 2, 3, 4, 5] {
        let outcome = run_query_sim(
            Arc::clone(&web),
            disql,
            EngineConfig::ack_chain(),
            SimConfig {
                jitter_us: 60_000,
                seed,
                ..SimConfig::default()
            },
        )
        .unwrap();
        assert!(outcome.complete, "ack chain under jitter seed {seed}");
    }
}

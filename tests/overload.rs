//! Overload without collapse (Section 3.1.1): "old entries in the table
//! are periodically purged", and a purge period set too low "only
//! affects the performance of the system but not the correctness of the
//! results".
//!
//! One user sends the `crawl16` title crawl every 15 ms to sites that
//! charge a 1999 workstation's costs, so each site's backlog grows while
//! the queries run. A daemon that forgot each log row one period after
//! logging it found no row for the clones still queued behind that row,
//! processed them again and re-expanded the traversal around the web's
//! cycles: at 60 queries and a 200 ms period it made 1 293.1 evaluations
//! per query instead of 96, took 15.12 s of virtual time instead of
//! 1.12 s, and shipped 13 to 535 rows per query where 13 were due. A
//! daemon that forgets a whole query once no clone of it has arrived for
//! one period evaluates each node once per query, as without the purge.

use std::sync::Arc;

use webdis::core::{
    ArrivalProcess, Deployment, EngineConfig, QueryMix, QueryRecord, WorkloadOutcome, WorkloadSpec,
};
use webdis::sim::{ProcModel, SimConfig};
use webdis::web::{generate, WebGenConfig};

/// hwbench's `crawl16` query: a `(L|G)*` title crawl from site 0.
const CRAWL: &str = r#"select d.url, d.title from document d such that "http://site0.test/doc0.html" (L|G)* d where d.title contains "needle""#;

/// The crawl's 96 documents, each evaluated once per query.
const VISITS: u64 = 96;

/// One user, a crawl every 15 ms, on hwbench's `crawl16` web (16 sites ×
/// 6 documents of 400 filler words) at 1999-workstation costs.
fn run(queries: usize, log_purge_us: Option<u64>) -> WorkloadOutcome {
    let web = Arc::new(generate(&WebGenConfig {
        sites: 16,
        docs_per_site: 6,
        extra_local_links: 2,
        extra_global_links: 2,
        title_needle_prob: 0.2,
        filler_words: 400,
        seed: 11,
        ..WebGenConfig::default()
    }));
    let spec = WorkloadSpec {
        users: 1,
        queries_per_user: queries,
        arrival: ArrivalProcess::Uniform {
            interarrival_us: 15_000,
        },
        mix: QueryMix::single(CRAWL),
        ..WorkloadSpec::default()
    };
    let config = EngineConfig {
        log_purge_us,
        ..EngineConfig::default()
    };
    let sim = SimConfig {
        proc: ProcModel::workstation_1999(),
        ..SimConfig::default()
    };
    let plans = spec.plan().expect("the crawl parses");
    Deployment::new(web, config).workload_sim(sim, plans, spec.horizon_us)
}

/// A query's rows as a multiset: a row shipped twice is seen twice.
fn rows(record: &QueryRecord) -> Vec<(u32, String, Vec<String>)> {
    let mut rows: Vec<_> = record
        .results
        .iter()
        .flat_map(|(stage, rows)| rows.iter().map(move |row| (*stage, row)))
        .map(|(stage, (node, row))| {
            let values = row.values.iter().map(|v| v.render()).collect();
            (stage, node.to_string(), values)
        })
        .collect();
    rows.sort();
    rows
}

/// Runs `queries` crawls with and without a 200 ms purge, and holds the
/// purging run to the other's evaluations, rows and (within 1.2×)
/// virtual duration.
fn purge_costs_nothing_at(queries: usize) {
    let evaluations = |o: &WorkloadOutcome| o.sum_stat(|s| s.evaluations);
    let calm = run(queries, None);
    assert_eq!(calm.completed_clean(), queries);
    assert_eq!(evaluations(&calm), VISITS * queries as u64);

    let purging = run(queries, Some(200_000));
    assert_eq!(
        evaluations(&purging),
        evaluations(&calm),
        "{:.1} evaluations per query over {} µs, against {VISITS} over {} µs",
        evaluations(&purging) as f64 / queries as f64,
        purging.duration_us,
        calm.duration_us,
    );
    assert_eq!(purging.completed_clean(), queries);
    assert_eq!(purging.records.len(), calm.records.len());
    for (p, c) in purging.records.iter().zip(&calm.records) {
        assert_eq!(rows(p), rows(c), "query {}", p.query_num);
    }
    assert!(
        purging.duration_us * 5 <= calm.duration_us * 6,
        "{} µs purging against {} µs",
        purging.duration_us,
        calm.duration_us
    );
}

#[test]
fn a_period_longer_than_the_backlog_recomputes_nothing() {
    purge_costs_nothing_at(60);
}

#[test]
#[ignore = "ROADMAP 19(d): a backlog longer than one period still re-expands the traversal"]
fn a_backlog_longer_than_one_period_recomputes_nothing() {
    purge_costs_nothing_at(80);
}

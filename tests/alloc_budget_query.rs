//! Allocation budget of a whole query — the engine around the evaluator,
//! gated with no clock in it.
//!
//! `tests/alloc_budget.rs` holds the document path (parse, relations,
//! evaluation) to its budget; this binary holds everything else a query
//! does: decoding nothing but still handing a clone from site to site,
//! the log table, the CHT, the reports, the simulator's metering. When
//! `Url`, `QueryId`, `Pre` and a clone's stage list were deep copies at
//! every hand-off, one `crawl16` query made 33 178 allocations (2.6 MB by
//! this counter), about 174 per clone handled outside the 96 visits'
//! document path; as shared handles it made about 9 000 (1.4 MB), 16 per
//! clone. With the document path at 47.3 allocations per visit (see
//! `tests/alloc_budget.rs`) it made 6 748 (1.3 MB); at 27.3, with each
//! stage compiled once, 4 860 (0.84 MB); at 25.2, with DOCUMENT never
//! indexed, 4 654 (0.80 MB), and 4 670 (0.80 MB) once a daemon forgot a
//! query whole. Building a column's index on its second ask leaves the
//! count at 4 670 — the crawl's one conjunct filters DOCUMENT's one tuple
//! and is no probe — and the bytes at 0.77 MB (a database's unbuilt index
//! slots are a pointer each); `tests/alloc_budget_campus.rs` gates the
//! query whose conjuncts are probes. The budget sits 10 % above 4 654, so
//! putting a copy back on the clone path or the document path fails here
//! before it shows on a benchmark.
//!
//! One test, alone in its binary: the counters are process-wide.

mod counting;

use std::sync::Arc;

use counting::counted;

use webdis::core::{run_query_sim, EngineConfig};
use webdis::disql::parse_disql;
use webdis::rel::NodeDb;
use webdis::sim::SimConfig;
use webdis::web::gen::{generate, WebGenConfig};

#[global_allocator]
static GLOBAL: counting::Counting = counting::Counting;

#[test]
fn a_crawl_query_stays_inside_its_allocation_budget() {
    // hwbench's crawl16 workload: 16 sites × 6 documents, one (L|G)*
    // title crawl per `run_query_sim` call, default engine and simulator.
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
    let disql = r#"select d.url, d.title from document d such that "http://site0.test/doc0.html" (L|G)* d where d.title contains "needle""#;
    let run = || {
        run_query_sim(
            Arc::clone(&web),
            disql,
            EngineConfig::default(),
            SimConfig::default(),
        )
        .expect("the crawl query parses")
    };
    let warm = run();
    assert!(warm.complete);

    let (outcome, allocations, bytes) = counted(run);
    assert!(outcome.complete);
    let stats = outcome.server_stats.values();
    let clones: u64 = stats.map(|s| s.clones_received).sum();
    assert_eq!(clones, 138, "clones handled by the 16 servers");

    // The document path's share (what `tests/alloc_budget.rs` gates):
    // every page parsed and queried once, as the 96 visits do.
    let query = parse_disql(disql).expect("parsed above");
    let plan = query.stages[0].plan();
    let (rows, visits, _) = counted(|| {
        let visit = |url| {
            let db = NodeDb::parse(url, Arc::clone(web.shared(url).expect("a hosted page")));
            let rows = plan.execute(&db).expect("the query evaluates");
            rows.0.len()
        };
        web.urls().map(visit).sum::<usize>()
    });
    assert_eq!(rows, outcome.results[&0].len());
    println!(
        "{allocations} allocations and {bytes} bytes per query; {visits} of them the 96 visits, \
         {:.1} per clone handled outside them",
        allocations.saturating_sub(visits) as f64 / clones as f64
    );
    assert!(
        allocations <= 5_120,
        "{allocations} allocations per query, budget 5 120"
    );
    assert!(bytes <= 1_600_000, "{bytes} bytes per query, budget 1.6 MB");
}

//! Allocation budget of the paper's Example Query 2 on the Section 5
//! campus web — `tests/alloc_budget_query.rs`'s gate, for the query
//! whose node-queries carry index-servable conjuncts.
//!
//! Stage 1 (`relinfon r such that r.delimiter = "hr"`, `where r.text
//! contains "convener"`) probes two indexed columns of every lab page it
//! visits, and each page's database is asked that one node-query and
//! purged (§2.4, doc cache off). While a column's first probe built its
//! index, one query made 816 allocations; now that the first ask scans
//! and only the second builds, it makes 712. The budget sits 10 %
//! above that, so building an index for a database read once fails here
//! before it shows on a benchmark.
//!
//! One test, alone in its binary: the counters are process-wide.

mod counting;

use std::sync::Arc;

use counting::counted;

use webdis::core::{run_query_sim, EngineConfig};
use webdis::sim::SimConfig;
use webdis::web::figures;

#[global_allocator]
static GLOBAL: counting::Counting = counting::Counting;

#[test]
fn the_campus_query_stays_inside_its_allocation_budget() {
    let web = Arc::new(figures::campus());
    let run = || {
        run_query_sim(
            Arc::clone(&web),
            figures::CAMPUS_QUERY,
            EngineConfig::default(),
            SimConfig::default(),
        )
        .expect("the campus query parses")
    };
    let warm = run();
    assert!(warm.complete);

    let (outcome, allocations, bytes) = counted(run);
    assert!(outcome.complete);
    let conveners = outcome.rows_of_stage(1).len();
    assert_eq!(
        conveners,
        figures::CAMPUS_EXPECTED.len(),
        "the Figure 8 rows"
    );
    println!("{allocations} allocations and {bytes} bytes per query");
    assert!(
        allocations <= 783,
        "{allocations} allocations per query, budget 783"
    );
}

//! Allocation budget of the document path — a regression gate with no
//! clock in it.
//!
//! With the doc cache off, every visit of a crawl parses its page, builds
//! the node's database and evaluates the node-query against it for the
//! first time. What that costs is mostly how many times the page's text is
//! copied, and a counting allocator sees every copy: the `Vec<Token>`
//! tokenizer with per-container rel-infon strings and eagerly built
//! relations took 263 allocations and 18× the page's length per visit; one
//! text buffer with spans into it and relations formed on first use took
//! about 105 and 5×, and 71.1 and 3.4× once shared handles reached the
//! clone path. Links resolved through a per-document host table with no
//! segment list for a normal path, a title index in three buffers and
//! presized name and URL buffers took 47.3 and 3.0×. A page scanned once,
//! its body text left as byte ranges of the shared page until a query
//! reads it, columns formed one at a time, links without labels and the
//! plan compiled once per query (as the engine compiles each stage once)
//! take 27.3 and 1.1×. The budget sits 10 % above that, so putting a copy
//! back fails here before it shows on a benchmark.
//!
//! One test, alone in its binary: the counters are process-wide.

mod counting;

use std::sync::Arc;

use counting::counted;
use webdis::disql::parse_disql;
use webdis::rel::NodeDb;
use webdis::web::gen::{generate, WebGenConfig};

#[global_allocator]
static GLOBAL: counting::Counting = counting::Counting;

#[test]
fn a_crawl_visit_stays_inside_its_allocation_budget() {
    // hwbench's crawl16 web: 16 sites × 6 documents of 400 filler words
    // and about 6 links, crawled for `d.title contains "needle"`.
    let web = generate(&WebGenConfig {
        sites: 16,
        docs_per_site: 6,
        extra_local_links: 2,
        extra_global_links: 2,
        title_needle_prob: 0.2,
        filler_words: 400,
        seed: 11,
        ..WebGenConfig::default()
    });
    let disql = r#"select d.url, d.title from document d
                   such that "http://site0.test/doc0.html" (L|G)* d
                   where d.title contains "needle""#;
    // Compiled once, as the engine compiles each stage once.
    let query = parse_disql(disql).expect("the crawl query parses");
    let plan = query.stages[0].plan();
    // Shared, as the engine fetches them.
    let pages: Vec<_> = web
        .urls()
        .map(|url| (url, web.shared(url).expect("a hosted page")))
        .collect();

    let (rows, allocations, bytes) = counted(|| {
        let mut rows = 0;
        for (url, html) in &pages {
            let db = NodeDb::parse(url, Arc::clone(html));
            let (found, _) = plan.execute(&db).expect("the query evaluates");
            rows += found.len();
        }
        rows
    });

    let visits = pages.len();
    let html_bytes: usize = pages.iter().map(|(_, html)| html.len()).sum();
    assert_eq!(visits, 96);
    assert!(rows > 0 && rows < visits, "the needle is in some titles");
    assert!(
        allocations <= 30 * visits,
        "{:.1} allocations per visit, budget 30",
        allocations as f64 / visits as f64
    );
    assert!(
        bytes <= 6 * html_bytes,
        "{:.2}× the HTML length allocated per visit, budget 6×",
        bytes as f64 / html_bytes as f64
    );
    println!(
        "{:.1} allocations and {:.2}× the HTML length per visit",
        allocations as f64 / visits as f64,
        bytes as f64 / html_bytes as f64
    );
}

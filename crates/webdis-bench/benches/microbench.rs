//! Criterion microbenchmarks for the engine's hot paths: PRE operations,
//! HTML parsing, virtual-relation construction, node-query evaluation,
//! log-table checks and the wire codec.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use webdis_model::{LinkType, Url};
use webdis_net::{decode_message, encode_message, CloneState, Message, QueryClone, QueryId, Wire};
use webdis_pre::{check_subsumption, closure};
use webdis_rel::{NodeDb, RelKind};
use webdis_web::{generate, PageBuilder, WebGenConfig};

fn sample_html(links: usize, words: usize) -> String {
    let mut page = PageBuilder::new("A benchmark document about needles");
    let mut body = String::new();
    for w in 0..words {
        if w > 0 {
            body.push(' ');
        }
        body.push_str(["alpha", "bravo", "charlie", "delta"][w % 4]);
    }
    page = page.para(&body).hr();
    for i in 0..links {
        page = page.link(&format!("http://site{}.test/doc{i}.html", i % 7), "ref");
    }
    page.build()
}

/// hwbench's `crawl16` web: 16 sites × 6 documents of 400 filler words.
fn crawl16() -> webdis_web::HostedWeb {
    generate(&WebGenConfig {
        sites: 16,
        docs_per_site: 6,
        extra_local_links: 2,
        extra_global_links: 2,
        title_needle_prob: 0.2,
        filler_words: 400,
        seed: 11,
        ..WebGenConfig::default()
    })
}

/// The 96 distinct pages of [`crawl16`], each with its URL.
/// Every page of the crawl16 web, shared as the web hosts it.
fn crawl16_pages() -> Vec<(Url, std::sync::Arc<str>)> {
    let web = crawl16();
    let page = |url: &Url| (url.clone(), web.shared(url).unwrap().clone());
    web.urls().map(page).collect()
}

fn bench_pre(c: &mut Criterion) {
    let mut group = c.benchmark_group("pre");
    let texts = ["N|G·L*4", "(G|L)*", "G·(L*3)·(G|I)·L*2"];
    for text in texts {
        group.bench_with_input(BenchmarkId::new("parse", text), text, |b, t| {
            b.iter(|| webdis_pre::parse(black_box(t)).unwrap());
        });
    }
    // What every forward, log row and CHT entry of a crawl clones.
    let crawl = webdis_pre::parse("(L|G)*").unwrap();
    group.bench_function("clone_star_alt", |b| {
        b.iter(|| black_box(&crawl).clone());
    });
    let pre = webdis_pre::parse("G·(L*3)·(G|I)·L*2").unwrap();
    group.bench_function("derivative_walk", |b| {
        b.iter(|| {
            let mut cur = black_box(&pre).clone();
            for t in [
                LinkType::Global,
                LinkType::Local,
                LinkType::Local,
                LinkType::Global,
            ] {
                cur = cur.deriv(t);
            }
            cur
        });
    });
    group.bench_function("nullable_and_first", |b| {
        b.iter(|| (black_box(&pre).nullable(), black_box(&pre).first()));
    });
    let a = webdis_pre::parse("L*2·G").unwrap();
    let bb = webdis_pre::parse("L*4·G").unwrap();
    group.bench_function("subsumption_check", |b| {
        b.iter(|| check_subsumption(black_box(&a), black_box(&bb)));
    });
    // What parsing a PRE and decoding a clone add: every derivative.
    group.bench_function("closure", |b| {
        b.iter(|| closure(black_box(&pre)).unwrap());
    });
    group.finish();
}

fn bench_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("model");
    let url = Url::parse("http://site7.test/doc3.html").unwrap();
    group.bench_function("url_clone", |b| {
        b.iter(|| (black_box(&url).clone(), black_box(&url).site()));
    });
    group.finish();
}

fn bench_html(c: &mut Criterion) {
    let mut group = c.benchmark_group("html");
    for (label, links, words) in [
        ("small", 5, 100),
        ("medium", 25, 1000),
        ("large", 100, 8000),
    ] {
        let html = sample_html(links, words);
        group.throughput(criterion::Throughput::Bytes(html.len() as u64));
        group.bench_with_input(BenchmarkId::new("parse", label), &html, |b, h| {
            b.iter(|| webdis_html::parse_html(black_box(h)));
        });
    }
    // Every page of a crawl once: one page parsed over and over lets the
    // branch predictor learn where its words end, and 96 distinct pages
    // do not.
    let pages = crawl16_pages();
    let bytes: usize = pages.iter().map(|(_, html)| html.len()).sum();
    group.throughput(criterion::Throughput::Bytes(bytes as u64));
    group.bench_function("parse_crawl16", |b| {
        b.iter(|| {
            for (_, html) in black_box(&pages) {
                black_box(webdis_html::parse_html(html));
            }
        });
    });
    group.finish();
}

/// One `d.<attr> contains "<needle>"` node-query over the document alone.
fn contains_query(attr: &str, needle: &str) -> webdis_rel::NodeQuery {
    let text = format!(
        r#"select d.url from document d such that "http://site0.test/doc0.html" L* d
           where d.{attr} contains "{needle}""#
    );
    let query = webdis_disql::parse_disql(&text).unwrap();
    query.stages[0].query.clone()
}

fn bench_rel(c: &mut Criterion) {
    let mut group = c.benchmark_group("rel");
    // What a crawl visit's Database Constructor does with the doc cache
    // off, over every distinct page of the crawl: parse the shared page,
    // resolve links.
    let pages = crawl16_pages();
    group.bench_function("node_db_parse_crawl16", |b| {
        b.iter(|| {
            for (url, html) in black_box(&pages) {
                black_box(NodeDb::parse(url, html.clone()));
            }
        });
    });
    let html = sample_html(25, 1000);
    let parsed = webdis_html::parse_html(&html);
    let url = Url::parse("http://site0.test/doc0.html").unwrap();
    // The Database Constructor alone: a copy of the parsed document and
    // the link list.
    group.bench_function("node_db_build", |b| {
        b.iter(|| NodeDb::build(black_box(&url), black_box(&parsed)));
    });
    // What construction no longer pays: each column is formed by the
    // first query that reads it (here, every column of one relation).
    for kind in RelKind::ALL {
        let name = format!("relation_first_touch/{}", kind.keyword());
        group.bench_function(&name, |b| {
            b.iter_batched(
                || NodeDb::build(&url, &parsed),
                |db| {
                    for col in 0..kind.schema().columns.len() {
                        black_box(db.column(kind, col).len());
                    }
                    db
                },
                BatchSize::SmallInput,
            );
        });
    }

    // Nor a column's index, built by the first query that probes it:
    // these time one evaluation against a database nobody has probed —
    // the short title column, and a 400-word body of 97 distinct words.
    let mut page = PageBuilder::new("A benchmark document about needles");
    let body: Vec<String> = (0..400).map(|w| format!("word{}", w * w % 97)).collect();
    page = page.para(&body.join(" ")).hr();
    let parsed_400w = webdis_html::parse_html(&page.build());
    let fresh = || NodeDb::build(&url, &parsed_400w);
    for (name, nq) in [
        ("first_probe_title", contains_query("title", "needle")),
        ("first_probe_text_400w", contains_query("text", "word42")),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                fresh,
                |db| {
                    let rows = webdis_rel::eval_node_query(&db, black_box(&nq)).unwrap();
                    (db, rows)
                },
                BatchSize::SmallInput,
            );
        });
    }

    let db = NodeDb::build(&url, &parsed);
    let query = webdis_disql::parse_disql(
        r#"select a.base, a.href
           from document d such that "http://site0.test/doc0.html" L* d
                anchor a
           where a.ltype = "G" and d.title contains "needle""#,
    )
    .unwrap();
    let nq = &query.stages[0].query;
    group.bench_function("eval_node_query", |b| {
        b.iter(|| webdis_rel::eval_node_query(black_box(&db), black_box(nq)).unwrap());
    });
    group.finish();
}

fn bench_logtable(c: &mut Criterion) {
    use webdis_core::{LogMode, QueryLog};
    let mut group = c.benchmark_group("logtable");
    let states: Vec<CloneState> = (1..=6)
        .map(|k| CloneState {
            num_q: 1,
            rem_pre: webdis_pre::parse(&format!("L*{k}·G")).unwrap(),
        })
        .collect();
    group.bench_function("check_miss_and_hit", |b| {
        b.iter(|| {
            let mut log = QueryLog::default();
            let node = Url::parse("http://n.test/").unwrap();
            for _ in 0..2 {
                for s in &states {
                    black_box(log.check(LogMode::Paper, &node, s, true));
                }
            }
        });
    });
    group.finish();
}

fn bench_wire(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire");
    let query = webdis_disql::parse_disql(
        r#"select d0.url, d1.url, r.text
           from document d0 such that "http://csa.iisc.ernet.in" L d0,
           where d0.title contains "lab"
                document d1 such that d0 G·(L*1) d1,
                relinfon r such that r.delimiter = "hr",
           where r.text contains "convener""#,
    )
    .unwrap();
    let clone = QueryClone {
        id: QueryId {
            user: "maya".into(),
            host: "user.test".into(),
            port: 9,
            query_num: 1,
        },
        dest_nodes: query.start_nodes.clone(),
        rem_pre: query.stages[0].pre.clone(),
        stages: query.stages,
        stage_offset: 0,
        hops: 3,
        ack_host: "user.test".into(),
        ack_port: 9,
    };
    let msg = Message::Query(clone);
    let bytes = encode_message(&msg);
    group.throughput(criterion::Throughput::Bytes(bytes.len() as u64));
    group.bench_function("encode_query_clone", |b| {
        b.iter(|| encode_message(black_box(&msg)));
    });
    // The price of a memo hit: every frame after the first on an endpoint.
    group.bench_function("decode_query_clone", |b| {
        b.iter(|| {
            let mut slice = black_box(bytes.as_slice());
            Message::decode(&mut slice).unwrap()
        });
    });
    // The price of a miss: each decode on a thread of its own, so with a
    // fresh memo. Only the decode is timed, after one of an unrelated
    // frame has paid the thread's first allocations and hash keys.
    let warm = encode_message(&Message::Fetch(webdis_net::FetchRequest {
        url: Url::parse("http://warm.test/").unwrap(),
        reply_host: "warm.test".into(),
        reply_port: 1,
    }));
    group.bench_function("decode_query_clone_cold", |b| {
        b.iter_custom(|_| {
            let cold = || {
                decode_message(&warm).unwrap();
                let start = std::time::Instant::now();
                let msg = decode_message(black_box(&bytes)).unwrap();
                (start.elapsed(), msg)
            };
            std::thread::scope(|s| s.spawn(cold).join().unwrap().0)
        });
    });
    group.finish();
}

/// One clone of hwbench's crawl handled by a fresh query server: receive,
/// log table, fetch and parse, evaluate, report, forward — everything but
/// the transport, which only records.
fn bench_core(c: &mut Criterion) {
    use webdis_core::network::RecordingNetwork;
    use webdis_core::{EngineConfig, ServerEngine};
    let mut group = c.benchmark_group("core");
    let web = std::sync::Arc::new(crawl16());
    let query = webdis_disql::parse_disql(
        r#"select d.url, d.title from document d such that "http://site0.test/doc0.html" (L|G)* d where d.title contains "needle""#,
    )
    .unwrap();
    let site = query.start_nodes[0].site();
    let clone = Message::Query(QueryClone {
        id: QueryId {
            user: "maya".into(),
            host: "user.test".into(),
            port: 9,
            query_num: 1,
        },
        dest_nodes: query.start_nodes.clone(),
        rem_pre: query.stages[0].pre.clone(),
        stages: query.stages,
        stage_offset: 0,
        hops: 0,
        ack_host: "user.test".into(),
        ack_port: 9,
    });
    group.bench_function("server_on_clone", |b| {
        b.iter_batched(
            || {
                let engine = ServerEngine::new(site.clone(), web.clone(), EngineConfig::default());
                (engine, RecordingNetwork::default(), clone.clone())
            },
            |(mut engine, mut net, clone)| {
                engine.on_message(&mut net, clone);
                (engine, net)
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_webgen(c: &mut Criterion) {
    let mut group = c.benchmark_group("webgen");
    group.sample_size(20);
    group.bench_function("generate_16x4", |b| {
        b.iter(|| {
            generate(black_box(&WebGenConfig {
                sites: 16,
                docs_per_site: 4,
                ..WebGenConfig::default()
            }))
        });
    });
    group.finish();
}

fn bench_trace(c: &mut Criterion) {
    use webdis_trace::{TraceEvent, TraceHandle, TraceRecord};
    let mut group = c.benchmark_group("trace");
    let make = |i: u64| TraceRecord {
        time_us: i,
        site: "a.test".into(),
        query: None,
        hop: Some(1),
        event: TraceEvent::QueryRecv { nodes: 1 },
    };
    let noop = TraceHandle::noop();
    group.bench_function("emit_disabled", |b| {
        let mut i = 0;
        b.iter(|| {
            i += 1;
            black_box(&noop).emit_with(|| make(i));
        });
    });
    let (_collector, handle) = TraceHandle::collecting(4096);
    group.bench_function("emit_collecting", |b| {
        let mut i = 0;
        b.iter(|| {
            i += 1;
            black_box(&handle).emit_with(|| make(i));
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_model,
    bench_pre,
    bench_html,
    bench_rel,
    bench_logtable,
    bench_wire,
    bench_core,
    bench_webgen,
    bench_trace
);
criterion_main!(benches);

//! Golden trace digests: the full structured trace of a simulated run —
//! every event, field, virtual timestamp and their order — hashed and
//! pinned per engine configuration. The constants were recorded at the
//! commit *before* the clone pipeline was rebuilt as named stages, so a
//! pass here means the refactor kept the engine's observable behaviour
//! byte-identical; a deliberate behaviour change must re-record them
//! and say why.

use std::sync::Arc;

use webdis::core::{run_query_hybrid_sim, run_query_sim, CachePolicy, EngineConfig, ProcModel};
use webdis::load::{run_workload_sim, ArrivalProcess, QueryMix, WorkloadSpec};
use webdis::sim::SimConfig;
use webdis::trace::TraceHandle;
use webdis::web::{figures, generate, HostedWeb, WebGenConfig};

/// A two-stage crawl of the generated web: bounded stars on a cyclic
/// graph exercise the log table's duplicate *and* rewrite rules (seed 3
/// is one where a superset state arrives after its subset), the second
/// stage the same-node continuation.
const CRAWL_QUERY: &str = r#"
    select d1.url, d2.url
    from document d1 such that "http://site0.test/doc0.html" (L|G)*3 d1,
    where d1.title contains "needle"
         document d2 such that d1 (L|G)*2 d2,
    where d2.text contains "needle"
"#;

fn crawl_web() -> HostedWeb {
    generate(&WebGenConfig {
        sites: 4,
        docs_per_site: 3,
        extra_local_links: 1,
        extra_global_links: 1,
        title_needle_prob: 0.5,
        text_needle_prob: 0.5,
        filler_words: 40,
        seed: 3,
        ..WebGenConfig::default()
    })
}

/// FNV-1a, 64 bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// How one table row drives the engine.
#[derive(Clone, Copy)]
enum Run {
    /// One query, every site participating.
    Single,
    /// One query with the web's *last* site running no query server
    /// (Section 7.1): its nodes are handed off to the user site.
    HybridWithoutLastSite,
    /// Three users × two queries each, close enough together that the
    /// one-slot admission policy sheds some of them.
    Workload,
}

fn base(cfg: EngineConfig) -> EngineConfig {
    // A non-zero cost model makes the stage spans (and every virtual
    // timestamp downstream of them) sensitive to where work is charged.
    EngineConfig {
        proc: ProcModel::workstation_1999(),
        ..cfg
    }
}

/// `unoptimized` has no log table, so on the cyclic crawl web only the
/// hop limit ends the traversal: keep it small (and so exercise it).
fn unoptimized() -> EngineConfig {
    EngineConfig {
        max_hops: 4,
        ..EngineConfig::unoptimized()
    }
}

fn loaded() -> EngineConfig {
    EngineConfig {
        admission: Some(1),
        cache: Some(CachePolicy::with_budget(1024)),
        doc_cache_size: 2,
        log_purge_us: Some(50_000),
        ..EngineConfig::default()
    }
}

fn digest(web: &Arc<HostedWeb>, disql: &str, cfg: EngineConfig, run: Run) -> (u64, usize) {
    let (collector, tracer) = TraceHandle::collecting(1 << 20);
    let cfg = EngineConfig {
        tracer,
        ..base(cfg)
    };
    match run {
        Run::Single => {
            let out = run_query_sim(Arc::clone(web), disql, cfg, SimConfig::default()).unwrap();
            assert!(out.complete);
        }
        Run::HybridWithoutLastSite => {
            let mut sites = web.sites();
            sites.pop();
            let (out, stats) =
                run_query_hybrid_sim(Arc::clone(web), disql, cfg, SimConfig::default(), &sites)
                    .unwrap();
            assert!(out.complete);
            assert!(stats.handoffs > 0, "the fallback must actually run");
        }
        Run::Workload => {
            let spec = WorkloadSpec {
                users: 3,
                queries_per_user: 2,
                arrival: ArrivalProcess::Poisson {
                    mean_interarrival_us: 20_000,
                },
                mix: QueryMix::single(disql),
                seed: 5,
                ..WorkloadSpec::default()
            };
            let out = run_workload_sim(Arc::clone(web), &spec, cfg, SimConfig::default()).unwrap();
            assert!(
                out.records.iter().any(|r| r.was_shed()),
                "the admission policy must shed at least one clone"
            );
        }
    }
    let jsonl = collector.export_jsonl();
    assert_eq!(
        collector.total_recorded() as usize,
        jsonl.lines().count(),
        "the ring must hold the whole trace"
    );
    (fnv1a(jsonl.as_bytes()), jsonl.lines().count())
}

#[test]
fn trace_digests_match_the_pre_pipeline_engine() {
    let campus = Arc::new(figures::campus());
    let crawl = Arc::new(crawl_web());
    type Case = (&'static str, fn() -> EngineConfig, Run, [(u64, usize); 2]);
    // (name, config, driver, [(digest, records) on campus, on crawl])
    let table: [Case; 6] = [
        ("default", EngineConfig::default, Run::Single, GOLDEN[0]),
        ("strict", EngineConfig::strict, Run::Single, GOLDEN[1]),
        ("ack_chain", EngineConfig::ack_chain, Run::Single, GOLDEN[2]),
        ("unoptimized", unoptimized, Run::Single, GOLDEN[3]),
        ("admission+caches", loaded, Run::Workload, GOLDEN[4]),
        (
            "hybrid",
            EngineConfig::default,
            Run::HybridWithoutLastSite,
            GOLDEN[5],
        ),
    ];
    let mut failures = Vec::new();
    for (name, cfg, run, expected) in table {
        let got = [
            digest(&campus, figures::CAMPUS_QUERY, cfg(), run),
            digest(&crawl, CRAWL_QUERY, cfg(), run),
        ];
        println!(
            "    [(0x{:016x}, {}), (0x{:016x}, {})], // {name}",
            got[0].0, got[0].1, got[1].0, got[1].1
        );
        if got != expected {
            failures.push(format!("{name}: got {got:x?}, pinned {expected:x?}"));
        }
    }
    assert!(
        failures.is_empty(),
        "trace changed:\n{}",
        failures.join("\n")
    );
}

/// `(FNV-1a of export_jsonl(), record count)` per table row, campus then
/// crawl. Recorded at commit cecb3d0 (the parent of the pipeline
/// rebuild), before any engine edit.
const GOLDEN: [[(u64, usize); 2]; 6] = [
    [(0xe0b29664cfa4ea79, 85), (0x9b7eea094e9354c4, 505)], // default
    [(0xe0b29664cfa4ea79, 85), (0x8c89a3ed6e621c0a, 533)], // strict
    [(0x6c19e79d4b0106c4, 67), (0x341a576c60741e89, 409)], // ack_chain
    [(0x61bbca0315e2fb45, 120), (0x22b687815070a7bf, 1889)], // unoptimized
    [(0xc6f775ee14077fdf, 210), (0x36cf7dc1fd23203a, 1079)], // admission+caches
    [(0xf7c6ec7ae2e650b4, 84), (0xe072d25c1714d310, 467)], // hybrid
];

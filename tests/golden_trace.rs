//! Golden trace digests: the full structured trace of a simulated run —
//! every event, field, virtual timestamp and their order — hashed and
//! pinned per engine configuration. The constants were recorded at the
//! commit *before* the clone pipeline was rebuilt as named stages, so a
//! pass here means the refactor kept the engine's observable behaviour
//! byte-identical; a deliberate behaviour change must re-record them
//! and say why.

use std::sync::Arc;

use webdis::core::{
    run_query_sim, ArrivalProcess, CachePolicy, CompletionMode, Deployment, EngineConfig, LogMode,
    QueryMix, WorkloadSpec,
};
use webdis::sim::{ProcModel, SimConfig};
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

/// The collector's ring: larger than any trace here.
const RING: usize = 1 << 20;

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

fn sim() -> SimConfig {
    // A non-zero cost model makes the stage spans (and every virtual
    // timestamp downstream of them) sensitive to where work is charged.
    SimConfig {
        proc: ProcModel::workstation_1999(),
        ..SimConfig::default()
    }
}

/// Everything off, the strawman for ablations. With no log table, only
/// the hop limit ends the traversal of the cyclic crawl web: keep it
/// small (and so exercise it).
fn unoptimized() -> EngineConfig {
    EngineConfig {
        log_mode: LogMode::Off,
        completion: CompletionMode::ChtStrict,
        batch_per_site: false,
        local_forwarding: false,
        max_hops: 4,
        ..EngineConfig::default()
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
    let (collector, tracer) = TraceHandle::collecting(RING);
    let cfg = EngineConfig { tracer, ..cfg };
    match run {
        Run::Single => {
            let out = run_query_sim(Arc::clone(web), disql, cfg, sim()).unwrap();
            assert!(out.complete);
        }
        Run::HybridWithoutLastSite => {
            let mut sites = web.sites();
            sites.pop();
            let mut deployment = Deployment::new(
                Arc::clone(web),
                EngineConfig {
                    hybrid: true,
                    ..cfg
                },
            );
            deployment.participating = Some(sites);
            let out = deployment.query_sim(disql, sim()).unwrap();
            let stats = out.hybrid;
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
            let out = Deployment::new(Arc::clone(web), cfg).workload_sim(
                sim(),
                spec.plan().unwrap(),
                spec.horizon_us,
            );
            assert!(
                out.records.iter().any(|r| r.was_shed()),
                "the admission policy must shed at least one clone"
            );
        }
    }
    let jsonl = collector.export_jsonl();
    assert!(
        jsonl.lines().count() < RING,
        "the ring must hold the whole trace: it never filled"
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
/// rebuild), before any engine edit; re-recorded when DOCUMENT stopped
/// being indexed, which files its evaluations' time as scan, not probe,
/// with every record count kept.
const GOLDEN: [[(u64, usize); 2]; 6] = [
    [(0xd8619e37cc606211, 85), (0x5f461929ffff326c, 505)], // default
    [(0xd8619e37cc606211, 85), (0xdb2271263354724a, 533)], // strict
    [(0x22f5d9d86c88d71c, 67), (0x6ff6729e255a9019, 409)], // ack_chain
    [(0x4c941646f0ff24c1, 120), (0xca1c3f39187fd9ef, 1889)], // unoptimized
    [(0x58d10f3ef7e1ea43, 210), (0xa72eba0f4df09682, 1079)], // admission+caches
    [(0x4c1243de1e6a9828, 84), (0x3de524eb69ff2c80, 467)], // hybrid
];

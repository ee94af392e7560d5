//! The canonical scenario suite: each function runs one scenario and
//! freezes its observations into a [`ScenarioReport`].
//!
//! Simulator scenarios (`fig7`, `t13`) record *virtual-time* numbers:
//! every metric is exact and every histogram is emitted, because two
//! same-seed runs are bit-identical. Wall-clock scenarios (`eval`,
//! `t14_chaos`) record median-of-k timings with generous noise bands —
//! plus whatever sim-deterministic anchors they can (row counts,
//! verdict digests), which stay exact even there.

use std::sync::Arc;
use std::time::Instant;

use webdis_core::{
    run_query_sim, AdmissionPolicy, CachePolicy, EngineConfig, MonitorHandle, ProcModel,
};
use webdis_load::{run_workload_sim, ArrivalProcess, QueryMix, WorkloadSpec};
use webdis_sim::SimConfig;
use webdis_trace::{RegistrySnapshot, TraceHandle};
use webdis_web::{figures, generate, WebGenConfig};

use crate::report::{ScenarioReport, Worse};

/// Scenario names, in suite order.
pub const ALL_SCENARIOS: &[&str] = &[
    "fig7",
    "t13",
    "eval",
    "t14_chaos",
    "t16_eval_scale",
    "t17_cache",
    "t18_monitor",
    "t19_soak",
];

/// The scenarios whose *exact* metrics are deterministic on any machine
/// — the only ones a committed baseline may contain, and the only ones
/// `compare --smoke` may honestly rerun. (`baseline` strips their
/// banded wall-clock metrics before writing, so the committed file
/// stays machine-independent.)
pub const SIM_SCENARIOS: &[&str] = &[
    "fig7",
    "t13",
    "t16_eval_scale",
    "t17_cache",
    "t18_monitor",
    "t19_soak",
];

/// Runs one scenario by name.
pub fn run_scenario(name: &str, smoke: bool) -> Result<ScenarioReport, String> {
    match name {
        "fig7" => Ok(fig7()),
        "t13" => Ok(t13(smoke)),
        "eval" => Ok(eval_micro(smoke)),
        "t14_chaos" => Ok(t14_chaos(smoke)),
        "t16_eval_scale" => Ok(t16_eval_scale(smoke)),
        "t17_cache" => Ok(t17_cache(smoke)),
        "t18_monitor" => Ok(t18_monitor(smoke)),
        "t19_soak" => Ok(t19_soak(smoke)),
        other => Err(format!("unknown scenario {other:?}")),
    }
}

/// The fleet-level histograms a scenario snapshot freezes: the six
/// pipeline stages (queue wait first), the probe-vs-scan split of the
/// eval stage, plus end-to-end query latency.
const FROZEN_HISTOGRAMS: &[&str] = &[
    "stage_us.queue_wait",
    "stage_us.parse",
    "stage_us.log",
    "stage_us.cache_lookup",
    "stage_us.eval",
    "stage_us.eval_probe",
    "stage_us.eval_scan",
    "stage_us.build",
    "stage_us.forward",
    "query_latency_us",
];

fn freeze_histograms(report: &mut ScenarioReport, snap: &RegistrySnapshot) {
    for name in FROZEN_HISTOGRAMS {
        if let Some(h) = snap.histogram(name) {
            if h.count > 0 {
                report.histograms.insert(name.to_string(), h.clone());
            }
        }
    }
}

/// Fixed-point milli-units for fractional rates, so BENCH files stay
/// float-free.
fn milli(value: f64) -> u64 {
    (value * 1_000.0).round() as u64
}

/// fig7 — the paper's campus query, one shot on the simulator. The
/// paper's Figure 7 compares shipping strategies; this scenario pins
/// the query-shipping run every other harness builds on.
pub fn fig7() -> ScenarioReport {
    let (collector, tracer) = TraceHandle::collecting(1 << 15);
    let cfg = EngineConfig {
        tracer,
        ..EngineConfig::default()
    };
    let outcome = run_query_sim(
        Arc::new(figures::campus()),
        figures::CAMPUS_QUERY,
        cfg,
        SimConfig::default(),
    )
    .expect("campus query must run");

    let mut report = ScenarioReport::default();
    report.exact("complete", u64::from(outcome.complete), Worse::Lower);
    report.exact("duration_us", outcome.duration_us, Worse::Higher);
    report.exact(
        "first_result_us",
        outcome.first_result_us.unwrap_or(0),
        Worse::Higher,
    );
    report.exact("rows_total", outcome.total_rows() as u64, Worse::Lower);
    report.exact(
        "wire_bytes.total",
        outcome.metrics.total.bytes,
        Worse::Higher,
    );
    report.exact(
        "wire_msgs.total",
        outcome.metrics.total.messages,
        Worse::Higher,
    );
    for (kind, stats) in &outcome.metrics.by_kind {
        report.exact(&format!("wire_bytes.{kind}"), stats.bytes, Worse::Higher);
        report.exact(&format!("wire_msgs.{kind}"), stats.messages, Worse::Higher);
    }
    freeze_histograms(&mut report, &collector.registry().snapshot());
    report
}

/// The t13 workload queries (same text as the t13 harness — the suite
/// must measure what the experiment measures).
const T13_GLOBAL_QUERY: &str = r#"
    select d.url
    from document d such that "http://site0.test/doc0.html" (L|G)* d
    where d.title contains "needle"
"#;

const T13_LOCAL_QUERY: &str = r#"
    select d.url, d.title
    from document d such that "http://site0.test/doc0.html" L* d
    where d.title contains "needle"
"#;

struct T13Point {
    offered_qps: f64,
    clean: usize,
    shed: usize,
    hung: usize,
    throughput_qps: f64,
    snapshot: RegistrySnapshot,
}

fn t13_point(mean_interarrival_us: u64, smoke: bool) -> T13Point {
    let web = Arc::new(generate(&WebGenConfig {
        sites: if smoke { 4 } else { 8 },
        docs_per_site: if smoke { 2 } else { 4 },
        extra_local_links: 1,
        extra_global_links: 1,
        title_needle_prob: 0.4,
        seed: 13,
        ..WebGenConfig::default()
    }));
    let spec = WorkloadSpec {
        users: if smoke { 2 } else { 4 },
        queries_per_user: if smoke { 3 } else { 12 },
        arrival: ArrivalProcess::Poisson {
            mean_interarrival_us,
        },
        mix: QueryMix::single(T13_GLOBAL_QUERY).with(T13_LOCAL_QUERY, 2),
        seed: 13,
        ..WorkloadSpec::default()
    };
    let (collector, tracer) = TraceHandle::collecting(65_536);
    let cfg = EngineConfig {
        proc: ProcModel::workstation_1999(),
        admission: Some(AdmissionPolicy { max_queries: 2 }),
        log_purge_us: Some(50_000),
        tracer,
        ..EngineConfig::default()
    };
    let outcome = run_workload_sim(web, &spec, cfg, SimConfig::default()).expect("t13 point");
    T13Point {
        offered_qps: spec.offered_qps(),
        clean: outcome.completed_clean(),
        shed: outcome.completed_shed(),
        hung: outcome.hung(),
        throughput_qps: outcome.completed_clean() as f64 * 1_000_000.0
            / outcome.duration_us.max(1) as f64,
        snapshot: collector.registry().snapshot(),
    }
}

/// t13 — the offered-load sweep to the saturation knee. Per-point
/// goodput and latency quantiles, the knee position, and the probe
/// point's full stage histograms (queue wait included) plus the
/// backpressure high-water gauges.
pub fn t13(smoke: bool) -> ScenarioReport {
    let sweep_us: &[u64] = if smoke {
        &[400_000, 50_000, 5_000]
    } else {
        &[
            800_000, 400_000, 200_000, 100_000, 50_000, 20_000, 10_000, 5_000, 2_000,
        ]
    };

    let mut report = ScenarioReport::default();
    let mut knee: Option<f64> = None;
    for &mean_us in sweep_us {
        let p = t13_point(mean_us, smoke);
        let latency = p
            .snapshot
            .histogram("query_latency_us")
            .cloned()
            .unwrap_or_default();
        let tag = format!("ia{mean_us}");
        report.exact(&format!("clean.{tag}"), p.clean as u64, Worse::Lower);
        report.exact(&format!("shed.{tag}"), p.shed as u64, Worse::Higher);
        report.exact(&format!("hung.{tag}"), p.hung as u64, Worse::Higher);
        report.exact(
            &format!("goodput_mqps.{tag}"),
            milli(p.throughput_qps),
            Worse::Lower,
        );
        report.exact(
            &format!("p50_us.{tag}"),
            latency.quantile(0.50),
            Worse::Higher,
        );
        report.exact(
            &format!("p95_us.{tag}"),
            latency.quantile(0.95),
            Worse::Higher,
        );
        report.exact(
            &format!("p99_us.{tag}"),
            latency.quantile(0.99),
            Worse::Higher,
        );
        report.exact(
            &format!("log_high_water.{tag}"),
            p.snapshot.gauge("log_len_high_water"),
            Worse::Higher,
        );
        if p.throughput_qps >= p.offered_qps * 0.5 {
            knee = Some(knee.map_or(p.offered_qps, |k: f64| k.max(p.offered_qps)));
        }
        // The mid-sweep probe point (the same load t13's determinism
        // gate reruns) contributes the frozen histograms and the
        // backpressure gauges.
        if mean_us == 50_000 {
            freeze_histograms(&mut report, &p.snapshot);
            report.exact(
                "queue_depth_high_water",
                p.snapshot.gauge("queue_depth_high_water"),
                Worse::Higher,
            );
            report.exact(
                "admission_occupancy_high_water",
                p.snapshot.gauge("admission_occupancy_high_water"),
                Worse::Higher,
            );
        }
    }
    report.exact(
        "knee_offered_mqps",
        milli(knee.unwrap_or(0.0)),
        Worse::Lower,
    );
    report
}

fn median(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Noise band for wall-clock medians: generous, because CI machines
/// share cores. A real regression (2×) still clears it decisively.
const WALL_TOL_PCT: u32 = 50;

/// eval — wall-clock microbench: DISQL parse throughput and the campus
/// query end to end (engine + simulator as a program, not as virtual
/// time). Median-of-k against clock noise; the row count stays exact.
pub fn eval_micro(smoke: bool) -> ScenarioReport {
    let (reps, parse_iters) = if smoke { (3, 100) } else { (5, 400) };

    let mut parse_ns = Vec::new();
    let mut wall_us = Vec::new();
    let mut rows = 0u64;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..parse_iters {
            std::hint::black_box(
                webdis_disql::parse_disql(std::hint::black_box(figures::CAMPUS_QUERY))
                    .expect("campus query must parse"),
            );
        }
        parse_ns.push(start.elapsed().as_nanos() as u64 / parse_iters);

        let start = Instant::now();
        let outcome = run_query_sim(
            Arc::new(figures::campus()),
            figures::CAMPUS_QUERY,
            EngineConfig::default(),
            SimConfig::default(),
        )
        .expect("campus query must run");
        wall_us.push(start.elapsed().as_micros() as u64);
        rows = outcome.total_rows() as u64;
    }

    let mut report = ScenarioReport::default();
    report.banded("parse_ns", median(parse_ns), WALL_TOL_PCT, Worse::Higher);
    report.banded(
        "campus_wall_us",
        median(wall_us),
        WALL_TOL_PCT,
        Worse::Higher,
    );
    report.exact("campus_rows", rows, Worse::Lower);
    report
}

/// t14_chaos — times the deterministic chaos smoke. The verdict digest
/// is exact (the sweep is seeded end to end); only the wall clock is
/// banded.
pub fn t14_chaos(smoke: bool) -> ScenarioReport {
    let (reps, plans) = if smoke { (1, 2) } else { (3, 4) };
    let gen = webdis_chaos::FaultScheduleGen::new(14);

    let mut wall_ms = Vec::new();
    let mut digest = 0u64;
    let mut violations = 0u64;
    for _ in 0..reps {
        let start = Instant::now();
        let mut lines = Vec::new();
        violations = 0;
        for i in 0..plans {
            let report = webdis_chaos::run_plan(&gen.plan(i)).expect("chaos plan must run");
            violations += report.violations.len() as u64;
            lines.push(report.verdict_line());
        }
        digest = webdis_chaos::verdict_digest(&lines);
        wall_ms.push(start.elapsed().as_millis() as u64);
    }

    let mut report = ScenarioReport::default();
    report.banded(
        "sweep_wall_ms",
        median(wall_ms),
        WALL_TOL_PCT,
        Worse::Higher,
    );
    report.exact("verdict_digest", digest, Worse::Higher);
    report.exact("violations", violations, Worse::Higher);
    report
}

/// t16_eval_scale — the eval-vs-corpus-size curve. One site's hub page
/// indexes `n` documents, so its ANCHOR relation has `n` tuples; a
/// `contains` query and an equality query are evaluated over that
/// relation by the fixed cross-product scan and by the index-backed
/// planner. Tuples-visited counters and row counts are exact (they
/// depend only on the seeded generator and the planner, not the
/// machine); wall-clock medians and the speedup are banded. The scan
/// visits O(n) tuples per query while the probe visits only the
/// matches, which is what makes eval stage time near-flat as the
/// corpus grows.
pub fn t16_eval_scale(smoke: bool) -> ScenarioReport {
    use webdis_rel::{
        eval_node_query_scan_with_stats, eval_node_query_with_stats, CmpOp, Expr, NodeDb,
        NodeQuery, RelKind, VarDecl,
    };

    let sizes: &[usize] = if smoke {
        &[200, 2_000, 20_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let reps = if smoke { 3 } else { 5 };
    const NEEDLE_EVERY: usize = 100;

    let attr = |var: &str, a: &str| Expr::Attr {
        var: var.into(),
        attr: a.into(),
    };
    let decl = |name: &str, kind: RelKind| VarDecl {
        name: name.into(),
        kind,
        cond: None,
    };

    let mut report = ScenarioReport::default();
    for &n in sizes {
        let web = generate(&WebGenConfig {
            sites: 1,
            docs_per_site: n,
            extra_local_links: 0,
            extra_global_links: 0,
            title_needle_prob: 0.0,
            text_needle_prob: 0.0,
            filler_words: 4,
            seed: 16,
            hub_pages: true,
            hub_needle_every: NEEDLE_EVERY,
            ..WebGenConfig::default()
        });
        let hub = webdis_web::hub_url(0);
        let db = NodeDb::build(
            &hub,
            &webdis_html::parse_html(web.get(&hub).expect("hub page generated")),
        );

        // The two index-served predicate shapes of the paper's example
        // queries, over an n-tuple ANCHOR relation.
        let contains_q = NodeQuery {
            vars: vec![decl("d", RelKind::Document), decl("a", RelKind::Anchor)],
            where_cond: Some(Expr::Contains(
                Box::new(attr("a", "label")),
                Box::new(Expr::StrLit("needle".into())),
            )),
            select: vec![("a".into(), "href".into())],
        };
        let eq_q = NodeQuery {
            vars: vec![decl("d", RelKind::Document), decl("a", RelKind::Anchor)],
            where_cond: Some(Expr::Cmp(
                CmpOp::Eq,
                Box::new(attr("a", "href")),
                Box::new(Expr::StrLit(webdis_web::doc_url(0, n / 2).to_string())),
            )),
            select: vec![("a".into(), "label".into())],
        };
        let queries = [&contains_q, &eq_q];

        // Exact work counters: tuples the nested loop enumerates.
        let mut rows = 0u64;
        let mut scan_visited = 0u64;
        let mut probe_visited = 0u64;
        for q in queries {
            let (scan_rows, scan_stats) =
                eval_node_query_scan_with_stats(&db, q).expect("scan eval");
            let (probe_rows, probe_stats) = eval_node_query_with_stats(&db, q).expect("probe eval");
            assert_eq!(scan_rows, probe_rows, "scan and index must agree");
            assert!(probe_stats.used_index, "both t16 queries must probe");
            rows += scan_rows.len() as u64;
            scan_visited += scan_stats.tuples_visited;
            probe_visited += probe_stats.tuples_visited;
        }

        // Banded wall clock: median-of-reps over both queries.
        let mut scan_us = Vec::new();
        let mut probe_us = Vec::new();
        for _ in 0..reps {
            let start = Instant::now();
            for q in queries {
                std::hint::black_box(
                    eval_node_query_scan_with_stats(std::hint::black_box(&db), q)
                        .expect("scan eval"),
                );
            }
            scan_us.push(start.elapsed().as_micros() as u64);
            let start = Instant::now();
            for q in queries {
                std::hint::black_box(
                    eval_node_query_with_stats(std::hint::black_box(&db), q).expect("probe eval"),
                );
            }
            probe_us.push(start.elapsed().as_micros() as u64);
        }
        let scan_med = median(scan_us);
        let probe_med = median(probe_us);

        let tag = format!("n{n}");
        report.exact(&format!("rows.{tag}"), rows, Worse::Lower);
        report.exact(&format!("scan_visited.{tag}"), scan_visited, Worse::Higher);
        report.exact(
            &format!("probe_visited.{tag}"),
            probe_visited,
            Worse::Higher,
        );
        report.exact(
            &format!("work_ratio_milli.{tag}"),
            milli(scan_visited as f64 / probe_visited.max(1) as f64),
            Worse::Lower,
        );
        report.banded(
            &format!("scan_us.{tag}"),
            scan_med,
            WALL_TOL_PCT,
            Worse::Higher,
        );
        report.banded(
            &format!("probe_us.{tag}"),
            probe_med,
            WALL_TOL_PCT,
            Worse::Higher,
        );
        report.banded(
            &format!("speedup_milli.{tag}"),
            milli(scan_med.max(1) as f64 / probe_med.max(1) as f64),
            WALL_TOL_PCT,
            Worse::Lower,
        );
    }
    report
}

/// The tail template of the t17 Zipf mix: the t13 local query narrowed
/// by one extra conjunct. Its answer is derivable from the head
/// template's cached answer, so it exercises the cache's subsumption
/// path (residual-filter replay), not just exact-fingerprint hits.
const T17_REFINED_QUERY: &str = r#"
    select d.url
    from document d such that "http://site0.test/doc0.html" L* d
    where d.title contains "needle" and d.url contains "doc"
"#;

struct T17Point {
    clean: usize,
    hung: usize,
    throughput_qps: f64,
    p50_us: u64,
    p95_us: u64,
    /// `(user, query_num) -> (stage, node) -> rows in report order` —
    /// compared between the twins to prove the cache changes *when*
    /// answers arrive, never *what* they are. Keying by (stage, node)
    /// ignores the cross-site arrival interleave (which is pure timing)
    /// while still pinning every row and the order within each node's
    /// report (which is what the cache must preserve).
    #[allow(clippy::type_complexity)]
    rows: Vec<(
        usize,
        u64,
        std::collections::BTreeMap<(u32, String), Vec<Vec<String>>>,
    )>,
    snapshot: RegistrySnapshot,
}

fn t17_point(cache: Option<CachePolicy>, smoke: bool) -> T17Point {
    // Document-rich sites: each site visit evaluates every reachable
    // node, so evaluation — the work the cache elides — carries the
    // site's service time, exactly the regime where a shared answer
    // cache pays (t16 shows eval cost growing with corpus size).
    let web = Arc::new(generate(&WebGenConfig {
        sites: if smoke { 4 } else { 8 },
        docs_per_site: if smoke { 16 } else { 32 },
        extra_local_links: 1,
        extra_global_links: 1,
        title_needle_prob: 0.4,
        seed: 13,
        ..WebGenConfig::default()
    }));
    // The t13 knee load (ia=5000µs), but as a Zipf(1.0) template mix —
    // the head-heavy popularity curve that makes cross-query answer
    // caching pay. No admission cap: every query runs to completion, so
    // the twins must produce bit-identical answer rows.
    let spec = WorkloadSpec {
        users: 4,
        queries_per_user: if smoke { 8 } else { 24 },
        arrival: ArrivalProcess::Poisson {
            mean_interarrival_us: 5_000,
        },
        mix: QueryMix::zipf(
            1_000,
            &[T13_LOCAL_QUERY, T13_GLOBAL_QUERY, T17_REFINED_QUERY],
        ),
        seed: 13,
        ..WorkloadSpec::default()
    };
    let (collector, tracer) = TraceHandle::collecting(65_536);
    // No periodic log purge: purging mid-query re-admits clones of
    // still-running queries, which re-report rows on a schedule that
    // depends on timing — and the twins deliberately differ in timing.
    // With the log intact, every node-query reports exactly once in
    // both runs, so ordered row-for-row comparison is meaningful.
    //
    // The footnote-3 document cache is on for BOTH twins: with it off,
    // every visit re-parses its document (~1 ms/KiB) and parse — which
    // the answer cache cannot elide, because forwarding needs the
    // node's links — drowns the evaluation cost under measurement.
    let cfg = EngineConfig {
        proc: ProcModel::workstation_1999(),
        doc_cache_size: 256,
        cache,
        tracer,
        ..EngineConfig::default()
    };
    let outcome = run_workload_sim(web, &spec, cfg, SimConfig::default()).expect("t17 point");
    let snapshot = collector.registry().snapshot();
    let latency = snapshot
        .histogram("query_latency_us")
        .cloned()
        .unwrap_or_default();
    let rows = outcome
        .records
        .iter()
        .map(|r| {
            let mut stages: std::collections::BTreeMap<(u32, String), Vec<Vec<String>>> =
                std::collections::BTreeMap::new();
            for (stage, rows) in &r.results {
                for (node, row) in rows {
                    stages
                        .entry((*stage, node.to_string()))
                        .or_default()
                        .push(row.values.iter().map(|v| v.render()).collect());
                }
            }
            (r.user, r.query_num, stages)
        })
        .collect();
    T17Point {
        clean: outcome.completed_clean(),
        hung: outcome.hung(),
        throughput_qps: outcome.completed_clean() as f64 * 1_000_000.0
            / outcome.duration_us.max(1) as f64,
        p50_us: latency.quantile(0.50),
        p95_us: latency.quantile(0.95),
        rows,
        snapshot,
    }
}

/// t17_cache — the answer cache against its cache-off twin: the same
/// seeded Zipf(1.0) workload at the t13 knee load, run once with
/// `EngineConfig::cache = None` and once with the default
/// [`CachePolicy`]. Every metric is sim-exact. `rows_identical` pins
/// the correctness claim (identical per-query answer rows, order
/// included); the goodput/latency pairs pin the performance claim.
pub fn t17_cache(smoke: bool) -> ScenarioReport {
    let off = t17_point(None, smoke);
    let on = t17_point(Some(CachePolicy::default()), smoke);

    let mut report = ScenarioReport::default();
    report.exact(
        "rows_identical",
        u64::from(off.rows == on.rows),
        Worse::Lower,
    );
    report.exact("clean.off", off.clean as u64, Worse::Lower);
    report.exact("clean.on", on.clean as u64, Worse::Lower);
    report.exact("hung.off", off.hung as u64, Worse::Higher);
    report.exact("hung.on", on.hung as u64, Worse::Higher);
    report.exact("goodput_mqps.off", milli(off.throughput_qps), Worse::Lower);
    report.exact("goodput_mqps.on", milli(on.throughput_qps), Worse::Lower);
    report.exact(
        "speedup_milli",
        milli(on.throughput_qps / off.throughput_qps.max(f64::MIN_POSITIVE)),
        Worse::Lower,
    );
    report.exact("p50_us.off", off.p50_us, Worse::Higher);
    report.exact("p50_us.on", on.p50_us, Worse::Higher);
    report.exact("p95_us.off", off.p95_us, Worse::Higher);
    report.exact("p95_us.on", on.p95_us, Worse::Higher);
    report.exact(
        "p95_ratio_milli",
        milli(off.p95_us as f64 / on.p95_us.max(1) as f64),
        Worse::Lower,
    );
    let hits = on.snapshot.counter("cache.hit");
    let misses = on.snapshot.counter("cache.miss");
    report.exact("cache.hit", hits, Worse::Lower);
    report.exact(
        "cache.hit.subsumed",
        on.snapshot.counter("cache.hit.subsumed"),
        Worse::Lower,
    );
    report.exact("cache.miss", misses, Worse::Higher);
    report.exact(
        "cache.evict",
        on.snapshot.counter("cache.evict"),
        Worse::Higher,
    );
    report.exact(
        "hit_rate_milli",
        milli(hits as f64 / (hits + misses).max(1) as f64),
        Worse::Lower,
    );
    report.exact(
        "cache_bytes_high_water",
        on.snapshot.gauge("cache.bytes"),
        Worse::Higher,
    );
    freeze_histograms(&mut report, &on.snapshot);
    report
}

/// FNV-1a over a JSON artifact, newline-terminated — the same digest
/// shape `t14_chaos` commits for its verdict lines. A one-byte change
/// anywhere in the monitor's series or alert log moves the pinned
/// value.
fn artifact_digest(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes().iter().chain(b"\n") {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

struct T18Point {
    clean: usize,
    shed: usize,
    hung: usize,
    duration_us: u64,
    monitor: Option<MonitorHandle>,
}

/// One t18 run: a shed storm, then calm. The burst packs each user's
/// first submissions microseconds apart so the admission cap (2 slots)
/// mass-sheds; the Poisson tail then spaces queries far enough apart
/// that every one admits cleanly, and the purge ticks keep closing
/// shed-free monitor windows until the burn-rate alert resolves.
fn t18_point(monitored: bool, smoke: bool) -> T18Point {
    let web = Arc::new(generate(&WebGenConfig {
        sites: 4,
        docs_per_site: 2,
        extra_local_links: 1,
        extra_global_links: 1,
        title_needle_prob: 0.4,
        seed: 13,
        ..WebGenConfig::default()
    }));
    let spec = WorkloadSpec {
        users: 2,
        queries_per_user: if smoke { 8 } else { 16 },
        arrival: ArrivalProcess::BurstThenTail {
            burst: if smoke { 5 } else { 10 },
            burst_mean_us: 2_000,
            tail_mean_us: 300_000,
        },
        mix: QueryMix::single(T13_LOCAL_QUERY),
        seed: 18,
        ..WorkloadSpec::default()
    };
    let (_collector, tracer) = TraceHandle::collecting(65_536);
    let monitor = monitored.then(|| MonitorHandle::with_defaults(tracer.clone()));
    let cfg = EngineConfig {
        proc: ProcModel::workstation_1999(),
        admission: Some(AdmissionPolicy { max_queries: 2 }),
        log_purge_us: Some(50_000),
        tracer,
        monitor: monitor.clone(),
        ..EngineConfig::default()
    };
    let outcome = run_workload_sim(web, &spec, cfg, SimConfig::default()).expect("t18 point");
    T18Point {
        clean: outcome.completed_clean(),
        shed: outcome.completed_shed(),
        hung: outcome.hung(),
        duration_us: outcome.duration_us,
        monitor,
    }
}

/// t18_monitor — the alerting pipeline under a reproducible incident.
/// Three runs of the same seeded burst-then-tail workload: two
/// monitored twins (their windowed series and alert logs must be
/// byte-identical — `twin_identical`) and one unmonitored
/// (`baseline_unperturbed` pins that attaching the monitor changes no
/// engine outcome). The committed metrics pin the incident's shape:
/// the `shed_rate_burn` burn-rate rule fires during the burst and
/// resolves in the calm tail, at exact virtual times.
pub fn t18_monitor(smoke: bool) -> ScenarioReport {
    let a = t18_point(true, smoke);
    let b = t18_point(true, smoke);
    let off = t18_point(false, smoke);

    let ma = a.monitor.as_ref().expect("monitored run");
    let mb = b.monitor.as_ref().expect("monitored twin");
    let series = ma.series_json();
    let alert_log_json = ma.alert_log_json();
    let twin_identical = series == mb.series_json() && alert_log_json == mb.alert_log_json();
    let log = ma.alert_log();
    let shed_rule = "shed_rate_burn";
    let resolved = log
        .iter()
        .filter(|e| e.rule == shed_rule && !e.fired)
        .count();
    let first_fire_us = log
        .iter()
        .find(|e| e.rule == shed_rule && e.fired)
        .map_or(0, |e| e.time_us);
    let first_resolve_us = log
        .iter()
        .find(|e| e.rule == shed_rule && !e.fired)
        .map_or(0, |e| e.time_us);

    let mut report = ScenarioReport::default();
    report.exact("clean", a.clean as u64, Worse::Lower);
    report.exact("shed", a.shed as u64, Worse::Higher);
    report.exact("hung", a.hung as u64, Worse::Higher);
    report.exact("duration_us", a.duration_us, Worse::Higher);
    report.exact(
        "fired.shed_rate_burn",
        ma.fired_count(shed_rule),
        Worse::Lower,
    );
    report.exact("resolved.shed_rate_burn", resolved as u64, Worse::Lower);
    report.exact("first_fire_us", first_fire_us, Worse::Higher);
    report.exact("first_resolve_us", first_resolve_us, Worse::Higher);
    report.exact("alert_transitions", log.len() as u64, Worse::Higher);
    report.exact("windows_closed", ma.windows_closed(), Worse::Lower);
    report.exact("series_digest", artifact_digest(&series), Worse::Higher);
    report.exact(
        "alert_log_digest",
        artifact_digest(&alert_log_json),
        Worse::Higher,
    );
    report.exact("twin_identical", u64::from(twin_identical), Worse::Lower);
    report.exact(
        "baseline_unperturbed",
        u64::from(
            off.clean == a.clean
                && off.shed == a.shed
                && off.hung == a.hung
                && off.duration_us == a.duration_us,
        ),
        Worse::Lower,
    );
    report
}

/// t19_soak — the living-web soak: a seeded mutation schedule applied
/// at exact virtual times while the workload is in flight, with the
/// footnote-3 document cache and the answer cache both on (so every
/// site-version bump makes the invalidation path do load-bearing
/// work). Everything is sim-exact: the mutation history digest, the
/// per-query rows digest, the clean/shed/hung split, the dead-link
/// count, and the cache/invalidation counters all reproduce bit-for-bit
/// from the seeds alone — which is exactly what lets the committed
/// baseline pin a run on a web that never stops changing.
pub fn t19_soak(smoke: bool) -> ScenarioReport {
    use webdis_web::{LiveWeb, MutationPlanConfig, MutationSchedule};

    let web = generate(&WebGenConfig {
        sites: if smoke { 4 } else { 6 },
        docs_per_site: if smoke { 3 } else { 4 },
        extra_local_links: 1,
        extra_global_links: 1,
        title_needle_prob: 0.4,
        seed: 19,
        ..WebGenConfig::default()
    });
    // The schedule spans the workload's active window so mutations land
    // while queries are in flight, not after the run has drained.
    let schedule = MutationSchedule::generate(
        &web,
        &MutationPlanConfig {
            seed: 19,
            count: if smoke { 6 } else { 16 },
            start_us: 10_000,
            end_us: if smoke { 150_000 } else { 400_000 },
            token: "soak".to_owned(),
        },
    );
    let first_mutation_us = schedule.events.first().map_or(0, |m| m.at_us);
    let live = Arc::new(LiveWeb::from_hosted(&web));

    let spec = WorkloadSpec {
        users: if smoke { 2 } else { 4 },
        queries_per_user: if smoke { 4 } else { 12 },
        arrival: ArrivalProcess::Poisson {
            mean_interarrival_us: 30_000,
        },
        mix: QueryMix::single(T13_GLOBAL_QUERY).with(T13_LOCAL_QUERY, 2),
        seed: 19,
        ..WorkloadSpec::default()
    };
    let (collector, tracer) = TraceHandle::collecting(1 << 16);
    let cfg = EngineConfig {
        proc: ProcModel::workstation_1999(),
        doc_cache_size: 64,
        cache: Some(CachePolicy::default()),
        log_purge_us: Some(50_000),
        tracer,
        ..EngineConfig::default()
    };
    let mut deployment = webdis_core::Deployment::new(Arc::clone(&live), cfg);
    deployment.schedule = schedule;
    let outcome = spec
        .run_sim(&deployment, SimConfig::default(), &mut |_, _| {})
        .expect("t19 soak");

    // Trace-derived counters: purged log records, and doc-cache hits
    // that happened *after* the web first changed — the proof that the
    // version-validated cache keeps earning its keep on a moving web
    // instead of degrading to parse-every-visit.
    let records = collector.snapshot();
    let mut purge_records = 0u64;
    let mut post_mutation_doc_hits = 0u64;
    for r in &records {
        match &r.event {
            webdis_trace::TraceEvent::Purge { records } => {
                purge_records += u64::from(*records);
            }
            webdis_trace::TraceEvent::DocFetch {
                cache_hit: true, ..
            } if r.time_us > first_mutation_us => {
                post_mutation_doc_hits += 1;
            }
            _ => {}
        }
    }

    // The answers, digested: (user, query_num, stage, node, values) in
    // deterministic order. One moved row moves the pinned value.
    let mut rows_text = String::new();
    for r in &outcome.records {
        for (stage, rows) in &r.results {
            for (node, row) in rows {
                rows_text.push_str(&format!(
                    "{}#{}:{stage}:{node}:{:?}\n",
                    r.user,
                    r.query_num,
                    row.values.iter().map(|v| v.render()).collect::<Vec<_>>()
                ));
            }
        }
    }

    let stat_sum = |f: fn(&webdis_core::ServerStats) -> u64| -> u64 {
        outcome.server_stats.values().map(f).sum()
    };

    let snapshot = collector.registry().snapshot();
    let mut report = ScenarioReport::default();
    report.exact("clean", outcome.completed_clean() as u64, Worse::Lower);
    report.exact("shed", outcome.completed_shed() as u64, Worse::Higher);
    report.exact("hung", outcome.hung() as u64, Worse::Higher);
    report.exact("unsubmitted", outcome.unsubmitted as u64, Worse::Higher);
    report.exact("duration_us", outcome.duration_us, Worse::Higher);
    report.exact("mutations_applied", live.mutations_applied(), Worse::Lower);
    report.exact("history_digest", live.history_digest(), Worse::Higher);
    report.exact("rows_digest", artifact_digest(&rows_text), Worse::Higher);
    report.exact(
        "dead_link_nodes",
        outcome
            .records
            .iter()
            .map(|r| r.dead_link_nodes as u64)
            .sum(),
        Worse::Higher,
    );
    report.exact("dead_links", stat_sum(|s| s.dead_links), Worse::Higher);
    report.exact("docs_parsed", stat_sum(|s| s.docs_parsed), Worse::Higher);
    report.exact(
        "doc_cache_hits",
        stat_sum(|s| s.doc_cache_hits),
        Worse::Lower,
    );
    report.exact(
        "cache_invalidations",
        stat_sum(|s| s.cache_invalidations),
        Worse::Lower,
    );
    report.exact(
        "post_mutation_doc_hits",
        post_mutation_doc_hits,
        Worse::Lower,
    );
    report.exact("cache.hit", snapshot.counter("cache.hit"), Worse::Lower);
    report.exact("cache.miss", snapshot.counter("cache.miss"), Worse::Higher);
    report.exact("purge_records", purge_records, Worse::Higher);
    report.exact(
        "log_high_water",
        snapshot.gauge("log_len_high_water"),
        Worse::Higher,
    );
    report.exact(
        "cache_bytes_high_water",
        snapshot.gauge("cache.bytes"),
        Worse::Higher,
    );
    freeze_histograms(&mut report, &snapshot);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_freezes_stage_histograms_including_queue_wait() {
        let report = fig7();
        for name in [
            "stage_us.queue_wait",
            "stage_us.parse",
            "stage_us.eval",
            "stage_us.forward",
        ] {
            let h = report
                .histograms
                .get(name)
                .unwrap_or_else(|| panic!("{name} must be frozen"));
            assert!(h.count > 0, "{name} must be non-empty");
        }
        assert_eq!(report.metrics["complete"].value, 1);
        assert!(report.metrics["wire_bytes.query"].value > 0);
        // Every fig7 metric is sim-deterministic.
        assert!(report.metrics.values().all(|m| m.tol_pct == 0));
    }

    #[test]
    fn t13_smoke_is_bit_deterministic_and_sees_backpressure() {
        let a = t13(true);
        let b = t13(true);
        assert_eq!(a, b, "same seed must reproduce the full t13 report");
        let queue = &a.histograms["stage_us.queue_wait"];
        assert!(queue.count > 0, "queue_wait histogram must be populated");
        assert!(
            a.metrics["queue_depth_high_water"].value >= 1,
            "the probe point must observe at least one queued delivery"
        );
        assert!(a.metrics["admission_occupancy_high_water"].value >= 1);
        assert_eq!(a.metrics["hung.ia5000"].value, 0, "no query may hang");
    }

    #[test]
    fn t18_smoke_fires_and_resolves_the_shed_burn_alert_deterministically() {
        let a = t18_monitor(true);
        let b = t18_monitor(true);
        assert_eq!(a, b, "same seed must reproduce the full t18 report");
        assert_eq!(
            a.metrics["twin_identical"].value, 1,
            "same-seed monitored twins must emit byte-identical series and alert logs"
        );
        assert_eq!(
            a.metrics["baseline_unperturbed"].value, 1,
            "attaching the monitor must not change clean/shed/hung/duration"
        );
        assert!(
            a.metrics["shed"].value > 0,
            "the burst must overrun the admission cap"
        );
        assert!(
            a.metrics["fired.shed_rate_burn"].value >= 1,
            "the shed storm must fire the burn-rate rule"
        );
        assert!(
            a.metrics["resolved.shed_rate_burn"].value >= 1,
            "the calm tail must resolve it"
        );
        assert!(
            a.metrics["first_fire_us"].value < a.metrics["first_resolve_us"].value,
            "fire must precede resolve"
        );
        assert_eq!(a.metrics["hung"].value, 0);
        assert!(a.metrics["windows_closed"].value > 0);
    }

    #[test]
    fn t17_smoke_is_bit_deterministic_and_the_cache_pays() {
        let a = t17_cache(true);
        let b = t17_cache(true);
        assert_eq!(a, b, "same seed must reproduce the full t17 report");
        assert_eq!(
            a.metrics["rows_identical"].value, 1,
            "cached and uncached twins must return identical rows"
        );
        assert_eq!(a.metrics["hung.off"].value, 0);
        assert_eq!(a.metrics["hung.on"].value, 0);
        assert!(
            a.metrics["cache.hit"].value > 0,
            "the Zipf head must produce repeat hits"
        );
        assert!(
            a.metrics["cache.hit.subsumed"].value > 0,
            "the refined tail template must be served by subsumption"
        );
        // The acceptance bar: >=2x goodput or >=50% p95 reduction vs the
        // cache-off twin at the knee load.
        assert!(
            a.metrics["speedup_milli"].value >= 2_000
                || a.metrics["p95_ratio_milli"].value >= 2_000,
            "cache must win decisively: speedup {} p95_ratio {}",
            a.metrics["speedup_milli"].value,
            a.metrics["p95_ratio_milli"].value
        );
        let lookup = &a.histograms["stage_us.cache_lookup"];
        assert!(lookup.count > 0, "cache_lookup stage must be populated");
    }

    #[test]
    fn t16_exact_metrics_are_deterministic_and_index_wins() {
        let a = t16_eval_scale(true);
        let b = t16_eval_scale(true);
        for (name, m) in &a.metrics {
            if m.tol_pct == 0 {
                assert_eq!(
                    m.value, b.metrics[name].value,
                    "exact metric {name} must reproduce"
                );
            }
        }
        // n=200 hub: contains matches ceil(200/100)=2 anchors, equality
        // matches exactly the one anchor pointing at doc 100.
        assert_eq!(a.metrics["rows.n200"].value, 3);
        assert_eq!(a.metrics["rows.n2000"].value, 21);
        // The scan enumerates every ANCHOR tuple per query; the probes
        // visit only matches — and the gap widens with corpus size.
        for &n in &[200u64, 2_000, 20_000] {
            let scan = a.metrics[&format!("scan_visited.n{n}")].value;
            let probe = a.metrics[&format!("probe_visited.n{n}")].value;
            assert!(
                scan >= 2 * n && probe < n,
                "n={n}: scan {scan} must dwarf probe {probe}"
            );
        }
        // Matches grow with n too (fixed needle spacing), so the ratio
        // grows toward ~2×needle_every rather than without bound; it must
        // still rise with corpus size and clear two orders of magnitude.
        assert!(
            a.metrics["work_ratio_milli.n20000"].value > a.metrics["work_ratio_milli.n200"].value,
            "work ratio must grow with corpus size"
        );
        assert!(
            a.metrics["work_ratio_milli.n20000"].value > 100_000,
            "index must save >=100x tuple visits at n=20000"
        );
    }

    #[test]
    fn t19_soak_is_bit_deterministic_and_exercises_the_living_web() {
        let a = t19_soak(true);
        let b = t19_soak(true);
        assert_eq!(a, b, "soak run must be a pure function of its seeds");
        assert!(
            a.metrics["mutations_applied"].value > 0,
            "the schedule must actually fire during the run"
        );
        assert!(
            a.metrics["post_mutation_doc_hits"].value > 0,
            "the validated doc cache must keep hitting after the web changes"
        );
        assert_eq!(a.metrics["hung"].value, 0, "no query may hang under soak");
        for name in ["history_digest", "rows_digest", "duration_us"] {
            assert_eq!(a.metrics[name].tol_pct, 0, "{name} must be exact");
        }
    }
}

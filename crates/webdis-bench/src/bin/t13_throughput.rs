//! T13 — throughput and latency vs offered load (the `webdis-load`
//! workload engine).
//!
//! The paper's experiments ship one query at a time; its prototype is a
//! *service*. This harness offers an open-loop Poisson workload from M
//! concurrent user sites against the simulated cluster — processor costs
//! set to the paper's 1999-workstation model so evaluation capacity, not
//! the network, is the bottleneck — and sweeps the offered load upward
//! until the saturation knee appears: completed-query throughput stops
//! tracking the offered rate, per-query latency climbs, and the
//! server-side admission controller starts shedding the excess instead
//! of letting queues (and the log tables) grow without bound.
//!
//! Every load point reports completions, sheds, throughput, and the
//! p50/p95/p99 of the `query_latency_us` registry histogram, plus the
//! `log_len_high_water` gauge. Two invariants are asserted at *every*
//! point: the run is seed-deterministic (same seed, same histogram), and
//! **no query ever hangs** — shed queries terminate with an explicit
//! `TermReason::Shed`, never silence.
//!
//! `--smoke` shrinks the sweep for CI.

use std::sync::Arc;

use webdis_bench::{fmt_ms, Table};
use webdis_core::{AdmissionPolicy, Deployment, EngineConfig, ProcModel};
use webdis_load::{ArrivalProcess, QueryMix, WorkloadSpec};
use webdis_sim::SimConfig;
use webdis_trace::{CollectingTracer, Histogram, TraceHandle};
use webdis_web::{generate, WebGenConfig};

const GLOBAL_QUERY: &str = r#"
    select d.url
    from document d such that "http://site0.test/doc0.html" (L|G)* d
    where d.title contains "needle"
"#;

const LOCAL_QUERY: &str = r#"
    select d.url, d.title
    from document d such that "http://site0.test/doc0.html" L* d
    where d.title contains "needle"
"#;

/// Everything one load point observes.
struct LoadPoint {
    offered_qps: f64,
    clean: usize,
    shed: usize,
    hung: usize,
    throughput_qps: f64,
    latency: Histogram,
    log_high_water: u64,
}

fn run_point(mean_interarrival_us: u64, smoke: bool) -> LoadPoint {
    run_point_traced(mean_interarrival_us, smoke, false).0
}

/// One load point, returning the collector too (for `--trace` export)
/// and optionally printing a mid-flight Prometheus sample (`--expo`):
/// the simulator's on-demand snapshot API standing in for scraping a
/// live daemon.
fn run_point_traced(
    mean_interarrival_us: u64,
    smoke: bool,
    expo: bool,
) -> (LoadPoint, Arc<CollectingTracer>) {
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
        mix: QueryMix::single(GLOBAL_QUERY).with(LOCAL_QUERY, 2),
        seed: 13,
        ..WorkloadSpec::default()
    };
    let (collector, tracer) = TraceHandle::collecting(65_536);
    let cfg = EngineConfig {
        // The paper's workstation costs make evaluation the bottleneck —
        // that is what produces a knee at a realistic offered load.
        proc: ProcModel::workstation_1999(),
        admission: Some(AdmissionPolicy { max_queries: 2 }),
        // Admission slots retire on purge sweeps once a query has been
        // idle a whole period; the period must therefore sit at the
        // query-duration scale (~15 ms here) or slots outlive their
        // queries and the controller sheds even an idle system.
        log_purge_us: Some(50_000),
        tracer,
        ..EngineConfig::default()
    };
    // Sample the exposition at the first tick that has seen evaluation
    // work — a scrape while the cluster is demonstrably mid-run (the
    // workload usually finishes far inside the spec horizon, so a
    // time-based midpoint would sample an already-idle system).
    let mut expo_sample: Option<(u64, String)> = None;
    let mut observer = |now: u64, snap: &webdis_trace::RegistrySnapshot| {
        if expo
            && expo_sample.is_none()
            && snap.histogram("stage_us.eval").is_some_and(|h| h.count > 0)
        {
            expo_sample = Some((now, snap.render_prometheus()));
        }
    };
    let outcome = spec
        .run_sim(
            &Deployment::new(web, cfg),
            SimConfig::default(),
            &mut observer,
        )
        .unwrap();
    if let Some((at_us, sample)) = expo_sample {
        println!("--- /metrics sample at t={at_us}us (mid-flight) ---");
        for line in sample.lines().take(24) {
            println!("{line}");
        }
        println!("--- (truncated) ---\n");
    }
    let snapshot = collector.registry().snapshot();
    let latency = snapshot
        .histogram("query_latency_us")
        .cloned()
        .unwrap_or_default();
    let point = LoadPoint {
        offered_qps: spec.offered_qps(),
        clean: outcome.completed_clean(),
        shed: outcome.completed_shed(),
        hung: outcome.hung(),
        throughput_qps: outcome.completed_clean() as f64 * 1_000_000.0
            / outcome.duration_us.max(1) as f64,
        latency,
        log_high_water: snapshot.gauge("log_len_high_water"),
    };
    (point, collector)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let expo = args.iter().any(|a| a == "--expo");
    let trace_path = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
        .cloned();

    // Seed-determinism gate: the same point twice must agree down to the
    // latency histogram.
    let probe_us = 50_000;
    let (a, probe_collector) = run_point_traced(probe_us, smoke, expo);
    let b = run_point(probe_us, smoke);
    assert_eq!(
        (a.clean, a.shed, a.hung),
        (b.clean, b.shed, b.hung),
        "same seed must reproduce completion counts"
    );
    assert_eq!(
        a.latency, b.latency,
        "same seed must reproduce the latency histogram exactly"
    );

    // `--trace <path>`: dump the probe point's full JSONL trajectory for
    // offline diagnosis (`webdis-doctor <path>`).
    if let Some(path) = &trace_path {
        std::fs::write(path, probe_collector.export_jsonl()).expect("write trace file");
        println!("trace written to {path}");
    }

    // Offered-load sweep: per-user mean interarrival, high (idle) to low
    // (far past saturation).
    let sweep_us: &[u64] = if smoke {
        &[400_000, 50_000, 5_000]
    } else {
        &[
            800_000, 400_000, 200_000, 100_000, 50_000, 20_000, 10_000, 5_000, 2_000,
        ]
    };

    let mut table = Table::new(
        if smoke {
            "T13 (smoke): throughput vs offered load"
        } else {
            "T13: throughput and latency vs offered load (4 users, Poisson arrivals, \
             1999-workstation costs, admission limit 2/site)"
        },
        &[
            "offered q/s",
            "clean",
            "shed",
            "hung",
            "goodput q/s",
            "p50 (ms)",
            "p95 (ms)",
            "p99 (ms)",
            "log high-water",
        ],
    );
    let mut points = Vec::new();
    for &mean_us in sweep_us {
        let p = run_point(mean_us, smoke);
        assert_eq!(
            p.hung, 0,
            "no query may hang at any offered load (mean interarrival {mean_us}us)"
        );
        table.row(&[
            format!("{:.1}", p.offered_qps),
            p.clean.to_string(),
            p.shed.to_string(),
            p.hung.to_string(),
            format!("{:.1}", p.throughput_qps),
            fmt_ms(p.latency.quantile(0.50)),
            fmt_ms(p.latency.quantile(0.95)),
            fmt_ms(p.latency.quantile(0.99)),
            p.log_high_water.to_string(),
        ]);
        points.push(p);
    }
    table.print();

    // Locate and report the saturation knee: the last point whose clean
    // throughput still tracks ≥half the offered rate. (Past the knee the
    // per-point goodput is measured over an ever-shorter burst window, so
    // the completion counts — clean collapsing, shed climbing — are the
    // honest signal there.)
    let knee = points
        .iter()
        .rev()
        .find(|p| p.throughput_qps >= p.offered_qps * 0.5);
    if let Some(k) = knee {
        println!(
            "\nsaturation knee near {:.1} offered q/s (goodput {:.1} q/s there); \
             beyond it the excess is shed",
            k.offered_qps, k.throughput_qps
        );
    }

    if !smoke {
        let knee = knee.expect("the idle end of the sweep must keep up with offered load");
        // Throughput must rise from the idle end up to the knee…
        assert!(
            knee.offered_qps > points[0].offered_qps,
            "the knee must sit beyond the idle end of the sweep"
        );
        assert!(
            knee.throughput_qps > points[0].throughput_qps * 1.5,
            "throughput must rise with offered load before the knee \
             (idle {:.2} q/s, knee {:.2} q/s)",
            points[0].throughput_qps,
            knee.throughput_qps
        );
        // …and the overloaded end must visibly shed rather than keep up.
        let last = points.last().unwrap();
        assert!(
            last.shed > 0,
            "the overloaded end must trip admission control"
        );
        assert!(
            (last.clean as f64) < 0.25 * (last.clean + last.shed) as f64,
            "the overloaded end must be past the knee \
             (clean {}, shed {})",
            last.clean,
            last.shed
        );
        println!("goodput rises with load, saturates, and the excess is shed — never hung ✓");
    } else {
        println!("\nsmoke run: determinism and zero-hang invariants hold ✓");
    }
}

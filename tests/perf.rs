//! Integration tests for the perf suite (DESIGN.md §2g): queue-wait
//! attribution is live and seed-deterministic, BENCH files reproduce
//! byte for byte, and the compare gate catches an injected regression
//! while passing an identical rerun.

use std::sync::Arc;

use webdis::core::{EngineConfig, ProcModel};
use webdis::load::{run_workload_sim, ArrivalProcess, QueryMix, WorkloadSpec};
use webdis::sim::SimConfig;
use webdis::trace::{Histogram, TraceHandle};
use webdis::web::{generate, WebGenConfig};
use webdis_bench::report::{Metric, Worse};
use webdis_bench::{compare, BenchReport};

/// The suite's reports, by registry name.
mod scenarios {
    pub fn t13(smoke: bool) -> webdis_bench::ScenarioReport {
        let t13 = webdis_bench::experiment("t13").expect("t13 is registered");
        (t13.run)(&webdis_bench::Ctx::new(smoke)).report
    }
}

const GLOBAL_QUERY: &str = r#"
    select d.url
    from document d such that "http://site0.test/doc0.html" (L|G)* d
    where d.title contains "needle"
"#;

/// A deliberately overloaded workload point: slow 1999-workstation
/// processors, bursty arrivals, so deliveries pile up behind the
/// sequential per-site processor and the queue-wait span goes nonzero.
fn overloaded_queue_wait_histogram() -> Histogram {
    let web = Arc::new(generate(&WebGenConfig {
        sites: 4,
        docs_per_site: 3,
        extra_local_links: 1,
        extra_global_links: 2,
        title_needle_prob: 0.4,
        seed: 15,
        ..WebGenConfig::default()
    }));
    let spec = WorkloadSpec {
        users: 3,
        queries_per_user: 4,
        arrival: ArrivalProcess::Poisson {
            mean_interarrival_us: 2_000,
        },
        mix: QueryMix::single(GLOBAL_QUERY),
        seed: 15,
        ..WorkloadSpec::default()
    };
    let (collector, tracer) = TraceHandle::collecting(1 << 17);
    let cfg = EngineConfig {
        proc: ProcModel::workstation_1999(),
        admission: Some(4),
        log_purge_us: Some(50_000),
        tracer,
        ..EngineConfig::default()
    };
    let outcome = run_workload_sim(web, &spec, cfg, SimConfig::default()).unwrap();
    assert_eq!(outcome.hung(), 0, "no query may hang");
    collector
        .registry()
        .snapshot()
        .histogram("stage_us.queue_wait")
        .cloned()
        .expect("queue_wait histogram must be registered")
}

#[test]
fn queue_wait_is_live_and_seed_deterministic() {
    let a = overloaded_queue_wait_histogram();
    let b = overloaded_queue_wait_histogram();
    assert!(
        a.sum > 0,
        "an overloaded point must observe nonzero queue wait \
         (count {}, sum {})",
        a.count,
        a.sum
    );
    assert_eq!(a, b, "same seed must reproduce the queue-wait histogram");
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "and its JSON form must be byte-identical"
    );
}

#[test]
fn bench_json_reproduces_byte_for_byte_across_same_seed_runs() {
    let a = BenchReport::single("smoke", "t13", scenarios::t13(true)).to_json();
    let b = BenchReport::single("smoke", "t13", scenarios::t13(true)).to_json();
    assert_eq!(
        a, b,
        "two same-seed t13 smoke runs must emit identical BENCH JSON"
    );

    // And the file round-trips losslessly through the parser.
    let parsed = BenchReport::from_json(&a).unwrap();
    assert_eq!(parsed.to_json(), a);
}

#[test]
fn compare_gate_passes_rerun_and_catches_injected_regression() {
    let baseline = BenchReport::single("smoke", "t13", scenarios::t13(true));

    // An identical rerun passes.
    let rerun = BenchReport::single("smoke", "t13", scenarios::t13(true));
    let out = compare(&baseline, &rerun);
    assert!(out.ok(), "identical rerun must pass: {:?}", out.regressions);
    assert!(out.checked > 10);

    // +20% on a sim-deterministic latency metric: the exact policy
    // trips on any drift, 20% included.
    let mut candidate = rerun.clone();
    let t13 = candidate.scenarios.get_mut("t13").unwrap();
    let p95 = t13.metrics["p95_us.ia50000"].value;
    t13.metrics.insert(
        "p95_us.ia50000".into(),
        Metric::exact(p95 * 12 / 10, Worse::Higher),
    );
    let out = compare(&baseline, &candidate);
    assert!(
        !out.ok() && out.regressions.iter().any(|r| r.contains("p95_us.ia50000")),
        "injected +20% latency must be caught: {:?}",
        out.regressions
    );

    // The same +20% injected against a banded wall-clock baseline with
    // a ±15% noise band also fails — and stays inside a ±25% band.
    let mut banded_base = baseline.clone();
    banded_base
        .scenarios
        .get_mut("t13")
        .unwrap()
        .metrics
        .insert("wall_us".into(), Metric::banded(10_000, 15, Worse::Higher));
    let mut banded_cand = rerun.clone();
    banded_cand
        .scenarios
        .get_mut("t13")
        .unwrap()
        .metrics
        .insert("wall_us".into(), Metric::banded(12_000, 15, Worse::Higher));
    assert!(!compare(&banded_base, &banded_cand).ok());
    banded_base
        .scenarios
        .get_mut("t13")
        .unwrap()
        .metrics
        .insert("wall_us".into(), Metric::banded(10_000, 25, Worse::Higher));
    assert!(compare(&banded_base, &banded_cand).ok());
}

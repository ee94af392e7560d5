//! Observability invariants across the whole stack: stage-span
//! determinism on the simulator, the mid-flight registry snapshot API,
//! and exposition coverage of the engine's metrics.

use std::sync::Arc;

use webdis::core::{Deployment, EngineConfig, ProcModel};
use webdis::load::{run_workload_sim, ArrivalProcess, QueryMix, WorkloadSpec};
use webdis::sim::SimConfig;
use webdis::trace::{Histogram, TraceHandle};
use webdis::web::{generate, WebGenConfig};

const QUERY: &str = r#"
    select d.url
    from document d such that "http://site0.test/doc0.html" (L|G)* d
    where d.title contains "needle"
"#;

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        users: 2,
        queries_per_user: 3,
        arrival: ArrivalProcess::Poisson {
            mean_interarrival_us: 40_000,
        },
        mix: QueryMix::single(QUERY),
        seed: 7,
        ..WorkloadSpec::default()
    }
}

fn web() -> Arc<webdis::web::HostedWeb> {
    Arc::new(generate(&WebGenConfig {
        sites: 4,
        docs_per_site: 2,
        extra_local_links: 1,
        extra_global_links: 1,
        title_needle_prob: 0.4,
        seed: 7,
        ..WebGenConfig::default()
    }))
}

fn run_once() -> Vec<(String, Histogram)> {
    let (collector, tracer) = TraceHandle::collecting(65_536);
    let cfg = EngineConfig {
        proc: ProcModel::workstation_1999(),
        tracer,
        ..EngineConfig::default()
    };
    run_workload_sim(web(), &spec(), cfg, SimConfig::default()).unwrap();
    collector
        .registry()
        .snapshot()
        .histograms()
        .filter(|(name, _)| name.starts_with("stage_us."))
        .map(|(name, h)| (name.to_string(), h.clone()))
        .collect()
}

/// Same seed, same schedule — the per-stage timing histograms must be
/// bit-identical across runs: stage durations on the simulator are pure
/// functions of the virtual clock and the modeled processing costs.
#[test]
fn stage_timings_are_seed_deterministic() {
    let a = run_once();
    let b = run_once();
    assert!(!a.is_empty(), "the workload must have produced stage spans");
    assert!(
        a.iter()
            .any(|(name, h)| name == "stage_us.eval" && h.count > 0),
        "eval stage must have real observations: {a:?}"
    );
    assert_eq!(a, b, "same seed must reproduce every stage histogram");
}

/// The observer sees monotonically growing counters mid-flight, and
/// observing does not perturb the run.
#[test]
fn snapshot_observer_sees_live_monotone_registry() {
    let run = |observe: bool| {
        let (collector, tracer) = TraceHandle::collecting(65_536);
        let cfg = EngineConfig {
            proc: ProcModel::workstation_1999(),
            tracer,
            ..EngineConfig::default()
        };
        let mut ticks: Vec<(u64, u64)> = Vec::new();
        let mut observer = |now: u64, snap: &webdis::trace::RegistrySnapshot| {
            if observe {
                ticks.push((now, snap.counter("query_recv")));
            }
        };
        let outcome = spec()
            .run_sim(
                &Deployment::new(web(), cfg),
                SimConfig::default(),
                &mut observer,
            )
            .unwrap();
        (outcome, ticks, collector.registry().snapshot())
    };

    let (observed_outcome, ticks, final_snap) = run(true);
    assert!(!ticks.is_empty(), "the observer must fire on purge ticks");
    assert!(
        ticks.windows(2).all(|w| w[0].0 < w[1].0),
        "tick clocks advance strictly: {ticks:?}"
    );
    assert!(
        ticks.windows(2).all(|w| w[0].1 <= w[1].1),
        "counters never go backwards mid-flight: {ticks:?}"
    );
    assert_eq!(
        ticks.last().unwrap().1,
        final_snap.counter("query_recv"),
        "the last tick's snapshot matches the final registry"
    );

    let (unobserved_outcome, _, _) = run(false);
    assert_eq!(
        observed_outcome.duration_us, unobserved_outcome.duration_us,
        "observing must not perturb the simulation"
    );

    // The mid-flight snapshot renders as valid exposition: cumulative
    // histogram buckets end at a +Inf count equal to the sample count.
    let expo = final_snap.render_prometheus();
    assert!(
        expo.contains("# TYPE webdis_stage_us_eval histogram"),
        "{expo}"
    );
    assert!(expo.contains("webdis_stage_us_eval_bucket{le=\"+Inf\"}"));
    let hist = final_snap.histogram("stage_us.eval").unwrap();
    assert!(expo.contains(&format!(
        "webdis_stage_us_eval_bucket{{le=\"+Inf\"}} {}",
        hist.count
    )));
}

/// On the simulator, a handler's clock is frozen, so every stage span is
/// exactly the modeled `ProcModel` cost charged during it — zero-cost
/// models must yield all-zero spans, never negative-wraparound garbage.
#[test]
fn zero_cost_model_yields_zero_spans() {
    let (collector, tracer) = TraceHandle::collecting(65_536);
    let cfg = EngineConfig {
        proc: ProcModel::default(),
        tracer,
        ..EngineConfig::default()
    };
    run_workload_sim(web(), &spec(), cfg, SimConfig::default()).unwrap();
    let snap = collector.registry().snapshot();
    for (name, h) in snap.histograms() {
        if let Some(stage) = name.strip_prefix("stage_us.") {
            if h.count > 0 {
                assert_eq!(
                    h.max, 0,
                    "stage {stage} must observe exactly the modeled cost (0): {h:?}"
                );
            }
        }
    }
}

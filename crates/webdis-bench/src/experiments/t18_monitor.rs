use std::sync::Arc;

use webdis_core::{EngineConfig, MonitorHandle, ProcModel};
use webdis_load::{run_workload_sim, ArrivalProcess, QueryMix, WorkloadSpec};
use webdis_sim::SimConfig;
use webdis_trace::TraceHandle;

use super::{artifact_digest, workload_web, Ctx, Outcome, LOCAL_QUERY};
use crate::report::{ScenarioReport, Worse};

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
    let web = Arc::new(workload_web(4, 2, 13));
    let spec = WorkloadSpec {
        users: 2,
        queries_per_user: if smoke { 8 } else { 16 },
        arrival: ArrivalProcess::BurstThenTail {
            burst: if smoke { 5 } else { 10 },
            burst_mean_us: 2_000,
            tail_mean_us: 300_000,
        },
        mix: QueryMix::single(LOCAL_QUERY),
        seed: 18,
        ..WorkloadSpec::default()
    };
    let (_collector, tracer) = TraceHandle::collecting(65_536);
    let monitor = monitored.then(|| MonitorHandle::with_defaults(tracer.clone()));
    let cfg = EngineConfig {
        proc: ProcModel::workstation_1999(),
        admission: Some(2),
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
pub fn run(ctx: &Ctx) -> Outcome {
    let a = t18_point(true, ctx.smoke);
    let b = t18_point(true, ctx.smoke);
    let off = t18_point(false, ctx.smoke);

    let ma = a.monitor.as_ref().expect("monitored run");
    let mb = b.monitor.as_ref().expect("monitored twin");
    let series = ma.series_json();
    let alert_log_json = ma.alert_log_json();
    let twin_identical = series == mb.series_json() && alert_log_json == mb.alert_log_json();
    let log = ma.alert_log();
    let shed_rule = "shed_rate_burn";
    let transitions = |fired: bool| {
        log.iter()
            .filter(move |e| e.rule == shed_rule && e.fired == fired)
    };
    let resolved = transitions(false).count();
    let first_fire_us = transitions(true).next().map_or(0, |e| e.time_us);
    let first_resolve_us = transitions(false).next().map_or(0, |e| e.time_us);

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
    Outcome {
        report,
        ..Outcome::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t18_smoke_fires_and_resolves_the_shed_burn_alert_deterministically() {
        let a = run(&Ctx::new(true)).report;
        let b = run(&Ctx::new(true)).report;
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
}

//! The simulated workload driver: every user, every server, one
//! deterministic event loop.
//!
//! Each user site becomes a [`ScheduledClient`] actor whose submissions
//! fire from virtual timers, so M concurrent users interleave with the
//! per-site [`SimServer`](webdis_core::simrun::SimServer) daemons in one
//! totally-ordered event sequence — the same run twice is *identical*,
//! message for message. The harness advances the clock in purge-period
//! ticks so it can drive the Section-3.1.1 `purge_log` sweep on every
//! server between event bursts (servers themselves stay timer-free), and
//! records each server's log-table high-water mark as the
//! `log_len_high_water` registry gauge.

use std::collections::BTreeMap;
use std::sync::Arc;

use webdis_core::simrun::SimServer;
use webdis_core::{
    query_server_addr, register_web_sites, ClientProcess, EngineConfig, ScheduledClient,
    ScheduledSubmission, SimRunError,
};
use webdis_sim::{SimConfig, SimNet};
use webdis_trace::{TraceEvent as TrEvent, TraceRecord};
use webdis_web::{LiveWeb, MutationSchedule, WebView};

use crate::spec::{load_user_addr, WorkloadSpec};
use crate::{QueryRecord, WorkloadOutcome};

/// Tick used to drive purge sweeps when the config does not set
/// `log_purge_us` (the gauge still wants periodic samples).
const DEFAULT_TICK_US: u64 = 100_000;

/// Applies one scheduled mutation to a live view (no-op on frozen) and
/// stamps it into the trace at its *scheduled* virtual time, keeping
/// traces byte-comparable across runs of the same seed.
fn apply_mutation(web: &WebView, m: &webdis_web::Mutation, tracer: &webdis_trace::TraceHandle) {
    if let WebView::Live(live) = web {
        let applied = live.apply(m);
        tracer.emit_with(|| TraceRecord {
            time_us: m.at_us,
            site: applied.host.clone(),
            query: None,
            hop: None,
            event: TrEvent::WebMutation {
                op: applied.label.to_string(),
                url: m.op.url_string(),
                site_version: applied.site_version,
            },
        });
    }
}

/// Runs the whole workload over the deterministic simulator.
pub fn run_workload_sim(
    web: Arc<webdis_web::HostedWeb>,
    spec: &WorkloadSpec,
    engine_cfg: EngineConfig,
    sim_cfg: SimConfig,
) -> Result<WorkloadOutcome, SimRunError> {
    run_workload_sim_observed(web, spec, engine_cfg, sim_cfg, &mut |_, _| {})
}

/// [`run_workload_sim`] with a mid-flight metrics observer: after every
/// purge tick the registry snapshot is handed to `observer` together
/// with the virtual clock — the simulator's analogue of scraping a live
/// daemon's `/metrics`. The observer only fires when the configured
/// tracer actually carries a registry (a noop tracer has nothing to
/// snapshot), and never perturbs the simulation: same seed, same
/// schedule — identical run, observed or not.
pub fn run_workload_sim_observed(
    web: Arc<webdis_web::HostedWeb>,
    spec: &WorkloadSpec,
    engine_cfg: EngineConfig,
    sim_cfg: SimConfig,
    observer: &mut dyn FnMut(u64, &webdis_trace::RegistrySnapshot),
) -> Result<WorkloadOutcome, SimRunError> {
    run_workload_view(
        WebView::Frozen(web),
        None,
        spec,
        engine_cfg,
        sim_cfg,
        observer,
    )
}

/// Runs the workload against a shared **living** web while `schedule`'s
/// mutations land at their exact virtual times, interleaved with the
/// in-flight queries. Each applied mutation is stamped into the trace as
/// a [`TrEvent::WebMutation`]; any events past the point where the
/// simulation drains are still applied (at their scheduled times) so the
/// web's history digest always reflects the complete schedule.
pub fn run_workload_sim_live(
    web: Arc<LiveWeb>,
    schedule: &MutationSchedule,
    spec: &WorkloadSpec,
    engine_cfg: EngineConfig,
    sim_cfg: SimConfig,
) -> Result<WorkloadOutcome, SimRunError> {
    run_workload_sim_live_observed(web, schedule, spec, engine_cfg, sim_cfg, &mut |_, _| {})
}

/// [`run_workload_sim_live`] with the same mid-flight metrics observer
/// as [`run_workload_sim_observed`].
pub fn run_workload_sim_live_observed(
    web: Arc<LiveWeb>,
    schedule: &MutationSchedule,
    spec: &WorkloadSpec,
    engine_cfg: EngineConfig,
    sim_cfg: SimConfig,
    observer: &mut dyn FnMut(u64, &webdis_trace::RegistrySnapshot),
) -> Result<WorkloadOutcome, SimRunError> {
    run_workload_view(
        WebView::Live(web),
        Some(schedule),
        spec,
        engine_cfg,
        sim_cfg,
        observer,
    )
}

fn run_workload_view(
    web: WebView,
    schedule: Option<&MutationSchedule>,
    spec: &WorkloadSpec,
    engine_cfg: EngineConfig,
    sim_cfg: SimConfig,
    observer: &mut dyn FnMut(u64, &webdis_trace::RegistrySnapshot),
) -> Result<WorkloadOutcome, SimRunError> {
    let plans = spec.plan()?;
    let tracer = engine_cfg.tracer.clone();
    let monitor = engine_cfg.monitor.clone();
    let sites = web.sites();
    let events = schedule.map(|s| s.events.as_slice()).unwrap_or(&[]);
    let mut mut_idx = 0usize;

    let mut net = SimNet::new(sim_cfg);
    net.set_tracer(tracer.clone());
    register_web_sites(&mut net, &web, &engine_cfg, None);
    for plan in &plans {
        let addr = load_user_addr(plan.user);
        let client = ClientProcess::new(
            &format!("load{}", plan.user),
            addr.clone(),
            engine_cfg.clone(),
        );
        let schedule: Vec<ScheduledSubmission> = plan
            .submissions
            .iter()
            .map(|s| ScheduledSubmission {
                at_us: s.at_us,
                query: s.query.clone(),
            })
            .collect();
        net.register(
            addr.clone(),
            Box::new(ScheduledClient::new(client, schedule)),
        );
        net.start(&addr);
    }

    // Advance in ticks; between bursts run the periodic purge sweep on
    // every server (which also retires idle admission slots) and sample
    // the log-table gauge. On a living web the loop also stops at every
    // scheduled mutation time, so each event lands at its exact virtual
    // instant — *between* message deliveries, never mid-handler — and
    // the run stays deterministic.
    let purge_period = engine_cfg.log_purge_us;
    let tick = purge_period.unwrap_or(DEFAULT_TICK_US).max(1);
    let mut next_tick = tick;
    loop {
        let tick_target = next_tick.min(spec.horizon_us);
        let target = match events.get(mut_idx) {
            Some(m) if m.at_us < tick_target => m.at_us,
            _ => tick_target,
        };
        let more = net.run_until(target);
        while let Some(m) = events.get(mut_idx) {
            if m.at_us > target {
                break;
            }
            apply_mutation(&web, m, &tracer);
            mut_idx += 1;
        }
        if target < tick_target {
            // Mutation-only stop: resume toward the tick without the
            // purge/observer bookkeeping (that stays on tick cadence).
            if more || mut_idx < events.len() {
                continue;
            }
        }
        let now = net.now_us();
        for site in &sites {
            if let Some(server) = net.actor_mut::<SimServer>(&query_server_addr(site)) {
                if let Some(period) = purge_period {
                    server.engine.purge_log(now.saturating_sub(period));
                }
                tracer.gauge_max("log_len_high_water", server.engine.log_len() as u64);
            }
        }
        if let Some(snapshot) = tracer.registry_snapshot() {
            // The monitor samples on the same tick as the observer, so
            // its window closes land at deterministic virtual times.
            if let Some(monitor) = &monitor {
                monitor.ingest(now, &snapshot);
            }
            observer(now, &snapshot);
        }
        if (!more && mut_idx >= events.len()) || next_tick >= spec.horizon_us {
            break;
        }
        if target == next_tick {
            next_tick += tick;
        }
    }
    // The simulation drained before late-scheduled events: apply the
    // rest anyway (they cannot affect finished queries) so the history
    // digest covers the whole schedule no matter how fast the run was.
    for m in &events[mut_idx..] {
        apply_mutation(&web, m, &tracer);
    }
    let duration_us = net.now_us();

    // Collect per-query records and per-site counters.
    let mut records = Vec::new();
    let mut unsubmitted = 0;
    for plan in &plans {
        let addr = load_user_addr(plan.user);
        let sc = net
            .actor_mut::<ScheduledClient>(&addr)
            .expect("user actor registered");
        unsubmitted += plan.submissions.len() - sc.client.query_nums().len();
        for num in sc.client.query_nums() {
            let site = sc.client.query(num).expect("listed query exists");
            let submitted_us = sc.submitted_at.get(&num).copied().unwrap_or(0);
            let record = QueryRecord {
                user: plan.user,
                query_num: num,
                submitted_us,
                complete: site.complete,
                completed_us: site.completed_at_us,
                results: site.results.clone(),
                shed_nodes: site.shed_entries.len(),
                failed_nodes: site.failed_entries.len(),
                dead_link_nodes: site.dead_link_entries.len(),
                cht_converged: site.cht.complete(),
                cht_live: site.cht.live_entries().count(),
                cht_stats: site.cht.stats,
                why_incomplete: site.why_incomplete(),
            };
            if let Some(latency) = record.latency_us() {
                tracer.observe("query_latency_us", latency);
            }
            records.push(record);
        }
    }
    let mut server_stats = BTreeMap::new();
    for site in sites {
        if let Some(server) = net.actor_mut::<SimServer>(&query_server_addr(&site)) {
            server_stats.insert(site, server.engine.stats);
        }
    }
    // Close the monitor's final partial window after the end-of-run
    // `query_latency_us` observations above, so the last window's
    // quantiles cover every completed query.
    if let Some(monitor) = &monitor {
        if let Some(snapshot) = tracer.registry_snapshot() {
            monitor.finalize(duration_us, &snapshot);
        }
    }

    Ok(WorkloadOutcome {
        records,
        unsubmitted,
        duration_us,
        server_stats,
    })
}

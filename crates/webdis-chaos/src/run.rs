//! Plan execution: the faulty run, its fault-free twin, and the
//! oracle verdict — plus the TCP smoke scenario that pushes the same
//! fault surface through real sockets.

use std::sync::Arc;
use std::time::Duration;

use webdis_core::simrun::user_addr;
use webdis_core::{query_server_addr, Deployment, DisqlError, EngineConfig, WorkloadOutcome};
use webdis_model::SiteAddr;
use webdis_sim::{Fault, FaultKind};
use webdis_trace::{doctor, TraceHandle, TraceRecord};
use webdis_web::live::{fnv_fold, FNV_OFFSET};
use webdis_web::{HostedWeb, LiveWeb};

use crate::oracle::{self, Violation};
use crate::plan::ChaosPlan;

/// Everything one executed plan exposes.
#[derive(Debug)]
pub struct ChaosReport {
    /// Oracle verdict (empty = all invariants held).
    pub violations: Vec<Violation>,
    /// The faulty run.
    pub faulty: WorkloadOutcome,
    /// The fault-free twins: one for a frozen plan; for a living plan,
    /// one per web content version (pristine first), whose union is the
    /// benign row envelope.
    pub baselines: Vec<WorkloadOutcome>,
    /// The faulty run's trace (the doctor's and the repro's evidence).
    pub records: Vec<TraceRecord>,
}

impl ChaosReport {
    /// A one-line verdict, stable across runs of the same plan — the
    /// unit the determinism check hashes.
    pub fn verdict_line(&self) -> String {
        if self.violations.is_empty() {
            format!(
                "ok: {} quer(ies) complete, {} rows",
                self.faulty.records.len(),
                self.faulty
                    .records
                    .iter()
                    .map(|r| r.result_set().len())
                    .sum::<usize>()
            )
        } else {
            let mut kinds: Vec<&str> = self.violations.iter().map(|v| v.kind()).collect();
            kinds.dedup();
            format!("VIOLATION[{}]: {}", kinds.join(","), self.violations[0])
        }
    }

    /// True when some violation carries the given kind label.
    pub fn has_kind(&self, kind: &str) -> bool {
        self.violations.iter().any(|v| v.kind() == kind)
    }
}

/// Runs a plan end to end: fault-free twin(s) first, then the faulty
/// run under a collecting tracer, then the oracle.
///
/// A plan with [`ChaosFault::Web`](crate::plan::ChaosFault) entries
/// runs its faulty leg on a **living** web whose mutation schedule
/// lands at exact virtual times mid-workload. Its fault-free twins are
/// one frozen run per web content version — the pristine web, then the
/// web after each successive mutation — so the oracle can separate
/// "the web changed" (rows drawn from *some* version: benign) from
/// "the engine lost or invented rows" (violation).
pub fn run_plan(plan: &ChaosPlan) -> Result<ChaosReport, DisqlError> {
    let web = Arc::new(webdis_web::generate(&plan.web_config()));
    let spec = plan.workload_spec();
    let schedule = plan.mutation_schedule();

    let plans = spec.plan()?;
    let frozen = |web: Arc<HostedWeb>| {
        let deployment = Deployment::new(web, plan.engine_config(TraceHandle::noop()));
        let sim_cfg = plan.sim_config(false);
        deployment.workload_sim(sim_cfg, plans.clone(), spec.horizon_us)
    };
    let mut baselines = Vec::with_capacity(schedule.events.len() + 1);
    baselines.push(frozen(web.clone()));
    if !schedule.events.is_empty() {
        let twin = LiveWeb::from_hosted(&web);
        for m in &schedule.events {
            twin.apply(m);
            baselines.push(frozen(Arc::new(twin.snapshot())));
        }
    }

    let (collector, tracer) = TraceHandle::collecting(1 << 17);
    let mut deployment = Deployment::new(web, plan.engine_config(tracer));
    deployment.schedule = schedule;
    let sim_cfg = plan.sim_config(true);
    let faulty = deployment.workload_sim(sim_cfg, plans, spec.horizon_us);
    let records = collector.snapshot();

    let violations = oracle::check(plan, &baselines, &faulty, &records);
    Ok(ChaosReport {
        violations,
        faulty,
        baselines,
        records,
    })
}

/// FNV-1a over the verdict lines: the sweep digest two runs of the
/// same master seed must agree on, byte for byte.
pub fn verdict_digest(lines: &[String]) -> u64 {
    let line = |hash, line: &String| fnv_fold(fnv_fold(hash, line.as_bytes()), b"\n");
    lines.iter().fold(FNV_OFFSET, line)
}

/// The query the TCP smoke runs (the paper's campus example).
const TCP_QUERY: &str = webdis_web::figures::CAMPUS_QUERY;

/// The campus daemon that forwards the query's one `G` hop.
const TCP_FORWARDER: &str = "wdqs.www.csa.iisc.ernet.in";

/// The campus daemon whose incoming clone the TCP smoke corrupts.
const TCP_CORRUPTED: &str = "wdqs.www-compiler.csa.iisc.ernet.in";

/// The campus site whose daemon the TCP smoke crashes.
const TCP_CRASH_HOST: &str = "dsl.serc.iisc.ernet.in";

/// Pushes the chaos fault surface through real sockets: one campus
/// query under frame corruption (the forward to the compiler lab),
/// duplication of every report, and a crash-restart window of the DSL
/// lab's daemon — one `Fault` list, as the simulator takes it —
/// oracle-checked against a fault-free TCP baseline, and each fault's
/// evidence required (for the crash: no row from the lab that the
/// baseline has). Returns the violations (empty = invariants held).
pub fn run_tcp_smoke() -> Result<Vec<Violation>, DisqlError> {
    let web = Arc::new(webdis_web::figures::campus());
    let engine = |tracer: TraceHandle| EngineConfig {
        expiry_us: Some(500_000),
        tracer,
        ..EngineConfig::default()
    };
    let deadline = Duration::from_secs(10);

    let baseline = Deployment::new(web.clone(), engine(TraceHandle::noop())).query_tcp(
        TCP_QUERY,
        deadline,
        Vec::new(),
    )?;

    let dup = |site| {
        let daemon = query_server_addr(site).host;
        Fault::rate(FaultKind::Dup, 1.0).on(&daemon, &user_addr().host)
    };
    let mut faults: Vec<Fault> = web.sites().iter().map(dup).collect();
    faults.push(Fault::rate(FaultKind::Corrupt, 1.0).on(TCP_FORWARDER, TCP_CORRUPTED));
    faults.push(Fault::Crash {
        site: query_server_addr(&SiteAddr {
            host: TCP_CRASH_HOST.into(),
            port: 80,
        }),
        at_us: 0,
        down_us: Some(250_000),
    });
    let (collector, tracer) = TraceHandle::collecting(1 << 15);
    let outcome = Deployment::new(web, engine(tracer)).query_tcp(TCP_QUERY, deadline, faults)?;
    let records = collector.snapshot();

    let mut violations = Vec::new();
    if !baseline.complete {
        violations.push(Violation::BaselineHang {
            user: 0,
            query_num: 1,
        });
    }
    if !outcome.complete {
        violations.push(Violation::Hang {
            user: 0,
            query_num: 1,
            why: outcome
                .why_incomplete
                .clone()
                .unwrap_or_else(|| "no diagnosis".to_string()),
        });
    }
    // Row safety: set inclusion (the crash window makes recomputation
    // legitimate, exactly as in the simulated oracle).
    let base_rows = baseline.result_set();
    for key in outcome.result_set() {
        if !base_rows.contains(&key) {
            violations.push(Violation::RowExcess {
                user: 0,
                query_num: 1,
                detail: format!("row {key:?} never produced by the fault-free run"),
            });
        }
    }
    for anomaly in doctor::diagnose(&records).anomalies {
        violations.push(Violation::TraceAnomaly {
            detail: anomaly.text,
        });
    }
    for event in ["message_corrupted", "message_duplicated"] {
        if !records.iter().any(|r| r.event.name() == event) {
            violations.push(Violation::TraceAnomaly {
                detail: format!("no {event} record: an injected fault never fired"),
            });
        }
    }
    // The crash's evidence: its lab answers in the fault-free run only.
    let lab = [&baseline, &outcome].map(|r| {
        let rows = r.result_set();
        rows.iter().any(|row| row.1.contains(TCP_CRASH_HOST))
    });
    if lab != [true, false] {
        let detail = format!("no crash evidence: {TCP_CRASH_HOST} answers under its crash");
        violations.push(Violation::TraceAnomaly { detail });
    }
    Ok(violations)
}

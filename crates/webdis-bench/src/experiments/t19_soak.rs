use std::sync::Arc;

use webdis_core::{CachePolicy, Deployment, EngineConfig, ProcModel, ServerStats};
use webdis_load::{ArrivalProcess, QueryMix, WorkloadSpec};
use webdis_sim::SimConfig;
use webdis_trace::{TraceEvent, TraceHandle};
use webdis_web::{LiveWeb, MutationPlanConfig, MutationSchedule};

use super::{
    artifact_digest, freeze_histograms, workload_web, Ctx, Outcome, GLOBAL_QUERY, LOCAL_QUERY,
};
use crate::report::{ScenarioReport, Worse};

/// t19_soak — the living-web soak: a seeded mutation schedule applied
/// at exact virtual times while the workload is in flight, with the
/// footnote-3 document cache and the answer cache both on (so every
/// site-version bump makes the invalidation path do load-bearing
/// work). Everything is sim-exact: the mutation history digest, the
/// per-query rows digest, the clean/shed/hung split, the dead-link
/// count, and the cache/invalidation counters all reproduce bit-for-bit
/// from the seeds alone — which is exactly what lets the committed
/// baseline pin a run on a web that never stops changing.
pub fn run(ctx: &Ctx) -> Outcome {
    let smoke = ctx.smoke;
    let web = workload_web(if smoke { 4 } else { 6 }, if smoke { 3 } else { 4 }, 19);
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
        mix: QueryMix::single(GLOBAL_QUERY).with(LOCAL_QUERY, 2),
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
    let mut deployment = Deployment::new(Arc::clone(&live), cfg);
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
            TraceEvent::Purge { records } => {
                purge_records += u64::from(*records);
            }
            TraceEvent::DocFetch {
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

    let stat_sum =
        |f: fn(&ServerStats) -> u64| -> u64 { outcome.server_stats.values().map(f).sum() };

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
            .map(|r| r.dead_link_entries.len() as u64)
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
    Outcome {
        report,
        ..Outcome::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t19_soak_is_bit_deterministic_and_exercises_the_living_web() {
        let a = run(&Ctx::new(true)).report;
        let b = run(&Ctx::new(true)).report;
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

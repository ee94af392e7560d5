//! The doctor (`webdis::trace::doctor`) over traces of real engine runs:
//! what its unit tests, which see only hand-built records, cannot hold.

use std::sync::Arc;

use webdis::core::{run_query_sim, CachePolicy, EngineConfig, MonitorHandle, ProcModel};
use webdis::load::{run_workload_sim, ArrivalProcess, QueryMix, WorkloadSpec};
use webdis::model::Url;
use webdis::sim::{Fault, FaultKind, SimConfig};
use webdis::trace::doctor::diagnose;
use webdis::trace::{TraceEvent, TraceHandle, TraceRecord};
use webdis::web::{figures, generate, Mutation, MutationOp, WebGenConfig};
use webdis_bench::{experiment, Ctx, TraceOpt};
use webdis_chaos::plan::ChaosPlan;

/// The t12 acceptance shape: a sim run with injected drops, expiry on.
fn t12_drop_trace() -> Vec<TraceRecord> {
    let (collector, tracer) = TraceHandle::collecting(16_384);
    let cfg = EngineConfig {
        expiry_us: Some(400_000),
        tracer,
        ..EngineConfig::default()
    };
    let sim = SimConfig {
        faults: vec![Fault::rate(FaultKind::Drop, 0.1)],
        seed: 5,
        ..SimConfig::default()
    };
    let outcome =
        run_query_sim(Arc::new(figures::campus()), figures::CAMPUS_QUERY, cfg, sim).unwrap();
    assert!(outcome.complete, "expiry must conclude the query");
    collector.snapshot()
}

/// The t12 acceptance shape must produce expired/shed flags and *zero*
/// false orphans or hangs.
#[test]
fn injected_drop_run_has_zero_false_orphans() {
    let records = t12_drop_trace();
    let d = diagnose(&records);
    assert!(
        d.anomalies.is_empty(),
        "injected drops must never read as orphans or hangs: {:?}",
        d.anomalies
    );
    // The run did lose something, and the doctor saw it.
    let dropped: usize = d.queries.iter().map(|q| q.dropped_visits.len()).sum();
    let drops_in_trace = records
        .iter()
        .filter(|r| matches!(&r.event, TraceEvent::MessageDropped { kind, .. } if kind == "query"))
        .count();
    assert_eq!(
        dropped, drops_in_trace,
        "every dropped query clone is matched to its in-flight visit"
    );
    let text = d.render_text(5);
    assert!(text.contains("anomalies"));
    assert!(text.contains("none — every send"));
}

/// The probe point of a t13 run, as `webdis-bench run --trace f t13`
/// would write it.
fn t13_probe_trace(smoke: bool) -> Vec<TraceRecord> {
    let ctx = Ctx {
        smoke,
        expo: false,
        tracer: TraceOpt::with_path(Some("never-written.jsonl".into())),
    };
    (experiment("t13").expect("t13 is registered").run)(&ctx);
    ctx.tracer.collecting(0).0.snapshot()
}

/// The doctor report EXPERIMENTS.md shows under "Reading a doctor
/// report": the fenced block after that heading.
fn recorded_smoke_report() -> &'static str {
    let doc = include_str!("../EXPERIMENTS.md");
    let section = &doc[doc.find("### Reading a doctor report").expect("section")..];
    let body = &section[section.find("```\n").expect("fenced block") + 4..];
    &body[..body.find("```\n").expect("closing fence")]
}

/// The whole `--top 3` report over the CI smoke trace is the one
/// EXPERIMENTS.md prints, byte for byte. A deliberate change to the
/// engine's trace or to the report re-records that block.
#[test]
fn smoke_trace_report_is_the_recorded_one() {
    let text = diagnose(&t13_probe_trace(true)).render_text(3);
    assert_eq!(
        text,
        recorded_smoke_report(),
        "the report moved; EXPERIMENTS.md should record:\n{text}"
    );
}

/// The generated web of the workload experiments (t13, t17–t19).
fn workload_web(sites: usize, docs_per_site: usize) -> Arc<webdis::web::HostedWeb> {
    Arc::new(generate(&WebGenConfig {
        sites,
        docs_per_site,
        extra_local_links: 1,
        extra_global_links: 1,
        title_needle_prob: 0.4,
        seed: 13,
        ..WebGenConfig::default()
    }))
}

const LOCAL_QUERY: &str = r#"select d.url, d.title
    from document d such that "http://site0.test/doc0.html" L* d
    where d.title contains "needle""#;
const GLOBAL_QUERY: &str = r#"select d.url
    from document d such that "http://site0.test/doc0.html" (L|G)* d
    where d.title contains "needle""#;

/// A t17-shaped Zipf mix with an answer cache: hits, subsumed hits
/// and misses, some of them on the critical path.
fn cached_zipf_trace() -> Vec<TraceRecord> {
    let spec = WorkloadSpec {
        users: 2,
        queries_per_user: 4,
        arrival: ArrivalProcess::Poisson {
            mean_interarrival_us: 5_000,
        },
        mix: QueryMix::zipf(1_000, &[LOCAL_QUERY, GLOBAL_QUERY]),
        seed: 17,
        ..WorkloadSpec::default()
    };
    let (collector, tracer) = TraceHandle::collecting(65_536);
    let cfg = EngineConfig {
        proc: ProcModel::workstation_1999(),
        doc_cache_size: 64,
        cache: Some(CachePolicy::with_budget(2_048)),
        tracer,
        ..EngineConfig::default()
    };
    run_workload_sim(workload_web(4, 4), &spec, cfg, SimConfig::default()).unwrap();
    collector.snapshot()
}

/// A living chaos plan with the doc cache's version check off, as in
/// `crates/webdis-chaos/tests/living.rs`: an edit of a visited page
/// between two visits (superseded), a deleted page (dead links) and
/// report duplication.
fn living_chaos_trace() -> Vec<TraceRecord> {
    let url = |u| Url::parse(u).unwrap();
    let edit = MutationOp::EditPage {
        url: url("http://site0.test/doc0.html"),
        token: "edited".into(),
    };
    let delete = MutationOp::DeletePage {
        url: url("http://site1.test/doc0.html"),
    };
    let plan = ChaosPlan {
        doc_cache_size: 8,
        validate_doc_cache: false,
        faults: vec![
            Mutation {
                at_us: 14_000,
                op: edit,
            }
            .into(),
            Mutation {
                at_us: 1_000,
                op: delete,
            }
            .into(),
            Fault::rate(FaultKind::Dup, 0.2).into(),
        ],
        ..ChaosPlan::default()
    };
    webdis_chaos::run_plan(&plan).unwrap().records
}

/// A monitored shed burst shaped like t18: the burn-rate alert fires in
/// the burst and resolves in the tail.
fn monitored_shed_trace() -> Vec<TraceRecord> {
    let spec = WorkloadSpec {
        users: 2,
        queries_per_user: 8,
        arrival: ArrivalProcess::BurstThenTail {
            burst: 5,
            burst_mean_us: 2_000,
            tail_mean_us: 300_000,
        },
        mix: QueryMix::single(LOCAL_QUERY),
        seed: 18,
        ..WorkloadSpec::default()
    };
    let (collector, tracer) = TraceHandle::collecting(65_536);
    let cfg = EngineConfig {
        proc: ProcModel::workstation_1999(),
        admission: Some(2),
        log_purge_us: Some(50_000),
        monitor: Some(MonitorHandle::with_defaults(tracer.clone())),
        tracer,
        ..EngineConfig::default()
    };
    run_workload_sim(workload_web(4, 2), &spec, cfg, SimConfig::default()).unwrap();
    collector.snapshot()
}

/// The findings, as the last two sections of the report print them.
fn findings_tail<F: std::fmt::Display>(flagged: &[F], anomalies: &[F]) -> String {
    let mut tail = String::new();
    if !flagged.is_empty() {
        tail += "\n== flagged (explained) ==\n";
        flagged.iter().for_each(|f| tail += &format!("{f}\n"));
    }
    tail += "\n== anomalies ==\n";
    if anomalies.is_empty() {
        tail += "none — every send was received or accounted for, every query terminated\n";
    }
    anomalies.iter().for_each(|a| tail += &format!("{a}\n"));
    tail
}

/// A pinned trace: its golden file's name, how to record it, and what
/// its report must show.
type Pin = (
    &'static str,
    fn() -> Vec<TraceRecord>,
    &'static [&'static str],
);

/// Every section and finding of the doctor's report, over real-engine
/// traces, held to `tests/golden/doctor/<name>.txt`: the whole
/// `render_text(5)`, whose last sections are `flagged` and `anomalies`
/// exactly as `Diagnosis` carries them. A report that moved is printed
/// whole; copy it into the golden file to re-record.
#[test]
fn every_section_and_finding_is_the_recorded_one() {
    let traces: [Pin; 4] = [
        (
            "t12_drops",
            t12_drop_trace,
            &["dropped in flight", "entry expired"],
        ),
        (
            "zipf_cache",
            cached_zipf_trace,
            &["== answer cache ==", "(4 subsumed)"],
        ),
        (
            "living_chaos",
            living_chaos_trace,
            &["SUPERSEDED", "link rot", "delivered twice"],
        ),
        (
            "t18_alerts",
            monitored_shed_trace,
            &["== alert timeline ==", "resolved  "],
        ),
    ];
    let mut moved = Vec::new();
    for (name, trace, shows) in traces {
        let d = diagnose(&trace());
        let text = d.render_text(5);
        assert!(
            text.ends_with(&findings_tail(&d.flagged, &d.anomalies)),
            "{name}"
        );
        for needle in shows {
            assert!(
                text.contains(needle),
                "{name} must show {needle:?}:\n{text}"
            );
        }
        let path = format!(
            "{}/tests/golden/doctor/{name}.txt",
            env!("CARGO_MANIFEST_DIR")
        );
        if std::fs::read_to_string(&path).ok().as_deref() != Some(text.as_str()) {
            moved.push(format!("--- {name} now renders:\n{text}"));
        }
    }
    assert!(moved.is_empty(), "{}", moved.join("\n"));
}

/// `diagnose` used to re-filter the whole record slice once per query
/// (and `reconstruct` once more): 1 920 queries took 2.65 s and the time
/// quadrupled per doubling, under a doc comment promising multi-gigabyte
/// traces.
#[test]
fn diagnosis_is_linear_in_the_number_of_queries() {
    // Debug builds are too slow for a wall-clock bound to mean much.
    if cfg!(debug_assertions) {
        return;
    }
    // The full t13 probe trace (48 queries), replicated 40× under fresh
    // user names.
    let probe = t13_probe_trace(false);
    let mut records = Vec::with_capacity(probe.len() * 40);
    for copy in 0..40 {
        records.extend(probe.iter().cloned().map(|mut r| {
            if let Some(id) = &mut r.query {
                id.user = format!("{}-{copy}", id.user).into();
            }
            r
        }));
    }
    let started = std::time::Instant::now();
    let d = diagnose(&records);
    let elapsed = started.elapsed();
    assert_eq!(d.queries.len(), 1_920);
    assert!(d.anomalies.is_empty(), "{:?}", d.anomalies);
    assert!(
        elapsed.as_millis() < 500,
        "{} records took {elapsed:?}",
        records.len()
    );
}

//! The doctor (`webdis::trace::doctor`) over traces of real engine runs:
//! what its unit tests, which see only hand-built records, cannot hold.

use std::sync::Arc;

use webdis::core::{run_query_sim, EngineConfig, ExpiryPolicy};
use webdis::sim::{Fault, FaultKind, SimConfig};
use webdis::trace::doctor::diagnose;
use webdis::trace::{TraceEvent, TraceHandle, TraceRecord};
use webdis::web::figures;
use webdis_bench::{experiment, Ctx, TraceOpt};

/// The t12 acceptance shape: a sim run with injected drops must
/// produce expired/shed flags and *zero* false orphans or hangs.
#[test]
fn injected_drop_run_has_zero_false_orphans() {
    let (collector, tracer) = TraceHandle::collecting(16_384);
    let cfg = EngineConfig {
        expiry: Some(ExpiryPolicy::with_timeout(400_000)),
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
    let records = collector.snapshot();
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

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The whole report over the CI smoke trace, byte for byte what the
/// doctor rendered before its per-query passes were regrouped. A
/// deliberate change to the engine's trace or to the report re-records
/// the two numbers this prints.
#[test]
fn smoke_trace_report_is_the_recorded_one() {
    let text = diagnose(&t13_probe_trace(true)).render_text(5);
    assert_eq!(
        (text.len(), fnv1a(&text)),
        (2414, 0xfccf_6c80_c6b0_af74),
        "the report moved:\n{text}"
    );
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

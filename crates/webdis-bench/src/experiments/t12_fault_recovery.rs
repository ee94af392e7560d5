use std::sync::Arc;

use webdis_core::{query_server_addr, run_query_sim, EngineConfig, QueryOutcome};
use webdis_model::Url;
use webdis_sim::{Fault, FaultKind, SimConfig};
use webdis_trace::{trajectory, TraceHandle};
use webdis_web::figures;

use super::{shipped, Ctx, Outcome};
use crate::Table;

const SEEDS: u64 = 10;
/// The expiry timeout; the user site sweeps every 12.5 ms.
const EXPIRY_US: u64 = 50_000;

/// One faulty run: the outcome plus its trace-reconstruction orphan count.
fn run_faulty(sim: SimConfig) -> (QueryOutcome, usize) {
    let (collector, handle) = TraceHandle::collecting(16_384);
    let cfg = EngineConfig {
        expiry_us: Some(EXPIRY_US),
        tracer: handle,
        ..EngineConfig::default()
    };
    let outcome = run_query_sim(Arc::new(figures::campus()), figures::CAMPUS_QUERY, cfg, sim)
        .expect("query parses");
    let records = collector.snapshot();
    let orphans: usize = trajectory::query_ids(&records)
        .iter()
        .map(|id| trajectory::reconstruct(&records, id).orphans.len())
        .sum();
    (outcome, orphans)
}

/// T12 — graceful recovery under faults (Section 7.1).
///
/// The paper's fault-tolerance story is *graceful degradation*: query
/// servers are stateless between clones, the user site is the only
/// stateful party, and when a server crashes or the network eats a
/// message, the CHT's stale-entry expiry writes the lost clones off
/// explicitly so the query still terminates — with the results that did
/// arrive, plus a list of what was abandoned.
///
/// This harness measures that degradation curve on the campus web:
/// uniform message-drop rates {0, 0.05, 0.1, 0.2} across a bundle of RNG
/// seeds, plus a one-site-crash scenario (the Database Systems Lab's
/// query server dies mid-query). Per scenario:
///
/// * **complete %** — runs that terminated (the liveness guarantee: this
///   must be 100% at every fault level, by expiry if necessary);
/// * **recall %** — surviving result rows relative to the fault-free
///   baseline (faults may only *remove* rows, never invent them);
/// * **failed entries** — clones written off by expiry, averaged;
/// * **orphans** — trajectory-reconstruction orphan sends across all
///   traces; dropped messages are first-class `message_dropped` events,
///   so this must be zero.
pub fn run(ctx: &Ctx) -> Outcome {
    let trace = &ctx.tracer;

    let campus = Arc::new(figures::campus());
    let baseline = shipped(&campus, figures::CAMPUS_QUERY, EngineConfig::default());
    assert!(baseline.failed_entries.is_empty());
    let reference = baseline.result_set();
    let baseline_done = baseline
        .completed_at_us
        .expect("fault-free run detects completion");

    let mut table = Table::new(
        "T12: completion and recall under faults (campus web)",
        &[
            "scenario",
            "runs",
            "complete %",
            "recall %",
            "avg failed",
            "dropped msgs",
            "orphans",
        ],
    );

    // The crash scenario: the DSL lab's query server dies while the
    // query is in flight (halfway into the fault-free completion time —
    // late enough that its clone has been announced to the CHT, early
    // enough that its report never leaves, so expiry must conclude).
    let dsl = Url::parse("http://dsl.serc.iisc.ernet.in/").unwrap().site();
    let crash_at = (baseline_done / 2).max(1);
    let mut scenarios: Vec<(String, Vec<SimConfig>)> = Vec::new();
    for rate in [0.0f64, 0.05, 0.1, 0.2] {
        let run = |seed| SimConfig {
            faults: vec![Fault::rate(FaultKind::Drop, rate)],
            seed,
            ..SimConfig::default()
        };
        scenarios.push((format!("drop {rate:.2}"), (0..SEEDS).map(run).collect()));
    }
    let crashed = |seed| SimConfig {
        seed,
        faults: vec![Fault::Crash {
            site: query_server_addr(&dsl),
            at_us: crash_at,
            down_us: None,
        }],
        ..SimConfig::default()
    };
    scenarios.push((
        "crash dsl @50%".to_owned(),
        (0..SEEDS).map(crashed).collect(),
    ));

    let mut lossy_failed_total = 0usize;
    for (label, sims) in scenarios {
        let lossless = label == "drop 0.00";
        let runs = sims.len();
        let (mut completed, mut recall_sum, mut failed, mut dropped, mut orphans) =
            (0usize, 0.0f64, 0usize, 0u64, 0usize);
        for sim in sims {
            let (outcome, run_orphans) = run_faulty(sim);
            let rows = outcome.result_set();
            assert!(
                rows.is_subset(&reference),
                "{label}: faults may only remove rows, never invent them"
            );
            completed += usize::from(outcome.complete);
            recall_sum += rows.intersection(&reference).count() as f64 / reference.len() as f64;
            failed += outcome.failed_entries.len();
            dropped += outcome.metrics.dropped;
            orphans += run_orphans;
        }
        assert_eq!(completed, runs, "{label}: every run must terminate");
        assert_eq!(
            orphans, 0,
            "{label}: dropped sends must not orphan the trace"
        );
        if lossless {
            assert_eq!(failed, 0, "fault-free runs write nothing off");
            assert!((recall_sum - runs as f64).abs() < f64::EPSILON);
        } else {
            lossy_failed_total += failed;
        }
        table.row(&[
            label,
            runs.to_string(),
            format!("{:.0}", 100.0 * completed as f64 / runs as f64),
            format!("{:.1}", 100.0 * recall_sum / runs as f64),
            format!("{:.1}", failed as f64 / runs as f64),
            dropped.to_string(),
            orphans.to_string(),
        ]);
    }
    assert!(
        lossy_failed_total > 0,
        "the faulty scenarios must exercise expiry at least once"
    );

    // Showcase run for `--trace`: a seed known to lose a message.
    if trace.enabled() {
        let cfg = EngineConfig {
            expiry_us: Some(EXPIRY_US),
            tracer: trace.handle(),
            ..EngineConfig::default()
        };
        let outcome = run_query_sim(
            Arc::new(figures::campus()),
            figures::CAMPUS_QUERY,
            cfg,
            SimConfig {
                faults: vec![Fault::rate(FaultKind::Drop, 0.1)],
                seed: 6,
                ..SimConfig::default()
            },
        )
        .expect("query parses");
        trace.ingest("cht", &outcome.cht_stats.counters());
        trace.ingest(
            "sim",
            &[
                ("messages", outcome.metrics.total.messages),
                ("dropped", outcome.metrics.dropped),
                ("dropped_bytes", outcome.metrics.dropped_bytes),
            ],
        );
    }

    Outcome::shown(
        vec![table],
        "every run terminates — losses surface as explicit failed entries and \
         reduced recall, never as a hang or invented rows (Section 7.1) ✓",
    )
}

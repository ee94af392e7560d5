//! Integration tests for the chaos harness (DESIGN.md §2f): the
//! seeded sweep upholds the oracle deterministically, and a known-bad
//! schedule shrinks to a minimal repro that replays the same failure.

use webdis::model::SiteAddr;
use webdis::sim::{Fault, FaultKind};
use webdis_chaos::{repro, run_plan, shrink, verdict_digest, ChaosPlan, FaultScheduleGen};

/// The acceptance sweep: 50 generated schedules mixing all five fault
/// kinds, every one upholding the oracle — and a second pass over the
/// same master seed reproducing the verdicts byte for byte.
#[test]
fn seeded_sweep_upholds_the_oracle_deterministically() {
    const SCHEDULES: usize = 50;
    let gen = FaultScheduleGen::new(0xC4A05);

    let sweep = || -> (Vec<String>, std::collections::BTreeSet<&'static str>) {
        let mut lines = Vec::with_capacity(SCHEDULES);
        let mut kinds = std::collections::BTreeSet::new();
        for i in 0..SCHEDULES {
            let plan = gen.plan(i);
            for f in &plan.faults {
                kinds.insert(f.kind());
            }
            let report = run_plan(&plan).expect("schedule must run");
            assert!(
                report.violations.is_empty(),
                "schedule {i} violated the oracle: {}",
                report.verdict_line()
            );
            lines.push(report.verdict_line());
        }
        (lines, kinds)
    };

    let (first, kinds) = sweep();
    for kind in ["drop", "dup", "corrupt", "partition", "crash_restart"] {
        assert!(kinds.contains(kind), "sweep never exercised {kind}");
    }

    let (second, _) = sweep();
    assert_eq!(first, second, "verdict lines must be byte-identical");
    assert_eq!(verdict_digest(&first), verdict_digest(&second));
}

/// Cold-cache recovery: a crash-restart window against a *cached*
/// engine. The restarted site comes back with an empty answer cache
/// and recomputes answers it had already served — the oracle must
/// read that as benign recomputation (set inclusion under restarts),
/// not as the engine inventing rows.
#[test]
fn crash_restart_with_answer_cache_recovers_cold_without_violations() {
    let plan = ChaosPlan {
        queries_per_user: 6,
        cache_budget_bytes: Some(1 << 20),
        faults: vec![Fault::Crash {
            site: SiteAddr {
                host: "wdqs.site1.test".into(),
                port: 80,
            },
            at_us: 120_000,
            down_us: Some(80_000),
        }
        .into()],
        ..ChaosPlan::default()
    };

    let report = run_plan(&plan).expect("plan must run");
    assert!(
        report.violations.is_empty(),
        "cold-cache recovery violated the oracle: {}",
        report.verdict_line()
    );

    // The run must actually exercise the cache: repeated templates hit,
    // and the crash wipes site1's entries so later visits miss again.
    let hits = report
        .records
        .iter()
        .filter(|r| matches!(r.event, webdis_trace::TraceEvent::CacheHit { .. }))
        .count();
    let misses = report
        .records
        .iter()
        .filter(|r| matches!(r.event, webdis_trace::TraceEvent::CacheMiss { .. }))
        .count();
    assert!(hits > 0, "workload never hit the answer cache");
    assert!(misses > 0, "workload never missed the answer cache");

    // Same plan, same verdict — cold-cache recovery stays deterministic.
    let again = run_plan(&plan).expect("plan must run");
    assert_eq!(report.verdict_line(), again.verdict_line());

    // And the cached plan round-trips through the repro codec.
    let (decoded, _) = repro::decode(&repro::encode(&plan, None)).expect("repro must parse");
    assert_eq!(decoded, plan);
}

/// A hand-written schedule that must fail: with the expiry protocol
/// disabled there is no write-off path, so total loss of the
/// user0 → home-server link starves every query of any terminal
/// disposition. Two duplication faults ride along for the shrinker to
/// strip — duplication never *loses* anything, so it stays benign even
/// without expiry (the Paper-mode log table absorbs the extra copies),
/// while any lossy rider would be a second culprit.
fn known_bad_plan() -> ChaosPlan {
    ChaosPlan {
        expiry_us: None,
        faults: vec![
            Fault::rate(FaultKind::Dup, 0.2).into(),
            submission_link(FaultKind::Drop).into(),
            submission_link(FaultKind::Dup).into(),
        ],
        ..ChaosPlan::default()
    }
}

/// Total `kind` on the link from user 0 to its home server.
fn submission_link(kind: FaultKind) -> Fault {
    Fault::rate(kind, 1.0).on("user0.load.test", "wdqs.site0.test")
}

/// The known-bad schedule hangs, shrinks to exactly its one culprit
/// fault, and the emitted `chaos-repro.json` replays the same
/// violation kind after a round trip through the codec.
#[test]
fn known_bad_schedule_shrinks_to_a_replayable_minimal_repro() {
    let plan = known_bad_plan();
    let report = run_plan(&plan).expect("plan must run");
    assert!(
        report.has_kind("hang"),
        "known-bad plan must hang, got: {}",
        report.verdict_line()
    );

    let shrunk = shrink(&plan, |candidate| {
        run_plan(candidate)
            .map(|r| r.has_kind("hang"))
            .unwrap_or(false)
    });
    assert_eq!(
        shrunk.plan.faults,
        vec![submission_link(FaultKind::Drop).into()],
        "shrink must isolate the dropped submission link"
    );
    assert!(shrunk.runs > 1, "shrink must actually explore candidates");

    // The repro file round-trips exactly and replays the same failure.
    let doc = repro::encode(&shrunk.plan, Some("hang"));
    let (decoded, recorded) = repro::decode(&doc).expect("repro must parse");
    assert_eq!(decoded, shrunk.plan);
    assert_eq!(recorded.as_deref(), Some("hang"));
    let replayed = run_plan(&decoded).expect("replay must run");
    assert!(
        replayed.has_kind("hang"),
        "minimal repro must replay the recorded violation, got: {}",
        replayed.verdict_line()
    );
}

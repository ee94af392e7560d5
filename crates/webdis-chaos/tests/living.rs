//! Living-web acceptance: the known-bad schedule, its shrink, and the
//! repro round trip — plus the benign living plans the oracle must
//! clear.
//!
//! The known-bad plan reproduces the historical footnote-3 bug: the
//! per-site document cache keyed on URL alone, so an edit of an
//! already-visited page left later visits answering from the pre-edit
//! parse. The engine checks every hit's version, so the bug is put into
//! the trace instead (`stale::serve_first_build`): with it, the plan's
//! culprit edit turns into a `stale_visit` oracle violation; ddmin
//! shrinks the schedule to exactly that edit, and the
//! `chaos-repro.json` encoding replays it bit-identically. The same
//! plan's real run clears the oracle.
//!
//! Timing: under the default plan's seeds, the first query fills
//! site0's doc cache at t≈13.1ms and the second query re-visits the
//! same page at t≈14.5ms — so a mutation at t=14 000µs lands exactly
//! between the cache fill and the re-visit.

use webdis_chaos::plan::{ChaosFault, ChaosPlan};
use webdis_chaos::{oracle, repro, run_plan, shrink, ChaosReport};
use webdis_model::Url;
use webdis_sim::{Fault, FaultKind};
use webdis_trace::TraceEvent;
use webdis_web::{Mutation, MutationOp};

mod stale;

/// The page every chaos query starts from — guaranteed visited.
const VISITED: &str = "http://site0.test/doc0.html";

/// Between the first query's cache fill and the second query's cached
/// re-visit of [`VISITED`] (see module docs).
const BETWEEN_VISITS_US: u64 = 14_000;

fn url(u: &str) -> Url {
    Url::parse(u).unwrap()
}

fn edit(at_us: u64, url: &str, token: &str) -> ChaosFault {
    let url = self::url(url);
    let token = token.into();
    let op = MutationOp::EditPage { url, token };
    Mutation { at_us, op }.into()
}

/// The known-bad plan: doc cache on, one culprit edit of the visited
/// start page placed between query arrivals, and benign riders the
/// shrinker must discard.
fn known_bad_plan() -> ChaosPlan {
    ChaosPlan {
        doc_cache_size: 8,
        faults: vec![
            // Benign rider: a freshly created page has no pre-mutation
            // build to serve stale, and nothing links to it.
            Mutation {
                at_us: 5_000,
                op: MutationOp::CreatePage {
                    url: url("http://site2.test/rider.html"),
                    title: "Rider Page".into(),
                },
            }
            .into(),
            // The culprit: edits the visited page between the cache
            // fill and the re-visit.
            edit(BETWEEN_VISITS_US, VISITED, "culprit-token"),
            // Benign rider: light uniform report duplication.
            Fault::rate(FaultKind::Dup, 0.02).into(),
        ],
        ..ChaosPlan::default()
    }
}

/// `plan` run as it is, judged by the oracle on the trace an unchecked
/// doc cache would have left.
fn run_with_unchecked_cache(plan: &ChaosPlan) -> ChaosReport {
    let mut report = run_plan(plan).expect("plan runs");
    stale::serve_first_build(&mut report.records);
    report.violations = oracle::check(plan, &report.baselines, &report.faulty, &report.records);
    report
}

#[test]
fn known_bad_schedule_triggers_stale_visit() {
    let report = run_with_unchecked_cache(&known_bad_plan());
    assert!(
        report.has_kind("stale_visit"),
        "unchecked doc cache + mid-run edit must serve stale: {}",
        report.verdict_line()
    );
    // Staleness is a *consistency* failure, not a liveness or row-loss
    // one: the run still completes and invents nothing.
    assert!(!report.has_kind("hang"), "{}", report.verdict_line());
    assert!(!report.has_kind("row_excess"), "{}", report.verdict_line());
}

#[test]
fn shrink_isolates_the_culprit_edit() {
    let plan = known_bad_plan();
    let shrunk = shrink(&plan, |candidate| {
        run_with_unchecked_cache(candidate).has_kind("stale_visit")
    });
    assert_eq!(
        shrunk.plan.faults,
        vec![edit(BETWEEN_VISITS_US, VISITED, "culprit-token")],
        "ddmin must strip both riders and keep the culprit edit"
    );
}

#[test]
fn stale_visit_repro_round_trips_and_replays() {
    let plan = known_bad_plan();
    let text = repro::encode(&plan, Some("stale_visit"));
    let (decoded, violation) = repro::decode(&text).expect("repro parses");
    assert_eq!(
        decoded, plan,
        "chaos-repro.json must replay bit-identically"
    );
    assert_eq!(violation.as_deref(), Some("stale_visit"));

    let original = run_with_unchecked_cache(&plan);
    let replayed = run_with_unchecked_cache(&decoded);
    assert!(replayed.has_kind("stale_visit"));
    assert_eq!(
        original.verdict_line(),
        replayed.verdict_line(),
        "replay must reach the same verdict"
    );
}

#[test]
fn the_engine_upholds_the_contract_on_the_same_schedule() {
    // The exact schedule that breaks an unchecked cache is benign as
    // the engine runs it: the edit moves the page's version, the hit
    // check drops the cached build, and the re-visit parses current
    // content.
    let report = run_plan(&known_bad_plan()).expect("plan runs");
    assert!(
        report.violations.is_empty(),
        "the checked cache must clear the oracle: {}",
        report.verdict_line()
    );
    let revisit = report.records.iter().find(|r| {
        r.time_us > BETWEEN_VISITS_US
            && matches!(&r.event, TraceEvent::DocFetch { url, .. } if url == VISITED)
    });
    assert!(
        matches!(
            revisit.map(|r| &r.event),
            Some(TraceEvent::DocFetch {
                cache_hit: false,
                content_version: 1,
                ..
            })
        ),
        "the re-visit after the edit reparses version 1: {revisit:?}"
    );
}

#[test]
fn page_deletion_terminates_gracefully_and_stays_benign() {
    let plan = ChaosPlan {
        doc_cache_size: 8,
        faults: vec![Mutation {
            at_us: BETWEEN_VISITS_US,
            op: MutationOp::DeletePage {
                url: url("http://site0.test/doc1.html"),
            },
        }
        .into()],
        ..ChaosPlan::default()
    };
    let report = run_plan(&plan).expect("plan runs");
    assert!(
        report.violations.is_empty(),
        "link rot is benign by contract: {}",
        report.verdict_line()
    );
    assert!(
        report
            .faulty
            .records
            .iter()
            .any(|r| r.complete && !r.dead_link_entries.is_empty()),
        "the deleted page must be reached and terminated around, not missed"
    );
}

#[test]
fn generated_living_plans_run_deterministically() {
    // A slice of the sweep that includes mutated plans: the whole
    // report — violations and verdict line — must be a pure function
    // of the plan.
    let g = webdis_chaos::gen::FaultScheduleGen::new(0xFA57);
    let mut saw_mutated = false;
    for i in 0..6 {
        let plan = g.plan(i);
        saw_mutated |= plan.has_mutations();
        let a = run_plan(&plan).expect("first run");
        let b = run_plan(&plan).expect("second run");
        assert_eq!(a.verdict_line(), b.verdict_line(), "plan {i} diverged");
    }
    assert!(
        saw_mutated,
        "the slice should exercise at least one living plan"
    );
}

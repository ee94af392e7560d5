//! Living-web acceptance: the known-bad schedule, its shrink, and the
//! repro round trip — plus the benign living plans the oracle must
//! clear.
//!
//! The known-bad plan reproduces the historical footnote-3 bug: the
//! per-site document cache keyed on URL alone, so an edit of an
//! already-visited page left later visits answering from the pre-edit
//! parse. With `validate_doc_cache: false` the plan's culprit edit
//! turns into a `stale_visit` oracle violation; ddmin shrinks the
//! schedule to exactly that edit, and the `chaos-repro.json` encoding
//! replays it bit-identically.
//!
//! Timing: under the default plan's seeds, the first query fills
//! site0's doc cache at t≈13.1ms and the second query re-visits the
//! same page from cache at t≈14.5ms — so a mutation at t=14 000µs
//! lands exactly between the cache fill and the cached re-visit.

use webdis_chaos::plan::{ChaosPlan, FaultSpec};
use webdis_chaos::{repro, run_plan, shrink};

/// The page every chaos query starts from — guaranteed visited.
const VISITED: &str = "http://site0.test/doc0.html";

/// Between the first query's cache fill and the second query's cached
/// re-visit of [`VISITED`] (see module docs).
const BETWEEN_VISITS_US: u64 = 14_000;

fn edit(at_us: u64, url: &str, token: &str) -> FaultSpec {
    FaultSpec::Mutation {
        at_us,
        op: "edit_page".into(),
        url: url.into(),
        arg: token.into(),
    }
}

/// The known-bad plan: doc cache on, per-hit version validation OFF
/// (the historical bug), one culprit edit of the visited start page
/// placed between query arrivals, and benign riders the shrinker must
/// discard.
fn known_bad_plan() -> ChaosPlan {
    ChaosPlan {
        doc_cache_size: 8,
        validate_doc_cache: false,
        faults: vec![
            // Benign rider: a freshly created page has no pre-mutation
            // build to serve stale, and nothing links to it.
            FaultSpec::Mutation {
                at_us: 5_000,
                op: "create_page".into(),
                url: "http://site2.test/rider.html".into(),
                arg: "Rider Page".into(),
            },
            // The culprit: edits the visited page between the cache
            // fill and the cached re-visit.
            edit(BETWEEN_VISITS_US, VISITED, "culprit-token"),
            // Benign rider: light uniform report duplication.
            FaultSpec::Dup {
                from: "*".into(),
                to: "*".into(),
                rate_ppm: 20_000,
            },
        ],
        ..ChaosPlan::default()
    }
}

#[test]
fn known_bad_schedule_triggers_stale_visit() {
    let report = run_plan(&known_bad_plan()).expect("plan runs");
    assert!(
        report.has_kind("stale_visit"),
        "unvalidated doc cache + mid-run edit must serve stale: {}",
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
        run_plan(candidate).is_ok_and(|r| r.has_kind("stale_visit"))
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

    let original = run_plan(&plan).expect("original runs");
    let replayed = run_plan(&decoded).expect("replay runs");
    assert!(replayed.has_kind("stale_visit"));
    assert_eq!(
        original.verdict_line(),
        replayed.verdict_line(),
        "replay must reach the same verdict"
    );
}

#[test]
fn validated_doc_cache_upholds_the_contract_on_the_same_schedule() {
    // The exact schedule that breaks the unvalidated cache is benign
    // once the per-hit version check is on: the edit invalidates the
    // cached build, and the re-visit re-parses current content.
    let plan = ChaosPlan {
        validate_doc_cache: true,
        ..known_bad_plan()
    };
    let report = run_plan(&plan).expect("plan runs");
    assert!(
        report.violations.is_empty(),
        "validated cache must clear the oracle: {}",
        report.verdict_line()
    );
}

#[test]
fn page_deletion_terminates_gracefully_and_stays_benign() {
    let plan = ChaosPlan {
        doc_cache_size: 8,
        faults: vec![FaultSpec::Mutation {
            at_us: BETWEEN_VISITS_US,
            op: "delete_page".into(),
            url: "http://site0.test/doc1.html".into(),
            arg: String::new(),
        }],
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

//! The invariant oracle: what must hold of *every* run, no matter
//! which faults were injected.
//!
//! Four families of invariants, checked against the faulty run, its
//! fault-free twin (same topology, workload, environment — faults
//! stripped), and the faulty run's trace:
//!
//! 1. **Liveness** — every query reaches a terminal disposition
//!    (completion, possibly with failed/shed nodes listed). Nothing
//!    hangs, nothing stays unsubmitted.
//! 2. **Row safety** — the faulty run's rows are a sub-multiset of the
//!    baseline's: faults may *lose* results (expiry writes nodes off)
//!    but never invent or duplicate them. When the schedule contains a
//!    crash-restart, a revisited server legitimately *recomputes* rows
//!    it already reported (its log table restarted empty), so the
//!    check relaxes to set inclusion — still: no invented rows.
//! 3. **Trace coherence** — the doctor's triage over the trajectory
//!    finds no anomalies: every lost clone is explained by an injected
//!    drop/corruption/dead-letter record, no orphans, no silent hangs.
//! 4. **CHT convergence** — a query that reports complete has a
//!    converged home-site CHT: every entry deleted, no tombstone
//!    outstanding, zero live entries.

use std::collections::BTreeMap;

use webdis_core::{QueryRecord, WorkloadOutcome};
use webdis_trace::{doctor, TraceEvent, TraceRecord};
use webdis_web::LiveWeb;

use crate::plan::ChaosPlan;

/// One invariant violation. `kind()` is the stable label the shrinker
/// and the repro file compare on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The *fault-free* twin failed to complete — the plan (or the
    /// engine) is broken before any fault is injected.
    BaselineHang {
        /// Submitting user.
        user: usize,
        /// Query number within that user.
        query_num: u64,
    },
    /// A query never reached a terminal disposition.
    Hang {
        /// Submitting user.
        user: usize,
        /// Query number within that user.
        query_num: u64,
        /// The driver's diagnosis, when it has one.
        why: String,
    },
    /// Planned submissions never went out before the horizon.
    Unsubmitted {
        /// How many submissions were still pending.
        count: usize,
    },
    /// The faulty run produced rows the baseline never did (or more
    /// copies than permitted).
    RowExcess {
        /// Submitting user.
        user: usize,
        /// Query number within that user.
        query_num: u64,
        /// What was in excess.
        detail: String,
    },
    /// The doctor's trajectory triage found an anomaly (orphaned send,
    /// unexplained loss, missing termination).
    TraceAnomaly {
        /// The doctor's anomaly line.
        detail: String,
    },
    /// A query reported complete with an unconverged home-site CHT.
    ChtDiverged {
        /// Submitting user.
        user: usize,
        /// Query number within that user.
        query_num: u64,
        /// Live entries / counter snapshot.
        detail: String,
    },
    /// A site visit answered from content older than the document's
    /// version at visit time — the staleness contract broke (a cached
    /// build outlived the page it was parsed from).
    StaleVisit {
        /// The visiting server's host.
        site: String,
        /// The document served stale.
        url: String,
        /// Visit time, virtual µs.
        time_us: u64,
        /// Content version the visit answered from.
        saw_version: u64,
        /// Version the document had held since strictly before the
        /// visit.
        expected_version: u64,
    },
}

impl Violation {
    /// Stable kind label (shrink target, repro tag, verdict lines).
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::BaselineHang { .. } => "baseline_hang",
            Violation::Hang { .. } => "hang",
            Violation::Unsubmitted { .. } => "unsubmitted",
            Violation::RowExcess { .. } => "row_excess",
            Violation::TraceAnomaly { .. } => "trace_anomaly",
            Violation::ChtDiverged { .. } => "cht_diverged",
            Violation::StaleVisit { .. } => "stale_visit",
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::BaselineHang { user, query_num } => {
                write!(f, "baseline_hang: user{user}#{query_num} (fault-free run!)")
            }
            Violation::Hang {
                user,
                query_num,
                why,
            } => write!(f, "hang: user{user}#{query_num} — {why}"),
            Violation::Unsubmitted { count } => {
                write!(f, "unsubmitted: {count} submission(s) never went out")
            }
            Violation::RowExcess {
                user,
                query_num,
                detail,
            } => write!(f, "row_excess: user{user}#{query_num} — {detail}"),
            Violation::TraceAnomaly { detail } => write!(f, "trace_anomaly: {detail}"),
            Violation::ChtDiverged {
                user,
                query_num,
                detail,
            } => write!(f, "cht_diverged: user{user}#{query_num} — {detail}"),
            Violation::StaleVisit {
                site,
                url,
                time_us,
                saw_version,
                expected_version,
            } => write!(
                f,
                "stale_visit: {site} served {url} at t={time_us}µs from \
                 version {saw_version}, current since before the visit: \
                 {expected_version}"
            ),
        }
    }
}

/// One result row's identity: `(stage, node, rendered values)`.
type RowKey = (u32, String, Vec<String>);

/// A query's rows as a multiset keyed by [`RowKey`].
fn row_multiset(rec: &QueryRecord) -> BTreeMap<RowKey, usize> {
    let mut out: BTreeMap<RowKey, usize> = BTreeMap::new();
    for (stage, rows) in &rec.results {
        for (node, row) in rows {
            *out.entry((
                *stage,
                node.to_string(),
                row.values.iter().map(|v| v.render()).collect(),
            ))
            .or_default() += 1;
        }
    }
    out
}

/// Checks every invariant; returns the violations found (empty = the
/// run upheld the oracle).
///
/// `baselines` holds the fault-free twins: one for a frozen plan, and
/// one *per web content version* (pristine web first, then the web
/// after each mutation, every run fault-free and mutation-free) for a
/// living plan — the union of their rows is the benign envelope, since
/// any visit legally answers from whichever version was current when
/// the clone arrived.
pub fn check(
    plan: &ChaosPlan,
    baselines: &[WorkloadOutcome],
    faulty: &WorkloadOutcome,
    records: &[TraceRecord],
) -> Vec<Violation> {
    let mut violations = Vec::new();

    // 0. Every fault-free twin must be healthy, or nothing below means
    // anything.
    for baseline in baselines {
        for rec in &baseline.records {
            if !rec.complete {
                violations.push(Violation::BaselineHang {
                    user: rec.user,
                    query_num: rec.query_num,
                });
            }
        }
    }

    // 1. Liveness.
    for rec in &faulty.records {
        if !rec.complete {
            violations.push(Violation::Hang {
                user: rec.user,
                query_num: rec.query_num,
                why: rec
                    .why_incomplete
                    .clone()
                    .unwrap_or_else(|| "no diagnosis".to_string()),
            });
        }
    }
    if faulty.unsubmitted > 0 {
        violations.push(Violation::Unsubmitted {
            count: faulty.unsubmitted,
        });
    }

    // 2. Row safety against the fault-free twins: the union of the
    // per-version baselines' rows (taking the max per-row count) is the
    // benign envelope. A mutated web relaxes to set inclusion, exactly
    // like a crash-restart: a visit straddling a version boundary
    // legitimately recomputes what an earlier version already reported.
    let mut baseline_rows: BTreeMap<(usize, u64), BTreeMap<RowKey, usize>> = BTreeMap::new();
    for baseline in baselines {
        for r in &baseline.records {
            let entry = baseline_rows.entry((r.user, r.query_num)).or_default();
            for (key, count) in row_multiset(r) {
                let slot = entry.entry(key).or_default();
                *slot = (*slot).max(count);
            }
        }
    }
    let relaxed = plan.has_restarts() || plan.has_mutations();
    for rec in &faulty.records {
        let Some(base) = baseline_rows.get(&(rec.user, rec.query_num)) else {
            continue;
        };
        for (key, count) in row_multiset(rec) {
            match base.get(&key) {
                None => violations.push(Violation::RowExcess {
                    user: rec.user,
                    query_num: rec.query_num,
                    detail: format!("row {key:?} never produced by any fault-free run"),
                }),
                Some(base_count) if !relaxed && count > *base_count => {
                    violations.push(Violation::RowExcess {
                        user: rec.user,
                        query_num: rec.query_num,
                        detail: format!(
                            "row {key:?} delivered {count}x vs {base_count}x fault-free \
                             (no restart in the schedule to explain recomputation)"
                        ),
                    });
                }
                Some(_) => {}
            }
        }
    }

    // 3. Trace coherence via the doctor's triage.
    for anomaly in doctor::diagnose(records).anomalies {
        violations.push(Violation::TraceAnomaly {
            detail: anomaly.text,
        });
    }

    // 5. The staleness contract: every visit answers from the content
    // version current at visit time. The trace's per-visit `DocFetch`
    // version stamps are checked against a replay of the mutation
    // schedule on a twin living web. A fetch at *exactly* a mutation's
    // instant may land on either side of it (delivery order at equal
    // virtual times is the simulator's business), so the expected
    // version is the one current since strictly before the visit.
    violations.extend(check_stale_visits(plan, records));

    // 4. CHT convergence at the home site.
    for rec in &faulty.records {
        if rec.complete && (!rec.cht_converged || rec.cht_live > 0) {
            violations.push(Violation::ChtDiverged {
                user: rec.user,
                query_num: rec.query_num,
                detail: format!(
                    "complete with {} live entr(ies); stats: {:?}",
                    rec.cht_live, rec.cht_stats
                ),
            });
        }
    }

    violations
}

/// Replays the plan's mutation schedule on a twin [`LiveWeb`] to build
/// each document's version timeline, then holds every traced `DocFetch`
/// to it: the served version must be at least the version the document
/// had held since strictly before the visit.
fn check_stale_visits(plan: &ChaosPlan, records: &[TraceRecord]) -> Vec<Violation> {
    let schedule = plan.mutation_schedule();
    if schedule.events.is_empty() {
        return Vec::new();
    }
    // url -> [(instant, version the doc carries from then on)].
    let mut timeline: BTreeMap<String, Vec<(u64, u64)>> = BTreeMap::new();
    let twin = LiveWeb::from_hosted(&webdis_web::generate(&plan.web_config()));
    for m in &schedule.events {
        let applied = twin.apply(m);
        for (url, _) in &applied.effects {
            timeline
                .entry(url.to_string())
                .or_default()
                .push((m.at_us, applied.site_version));
        }
    }
    let mut violations = Vec::new();
    for rec in records {
        let TraceEvent::DocFetch {
            url,
            content_version,
            ..
        } = &rec.event
        else {
            continue;
        };
        let Some(changes) = timeline.get(url) else {
            continue;
        };
        let expected = changes
            .iter()
            .take_while(|(at, _)| *at < rec.time_us)
            .last()
            .map(|(_, v)| *v)
            .unwrap_or(0);
        if *content_version < expected {
            violations.push(Violation::StaleVisit {
                site: rec.site.clone(),
                url: url.clone(),
                time_us: rec.time_us,
                saw_version: *content_version,
                expected_version: expected,
            });
        }
    }
    violations
}

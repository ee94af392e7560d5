//! What a run reports: one [`QueryRecord`] per query, however it was
//! run — the one list of a query's fate, filled in place by its
//! [`UserSite`](crate::UserSite); a [`WorkloadOutcome`] around the
//! records of a many-query run; and [`QueryOutcome`], the single-query
//! form of a simulated run, which wraps the record beside the network's
//! traffic metrics and reads through to it.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Deref;

use webdis_model::{SiteAddr, Url};
use webdis_net::CloneState;
use webdis_rel::ResultRow;
use webdis_sim::Metrics;
use webdis_trace::TraceHandle;

use crate::cht::ChtStats;
use crate::server::ServerStats;
use crate::user::TraceEvent;

/// Counters of the Section-7.1 fallback (all zero unless the query ran
/// with `EngineConfig::hybrid`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HybridStats {
    /// Nodes handed back by servers (plus non-participating StartNodes).
    pub handoffs: u64,
    /// Documents downloaded by the fallback.
    pub fetches: u64,
    /// Node-query evaluations performed at the user site.
    pub local_evaluations: u64,
    /// Clones dispatched back into participating sites.
    pub reentries: u64,
    /// Fallback arrivals dropped as duplicates by the local log table.
    pub local_duplicates: u64,
}

/// The canonical, order-insensitive view of a result — `(stage, node,
/// rendered values)` — that engines, transports and configurations are
/// compared by.
pub fn result_set(
    results: &BTreeMap<u32, Vec<(Url, ResultRow)>>,
) -> BTreeSet<(u32, String, Vec<String>)> {
    let mut out = BTreeSet::new();
    for (stage, rows) in results {
        for (node, row) in rows {
            out.insert((
                *stage,
                node.to_string(),
                row.values.iter().map(|v| v.render()).collect(),
            ));
        }
    }
    out
}

/// One query's fate, as its user site saw it — the one place the list is
/// written: the [`UserSite`](crate::UserSite) owns its query's record and
/// fills it as reports arrive, the data-shipping oracle fills one too,
/// and [`QueryOutcome`] wraps it. Times are µs on the run's clock:
/// virtual in simulated runs, wall-clock since the cluster came up in
/// TCP runs.
#[derive(Debug, Clone, Default)]
pub struct QueryRecord {
    /// Index of the submitting client process in the run.
    pub user: usize,
    /// Query number within that client process.
    pub query_num: u64,
    /// Time the query was dispatched (0 until then).
    pub submitted_us: u64,
    /// True once completion was detected (it always should be, absent
    /// fault injection).
    pub complete: bool,
    /// Time completion was detected.
    pub completed_at_us: Option<u64>,
    /// Time of the first received result row.
    pub first_result_us: Option<u64>,
    /// Rows per global stage, with producing node.
    pub results: BTreeMap<u32, Vec<(Url, ResultRow)>>,
    /// Node-report trace in arrival order.
    pub trace: Vec<TraceEvent>,
    /// Nodes written off by stale-entry expiry (Section 7.1 graceful
    /// recovery) — their servers never answered (crashed or lost
    /// clones). Empty on fault-free runs.
    pub failed_entries: Vec<(Url, CloneState)>,
    /// Nodes refused by server-side admission control
    /// ([`Disposition::Shed`](webdis_net::Disposition) reports): the
    /// servers were full, so these parts of the traversal were never
    /// processed. The query still completes — with
    /// [`TermReason::Shed`](webdis_trace::TermReason) — because the
    /// shedding server reports every refused node back explicitly. Empty
    /// unless the config sets an
    /// [`admission`](crate::config::EngineConfig::admission) limit and
    /// the offered load exceeded it.
    pub shed_entries: Vec<(Url, CloneState)>,
    /// Nodes whose documents were deleted before the clone arrived
    /// (living-web link rot): each branch terminated gracefully with a
    /// dead-link report. Benign — the web changed, the engine did not
    /// lose rows. Always empty on a frozen web.
    pub dead_link_entries: Vec<(Url, CloneState)>,
    /// What the Section-7.1 fallback did for this query.
    pub hybrid: HybridStats,
    /// True when the home-site CHT converged: every entry marked deleted
    /// and no tombstone outstanding (the paper's completion condition).
    /// This and the three fields below are the end-of-run facts, written
    /// when the user site hands the record over.
    pub cht_converged: bool,
    /// Live (non-deleted) CHT entries left at the end of the run.
    pub cht_live: usize,
    /// Home-site CHT operation counters at the end of the run.
    pub cht_stats: ChtStats,
    /// Diagnosis when the run was not cleanly complete (outstanding
    /// state, or which nodes were expired, shed or rotten); `None` for a
    /// clean run.
    pub why_incomplete: Option<String>,
}

impl QueryRecord {
    /// Submission-to-completion latency, µs; `None` while incomplete.
    pub fn latency_us(&self) -> Option<u64> {
        self.completed_at_us
            .map(|done| done.saturating_sub(self.submitted_us))
    }

    /// True when at least one node was refused by admission control.
    pub fn was_shed(&self) -> bool {
        !self.shed_entries.is_empty()
    }

    /// Rows collected for one global stage (empty slice if none).
    pub fn rows_of_stage(&self, stage: u32) -> &[(Url, ResultRow)] {
        self.results.get(&stage).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total rows across all stages.
    pub fn total_rows(&self) -> usize {
        self.results.values().map(Vec::len).sum()
    }

    /// The canonical [`result_set`] of this query's rows.
    pub fn result_set(&self) -> BTreeSet<(u32, String, Vec<String>)> {
        result_set(&self.results)
    }
}

/// Everything a finished many-query run exposes.
#[derive(Debug)]
pub struct WorkloadOutcome {
    /// Per-query records, ordered by (user, query number).
    pub records: Vec<QueryRecord>,
    /// Planned submissions that never went out (horizon/deadline hit
    /// first); zero on healthy runs.
    pub unsubmitted: usize,
    /// Total run duration, µs (virtual or wall-clock).
    pub duration_us: u64,
    /// Per-site server counters at the end of the run.
    pub server_stats: BTreeMap<SiteAddr, ServerStats>,
}

impl WorkloadOutcome {
    /// Queries that completed cleanly (no shed, no expired nodes).
    pub fn completed_clean(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.complete && !r.was_shed() && r.failed_entries.is_empty())
            .count()
    }

    /// Queries that completed under load shedding.
    pub fn completed_shed(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.complete && r.was_shed())
            .count()
    }

    /// Queries still incomplete at the end — the invariant the admission
    /// controller exists to protect says this must be **zero**.
    pub fn hung(&self) -> usize {
        self.records.iter().filter(|r| !r.complete).count() + self.unsubmitted
    }

    /// Completed queries per virtual/wall second.
    pub fn throughput_qps(&self) -> f64 {
        let completed = self.records.iter().filter(|r| r.complete).count();
        if self.duration_us == 0 {
            return 0.0;
        }
        completed as f64 * 1_000_000.0 / self.duration_us as f64
    }

    /// Sum of one server counter over all sites.
    pub fn sum_stat(&self, f: impl Fn(&ServerStats) -> u64) -> u64 {
        self.server_stats.values().map(f).sum()
    }

    /// Observes every completed query's latency into the registry
    /// histogram `query_latency_us`.
    pub(crate) fn observe_latencies(&self, tracer: &TraceHandle) {
        for latency in self.records.iter().filter_map(QueryRecord::latency_us) {
            tracer.observe("query_latency_us", latency);
        }
    }
}

/// Everything a finished single-query simulated run exposes: the
/// query's record — which it dereferences to, so `outcome.complete` or
/// `outcome.result_set()` read the record — beside what the network and
/// the servers counted.
#[derive(Debug)]
pub struct QueryOutcome {
    /// The query's fate.
    pub record: QueryRecord,
    /// Network traffic metrics.
    pub metrics: Metrics,
    /// Virtual makespan of the whole run, µs.
    pub duration_us: u64,
    /// Per-site server counters.
    pub server_stats: BTreeMap<SiteAddr, ServerStats>,
}

impl Deref for QueryOutcome {
    type Target = QueryRecord;

    fn deref(&self) -> &QueryRecord {
        &self.record
    }
}

impl QueryOutcome {
    /// Sum of one server counter over all sites.
    pub fn sum_stat(&self, f: impl Fn(&ServerStats) -> u64) -> u64 {
        self.server_stats.values().map(f).sum()
    }
}

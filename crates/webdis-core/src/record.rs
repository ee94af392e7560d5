//! What a run reports: one [`QueryRecord`] per query, however it was
//! run; a [`WorkloadOutcome`] around the records of a many-query run;
//! and [`QueryOutcome`], the flat single-query form of a simulated run
//! (the record plus the network's traffic metrics).

use std::collections::{BTreeMap, BTreeSet};

use webdis_model::{SiteAddr, Url};
use webdis_net::CloneState;
use webdis_rel::ResultRow;
use webdis_sim::Metrics;
use webdis_trace::TraceHandle;

use crate::cht::ChtStats;
use crate::server::ServerStats;
use crate::user::{TraceEvent, UserSite};

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

/// One query's fate, as its user site saw it. Times are µs on the run's
/// clock: virtual in simulated runs, wall-clock since the cluster came
/// up in TCP runs.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// Index of the submitting client process in the run.
    pub user: usize,
    /// Query number within that client process.
    pub query_num: u64,
    /// Submission time.
    pub submitted_us: u64,
    /// True when completion was detected.
    pub complete: bool,
    /// Completion time.
    pub completed_us: Option<u64>,
    /// Time of the first result row.
    pub first_result_us: Option<u64>,
    /// Rows per global stage, with producing node.
    pub results: BTreeMap<u32, Vec<(Url, ResultRow)>>,
    /// Node-report trace in arrival order.
    pub trace: Vec<TraceEvent>,
    /// Nodes written off by stale-entry expiry (Section 7.1 graceful
    /// recovery). Empty on fault-free runs.
    pub failed_entries: Vec<(Url, CloneState)>,
    /// Nodes refused by server-side admission control (load shedding).
    pub shed_entries: Vec<(Url, CloneState)>,
    /// Nodes whose documents were deleted before the clone arrived
    /// (living-web link rot): each branch terminated gracefully with a
    /// dead-link report. Benign — the web changed, the engine did not
    /// lose rows. Always empty on a frozen web.
    pub dead_link_entries: Vec<(Url, CloneState)>,
    /// `failed_entries.len()`, flat for the workload reports that sum it.
    pub failed_nodes: usize,
    /// `shed_entries.len()`.
    pub shed_nodes: usize,
    /// `dead_link_entries.len()`.
    pub dead_link_nodes: usize,
    /// True when the home-site CHT converged: every entry marked deleted
    /// and no tombstone outstanding (the paper's completion condition).
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
    /// The record of `site`'s query, submitted by client process `user`.
    /// The end of a run: the rows, trace and written-off entries the
    /// site collected move into the record and leave the site empty.
    pub fn of(user: usize, site: &mut UserSite) -> QueryRecord {
        QueryRecord {
            user,
            query_num: site.id.query_num,
            submitted_us: site.submitted_us,
            complete: site.complete,
            completed_us: site.completed_at_us,
            first_result_us: site.first_result_us,
            failed_nodes: site.failed_entries.len(),
            shed_nodes: site.shed_entries.len(),
            dead_link_nodes: site.dead_link_entries.len(),
            cht_converged: site.cht.complete(),
            cht_live: site.cht.live_entries().count(),
            cht_stats: site.cht.stats,
            why_incomplete: site.why_incomplete(),
            results: std::mem::take(&mut site.results),
            trace: std::mem::take(&mut site.trace),
            failed_entries: std::mem::take(&mut site.failed_entries),
            shed_entries: std::mem::take(&mut site.shed_entries),
            dead_link_entries: std::mem::take(&mut site.dead_link_entries),
        }
    }

    /// Submission-to-completion latency, µs; `None` while incomplete.
    pub fn latency_us(&self) -> Option<u64> {
        self.completed_us
            .map(|done| done.saturating_sub(self.submitted_us))
    }

    /// True when at least one node was refused by admission control.
    pub fn was_shed(&self) -> bool {
        self.shed_nodes > 0
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
            .filter(|r| r.complete && !r.was_shed() && r.failed_nodes == 0)
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

/// Everything a finished single-query simulated run exposes.
#[derive(Debug)]
pub struct QueryOutcome {
    /// True when the CHT detected completion (it always should, absent
    /// fault injection).
    pub complete: bool,
    /// Rows per global stage, with producing node.
    pub results: BTreeMap<u32, Vec<(Url, ResultRow)>>,
    /// Node-report trace in arrival order.
    pub trace: Vec<TraceEvent>,
    /// Network traffic metrics.
    pub metrics: Metrics,
    /// Virtual makespan of the whole run, µs.
    pub duration_us: u64,
    /// Virtual time of the first result row at the user site.
    pub first_result_us: Option<u64>,
    /// Virtual time completion was detected.
    pub completed_at_us: Option<u64>,
    /// Per-site server counters.
    pub server_stats: BTreeMap<SiteAddr, ServerStats>,
    /// User-site CHT counters.
    pub cht_stats: ChtStats,
    /// See [`QueryRecord::failed_entries`].
    pub failed_entries: Vec<(Url, CloneState)>,
    /// See [`QueryRecord::shed_entries`]. Empty unless the config sets
    /// an [`AdmissionPolicy`](crate::config::AdmissionPolicy) and the
    /// offered load exceeded it.
    pub shed_entries: Vec<(Url, CloneState)>,
    /// See [`QueryRecord::dead_link_entries`].
    pub dead_link_entries: Vec<(Url, CloneState)>,
    /// See [`QueryRecord::why_incomplete`].
    pub why_incomplete: Option<String>,
}

impl QueryOutcome {
    /// The single-query form of a simulated run: the query's record
    /// beside what the network and the servers counted.
    pub(crate) fn new(
        record: QueryRecord,
        metrics: Metrics,
        duration_us: u64,
        server_stats: BTreeMap<SiteAddr, ServerStats>,
    ) -> QueryOutcome {
        QueryOutcome {
            complete: record.complete,
            results: record.results,
            trace: record.trace,
            first_result_us: record.first_result_us,
            completed_at_us: record.completed_us,
            cht_stats: record.cht_stats,
            failed_entries: record.failed_entries,
            shed_entries: record.shed_entries,
            dead_link_entries: record.dead_link_entries,
            why_incomplete: record.why_incomplete,
            metrics,
            duration_us,
            server_stats,
        }
    }

    /// Rows of one stage (empty slice if none).
    pub fn rows_of_stage(&self, stage: u32) -> &[(Url, ResultRow)] {
        self.results.get(&stage).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total rows across stages.
    pub fn total_rows(&self) -> usize {
        self.results.values().map(Vec::len).sum()
    }

    /// The canonical [`result_set`] of the run's rows.
    pub fn result_set(&self) -> BTreeSet<(u32, String, Vec<String>)> {
        result_set(&self.results)
    }

    /// Sum of one server counter over all sites.
    pub fn sum_stat(&self, f: impl Fn(&ServerStats) -> u64) -> u64 {
        self.server_stats.values().map(f).sum()
    }
}

//! The user-site client process (Section 4.3; Figure 2): dispatches the
//! web-query to the StartNodes, collects results on its listening
//! endpoint, maintains the Current Hosts Table, and detects completion.

use std::collections::BTreeSet;
use std::ops::Deref;
use std::sync::Arc;

use webdis_disql::WebQuery;
use webdis_model::{SiteAddr, Url};
use webdis_net::{ChtEntry, CloneState, Disposition, Message, QueryId, ResultReport};
use webdis_trace::{TermReason, TraceEvent as TrEvent, TraceRecord};

use crate::cht::Cht;
use crate::config::{CompletionMode, EngineConfig};
use crate::network::{query_server_addr, Network};
use crate::record::QueryRecord;
use crate::visit::{distinct_nodes, Forward, ForwardGroups};

mod fallback;
use fallback::Fallback;

/// One entry of the execution trace, recorded per node report — this is
/// what the figure-reproduction harnesses print.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual (or wall) time of receipt, µs.
    pub time_us: u64,
    /// The processed node.
    pub node: Url,
    /// The clone state it was processed in.
    pub state: CloneState,
    /// How the server disposed of it.
    pub disposition: Disposition,
    /// Stages answered at the node.
    pub stages_answered: Vec<u32>,
    /// Result rows produced.
    pub row_count: usize,
    /// Clones the node caused to be forwarded.
    pub forwards: usize,
}

/// The user-site client for one query. It owns the query's
/// [`QueryRecord`] and fills it in place — rows, trace, times and
/// written-off entries — and dereferences to it, so `site.complete` or
/// `site.results` read the record.
pub struct UserSite {
    /// The query's global identity.
    pub id: QueryId,
    query: WebQuery,
    config: EngineConfig,
    /// The Current Hosts Table.
    pub cht: Cht,
    record: QueryRecord,
    /// StartNode sites that refused the initial dispatch.
    pub unreachable_start_sites: Vec<SiteAddr>,
    /// The Section-7.1 fallback: present exactly when `config.hybrid`.
    fallback: Option<Fallback>,
    /// Outstanding StartNode clones under ack-chain completion (the
    /// user site is the Dijkstra–Scholten root).
    ack_deficit: u64,
    /// `(origin, seq)` of every network report already applied — the
    /// duplicate-delivery guard. A report replayed by the network (or a
    /// retrying sender) must not re-merge its rows or re-run its CHT
    /// deletes: in strict CHT mode a second delete for the same entry
    /// would tombstone and wedge completion forever.
    seen_reports: BTreeSet<(Arc<str>, u64)>,
    started: bool,
}

impl Deref for UserSite {
    type Target = QueryRecord;

    fn deref(&self) -> &QueryRecord {
        &self.record
    }
}

impl UserSite {
    /// Creates the client; call [`UserSite::start`] to dispatch.
    pub fn new(id: QueryId, query: WebQuery, config: EngineConfig) -> UserSite {
        UserSite {
            cht: Cht::new(config.completion),
            record: QueryRecord {
                query_num: id.query_num,
                ..QueryRecord::default()
            },
            unreachable_start_sites: Vec::new(),
            fallback: config.hybrid.then(Fallback::default),
            ack_deficit: 0,
            seen_reports: BTreeSet::new(),
            started: false,
            id,
            query,
            config,
        }
    }

    /// The end of a run: hands over the record, filed under client index
    /// `user`, adding the end-of-run CHT facts and the diagnosis.
    pub fn into_record(mut self, user: usize) -> QueryRecord {
        self.record.user = user;
        self.record.cht_converged = self.cht.complete();
        self.record.cht_live = self.cht.live_entries().count();
        self.record.cht_stats = self.cht.stats;
        self.record.why_incomplete = self.why_incomplete();
        self.record
    }

    /// `send_query` of Figure 2: enters the StartNodes into the CHT and
    /// dispatches the query to their sites (batched per site when
    /// optimization 4 is on). Admits the query to the monitor's in-flight
    /// table; completion retires it, so every started query is admitted
    /// and retired exactly once however it was submitted. In hybrid mode
    /// StartNodes on non-participating sites go straight to the fallback.
    pub fn start(&mut self, net: &mut dyn Network) {
        assert!(!self.started, "query already started");
        self.started = true;
        self.record.submitted_us = net.now_us();
        self.cht.tick(net.now_us());
        if let Some(monitor) = &self.config.monitor {
            monitor.admit(&self.id, net.now_us());
        }
        if self.query.stages.is_empty() {
            self.record.complete = true;
            self.record.completed_at_us = Some(net.now_us());
            if let Some(monitor) = &self.config.monitor {
                monitor.retire(&self.id);
            }
            return;
        }
        let state = CloneState {
            num_q: self.query.stages.len() as u32,
            rem_pre: self.query.stages[0].pre.clone(),
        };
        let mut groups = ForwardGroups::default();
        for node in distinct_nodes(&self.query.start_nodes) {
            groups.push(Forward {
                target: node,
                state: state.clone(),
                stage_idx: 0,
            });
        }
        let ack_mode = self.config.completion == CompletionMode::AckChain;
        let (stages, reply_to) = (&self.query.stages, self.id.reply_to());
        let batch = self.config.batch_per_site;
        for (site, clone) in groups.into_clones(&self.id, stages, 0, 0, &reply_to, batch) {
            let dest_nodes = clone.dest_nodes.clone();
            if !ack_mode {
                for node in &dest_nodes {
                    let entry = ChtEntry {
                        node: node.clone(),
                        state: state.clone(),
                    };
                    self.cht_add(net.now_us(), &entry);
                }
            }
            match net.send(&query_server_addr(&site), Message::Query(clone)) {
                Ok(()) => {
                    self.emit(net.now_us(), Some(0), || TrEvent::QuerySent {
                        to_site: site.host.to_string(),
                        nodes: dest_nodes.len() as u32,
                    });
                    if ack_mode {
                        self.ack_deficit += 1;
                    }
                }
                Err(_) => {
                    // No query server at a StartNode site. In hybrid
                    // mode (Section 7.1) the nodes are handed to the
                    // local fallback engine and their entries stay
                    // live; in pure distributed mode the entries are
                    // cleared so completion detection stays exact.
                    self.unreachable_start_sites.push(site.clone());
                    for node in &dest_nodes {
                        if let Some(fallback) = &mut self.fallback {
                            fallback.handoffs.push((node.clone(), state.clone()));
                        } else if !ack_mode {
                            self.cht_delete(net.now_us(), node, &state);
                        }
                    }
                }
            }
        }
        self.check_completion(net.now_us());
        self.run_fallback(net);
    }

    /// `receive_results` of Figure 2: stores results, marks the topmost
    /// CHT entry deleted, merges the new entries, and re-checks
    /// completion. In hybrid mode the nodes the report handed back then
    /// go through the fallback, which also takes the downloads it asked
    /// for.
    pub fn on_message(&mut self, net: &mut dyn Network, msg: Message) {
        match msg {
            Message::Report(report) => {
                if report.id != self.id {
                    return; // some other query's stray report
                }
                if self.is_duplicate_report(&report.origin, report.seq) {
                    return; // the network delivered this report twice
                }
                self.apply_report(net.now_us(), report);
            }
            Message::Ack(ack) => {
                if ack.id != self.id || self.config.completion != CompletionMode::AckChain {
                    return;
                }
                self.ack_deficit = self.ack_deficit.saturating_sub(1);
                self.check_completion(net.now_us());
            }
            Message::FetchReply(reply) => self.on_fetch_reply(net, reply),
            _ => {}
        }
        self.run_fallback(net);
    }

    /// Records a report's `(origin, seq)` identity and says whether it was
    /// already applied. `seq == 0` marks an untracked report (locally
    /// synthesized, never duplicated by a network) and always passes.
    fn is_duplicate_report(&mut self, origin: &Arc<str>, seq: u64) -> bool {
        seq != 0 && !self.seen_reports.insert((Arc::clone(origin), seq))
    }

    /// Applies a report's effects (the fallback synthesizes reports for
    /// its locally-processed nodes and applies them here too).
    fn apply_report(&mut self, now_us: u64, report: ResultReport) {
        self.cht.tick(now_us);
        for node_report in report.reports {
            let handed_back = node_report.disposition == Disposition::Handoff;
            if let Some(fallback) = self.fallback.as_mut().filter(|_| handed_back) {
                let handoff = (node_report.node, node_report.state);
                fallback.handoffs.push(handoff);
                continue;
            }
            let mut stages_answered = Vec::new();
            let mut row_count = 0;
            for stage_rows in node_report.results {
                stages_answered.push(stage_rows.stage);
                row_count += stage_rows.rows.len();
                let bucket = self.record.results.entry(stage_rows.stage).or_default();
                let rows = stage_rows.rows.into_iter();
                bucket.extend(rows.map(|row| (node_report.node.clone(), row)));
                if row_count > 0 && self.record.first_result_us.is_none() {
                    self.record.first_result_us = Some(now_us);
                }
            }
            self.record.trace.push(TraceEvent {
                time_us: now_us,
                node: node_report.node.clone(),
                state: node_report.state.clone(),
                disposition: node_report.disposition,
                stages_answered,
                row_count,
                forwards: node_report.new_entries.len(),
            });
            if node_report.disposition == Disposition::Shed {
                self.record
                    .shed_entries
                    .push((node_report.node.clone(), node_report.state.clone()));
            }
            if node_report.disposition == Disposition::DeadLink {
                self.record
                    .dead_link_entries
                    .push((node_report.node.clone(), node_report.state.clone()));
            }
            // Figure 2, lines 10–11: delete the topmost entry, then merge
            // the rest. (Under ack-chain completion no CHT travels and
            // none is kept.)
            if self.config.completion != CompletionMode::AckChain {
                self.cht_delete(now_us, &node_report.node, &node_report.state);
                for entry in &node_report.new_entries {
                    self.cht_add(now_us, entry);
                }
            }
        }
        self.check_completion(now_us);
    }

    /// Graceful recovery from node failures (Section 7.1 future work):
    /// declares CHT entries that made no progress within `timeout_us` as
    /// failed, records them in [`QueryRecord::failed_entries`], and lets
    /// completion detection conclude. Returns how many entries expired.
    /// Call periodically from the runtime's timer; a sound timeout is
    /// several times the expected per-hop round trip.
    ///
    /// CHT completion only: under [`CompletionMode::AckChain`] the user
    /// holds no per-node entries (only a root deficit), so there is
    /// nothing to expire and a stalled ack-chain query cannot be
    /// concluded gracefully — one more reason the CHT is the default.
    pub fn expire_stale(&mut self, now_us: u64, timeout_us: u64) -> usize {
        self.cht.tick(now_us);
        let failed = self.cht.expire_stale(timeout_us);
        let n = failed.len();
        for (node, _) in &failed {
            self.emit(now_us, None, || TrEvent::EntryExpired {
                node: node.to_string(),
            });
        }
        self.record.failed_entries.extend(failed);
        self.check_completion(now_us);
        n
    }

    /// The expiry timeout (µs) for this query: `Some` when the config
    /// asks for graceful recovery AND the completion protocol can support
    /// it (see [`UserSite::expire_stale`] on why ack-chain cannot).
    pub fn expiry_us(&self) -> Option<u64> {
        let ack_chain = self.config.completion == CompletionMode::AckChain;
        self.config.expiry_us.filter(|_| !ack_chain)
    }

    /// A human-readable diagnosis of why the query has not (cleanly)
    /// completed: the outstanding CHT state or ack deficit while running,
    /// the expired entries if completion was forced by
    /// [`UserSite::expire_stale`], and `None` for a clean completion.
    pub fn why_incomplete(&self) -> Option<String> {
        if !self.complete {
            return Some(match self.config.completion {
                CompletionMode::AckChain => {
                    format!("incomplete: {} outstanding ack(s)", self.ack_deficit)
                }
                _ => format!(
                    "incomplete: outstanding CHT state\n{}",
                    self.cht.debug_dump()
                ),
            });
        }
        // Completed, but degraded: the first of the three causes that
        // applies, with the nodes it cost.
        let degraded = [
            (
                &self.failed_entries,
                "completed via stale-entry expiry",
                "unresolved node(s)",
            ),
            (
                &self.shed_entries,
                "completed under load shedding",
                "node(s) refused by admission control",
            ),
            (
                &self.dead_link_entries,
                "completed around link rot",
                "dead link(s) terminated gracefully",
            ),
        ];
        let (entries, how, what) = degraded.into_iter().find(|(e, ..)| !e.is_empty())?;
        let nodes: Vec<String> = entries.iter().map(|(node, _)| node.to_string()).collect();
        Some(format!(
            "{how}; {} {what}: {}",
            nodes.len(),
            nodes.join(", ")
        ))
    }

    fn check_completion(&mut self, now_us: u64) {
        let ack_chain = self.config.completion == CompletionMode::AckChain;
        let done = if ack_chain {
            self.started && self.ack_deficit == 0
        } else {
            self.cht.complete()
        };
        if !self.complete && done {
            self.record.complete = true;
            self.record.completed_at_us = Some(now_us);
            let reason = match ack_chain {
                false if !self.failed_entries.is_empty() => TermReason::Expired,
                _ if !self.shed_entries.is_empty() => TermReason::Shed,
                false => TermReason::ChtComplete,
                true => TermReason::AckComplete,
            };
            self.emit(now_us, None, || TrEvent::Termination { reason });
            if let Some(monitor) = &self.config.monitor {
                monitor.retire(&self.id);
            }
        }
    }

    /// The parsed query (for header rendering).
    pub fn query(&self) -> &WebQuery {
        &self.query
    }

    /// Enters one CHT entry, on the record.
    fn cht_add(&mut self, now_us: u64, entry: &ChtEntry) {
        self.cht.add(entry);
        self.emit(now_us, None, || TrEvent::ChtAdd {
            node: entry.node.to_string(),
        });
    }

    /// Marks one CHT entry deleted, on the record.
    fn cht_delete(&mut self, now_us: u64, node: &Url, state: &CloneState) {
        self.cht.delete(node, state);
        self.emit(now_us, None, || TrEvent::ChtDelete {
            node: node.to_string(),
        });
    }

    /// Stamps one structured trace event at the user site; the event is
    /// built only when the tracer is on.
    fn emit(&self, time_us: u64, hop: Option<u32>, event: impl FnOnce() -> TrEvent) {
        self.config.tracer.emit_with(|| TraceRecord {
            time_us,
            site: self.id.host.to_string(),
            query: Some(self.id.clone()),
            hop,
            event: event(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::RecordingNetwork;
    use webdis_disql::parse_disql;
    use webdis_net::{NodeReport, StageRows};
    use webdis_rel::{ResultRow, Value};

    fn qid() -> QueryId {
        QueryId {
            user: "t".into(),
            host: "user.test".into(),
            port: 9,
            query_num: 1,
        }
    }

    fn single_stage_query(starts: &str) -> WebQuery {
        parse_disql(&format!(
            r#"select d.url from document d such that {starts} L* d"#
        ))
        .unwrap()
    }

    #[test]
    fn start_dispatches_one_clone_per_site() {
        let query = single_stage_query(r#""http://a.test/", "http://a.test/x", "http://b.test/""#);
        let mut user = UserSite::new(qid(), query, EngineConfig::default());
        let mut net = RecordingNetwork::default();
        user.start(&mut net);
        assert_eq!(net.sent.len(), 2, "a.test batched, b.test separate");
        let Message::Query(c) = &net.sent[0].1 else {
            panic!()
        };
        assert_eq!(c.dest_nodes.len(), 2);
        assert!(!user.complete);
    }

    #[test]
    fn unbatched_start_sends_per_node() {
        let query = single_stage_query(r#""http://a.test/", "http://a.test/x""#);
        let cfg = EngineConfig {
            batch_per_site: false,
            ..EngineConfig::default()
        };
        let mut user = UserSite::new(qid(), query, cfg);
        let mut net = RecordingNetwork::default();
        user.start(&mut net);
        assert_eq!(net.sent.len(), 2);
    }

    #[test]
    fn unreachable_start_site_terminates_immediately() {
        let query = single_stage_query(r#""http://ghost.test/""#);
        let mut user = UserSite::new(qid(), query, EngineConfig::default());
        let mut net = RecordingNetwork {
            unreachable: vec![query_server_addr(&SiteAddr {
                host: "ghost.test".into(),
                port: 80,
            })],
            ..RecordingNetwork::default()
        };
        user.start(&mut net);
        assert!(user.complete, "nothing outstanding → complete");
        assert_eq!(user.unreachable_start_sites.len(), 1);
    }

    #[test]
    fn report_stores_rows_and_completes() {
        let query = single_stage_query(r#""http://a.test/""#);
        let mut user = UserSite::new(qid(), query, EngineConfig::default());
        let mut net = RecordingNetwork::default();
        user.start(&mut net);
        let state = CloneState {
            num_q: 1,
            rem_pre: webdis_pre::parse("L*").unwrap(),
        };
        let report = ResultReport {
            id: qid(),
            origin: "a.test".into(),
            seq: 1,
            reports: vec![NodeReport {
                node: Url::parse("http://a.test/").unwrap(),
                state,
                disposition: Disposition::Answered,
                results: vec![StageRows {
                    stage: 0,
                    rows: vec![ResultRow {
                        values: vec![Value::Str("http://a.test/".into())],
                    }],
                }],
                new_entries: vec![],
            }],
        };
        net.time_us = 55;
        user.on_message(&mut net, Message::Report(report));
        assert!(user.complete);
        assert_eq!(user.total_rows(), 1);
        assert_eq!(user.first_result_us, Some(55));
        assert_eq!(user.completed_at_us, Some(55));
        assert_eq!(user.trace.len(), 1);
        assert_eq!(user.trace[0].disposition, Disposition::Answered);
    }

    #[test]
    fn shed_report_clears_entry_and_flags_query() {
        let query = single_stage_query(r#""http://a.test/""#);
        let mut user = UserSite::new(qid(), query, EngineConfig::default());
        let mut net = RecordingNetwork::default();
        user.start(&mut net);
        let state = CloneState {
            num_q: 1,
            rem_pre: webdis_pre::parse("L*").unwrap(),
        };
        let report = ResultReport {
            id: qid(),
            origin: "a.test".into(),
            seq: 1,
            reports: vec![NodeReport {
                node: Url::parse("http://a.test/").unwrap(),
                state,
                disposition: Disposition::Shed,
                results: vec![],
                new_entries: vec![],
            }],
        };
        user.on_message(&mut net, Message::Report(report));
        assert!(user.complete, "the shed report cleared the last CHT entry");
        assert_eq!(user.shed_entries.len(), 1);
        assert_eq!(user.total_rows(), 0);
        let why = user.why_incomplete().unwrap();
        assert!(why.contains("load shedding"), "{why}");
    }

    #[test]
    fn foreign_report_ignored() {
        let query = single_stage_query(r#""http://a.test/""#);
        let mut user = UserSite::new(qid(), query, EngineConfig::default());
        let mut net = RecordingNetwork::default();
        user.start(&mut net);
        let other = QueryId {
            query_num: 99,
            ..qid()
        };
        let report = ResultReport {
            id: other,
            origin: "a.test".into(),
            seq: 1,
            reports: vec![],
        };
        user.on_message(&mut net, Message::Report(report));
        assert!(!user.complete);
        assert!(user.trace.is_empty());
    }

    #[test]
    fn duplicate_report_delivery_is_idempotent() {
        // The same wire report delivered twice (a duplicating network)
        // must apply exactly once: rows are not double-counted and the
        // second CHT delete is never run. Exercised under strict CHT
        // accounting, where a replayed delete would otherwise tombstone
        // and wedge completion.
        let query = single_stage_query(r#""http://a.test/""#);
        let cfg = EngineConfig {
            completion: CompletionMode::ChtStrict,
            ..EngineConfig::default()
        };
        let mut user = UserSite::new(qid(), query, cfg);
        let mut net = RecordingNetwork::default();
        user.start(&mut net);
        let state = CloneState {
            num_q: 1,
            rem_pre: webdis_pre::parse("L*").unwrap(),
        };
        let report = ResultReport {
            id: qid(),
            origin: "a.test".into(),
            seq: 42,
            reports: vec![NodeReport {
                node: Url::parse("http://a.test/").unwrap(),
                state: state.clone(),
                disposition: Disposition::Answered,
                results: vec![StageRows {
                    stage: 0,
                    rows: vec![ResultRow {
                        values: vec![Value::Str("http://a.test/".into())],
                    }],
                }],
                new_entries: vec![],
            }],
        };
        user.on_message(&mut net, Message::Report(report.clone()));
        assert!(user.complete);
        assert_eq!(user.total_rows(), 1);
        user.on_message(&mut net, Message::Report(report.clone()));
        assert_eq!(user.total_rows(), 1, "duplicate rows not merged");
        assert_eq!(user.trace.len(), 1, "duplicate left no trace entry");
        assert!(user.complete, "no spurious tombstone from the replay");
        // A *distinct* report from the same origin still applies.
        let mut next = report;
        next.seq = 43;
        next.reports[0].results.clear();
        user.on_message(&mut net, Message::Report(next));
        assert_eq!(user.trace.len(), 2);
    }

    #[test]
    fn untracked_reports_bypass_the_dedupe() {
        // seq == 0 marks locally-synthesized reports (the hybrid
        // fallback); they are never deduped against each other.
        let query = single_stage_query(r#""http://a.test/""#);
        let mut user = UserSite::new(qid(), query, EngineConfig::default());
        assert!(!user.is_duplicate_report(&"local".into(), 0));
        assert!(!user.is_duplicate_report(&"local".into(), 0));
        assert!(!user.is_duplicate_report(&"a.test".into(), 7));
        assert!(user.is_duplicate_report(&"a.test".into(), 7));
        assert!(
            !user.is_duplicate_report(&"b.test".into(), 7),
            "keyed per origin"
        );
    }

    #[test]
    fn empty_query_is_immediately_complete() {
        // Parser forbids zero stages, so construct directly.
        let query = WebQuery {
            start_nodes: vec![],
            stages: [].into(),
        };
        let mut user = UserSite::new(qid(), query, EngineConfig::default());
        let mut net = RecordingNetwork::default();
        user.start(&mut net);
        assert!(user.complete);
        assert!(net.sent.is_empty());
    }

    #[test]
    fn duplicate_start_nodes_deduped() {
        let query = single_stage_query(r#""http://a.test/", "http://a.test/""#);
        let mut user = UserSite::new(qid(), query, EngineConfig::default());
        let mut net = RecordingNetwork::default();
        user.start(&mut net);
        let Message::Query(c) = &net.sent[0].1 else {
            panic!()
        };
        assert_eq!(c.dest_nodes.len(), 1);
    }
}

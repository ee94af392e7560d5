//! Folds a trace event stream back into the per-query shipping tree —
//! the walk the paper narrates around Figure 1 ("the query is sent to
//! node 1, which ships clones to nodes 2 and 3, …").
//!
//! Reconstruction uses only `query_sent` / `query_recv` stamps: every
//! `query_sent` at site *S* with hop *h* is an edge from *S*'s visit at
//! hop *h − 1* to the destination site's visit at hop *h*. Sites may
//! legitimately appear more than once at different hops (Figure 1's
//! node 4 is reached via node 2 at hop 2 and again via node 5 at hop
//! 3), so visits — not sites — are the tree vertices. Remaining events
//! (evaluations, log-table hits, terminations) annotate the visit they
//! were stamped at.

use std::collections::BTreeMap;

use crate::{QueryId, TraceEvent, TraceRecord};

/// One visit of the query to a site (a vertex of the shipping tree).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Visit {
    /// The visited site host.
    pub site: String,
    /// Hop count the clone carried when it arrived (0 = sent by the
    /// user site directly).
    pub hop: u32,
    /// Time the clone left its parent (`query_sent` stamp).
    pub sent_us: u64,
    /// Time the clone was processed at the site (`query_recv` stamp),
    /// when observed.
    pub received_us: Option<u64>,
    /// Children, in send order.
    pub children: Vec<Visit>,
    /// Human-readable annotations from events stamped at this visit
    /// (evaluations, duplicates, terminations …), in time order.
    pub notes: Vec<String>,
}

impl Visit {
    fn new(site: String, hop: u32, sent_us: u64) -> Visit {
        Visit {
            site,
            hop,
            sent_us,
            received_us: None,
            children: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Depth-first (site, hop) pairs — the hop sequence of the tree.
    pub fn flatten(&self) -> Vec<(String, u32)> {
        let mut out = vec![(self.site.clone(), self.hop)];
        for child in &self.children {
            out.extend(child.flatten());
        }
        out
    }

    /// All parent→child site edges, depth-first.
    pub fn edges(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for child in &self.children {
            out.push((self.site.clone(), child.site.clone()));
            out.extend(child.edges());
        }
        out
    }

    /// Child-index path to the latest matching visit: post-order,
    /// preferring the most recently added subtree, so "latest matching
    /// visit" wins when a site re-appears.
    fn find_path(&self, site: &str, hop: u32) -> Option<Vec<usize>> {
        self.find_path_where(site, hop, &|_| true)
    }

    /// [`Visit::find_path`] restricted to visits satisfying `pred`.
    fn find_path_where(
        &self,
        site: &str,
        hop: u32,
        pred: &dyn Fn(&Visit) -> bool,
    ) -> Option<Vec<usize>> {
        for (idx, child) in self.children.iter().enumerate().rev() {
            if let Some(mut path) = child.find_path_where(site, hop, pred) {
                path.insert(0, idx);
                return Some(path);
            }
        }
        if self.site == site && self.hop == hop && pred(self) {
            return Some(Vec::new());
        }
        None
    }

    fn at_path(&mut self, path: &[usize]) -> &mut Visit {
        let mut cur = self;
        for &idx in path {
            cur = &mut cur.children[idx];
        }
        cur
    }

    fn find_latest(&mut self, site: &str, hop: u32) -> Option<&mut Visit> {
        let path = self.find_path(site, hop)?;
        Some(self.at_path(&path))
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let indent = "  ".repeat(depth);
        let recv = match self.received_us {
            Some(t) => format!("recv@{t}us"),
            None => "in flight".to_string(),
        };
        out.push_str(&format!(
            "{indent}{} (hop {}, sent@{}us, {recv})\n",
            self.site, self.hop, self.sent_us
        ));
        for note in &self.notes {
            out.push_str(&format!("{indent}  - {note}\n"));
        }
        for child in &self.children {
            child.render_into(out, depth + 1);
        }
    }
}

/// A reconstructed per-query shipping tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trajectory {
    /// The query whose trajectory this is.
    pub id: QueryId,
    /// The user site's pseudo-visit: its children are the start-node
    /// clones the user site dispatched.
    pub root: Visit,
    /// `query_sent` events whose parent visit could not be located
    /// (incomplete traces, ring-buffer truncation).
    pub orphans: Vec<TraceRecord>,
}

impl Trajectory {
    /// Renders the tree as indented text.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "query {}#{} from {}:{}\n",
            self.id.user, self.id.query_num, self.id.host, self.id.port
        ));
        self.root.render_into(&mut out, 0);
        if !self.orphans.is_empty() {
            out.push_str(&format!(
                "({} orphan send(s) — trace incomplete)\n",
                self.orphans.len()
            ));
        }
        out
    }
}

fn note_for(event: &TraceEvent) -> Option<String> {
    match event {
        TraceEvent::EvalFinish {
            node,
            stage,
            rows,
            answered,
            span_us,
        } => Some(format!(
            "eval {node} stage {stage}: {rows} row(s){} in {span_us}us",
            if *answered { ", answered" } else { "" }
        )),
        event @ TraceEvent::StageSpans { .. } => {
            let spans = event.stage_spans().expect("matched StageSpans");
            let total: u64 = spans.iter().map(|(_, us)| us).sum();
            let parts: Vec<String> = spans
                .iter()
                .map(|(stage, us)| format!("{stage} {us}us"))
                .collect();
            Some(format!("stages ({total}us): {}", parts.join(", ")))
        }
        TraceEvent::StageTransition {
            node,
            from_stage,
            to_stage,
        } => Some(format!(
            "stage transition {node}: {from_stage} -> {to_stage}"
        )),
        TraceEvent::LogDuplicate { node, exact } => Some(format!(
            "log duplicate {node} ({})",
            if *exact { "exact" } else { "subsumed" }
        )),
        TraceEvent::LogRewrite { node } => Some(format!("subsumption rewrite {node}")),
        TraceEvent::EntryExpired { node } => Some(format!("entry expired {node}")),
        TraceEvent::Termination { reason } => Some(format!("terminated: {}", reason.name())),
        _ => None,
    }
}

/// Reconstructs the shipping tree of `id` from `records` (other
/// queries' records are ignored). Records are processed in time order;
/// the first `query_sent` establishes the user-site root.
///
/// On the TCP transport, a record's wall-clock stamp does not totally
/// order causality: a daemon can process a clone and stamp its own
/// downstream sends *before* the original sender's `query_sent` record
/// reaches the collector (the sender stamps after the socket write
/// returns). Reconstruction therefore iterates to a fixpoint: any
/// record whose target visit does not exist yet is retried on the next
/// pass, and only records that never find a home end up as orphans.
pub fn reconstruct(records: &[TraceRecord], id: &QueryId) -> Trajectory {
    let own = records
        .iter()
        .filter(|r| r.query.as_ref() == Some(id))
        .collect();
    reconstruct_own(own, id)
}

/// [`reconstruct`] over records already known to be `id`'s own — what a
/// caller that walks every query of a trace holds after one
/// [`by_query`] pass, so the stream is not filtered again per query.
pub(crate) fn reconstruct_own(mut pending: Vec<&TraceRecord>, id: &QueryId) -> Trajectory {
    pending.sort_by_key(|r| r.time_us);

    // The user site is where hop-0 sends originate; fall back to the
    // query id's host.
    let root_site = pending
        .iter()
        .find(|r| matches!(r.event, TraceEvent::QuerySent { .. }) && r.hop == Some(0))
        .map(|r| r.site.clone())
        .unwrap_or_else(|| id.host.to_string());
    let mut root = Visit::new(root_site, 0, 0);
    root.received_us = Some(0);

    loop {
        let mut progressed = false;
        let mut retry: Vec<&TraceRecord> = Vec::new();
        for record in pending {
            match (&record.event, record.hop) {
                (TraceEvent::QuerySent { to_site, .. }, Some(hop)) => {
                    // Edge parent: the sender's visit at hop-1; the user
                    // site's sends (hop 0) hang off the root directly.
                    let parent = if hop == 0 {
                        Some(&mut root)
                    } else {
                        root.find_latest(&record.site, hop - 1)
                    };
                    match parent {
                        Some(parent) => {
                            parent
                                .children
                                .push(Visit::new(to_site.clone(), hop, record.time_us));
                            progressed = true;
                        }
                        None => retry.push(record),
                    }
                }
                (TraceEvent::QueryRecv { .. }, Some(hop)) => {
                    // A site can legitimately be visited more than once
                    // at the same hop (two parents forwarding to it);
                    // each recv record must mark a *distinct* visit, so
                    // prefer the latest still-unreceived match and fall
                    // back to any match only for duplicate recvs.
                    let path = root
                        .find_path_where(&record.site, hop, &|v| v.received_us.is_none())
                        .or_else(|| root.find_path(&record.site, hop));
                    match path {
                        Some(path) => {
                            let visit = root.at_path(&path);
                            if visit.received_us.is_none() {
                                visit.received_us = Some(record.time_us);
                            }
                            progressed = true;
                        }
                        None => retry.push(record),
                    }
                }
                (event, hop) => {
                    if let Some(note) = note_for(event) {
                        // Attach to the stamped visit when the hop is
                        // known; user-side events (no hop) go to the
                        // root immediately, hop-stamped events wait for
                        // their visit and fall back to the root only
                        // once the fixpoint is reached.
                        match hop {
                            None => {
                                root.notes.push(note);
                                progressed = true;
                            }
                            Some(h) => match root.find_path(&record.site, h) {
                                Some(path) => {
                                    root.at_path(&path).notes.push(note);
                                    progressed = true;
                                }
                                None => retry.push(record),
                            },
                        }
                    }
                }
            }
        }
        pending = retry;
        if pending.is_empty() || !progressed {
            break;
        }
    }

    // Whatever never found a home: sends become orphans, leftover notes
    // attach to the root so no information is silently dropped.
    let mut orphans = Vec::new();
    for record in pending {
        match &record.event {
            TraceEvent::QuerySent { .. } => orphans.push(record.clone()),
            TraceEvent::QueryRecv { .. } => {}
            event => {
                if let Some(note) = note_for(event) {
                    root.notes.push(note);
                }
            }
        }
    }

    Trajectory {
        id: id.clone(),
        root,
        orphans,
    }
}

/// Query ids present in a record stream, in first-seen order.
pub fn query_ids(records: &[TraceRecord]) -> Vec<QueryId> {
    by_query(records).into_iter().map(|(id, _)| id).collect()
}

/// The record stream split by query in one pass: each query id, in
/// first-seen order, with its own records in stream order. Records that
/// carry no query identity belong to no group.
pub fn by_query(records: &[TraceRecord]) -> Vec<(QueryId, Vec<&TraceRecord>)> {
    let mut slot: BTreeMap<&QueryId, usize> = BTreeMap::new();
    let mut groups: Vec<(QueryId, Vec<&TraceRecord>)> = Vec::new();
    for record in records {
        if let Some(id) = &record.query {
            let at = *slot.entry(id).or_insert_with(|| {
                groups.push((id.clone(), Vec::new()));
                groups.len() - 1
            });
            groups[at].1.push(record);
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qid() -> QueryId {
        QueryId {
            user: "alice".into(),
            host: "user.test".into(),
            port: 9900,
            query_num: 1,
        }
    }

    fn sent(t: u64, site: &str, to: &str, hop: u32) -> TraceRecord {
        TraceRecord {
            time_us: t,
            site: site.into(),
            query: Some(qid()),
            hop: Some(hop),
            event: TraceEvent::QuerySent {
                to_site: to.into(),
                nodes: 1,
            },
        }
    }

    fn recv(t: u64, site: &str, hop: u32) -> TraceRecord {
        TraceRecord {
            time_us: t,
            site: site.into(),
            query: Some(qid()),
            hop: Some(hop),
            event: TraceEvent::QueryRecv { nodes: 1 },
        }
    }

    /// The Figure-1 walk: user→1; 1→2,3; 2→4; 3→5,7; 4→6,8; 5→4.
    fn figure1_records() -> Vec<TraceRecord> {
        vec![
            sent(0, "user.test", "n1.test", 0),
            recv(10, "n1.test", 0),
            sent(11, "n1.test", "n2.test", 1),
            sent(12, "n1.test", "n3.test", 1),
            recv(20, "n2.test", 1),
            sent(21, "n2.test", "n4.test", 2),
            recv(25, "n3.test", 1),
            sent(26, "n3.test", "n5.test", 2),
            sent(27, "n3.test", "n7.test", 2),
            recv(30, "n4.test", 2),
            sent(31, "n4.test", "n6.test", 3),
            sent(32, "n4.test", "n8.test", 3),
            recv(33, "n5.test", 2),
            sent(34, "n5.test", "n4.test", 3),
            recv(40, "n6.test", 3),
            recv(41, "n8.test", 3),
            recv(42, "n4.test", 3),
            recv(43, "n7.test", 2),
        ]
    }

    #[test]
    fn figure1_tree_shape() {
        let trajectory = reconstruct(&figure1_records(), &qid());
        assert!(trajectory.orphans.is_empty());
        let edges = trajectory.root.edges();
        let expect = vec![
            ("user.test", "n1.test"),
            ("n1.test", "n2.test"),
            ("n2.test", "n4.test"),
            ("n4.test", "n6.test"),
            ("n4.test", "n8.test"),
            ("n1.test", "n3.test"),
            ("n3.test", "n5.test"),
            ("n5.test", "n4.test"),
            ("n3.test", "n7.test"),
        ];
        let expect: Vec<(String, String)> = expect
            .into_iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect();
        assert_eq!(edges, expect);
    }

    /// On TCP, wall-clock stamps don't totally order causality: a
    /// daemon can stamp its recv and downstream sends before the
    /// sender's `query_sent` record (stamped after the socket write
    /// returns) is even recorded. Inverting every timestamp is the
    /// worst case of that race — the fixpoint must still recover the
    /// exact Figure-1 tree with no orphans.
    #[test]
    fn reversed_timestamps_still_reconstruct_figure1() {
        let mut records = figure1_records();
        for r in &mut records {
            r.time_us = 100 - r.time_us;
        }
        let trajectory = reconstruct(&records, &qid());
        assert!(trajectory.orphans.is_empty(), "no orphans: {trajectory:?}");
        let edges: std::collections::BTreeSet<(String, String)> =
            trajectory.root.edges().into_iter().collect();
        let expect: std::collections::BTreeSet<(String, String)> =
            reconstruct(&figure1_records(), &qid())
                .root
                .edges()
                .into_iter()
                .collect();
        assert_eq!(edges, expect);
        // Both n4 visits survive (tree order may differ — child
        // insertion follows processing order, not causal order).
        let mut n4_hops: Vec<u32> = trajectory
            .root
            .flatten()
            .into_iter()
            .filter(|(site, _)| site == "n4.test")
            .map(|(_, hop)| hop)
            .collect();
        n4_hops.sort_unstable();
        assert_eq!(n4_hops, vec![2, 3]);
    }

    #[test]
    fn duplicate_site_visits_stay_distinct() {
        let trajectory = reconstruct(&figure1_records(), &qid());
        let n4_visits: Vec<u32> = trajectory
            .root
            .flatten()
            .into_iter()
            .filter(|(site, _)| site == "n4.test")
            .map(|(_, hop)| hop)
            .collect();
        assert_eq!(
            n4_visits,
            vec![2, 3],
            "node 4 is visited at hop 2 and again at hop 3"
        );
    }

    #[test]
    fn notes_attach_to_the_right_visit() {
        let mut records = figure1_records();
        records.push(TraceRecord {
            time_us: 50,
            site: "n7.test".into(),
            query: Some(qid()),
            hop: Some(2),
            event: TraceEvent::EvalFinish {
                node: "http://n7.test/".into(),
                stage: 0,
                rows: 0,
                answered: false,
                span_us: 7,
            },
        });
        let trajectory = reconstruct(&records, &qid());
        let text = trajectory.render_text();
        let n7_line = text
            .lines()
            .position(|l| l.contains("n7.test (hop 2"))
            .unwrap();
        assert!(
            text.lines().nth(n7_line + 1).unwrap().contains("0 row(s)"),
            "eval note sits under n7's visit:\n{text}"
        );
    }

    /// Satellite coverage: stage-span breakdowns land on the correct
    /// visit even when the event stream arrives fully out of order
    /// (records shuffled and timestamps inverted, the TCP worst case).
    #[test]
    fn stage_breakdowns_survive_out_of_order_streams() {
        let spans_at = |t: u64, site: &str, hop: u32, eval_us: u64| TraceRecord {
            time_us: t,
            site: site.into(),
            query: Some(qid()),
            hop: Some(hop),
            event: TraceEvent::StageSpans {
                queue_us: 0,
                parse_us: 10,
                log_us: 1,
                cache_us: 0,
                eval_us,
                eval_probe_us: 0,
                eval_scan_us: eval_us,
                build_us: 2,
                forward_us: 3,
            },
        };
        let mut records = figure1_records();
        // n4 is visited twice (hop 2 via n2, hop 3 via n5) — each visit
        // gets its own breakdown.
        records.push(spans_at(31, "n4.test", 2, 400));
        records.push(spans_at(45, "n4.test", 3, 800));
        records.push(spans_at(28, "n3.test", 1, 150));
        for r in &mut records {
            r.time_us = 100 - r.time_us;
        }
        records.reverse();
        records.swap(0, 7);
        records.swap(3, 11);

        let trajectory = reconstruct(&records, &qid());
        assert!(trajectory.orphans.is_empty(), "{trajectory:?}");
        let text = trajectory.render_text();
        let note_under = |needle: &str, text: &str| {
            let lines: Vec<&str> = text.lines().collect();
            let at = lines.iter().position(|l| l.contains(needle)).unwrap();
            let indent = lines[at].len() - lines[at].trim_start().len();
            lines[at + 1..]
                .iter()
                .take_while(|l| l.len() - l.trim_start().len() > indent)
                .filter(|l| l.contains("stages ("))
                .map(|l| l.trim().to_string())
                .next()
        };
        assert_eq!(
            note_under("n3.test (hop 1", &text),
            Some(
                "- stages (166us): queue_wait 0us, parse 10us, log 1us, cache_lookup 0us, \
                 eval 150us, build 2us, forward 3us"
                    .into()
            ),
            "{text}"
        );
        // Both n4 breakdowns survive, each under a distinct visit.
        let n4_evals: Vec<&str> = text
            .lines()
            .filter(|l| {
                l.contains("stages (") && (l.contains("eval 400us") || l.contains("eval 800us"))
            })
            .collect();
        assert_eq!(n4_evals.len(), 2, "{text}");
    }

    /// Two parents each forward to the same site at the same hop (the
    /// t13 workload does this constantly): both visits exist, and each
    /// recv record must mark a distinct one — the second recv must not
    /// pile onto the visit the first already marked, leaving its twin
    /// falsely in flight.
    #[test]
    fn parallel_visits_to_same_site_and_hop_each_get_their_recv() {
        let records = vec![
            sent(0, "user.test", "n1.test", 0),
            recv(5, "n1.test", 0),
            sent(6, "n1.test", "n2.test", 1),
            sent(7, "n1.test", "n3.test", 1),
            recv(10, "n2.test", 1),
            recv(11, "n3.test", 1),
            // Both fan back into n4 at hop 2.
            sent(12, "n2.test", "n4.test", 2),
            sent(13, "n3.test", "n4.test", 2),
            recv(20, "n4.test", 2),
            recv(21, "n4.test", 2),
        ];
        let trajectory = reconstruct(&records, &qid());
        assert!(trajectory.orphans.is_empty());
        let mut in_flight = Vec::new();
        fn walk(v: &Visit, out: &mut Vec<(String, u32)>) {
            if v.received_us.is_none() {
                out.push((v.site.clone(), v.hop));
            }
            v.children.iter().for_each(|c| walk(c, out));
        }
        trajectory
            .root
            .children
            .iter()
            .for_each(|c| walk(c, &mut in_flight));
        assert!(
            in_flight.is_empty(),
            "both n4 visits must be marked received: {in_flight:?}"
        );
    }

    #[test]
    fn missing_parent_becomes_orphan() {
        let records = vec![sent(5, "nowhere.test", "n9.test", 4)];
        let trajectory = reconstruct(&records, &qid());
        assert_eq!(trajectory.orphans.len(), 1);
        assert!(trajectory.render_text().contains("orphan"));
    }

    #[test]
    fn query_ids_deduplicates_in_order() {
        let mut records = figure1_records();
        let mut other = sent(99, "user.test", "n1.test", 0);
        other.query = Some(QueryId {
            query_num: 2,
            ..qid()
        });
        records.push(other);
        let ids = query_ids(&records);
        assert_eq!(ids.len(), 2);
        assert_eq!(ids[0].query_num, 1);
        assert_eq!(ids[1].query_num, 2);
    }
}
